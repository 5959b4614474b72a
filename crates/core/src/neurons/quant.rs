//! Int8 twin of the quadratic-neuron layer.
//!
//! [`QuantizedQuadratic`] is the inference-only form of
//! [`EfficientQuadraticLinear`](super::EfficientQuadraticLinear). Its
//! weights are the per-neuron interleaved stack `[w_j; Q_j]` (`m·(k+1)`
//! rows, the layout the f32 quadratic conv runs), quantized per row, so
//! one activation quantization of `x` and **one** [`qn_tensor::gemm_i8`]
//! produce both `xWᵀ` and `f = x(Qᵏ)ᵀ` — already in the vectorized output
//! layout `[xw_j | f_j…]` of §III-B. The cheap per-neuron tail
//! (`Σᵢ λᵢ fᵢ² + b`) stays in f32: `Λᵏ` is trained at tiny learning rates
//! and its dynamic range is what the paper's stability lemma bounds, so it
//! is the one place 8-bit rounding would bite.
//!
//! The convolutional form is `qn_nn`'s [`QuantizedConv2d`](qn_nn::QuantizedConv2d)
//! over this layer, produced by [`PatchConv2d`](super::PatchConv2d)'s
//! [`Module::quantized`].
//!
//! Like the `qn-nn` quantized layers, forwards compute off-tape through
//! [`Exec::detached`]: no gradients flow, and the eager path writes into
//! recycled arena slots.

use qn_autograd::{Exec, Var};
use qn_nn::quant::{out_dims, Int8Core};
use qn_nn::{Costs, Module, ParamVisitor};
use qn_tensor::{QTensor, Tensor, GEMM_I8_MAX_K};

use crate::complexity::NeuronFamily;

/// Inference-only int8 form of the paper's efficient quadratic neuron
/// layer. Build via [`Module::quantized`] on
/// [`EfficientQuadraticLinear`](super::EfficientQuadraticLinear) or
/// directly with [`QuantizedQuadratic::from_factors`].
#[derive(Clone)]
pub struct QuantizedQuadratic {
    /// `[m·(k+1), n]` int8 stack `[w_j; Q_j]` per neuron, per-row scales,
    /// no bias.
    core: Int8Core,
    /// `[m, k]` f32 eigenvalues (kept full precision, see module docs).
    lambda: Tensor,
    /// `[m]` f32 bias.
    b: Tensor,
    n: usize,
    m: usize,
    k: usize,
    vectorized: bool,
}

impl QuantizedQuadratic {
    /// Quantizes explicit factors: `q` is `[m·k, n]`, `lambda` `[m, k]`,
    /// `w` `[m, n]`, `b` `[m]` — the same layout as
    /// `EfficientQuadraticLinear::from_factors`.
    ///
    /// # Panics
    ///
    /// Panics on shape inconsistency, `m == 0`, non-finite weights, or
    /// `n > GEMM_I8_MAX_K`.
    pub fn from_factors(
        q: &Tensor,
        lambda: &Tensor,
        w: &Tensor,
        b: &Tensor,
        vectorized: bool,
    ) -> QuantizedQuadratic {
        let (mk, n) = q.dims2();
        let (m, k) = lambda.dims2();
        assert!(m > 0, "layer needs at least one neuron");
        assert_eq!(mk, m * k, "q rows {mk} != m*k = {}", m * k);
        assert_eq!(w.dims2(), (m, n), "w shape mismatch");
        assert_eq!(b.numel(), m, "b length mismatch");
        assert!(n <= GEMM_I8_MAX_K, "input width {n} exceeds GEMM_I8_MAX_K");
        // scales are per row, so quantizing the stack gives the same codes
        // and scales as quantizing `q` and `w` apart
        let (qd, wd) = (q.data(), w.data());
        let mut stack = Vec::with_capacity(m * (k + 1) * n);
        for j in 0..m {
            stack.extend_from_slice(&wd[j * n..(j + 1) * n]);
            stack.extend_from_slice(&qd[j * k * n..(j + 1) * k * n]);
        }
        QuantizedQuadratic {
            core: Int8Core::new(QTensor::quantize_rows(&stack, m * (k + 1), n), None),
            lambda: lambda.clone(),
            b: b.clone(),
            n,
            m,
            k,
            vectorized,
        }
    }

    /// Number of inputs `n`.
    pub fn in_features(&self) -> usize {
        self.n
    }

    /// Output width: `m·(k+1)` vectorized, `m` scalar-output.
    pub fn out_features(&self) -> usize {
        if self.vectorized {
            self.m * (self.k + 1)
        } else {
            self.m
        }
    }

    /// Total int8 + scale bytes of the stacked weights (the f32 original
    /// stores `(m·k + m)·n` floats).
    pub fn weight_bytes(&self) -> usize {
        self.core.weight().weight_bytes()
    }

    /// `[lead, n] -> [lead, out]` forward on raw data into `out` (fully
    /// overwritten), off-tape. The stacked GEMM writes `[xw_j | f_j…]` rows;
    /// each `y` slot is then rewritten as `(xw + b) + Σᵢ λᵢ·fᵢ·fᵢ`, `i`
    /// ascending. The scalar-output form runs the GEMM into per-thread
    /// scratch and keeps only the `y` slots, so a steady-state call
    /// allocates nothing.
    fn apply(&self, xd: &[f32], lead: usize, out: &mut [f32]) {
        let (m, k) = (self.m, self.k);
        let (lam, bias) = (self.lambda.data(), self.b.data());
        let epilogue = |row: &mut [f32]| {
            for (j, group) in row.chunks_exact_mut(k + 1).enumerate() {
                let (y, f) = group.split_first_mut().expect("k + 1 >= 1");
                let mut acc = *y + bias[j];
                for (&l, &fi) in lam[j * k..(j + 1) * k].iter().zip(f.iter()) {
                    acc += l * fi * fi;
                }
                *y = acc;
            }
        };
        if self.vectorized {
            self.core.apply(xd, lead, out);
            out.chunks_exact_mut(m * (k + 1)).for_each(epilogue);
            return;
        }
        thread_local! {
            static RAW: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
        }
        RAW.with(|raw| {
            let raw = &mut *raw.borrow_mut();
            raw.resize(lead * m * (k + 1), 0.0);
            self.core.apply(xd, lead, raw);
            for (row, orow) in raw
                .chunks_exact_mut(m * (k + 1))
                .zip(out.chunks_exact_mut(m))
            {
                epilogue(row);
                for (o, group) in orow.iter_mut().zip(row.chunks_exact(k + 1)) {
                    *o = group[0];
                }
            }
        });
    }
}

impl Module for QuantizedQuadratic {
    fn forward(&self, cx: &mut dyn Exec, x: Var) -> Var {
        let (out_dims, nd) = out_dims(cx.value(x), self.n, self.out_features());
        let lead = out_dims[..nd - 1].iter().product();
        cx.detached(x, &out_dims[..nd], &mut |xt, y| {
            self.apply(xt.data(), lead, y)
        })
    }

    fn visit_params(&self, v: &mut dyn ParamVisitor) {
        self.core.visit_state(v);
    }

    fn costs(&self, input: &[usize]) -> Costs {
        // leading dims flatten, as in forward
        let (_, lead) = input.split_last().expect("non-empty input shape");
        let rows = lead.iter().product::<usize>() as u64;
        let per_neuron = NeuronFamily::EfficientQuadratic
            .complexity(self.n as u64, self.k as u64)
            .macs;
        let mut output = input.to_vec();
        *output.last_mut().expect("non-empty") = self.out_features();
        Costs {
            macs: rows * self.m as u64 * per_neuron,
            output,
        }
    }

    fn weight_dtype(&self) -> &'static str {
        "int8"
    }

    fn quantized(&self) -> Option<Box<dyn Module>> {
        Some(Box::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::super::{EfficientQuadraticConv2d, EfficientQuadraticLinear};
    use super::*;
    use qn_autograd::EagerExec;
    use qn_tensor::{gemm_i8_reference, Conv2dSpec, MatRefI8, Rng};
    use std::sync::RwLock;

    fn drift(a: &Tensor, b: &Tensor) -> f32 {
        let mut worst = 0.0f32;
        for (x, y) in a.data().iter().zip(b.data()) {
            worst = worst.max((x - y).abs());
        }
        worst
    }

    fn eager_forward(m: &dyn Module, x: Tensor) -> Tensor {
        let mut ex = EagerExec::new();
        let v = ex.leaf(x);
        let y = m.forward(&mut ex, v);
        ex.value(y).clone()
    }

    #[test]
    fn quantized_quadratic_tracks_f32() {
        let mut rng = Rng::seed_from(1);
        let layer = EfficientQuadraticLinear::new(12, 3, 2, &mut rng);
        let q = layer.quantized().expect("quadratic layer quantizes");
        assert_eq!(q.weight_dtype(), "int8");
        let x = Tensor::randn(&[5, 12], &mut rng);
        let yf = eager_forward(&layer, x.clone());
        let yq = eager_forward(q.as_ref(), x);
        assert_eq!(yf.shape().dims(), yq.shape().dims());
        let d = drift(&yf, &yq);
        assert!(d < 0.25, "quantized quadratic drift too large: {d}");
    }

    /// The layer's frozen activation scale (`0.0` while dynamic).
    fn frozen_scale(m: &dyn Module) -> f32 {
        struct Frozen(f32);
        impl ParamVisitor for Frozen {
            fn param(&mut self, _name: &str, _p: &qn_autograd::Parameter) {}
            fn state(&mut self, _name: &str, t: &RwLock<Tensor>) {
                self.0 = t.read().unwrap().data()[1];
            }
        }
        let mut v = Frozen(0.0);
        m.visit_params(&mut v);
        v.0
    }

    /// The int8 quadratic layer spelled out: `q` and `w` quantized apart,
    /// one reference product each against the same activation codes, and
    /// the epilogue `y = xw + b`, then `y += λᵢ·fᵢ·fᵢ` for `i` ascending.
    fn reference(factors: [&Tensor; 4], x: &Tensor, frozen: f32, vectorized: bool) -> Vec<f32> {
        let [q, lambda, w, b] = factors;
        let ((rows, n), (m, k)) = (x.dims2(), lambda.dims2());
        let (codes, sa) = if frozen > 0.0 {
            let mut codes = vec![0i8; rows * n];
            qn_simd::quantize_to_i8(&mut codes, x.data(), 1.0 / frozen);
            (codes, vec![frozen; rows])
        } else {
            let qx = QTensor::quantize(x);
            (qx.data().to_vec(), qx.scales().to_vec())
        };
        let a = MatRefI8::new(&codes, rows, n);
        let (qq, qw) = (QTensor::quantize(q), QTensor::quantize(w));
        let mut f = vec![0.0; rows * m * k];
        gemm_i8_reference(&mut f, a, qq.mat().transpose(), &sa, qq.scales());
        let mut xw = vec![0.0; rows * m];
        gemm_i8_reference(&mut xw, a, qw.mat().transpose(), &sa, qw.scales());
        let (lam, bias) = (lambda.data(), b.data());
        let mut out = Vec::new();
        for r in 0..rows {
            for j in 0..m {
                let fj = &f[(r * m + j) * k..(r * m + j + 1) * k];
                let mut y = xw[r * m + j] + bias[j];
                for i in 0..k {
                    y += lam[j * k + i] * fj[i] * fj[i];
                }
                out.push(y);
                if vectorized {
                    out.extend_from_slice(fj);
                }
            }
        }
        out
    }

    #[test]
    fn quantized_quadratic_is_bit_identical_to_the_two_product_spec() {
        let (n, m, k, rows) = (20, 3, 4, 7);
        for seed in 0..4 {
            let mut rng = Rng::seed_from(100 + seed);
            let q = Tensor::randn(&[m * k, n], &mut rng);
            let lambda = Tensor::randn(&[m, k], &mut rng);
            let w = Tensor::randn(&[m, n], &mut rng);
            let b = Tensor::randn(&[m], &mut rng);
            assert!(b.data().iter().all(|&v| v != 0.0));
            let mut x = Tensor::randn(&[rows, n], &mut rng);
            x.data_mut()[..n].fill(0.0); // a zero row takes scale 0
            for vectorized in [true, false] {
                for calibrated in [false, true] {
                    let layer = QuantizedQuadratic::from_factors(&q, &lambda, &w, &b, vectorized);
                    if calibrated {
                        // half-range calibration, so large inputs saturate
                        qn_nn::calibrate(&layer, [x.scale(0.5)]);
                    }
                    let frozen = frozen_scale(&layer);
                    assert_eq!(frozen > 0.0, calibrated);
                    let got = eager_forward(&layer, x.clone());
                    let want = reference([&q, &lambda, &w, &b], &x, frozen, vectorized);
                    assert_eq!(got.numel(), want.len());
                    for (i, (g, e)) in got.data().iter().zip(&want).enumerate() {
                        assert_eq!(
                            g.to_bits(),
                            e.to_bits(),
                            "seed {seed} vectorized {vectorized} calibrated {calibrated} \
                             element {i}: {g} vs {e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn scalar_output_form_also_quantizes() {
        let mut rng = Rng::seed_from(2);
        let layer = EfficientQuadraticLinear::new_scalar_output(8, 4, 3, &mut rng);
        let q = layer.quantized().expect("scalar-output form quantizes");
        let x = Tensor::randn(&[3, 8], &mut rng);
        let yq = eager_forward(q.as_ref(), x);
        assert_eq!(yq.shape().dims(), &[3, 4]);
    }

    #[test]
    fn quantized_patch_conv_matches_f32_geometry() {
        let mut rng = Rng::seed_from(3);
        let spec = Conv2dSpec::new(3, 1, 1);
        let conv = EfficientQuadraticConv2d::efficient(3, 4, 3, spec, &mut rng);
        let q = conv.quantized().expect("patch conv quantizes");
        assert_eq!(q.weight_dtype(), "int8");
        let x = Tensor::randn(&[2, 3, 6, 6], &mut rng);
        let yf = eager_forward(&conv, x.clone());
        let yq = eager_forward(q.as_ref(), x);
        assert_eq!(yf.shape().dims(), yq.shape().dims());
        let d = drift(&yf, &yq);
        assert!(d < 0.5, "quantized conv drift too large: {d}");
    }

    #[test]
    fn costs_and_widths_match_original() {
        let mut rng = Rng::seed_from(4);
        let layer = EfficientQuadraticLinear::new(10, 2, 3, &mut rng);
        let q = layer.quantized().unwrap();
        assert_eq!(layer.costs(&[7, 10]).macs, q.costs(&[7, 10]).macs);
        assert_eq!(layer.costs(&[7, 10]).output, q.costs(&[7, 10]).output);
    }

    #[test]
    fn costs_flatten_leading_dims() {
        let mut rng = Rng::seed_from(9);
        let layer = EfficientQuadraticLinear::new(6, 2, 3, &mut rng);
        let q = layer.quantized().unwrap();
        let c = q.costs(&[2, 5, 6]);
        assert_eq!(c.macs, layer.costs(&[10, 6]).macs);
        assert_eq!(c.output, vec![2, 5, 8]);
        let mut e = EagerExec::new();
        let x = e.leaf(Tensor::randn(&[2, 5, 6], &mut rng));
        let y = q.forward(&mut e, x);
        assert_eq!(e.value(y).shape().dims(), c.output.as_slice());
    }

    #[test]
    fn weight_bytes_beat_f32() {
        let mut rng = Rng::seed_from(5);
        let layer = EfficientQuadraticLinear::new(64, 8, 4, &mut rng);
        let q = QuantizedQuadratic::from_factors(
            &layer.params()[0].value(),
            &layer.params()[1].value(),
            &layer.params()[2].value(),
            &layer.params()[3].value(),
            true,
        );
        let f32_bytes = (8 * 4 * 64 + 8 * 64) * 4;
        assert!(
            (f32_bytes as f64) / (q.weight_bytes() as f64) > 3.5,
            "compression below target: {} vs {}",
            f32_bytes,
            q.weight_bytes()
        );
    }
}
