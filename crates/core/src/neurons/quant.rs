//! Int8 twins of the quadratic-neuron layers.
//!
//! [`QuantizedQuadratic`] is the inference-only form of
//! [`EfficientQuadraticLinear`](super::EfficientQuadraticLinear): the two
//! big products `f = x(Qᵏ)ᵀ` and `xWᵀ` run through
//! [`qn_tensor::gemm_i8`] against per-output-channel int8 weights, sharing
//! **one** activation quantization of `x` — the quadratic neuron's extra
//! product costs no extra quantization pass. The cheap per-neuron tail
//! (`Σᵢ λᵢ fᵢ² + b`, and the vectorized interleave of §III-B) stays in
//! f32: `Λᵏ` is trained at tiny learning rates and its dynamic range is
//! what the paper's stability lemma bounds, so it is the one place 8-bit
//! rounding would bite.
//!
//! [`QuantizedPatchConv`] redeploys any quantized dense layer as a
//! convolution by im2col lowering, exactly like
//! [`PatchConv2d`](super::PatchConv2d) does for the f32 original.
//!
//! Like the `qn-nn` quantized layers, forwards compute off-tape through
//! [`Exec::detached`]: no gradients flow, and the eager path writes into
//! recycled arena slots.

use qn_autograd::{Exec, Var};
use qn_nn::quant::{out_dims, quantize_acts_into, ACT_STATS_NAME};
use qn_nn::{Costs, Module, ParamVisitor};
use qn_tensor::{gemm_i8, Conv2dSpec, MatMut, MatRefI8, QTensor, Tensor, GEMM_I8_MAX_K};
use std::sync::RwLock;

use crate::complexity::NeuronFamily;

/// Inference-only int8 form of the paper's efficient quadratic neuron
/// layer. Build via [`Module::quantized`] on
/// [`EfficientQuadraticLinear`](super::EfficientQuadraticLinear) or
/// directly with [`QuantizedQuadratic::from_factors`].
pub struct QuantizedQuadratic {
    /// `[m·k, n]` int8: stacked `(Qᵏ)ᵀ` rows, per-row scales.
    q: QTensor,
    /// `[m, n]` int8 linear weights, per-row scales.
    w: QTensor,
    /// `[m, k]` f32 eigenvalues (kept full precision, see module docs).
    lambda: Tensor,
    /// `[m]` f32 bias.
    b: Tensor,
    n: usize,
    m: usize,
    k: usize,
    vectorized: bool,
    act_stats: RwLock<Tensor>,
}

impl QuantizedQuadratic {
    /// Quantizes explicit factors: `q` is `[m·k, n]`, `lambda` `[m, k]`,
    /// `w` `[m, n]`, `b` `[m]` — the same layout as
    /// `EfficientQuadraticLinear::from_factors`.
    ///
    /// # Panics
    ///
    /// Panics on shape inconsistency, non-finite weights, or
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
        assert_eq!(mk, m * k, "q rows {mk} != m*k = {}", m * k);
        assert_eq!(w.dims2(), (m, n), "w shape mismatch");
        assert_eq!(b.numel(), m, "b length mismatch");
        assert!(n <= GEMM_I8_MAX_K, "input width {n} exceeds GEMM_I8_MAX_K");
        QuantizedQuadratic {
            q: QTensor::quantize(q),
            w: QTensor::quantize(w),
            lambda: lambda.clone(),
            b: b.clone(),
            n,
            m,
            k,
            vectorized,
            act_stats: RwLock::new(Tensor::zeros(&[2])),
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

    /// Total int8 + scale bytes of both weight matrices (the f32 original
    /// stores `(m·k + m)·n` floats).
    pub fn weight_bytes(&self) -> usize {
        self.q.weight_bytes() + self.w.weight_bytes()
    }

    /// `[lead, n] -> [lead, out]` forward on raw data into `out` (fully
    /// overwritten), off-tape. Activation codes and the two GEMM outputs
    /// live in per-thread scratch, so a steady-state call allocates nothing.
    fn apply(&self, xd: &[f32], lead: usize, out: &mut [f32]) {
        let (m, k, n) = (self.m, self.k, self.n);
        /// Activation codes, their row scales, `f` and `xWᵀ`.
        type Scratch = (Vec<i8>, Vec<f32>, Vec<f32>, Vec<f32>);
        thread_local! {
            static SCRATCH: std::cell::RefCell<Scratch> =
                const { std::cell::RefCell::new((Vec::new(), Vec::new(), Vec::new(), Vec::new())) };
        }
        SCRATCH.with(|scratch| {
            let (codes, sa, f, y1) = &mut *scratch.borrow_mut();
            quantize_acts_into(&self.act_stats, xd, lead, n, codes, sa);
            let a = MatRefI8::new(codes, lead, n);
            // one quantization of x feeds both products
            f.resize(lead * m * k, 0.0);
            gemm_i8(
                MatMut::new(f, lead, m * k),
                a,
                self.q.mat().transpose(),
                sa,
                self.q.scales(),
            );
            y1.resize(lead * m, 0.0);
            gemm_i8(
                MatMut::new(y1, lead, m),
                a,
                self.w.mat().transpose(),
                sa,
                self.w.scales(),
            );
            let width = self.out_features();
            let (lam, bias) = (self.lambda.data(), self.b.data());
            for bi in 0..lead {
                let frow = &f[bi * m * k..(bi + 1) * m * k];
                let orow = &mut out[bi * width..(bi + 1) * width];
                for j in 0..m {
                    let fj = &frow[j * k..(j + 1) * k];
                    let mut y = y1[bi * m + j] + bias[j];
                    for i in 0..k {
                        y += lam[j * k + i] * fj[i] * fj[i];
                    }
                    if self.vectorized {
                        orow[j * (k + 1)] = y;
                        orow[j * (k + 1) + 1..(j + 1) * (k + 1)].copy_from_slice(fj);
                    } else {
                        orow[j] = y;
                    }
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
        v.state(ACT_STATS_NAME, &self.act_stats);
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
        Some(Box::new(QuantizedQuadratic {
            q: self.q.clone(),
            w: self.w.clone(),
            lambda: self.lambda.clone(),
            b: self.b.clone(),
            n: self.n,
            m: self.m,
            k: self.k,
            vectorized: self.vectorized,
            act_stats: RwLock::new(
                self.act_stats
                    .read()
                    .expect("act_stats lock poisoned")
                    .clone(),
            ),
        }))
    }
}

/// Convolutional deployment of a quantized dense layer: the int8 sibling
/// of [`PatchConv2d`](super::PatchConv2d), produced by its
/// [`Module::quantized`] implementation.
pub struct QuantizedPatchConv {
    inner: Box<dyn Module>,
    spec: Conv2dSpec,
    in_channels: usize,
    out_channels: usize,
}

impl QuantizedPatchConv {
    /// Wraps a quantized dense layer whose input width equals
    /// `spec.patch_len(in_channels)`.
    pub fn new(inner: Box<dyn Module>, in_channels: usize, spec: Conv2dSpec) -> QuantizedPatchConv {
        let n = spec.patch_len(in_channels);
        let probe = inner.costs(&[1, n]);
        let out_channels = probe.output[1];
        QuantizedPatchConv {
            inner,
            spec,
            in_channels,
            out_channels,
        }
    }

    /// Produced channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }
}

impl Module for QuantizedPatchConv {
    fn forward(&self, g: &mut dyn Exec, x: Var) -> Var {
        let (b, c, h, w) = g.value(x).dims4();
        assert_eq!(
            c, self.in_channels,
            "expected {} channels, got {c}",
            self.in_channels
        );
        let (oh, ow) = self.spec.output_hw(h, w);
        let cols = g.im2col(x, self.spec);
        let y = self.inner.forward(g, cols);
        g.rows_to_nchw(y, b, oh, ow, self.out_channels)
    }

    fn visit_params(&self, v: &mut dyn ParamVisitor) {
        self.inner.visit_params(v);
    }

    fn costs(&self, input: &[usize]) -> Costs {
        assert_eq!(input.len(), 4, "QuantizedPatchConv expects a 4-D input");
        let (b, _c, h, w) = (input[0], input[1], input[2], input[3]);
        let (oh, ow) = self.spec.output_hw(h, w);
        let rows = b * oh * ow;
        let n = self.spec.patch_len(self.in_channels);
        let inner = self.inner.costs(&[rows, n]);
        Costs {
            macs: inner.macs,
            output: vec![b, self.out_channels, oh, ow],
        }
    }

    fn weight_dtype(&self) -> &'static str {
        self.inner.weight_dtype()
    }

    fn quantized(&self) -> Option<Box<dyn Module>> {
        Some(Box::new(QuantizedPatchConv {
            inner: self.inner.quantized()?,
            spec: self.spec,
            in_channels: self.in_channels,
            out_channels: self.out_channels,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::super::{EfficientQuadraticConv2d, EfficientQuadraticLinear};
    use super::*;
    use qn_autograd::EagerExec;
    use qn_tensor::Rng;

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
