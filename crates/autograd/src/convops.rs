//! Convolution and pooling ops (im2col lowering shared with quadratic convs).

use crate::graph::{Graph, Var};
use crate::kernels::{self, eval};
use crate::PAR_MIN_ELEMS;
use qn_tensor::{
    avg_pool2d_backward, col2im, elemwise, gemm, max_pool2d_backward, Conv2dSpec, MatMut, MatRef,
    PoolSpec, Tensor,
};

impl Graph {
    /// Lowers `[B, C, H, W]` to patch rows `[B·OH·OW, C·K·K]` (differentiable
    /// im2col). Quadratic convolutions are built on this: the patch row *is*
    /// the neuron input `x`.
    ///
    /// # Panics
    ///
    /// Panics if the input is not 4-D or smaller than the kernel.
    pub fn im2col(&mut self, x: Var, spec: Conv2dSpec) -> Var {
        let dims = self.value(x).dims4();
        let value = eval(|o| kernels::im2col(o, self.value(x), spec));
        self.push_ephemeral(
            value,
            vec![x.id],
            Some(Box::new(move |g: Tensor| vec![col2im(&g, spec, dims)])),
        )
    }

    /// 2-D convolution of `[B, C, H, W]` with filters `[OC, C, K, K]`,
    /// producing `[B, OC, OH, OW]` as one node. The forward writes NCHW
    /// directly; the backward pass is the im2col → `matmul_transb` →
    /// reshape → permute chain rule: un-permute the gradient to patch-major
    /// rows, then `dcols = g·W`, `dW = gᵀ·cols`, and `col2im(dcols)`.
    ///
    /// # Panics
    ///
    /// Panics on geometry mismatch.
    pub fn conv2d(&mut self, x: Var, weight: Var, spec: Conv2dSpec) -> Var {
        let dims = self.value(x).dims4();
        let wdims = self.value(weight).shape().dims().to_vec();
        let mut value = kernels::fresh();
        let cols = kernels::conv2d(&mut value, self.value(x), self.value(weight), spec, |n| {
            vec![0.0f32; n]
        });
        let (b, c, h, w) = dims;
        let (oh, ow) = spec.output_hw(h, w);
        let (rows, oc, n) = (b * oh * ow, wdims[0], spec.patch_len(c));
        let cols = Tensor::from_vec(cols, &[rows, n]).expect("patch matrix shape consistent");
        let wmat = self
            .value(weight)
            .reshape(&[oc, n])
            .expect("weight rows consistent");
        self.push_ephemeral(
            value,
            vec![x.id, weight.id],
            Some(Box::new(move |g: Tensor| {
                let g = g
                    .permute(&[0, 2, 3, 1])
                    .into_reshaped(&[rows, oc])
                    .expect("gradient shape consistent");
                let dcols = g.matmul(&wmat);
                let dw = g.matmul_transa(&cols);
                vec![
                    col2im(&dcols, spec, dims),
                    dw.into_reshaped(&wdims).expect("weight shape consistent"),
                ]
            })),
        )
    }

    /// The efficient quadratic neuron as a convolution (see
    /// [`Exec::quadratic_conv`](crate::Exec::quadratic_conv)), recorded as
    /// one node with parents `[x, q, λ, w, b]`. It saves the patch matrix,
    /// the stacked `[w_j; Q_j]` weight the forward GEMM ran on and the
    /// feature rows `f` (`[B·OH·OW, m·k]`), all drawn from the attached
    /// pool and handed back by the backward pass; of the operands only λ's
    /// `m·k` values are copied.
    ///
    /// The backward closure repeats the decomposition's chain rule with the
    /// same expressions in the same order, so gradients equal it bit for
    /// bit under `exact`:
    ///
    /// - one per-image parallel pass writes the grouped gradient rows
    ///   `[g_y | gf]` (`[B·OH·OW, m + m·k]`): `g_y` de-interleaved from the
    ///   output gradient, then `gf = g_f + ((g_y·λ)·f)·2`;
    /// - `db = Σ g_y` and `dλ = Σ g_y·(f·f)`, split over column bands, each
    ///   column summed rows ascending;
    /// - `[dw; dq] = [g_y | gf]ᵀ·cols` as one GEMM, so the patch matrix is
    ///   packed once (stacking output rows never changes their `k`-order);
    /// - `dcols = g_y·w + gf·q` as two GEMMs over strided views of the
    ///   grouped rows, then one add (a single GEMM over the stack would
    ///   reassociate it), then `col2im`.
    ///
    /// # Panics
    ///
    /// Panics on the shape mismatches of the forward kernel.
    pub fn quadratic_conv(
        &mut self,
        x: Var,
        q: Var,
        lambda: Var,
        w: Var,
        b: Var,
        spec: Conv2dSpec,
    ) -> Var {
        let dims = self.value(x).dims4();
        let (m, k) = self.value(lambda).dims2();
        let lam = self.value(lambda).data().to_vec();
        let bdims = self.value(b).shape().dims().to_vec();
        let scratch = self.scratch();
        let mut value = kernels::fresh();
        let (cols, stack) = kernels::quadratic_conv(
            &mut value,
            self.value(x),
            self.value(q),
            self.value(lambda),
            self.value(w),
            self.value(b),
            spec,
            |len| scratch.take(len),
        );
        let (bn, c, h, wd) = dims;
        let (oh, ow) = spec.output_hw(h, wd);
        let (hw, n, mk, ch) = (oh * ow, spec.patch_len(c), m * k, m * (k + 1));
        let rows = bn * hw;
        // channel of feature t = j·k + i in the interleaved output
        let fchan = move |t: usize| t / k * (k + 1) + 1 + t % k;
        let mut f = scratch.take(rows * mk);
        let od = value.data();
        qn_parallel::par_chunks_mut_min(&mut f, (hw * mk).max(1), PAR_MIN_ELEMS, |bi, frows| {
            for t in 0..mk {
                let plane = &od[(bi * ch + fchan(t)) * hw..][..hw];
                for (p, &v) in plane.iter().enumerate() {
                    frows[p * mk + t] = v;
                }
            }
        });
        self.push_ephemeral(
            value,
            vec![x.id, q.id, lambda.id, w.id, b.id],
            Some(Box::new(move |g: Tensor| {
                let gd = g.data();
                // grouped gradient rows [g_y | gf] ([rows, m + m·k]): g_y
                // de-interleaved from the NCHW gradient, then gf = g_f +
                // ((g_y·λ)·f)·2, interleave's share plus the weighted square
                // sum's
                let gw = m + mk;
                let mut gr = scratch.take(rows * gw);
                qn_parallel::par_chunks_mut_min(
                    &mut gr,
                    (hw * gw).max(1),
                    PAR_MIN_ELEMS,
                    |bi, grows| {
                        for j in 0..m {
                            let plane = &gd[(bi * ch + j * (k + 1)) * hw..][..hw];
                            for (p, &v) in plane.iter().enumerate() {
                                grows[p * gw + j] = v;
                            }
                        }
                        for t in 0..mk {
                            let plane = &gd[(bi * ch + fchan(t)) * hw..][..hw];
                            for (p, &gv) in plane.iter().enumerate() {
                                let gy = grows[p * gw + t / k];
                                grows[p * gw + m + t] =
                                    gv + gy * lam[t] * f[(bi * hw + p) * mk + t] * 2.0;
                            }
                        }
                    },
                );
                // [db | dλ]: db = Σ g_y and dλ = Σ g_y·(f·f), split over
                // column bands, each column summed rows ascending
                let mut red = vec![0.0f32; gw];
                let band = if rows * gw >= PAR_MIN_ELEMS {
                    gw.div_ceil(qn_parallel::num_threads())
                } else {
                    gw
                };
                qn_parallel::par_chunks_mut(&mut red, band, |bi, sums| {
                    let c0 = bi * band;
                    for (grow, frow) in gr.chunks(gw).zip(f.chunks(mk)) {
                        for (c, o) in (c0..).zip(sums.iter_mut()) {
                            *o += if c < m {
                                grow[c]
                            } else {
                                let (t, v) = (c - m, frow[c - m]);
                                grow[t / k] * (v * v)
                            };
                        }
                    }
                });
                let dlam = red.split_off(m);
                let db = red;
                // [dw; dq] = [g_y | gf]ᵀ · cols in one GEMM
                let mut dwq = vec![0.0f32; gw * n];
                gemm(
                    MatMut::new(&mut dwq, gw, n),
                    MatRef::new(&gr, rows, gw).transpose(),
                    MatRef::new(&cols, rows, n),
                );
                let dq = dwq.split_off(m * n);
                let dw = dwq;
                // dcols = g_y·w + gf·q; g_y and gf are strided views of the
                // grouped rows, w a strided view of the stack, q is
                // de-interleaved out of it
                let mut dcols = scratch.take(rows * n);
                gemm(
                    MatMut::new(&mut dcols, rows, n),
                    MatRef::with_strides(&gr, rows, m, gw, 1),
                    MatRef::with_strides(&stack, m, n, (k + 1) * n, 1),
                );
                let mut qrows = scratch.take(mk * n);
                for (dst, src) in qrows.chunks_mut(k * n).zip(stack.chunks((k + 1) * n)) {
                    dst.copy_from_slice(&src[n..]);
                }
                let mut gfq = scratch.take(rows * n);
                gemm(
                    MatMut::new(&mut gfq, rows, n),
                    MatRef::with_strides(&gr[m..], rows, mk, gw, 1),
                    MatRef::new(&qrows, mk, n),
                );
                elemwise::zip_assign(&mut dcols, &gfq, |a, b| a + b);
                let dcols = Tensor::from_vec(dcols, &[rows, n]).expect("patch shape consistent");
                let dx = col2im(&dcols, spec, dims);
                for buf in [cols, stack, f, gr, qrows, gfq, dcols.into_vec()] {
                    scratch.give(buf);
                }
                let grad = |data: Vec<f32>, dims: &[usize]| {
                    Tensor::from_vec(data, dims).expect("gradient shape consistent")
                };
                vec![
                    dx,
                    grad(dq, &[mk, n]),
                    grad(dlam, &[m, k]),
                    grad(dw, &[m, n]),
                    grad(db, &bdims),
                ]
            })),
        )
    }

    /// Max pooling with a square window.
    ///
    /// # Panics
    ///
    /// Panics if the input is not 4-D or smaller than the window.
    pub fn max_pool2d(&mut self, x: Var, spec: PoolSpec) -> Var {
        let dims = self.value(x).dims4();
        let mut argmax = Vec::new();
        let value = eval(|o| kernels::max_pool(o, self.value(x), spec, Some(&mut argmax)));
        self.push_ephemeral(
            value,
            vec![x.id],
            Some(Box::new(move |g: Tensor| {
                vec![max_pool2d_backward(&g, &argmax, dims)]
            })),
        )
    }

    /// Average pooling with a square window.
    ///
    /// # Panics
    ///
    /// Panics if the input is not 4-D or smaller than the window.
    pub fn avg_pool2d(&mut self, x: Var, spec: PoolSpec) -> Var {
        let dims = self.value(x).dims4();
        let value = eval(|o| kernels::avg_pool(o, self.value(x), spec));
        self.push_ephemeral(
            value,
            vec![x.id],
            Some(Box::new(move |g: Tensor| {
                vec![avg_pool2d_backward(&g, spec, dims)]
            })),
        )
    }

    /// Global average pooling: `[B, C, H, W] -> [B, C]`, one node whose
    /// backward spreads the gradient like the full-window average pool.
    ///
    /// # Panics
    ///
    /// Panics if the input is not 4-D or not square.
    pub fn global_avg_pool(&mut self, x: Var) -> Var {
        let dims = self.value(x).dims4();
        let value = eval(|o| kernels::global_avg_pool(o, self.value(x)));
        let (b, c, h, _) = dims;
        self.push_ephemeral(
            value,
            vec![x.id],
            Some(Box::new(move |g: Tensor| {
                let g = g
                    .into_reshaped(&[b, c, 1, 1])
                    .expect("pooled shape consistent");
                vec![avg_pool2d_backward(&g, PoolSpec::new(h, 1), dims)]
            })),
        )
    }

    /// Reorders patch-major rows `[B·OH·OW, C]` into a `[B, C, OH, OW]` map
    /// (see [`Exec::rows_to_nchw`](crate::Exec::rows_to_nchw)) as one node;
    /// the backward pass applies the inverse reorder.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not hold `B·OH·OW·C` values.
    pub fn rows_to_nchw(&mut self, v: Var, b: usize, oh: usize, ow: usize, c: usize) -> Var {
        let vdims = self.value(v).shape().dims().to_vec();
        let value = eval(|o| kernels::rows_to_nchw(o, self.value(v), b, oh, ow, c));
        self.push_ephemeral(
            value,
            vec![v.id],
            Some(Box::new(move |g: Tensor| {
                vec![g
                    .permute(&[0, 2, 3, 1])
                    .into_reshaped(&vdims)
                    .expect("row shape consistent")]
            })),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck;
    use qn_tensor::Rng;

    #[test]
    fn conv2d_gradcheck_input_and_weight() {
        let mut rng = Rng::seed_from(7);
        let spec = Conv2dSpec::new(3, 1, 1);
        let x = Tensor::randn(&[2, 2, 4, 4], &mut rng);
        let w = Tensor::randn(&[3, 2, 3, 3], &mut rng).scale(0.5);
        let wc = w.clone();
        assert!(gradcheck(
            move |g, v| {
                let wv = g.leaf(wc.clone());
                let y = g.conv2d(v, wv, spec);
                let sq = g.square(y);
                g.sum_all(sq)
            },
            &x,
            1e-2,
            3e-2
        ));
        let xc = x.clone();
        assert!(gradcheck(
            move |g, v| {
                let xv = g.leaf(xc.clone());
                let y = g.conv2d(xv, v, spec);
                let sq = g.square(y);
                g.sum_all(sq)
            },
            &w,
            1e-2,
            3e-2
        ));
    }

    #[test]
    fn strided_conv_shapes() {
        let mut rng = Rng::seed_from(8);
        let mut g = Graph::new();
        let x = g.leaf(Tensor::randn(&[1, 2, 8, 8], &mut rng));
        let w = g.leaf(Tensor::randn(&[4, 2, 3, 3], &mut rng));
        let y = g.conv2d(x, w, Conv2dSpec::new(3, 2, 1));
        assert_eq!(g.value(y).shape().dims(), &[1, 4, 4, 4]);
    }

    #[test]
    fn max_pool_gradcheck() {
        let rng = Rng::seed_from(9);
        // well-separated values so the argmax does not flip under perturbation
        let x = Tensor::from_fn(&[1, 2, 4, 4], |i| (i as f32 * 7.3) % 11.0);
        let _ = rng;
        assert!(gradcheck(
            |g, v| {
                let y = g.max_pool2d(v, PoolSpec::new(2, 2));
                let sq = g.square(y);
                g.sum_all(sq)
            },
            &x,
            1e-3,
            2e-2
        ));
    }

    #[test]
    fn avg_pool_gradcheck() {
        let mut rng = Rng::seed_from(10);
        let x = Tensor::randn(&[2, 2, 4, 4], &mut rng);
        assert!(gradcheck(
            |g, v| {
                let y = g.avg_pool2d(v, PoolSpec::new(2, 2));
                let sq = g.square(y);
                g.sum_all(sq)
            },
            &x,
            1e-2,
            2e-2
        ));
    }

    #[test]
    fn global_avg_pool_shape_and_value() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::ones(&[2, 3, 4, 4]));
        let y = g.global_avg_pool(x);
        assert_eq!(g.value(y).shape().dims(), &[2, 3]);
        assert!(g.value(y).allclose(&Tensor::ones(&[2, 3]), 1e-6));
    }

    #[test]
    fn im2col_gradcheck() {
        let mut rng = Rng::seed_from(11);
        let x = Tensor::randn(&[1, 2, 4, 4], &mut rng);
        assert!(gradcheck(
            |g, v| {
                let cols = g.im2col(v, Conv2dSpec::new(3, 1, 1));
                let sq = g.square(cols);
                g.sum_all(sq)
            },
            &x,
            1e-2,
            3e-2
        ));
    }
}
