//! Elementwise, broadcast, shape-manipulation and reduction ops, plus the
//! efficient quadratic neuron's fused composites.

use crate::graph::{Graph, Var};
use crate::kernels::{self, channel_vec, eval, Stage};
use crate::PAR_MIN_ELEMS;
use qn_tensor::{elemwise, Tensor};

impl Graph {
    /// Elementwise sum of two same-shape nodes.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = eval(|o| kernels::binary(o, self.value(a), self.value(b), elemwise::add_to));
        self.push_ephemeral(
            value,
            vec![a.id, b.id],
            Some(Box::new(|g: Tensor| vec![g.clone(), g])),
        )
    }

    /// Elementwise difference `a - b`.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let value = eval(|o| kernels::binary(o, self.value(a), self.value(b), elemwise::sub_to));
        self.push_ephemeral(
            value,
            vec![a.id, b.id],
            Some(Box::new(|g: Tensor| {
                let db = g.neg();
                vec![g, db]
            })),
        )
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let av = self.value(a).clone();
        let bv = self.value(b).clone();
        let value = eval(|o| kernels::binary(o, &av, &bv, elemwise::mul_to));
        self.push_ephemeral(
            value,
            vec![a.id, b.id],
            Some(Box::new(move |g: Tensor| {
                let da = g.mul(&bv);
                let mut db = g;
                db.zip_inplace(&av, |gi, ai| gi * ai);
                vec![da, db]
            })),
        )
    }

    /// Multiplies every element by a constant.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let value = eval(|o| kernels::unary(o, self.value(a), |d, x| elemwise::scale_to(d, x, s)));
        self.push_ephemeral(
            value,
            vec![a.id],
            Some(Box::new(move |mut g: Tensor| {
                g.map_inplace(move |v| v * s);
                vec![g]
            })),
        )
    }

    /// Adds a constant to every element.
    pub fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        let value =
            eval(|o| kernels::unary(o, self.value(a), |d, x| elemwise::add_scalar_to(d, x, s)));
        self.push_ephemeral(value, vec![a.id], Some(Box::new(|g: Tensor| vec![g])))
    }

    /// Elementwise negation.
    pub fn neg(&mut self, a: Var) -> Var {
        self.scale(a, -1.0)
    }

    /// Elementwise square `x²` (the `(·)⊙²` operation of Fan et al.).
    pub fn square(&mut self, a: Var) -> Var {
        let av = self.value(a).clone();
        let value = eval(|o| kernels::unary(o, &av, elemwise::square_to));
        self.push_ephemeral(
            value,
            vec![a.id],
            Some(Box::new(move |mut g: Tensor| {
                g.zip_inplace(&av, |gi, x| gi * x * 2.0);
                vec![g]
            })),
        )
    }

    /// Elementwise integer power `xᵖ` (`p >= 1`) — the polynomial kernel of
    /// kervolutional neurons.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0` (use a constant instead).
    pub fn powi(&mut self, a: Var, p: i32) -> Var {
        assert!(p >= 1, "powi requires p >= 1, got {p}");
        let av = self.value(a).clone();
        let value = eval(|o| kernels::unary(o, &av, |d, x| elemwise::map_to(d, x, |v| v.powi(p))));
        self.push_ephemeral(
            value,
            vec![a.id],
            Some(Box::new(move |mut g: Tensor| {
                g.zip_inplace(&av, |gi, x| gi * p as f32 * x.powi(p - 1));
                vec![g]
            })),
        )
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let av = self.value(a).clone();
        let value = eval(|o| kernels::unary(o, &av, elemwise::relu_to));
        self.push_ephemeral(
            value,
            vec![a.id],
            Some(Box::new(move |mut g: Tensor| {
                // fused mask: the derivative rewrites the incoming gradient
                // in place instead of allocating a masked copy
                g.zip_inplace(&av, |gi, x| if x > 0.0 { gi } else { 0.0 });
                vec![g]
            })),
        )
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let value =
            eval(|o| kernels::unary(o, self.value(a), |d, x| elemwise::map_to(d, x, f32::tanh)));
        let out = value.clone();
        self.push_ephemeral(
            value,
            vec![a.id],
            Some(Box::new(move |mut g: Tensor| {
                g.zip_inplace(&out, |gi, y| gi * (1.0 - y * y));
                vec![g]
            })),
        )
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let value = eval(|o| kernels::unary(o, self.value(a), elemwise::sigmoid_to));
        let out = value.clone();
        self.push_ephemeral(
            value,
            vec![a.id],
            Some(Box::new(move |mut g: Tensor| {
                g.zip_inplace(&out, |gi, y| gi * y * (1.0 - y));
                vec![g]
            })),
        )
    }

    // ----- broadcast arithmetic -------------------------------------------

    /// Adds `b` (whose shape is a trailing suffix of `a`'s shape) to `a`,
    /// broadcasting over the leading dims. Covers `[B, M] + [M]` biases and
    /// `[B, T, D] + [D]` affine shifts.
    ///
    /// # Panics
    ///
    /// Panics if `b`'s shape is not a trailing suffix of `a`'s.
    pub fn add_bcast(&mut self, a: Var, b: Var) -> Var {
        let value = eval(|o| kernels::bcast(o, self.value(a), self.value(b), |x, y| x + y));
        let bshape = self.value(b).shape().dims().to_vec();
        self.push_ephemeral(
            value,
            vec![a.id, b.id],
            Some(Box::new(move |g: Tensor| {
                let bl: usize = bshape.iter().product();
                let mut db = vec![0.0f32; bl];
                for chunk in g.data().chunks(bl) {
                    for (o, &x) in db.iter_mut().zip(chunk) {
                        *o += x;
                    }
                }
                let db = Tensor::from_vec(db, &bshape).expect("suffix shape consistent");
                vec![g, db]
            })),
        )
    }

    /// Multiplies `a` by `b` broadcast over the leading dims (shape-suffix
    /// rule as in [`Graph::add_bcast`]).
    ///
    /// # Panics
    ///
    /// Panics if `b`'s shape is not a trailing suffix of `a`'s.
    pub fn mul_bcast(&mut self, a: Var, b: Var) -> Var {
        let av = self.value(a).clone();
        let bv = self.value(b).clone();
        let out = eval(|o| kernels::bcast(o, &av, &bv, |x, y| x * y));
        self.push_ephemeral(
            out,
            vec![a.id, b.id],
            Some(Box::new(move |mut g: Tensor| {
                let bl = bv.numel();
                // db reads the *original* gradient, so compute it first,
                // then rescale g in place for da
                let mut db = vec![0.0f32; bl];
                for (gchunk, achunk) in g.data().chunks(bl).zip(av.data().chunks(bl)) {
                    for ((o, &gi), &ai) in db.iter_mut().zip(gchunk).zip(achunk) {
                        *o += gi * ai;
                    }
                }
                for chunk in g.data_mut().chunks_mut(bl) {
                    for (o, &x) in chunk.iter_mut().zip(bv.data()) {
                        *o *= x;
                    }
                }
                let db = Tensor::from_vec(db, bv.shape().dims()).expect("suffix shape consistent");
                vec![g, db]
            })),
        )
    }

    /// Adds a per-channel bias `[C]` to a `[B, C, H, W]` activation.
    ///
    /// # Panics
    ///
    /// Panics on rank or width mismatch.
    pub fn add_channel(&mut self, a: Var, bias: Var) -> Var {
        let value = eval(|o| {
            let stage = Stage::Bias(channel_vec(self.value(bias), "bias"));
            kernels::chain(o, self.value(a), &[stage])
        });
        let dims = self.value(a).dims4();
        self.push_ephemeral(
            value,
            vec![a.id, bias.id],
            Some(Box::new(move |g: Tensor| {
                let (b, c, h, w) = dims;
                let mut db = vec![0.0f32; c];
                let hw = h * w;
                for bi in 0..b {
                    for (ci, dbc) in db.iter_mut().enumerate() {
                        let base = (bi * c + ci) * hw;
                        *dbc += g.data()[base..base + hw].iter().sum::<f32>();
                    }
                }
                let db = Tensor::from_vec(db, &[c]).expect("channel count consistent");
                vec![g, db]
            })),
        )
    }

    /// Multiplies a `[B, C, H, W]` activation by a per-channel scale `[C]`.
    ///
    /// # Panics
    ///
    /// Panics on rank or width mismatch.
    pub fn mul_channel(&mut self, a: Var, scale: Var) -> Var {
        let av = self.value(a).clone();
        let sv = self.value(scale).clone();
        let value = eval(|o| kernels::chain(o, &av, &[Stage::Scale(channel_vec(&sv, "scale"))]));
        let dims = av.dims4();
        self.push_ephemeral(
            value,
            vec![a.id, scale.id],
            Some(Box::new(move |mut g: Tensor| {
                let (b, c, h, w) = dims;
                let hw = h * w;
                // ds reads the original gradient; compute it before the
                // in-place per-channel rescale that produces da
                let mut ds = vec![0.0f32; c];
                for bi in 0..b {
                    for (ci, dsc) in ds.iter_mut().enumerate() {
                        let base = (bi * c + ci) * hw;
                        *dsc += g.data()[base..base + hw]
                            .iter()
                            .zip(&av.data()[base..base + hw])
                            .map(|(&gi, &ai)| gi * ai)
                            .sum::<f32>();
                    }
                }
                for bi in 0..b {
                    for ci in 0..c {
                        let base = (bi * c + ci) * hw;
                        let sc = sv.data()[ci];
                        for v in &mut g.data_mut()[base..base + hw] {
                            *v *= sc;
                        }
                    }
                }
                let ds = Tensor::from_vec(ds, &[c]).expect("channel count consistent");
                vec![g, ds]
            })),
        )
    }

    // ----- shape ops -------------------------------------------------------

    /// Reshapes to `dims` (element count must match). Reshaping to the
    /// unchanged shape records nothing and returns `a`.
    ///
    /// # Panics
    ///
    /// Panics if element counts differ.
    pub fn reshape(&mut self, a: Var, dims: &[usize]) -> Var {
        let old_dims = self.value(a).shape().dims().to_vec();
        if old_dims == dims {
            return a;
        }
        let value = eval(|o| kernels::reshape(o, self.value(a), dims));
        self.push_ephemeral(
            value,
            vec![a.id],
            Some(Box::new(move |g: Tensor| {
                vec![g
                    .into_reshaped(&old_dims)
                    .expect("inverse reshape consistent")]
            })),
        )
    }

    /// Permutes axes; the backward pass applies the inverse permutation.
    ///
    /// # Panics
    ///
    /// Panics if `axes` is not a permutation.
    pub fn permute(&mut self, a: Var, axes: &[usize]) -> Var {
        let value = eval(|o| kernels::permute(o, self.value(a), axes));
        let mut inverse = vec![0usize; axes.len()];
        for (i, &ax) in axes.iter().enumerate() {
            inverse[ax] = i;
        }
        self.push_ephemeral(
            value,
            vec![a.id],
            Some(Box::new(move |g: Tensor| vec![g.permute(&inverse)])),
        )
    }

    /// Concatenates nodes along `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or shapes are incompatible.
    pub fn concat(&mut self, parts: &[Var], axis: usize) -> Var {
        let value = eval(|o| kernels::concat(o, parts.len(), |i| self.value(parts[i]), axis));
        let sizes: Vec<usize> = parts
            .iter()
            .map(|v| self.value(*v).shape().dim(axis))
            .collect();
        let ids: Vec<usize> = parts.iter().map(|v| v.id).collect();
        self.push_ephemeral(
            value,
            ids,
            Some(Box::new(move |g: Tensor| {
                let mut grads = Vec::with_capacity(sizes.len());
                let mut start = 0usize;
                for &s in &sizes {
                    grads.push(g.slice_axis(axis, start, start + s));
                    start += s;
                }
                grads
            })),
        )
    }

    /// Copies the half-open `[start, end)` range of `axis`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice_axis(&mut self, a: Var, axis: usize, start: usize, end: usize) -> Var {
        let full = self.value(a).shape().dims().to_vec();
        let value = eval(|o| kernels::slice_axis(o, self.value(a), axis, start, end));
        self.push_ephemeral(
            value,
            vec![a.id],
            Some(Box::new(move |g: Tensor| {
                // embed the slice gradient into a zero tensor of the full shape
                let mut parts: Vec<Tensor> = Vec::new();
                if start > 0 {
                    let mut dims = full.clone();
                    dims[axis] = start;
                    parts.push(Tensor::zeros(&dims));
                }
                parts.push(g);
                if end < full[axis] {
                    let mut dims = full.clone();
                    dims[axis] = full[axis] - end;
                    parts.push(Tensor::zeros(&dims));
                }
                let refs: Vec<&Tensor> = parts.iter().collect();
                vec![Tensor::concat(&refs, axis)]
            })),
        )
    }

    // ----- reductions ----------------------------------------------------------

    /// Sum of all elements, as a `[1]` tensor.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let dims = self.value(a).shape().dims().to_vec();
        let value = eval(|o| kernels::sum_all(o, self.value(a)));
        self.push_ephemeral(
            value,
            vec![a.id],
            Some(Box::new(move |g: Tensor| {
                vec![Tensor::full(&dims, g.data()[0])]
            })),
        )
    }

    /// Mean of all elements, as a `[1]` tensor.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let n = self.value(a).numel() as f32;
        let s = self.sum_all(a);
        self.scale(s, 1.0 / n)
    }

    /// Sums over `axis`, removing it.
    ///
    /// # Panics
    ///
    /// Panics if `axis` is out of range.
    pub fn sum_axis(&mut self, a: Var, axis: usize) -> Var {
        let dims = self.value(a).shape().dims().to_vec();
        let value = eval(|o| kernels::sum_axis(o, self.value(a), axis));
        self.push_ephemeral(
            value,
            vec![a.id],
            Some(Box::new(move |g: Tensor| {
                // broadcast g back along the removed axis
                let outer: usize = dims[..axis].iter().product();
                let mid = dims[axis];
                let inner: usize = dims[axis + 1..].iter().product();
                let mut out = vec![0.0f32; outer * mid * inner];
                for o in 0..outer {
                    for m in 0..mid {
                        let dst = (o * mid + m) * inner;
                        let src = o * inner;
                        out[dst..dst + inner].copy_from_slice(&g.data()[src..src + inner]);
                    }
                }
                vec![Tensor::from_vec(out, &dims).expect("shape consistent")]
            })),
        )
    }

    /// Mean over `axis`, removing it.
    pub fn mean_axis(&mut self, a: Var, axis: usize) -> Var {
        let n = self.value(a).shape().dim(axis) as f32;
        let s = self.sum_axis(a, axis);
        self.scale(s, 1.0 / n)
    }

    // ----- quadratic-neuron composites -------------------------------------

    /// The quadratic energy `y₂[r, j] = Σᵢ λ[j, i] · f[r, j·k + i]²` — see
    /// [`Exec::weighted_square_sum`](crate::Exec::weighted_square_sum). One
    /// node whose backward runs the `sum_axis → mul_bcast → square` chain
    /// rule of the decomposition with the same expressions and summation
    /// order, so gradients match it bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `f` is not `[rows, neurons·k]` or `lambda` does not hold
    /// `neurons·k` values.
    pub fn weighted_square_sum(&mut self, f: Var, lambda: Var, neurons: usize, k: usize) -> Var {
        let fv = self.value(f).clone();
        let lv = self.value(lambda).clone();
        let value = eval(|o| kernels::weighted_square_sum(o, &fv, &lv, neurons, k));
        let mk = neurons * k;
        self.push_ephemeral(
            value,
            vec![f.id, lambda.id],
            Some(Box::new(move |g: Tensor| {
                let (gd, fd, ld) = (g.data(), fv.data(), lv.data());
                // dλ = Σ_rows g ⊙ f² (rows ascending, as mul_bcast's fold)
                let mut dlam = vec![0.0f32; mk];
                for (grow, frow) in gd.chunks(neurons).zip(fd.chunks(mk)) {
                    for (i, o) in dlam.iter_mut().enumerate() {
                        let x = frow[i];
                        *o += grow[i / k] * (x * x);
                    }
                }
                // df = ((g · λ) · f) · 2, square's derivative of mul_bcast's
                let mut df = vec![0.0f32; fd.len()];
                qn_parallel::par_chunks_mut_min(&mut df, mk.max(1), PAR_MIN_ELEMS, |r, drow| {
                    for (i, o) in drow.iter_mut().enumerate() {
                        *o = gd[r * neurons + i / k] * ld[i] * fd[r * mk + i] * 2.0;
                    }
                });
                vec![
                    Tensor::from_vec(df, fv.shape().dims()).expect("shape consistent"),
                    Tensor::from_vec(dlam, lv.shape().dims()).expect("shape consistent"),
                ]
            })),
        )
    }

    /// Interleaves `y` (`[rows, m]`) with feature groups `f` (`[rows, m·k]`)
    /// into `[rows, m·(k+1)]` — see
    /// [`Exec::interleave_last`](crate::Exec::interleave_last). One node;
    /// the backward pass de-interleaves the gradient.
    ///
    /// # Panics
    ///
    /// Panics if `y` is not 2-D or `f` does not hold `rows·m·k` values.
    pub fn interleave_last(&mut self, y: Var, f: Var, k: usize) -> Var {
        let value = eval(|o| kernels::interleave_last(o, self.value(y), self.value(f), k));
        let (rows, m) = self.value(y).dims2();
        let fdims = self.value(f).shape().dims().to_vec();
        self.push_ephemeral(
            value,
            vec![y.id, f.id],
            Some(Box::new(move |g: Tensor| {
                let mut dy = vec![0.0f32; rows * m];
                let mut df = vec![0.0f32; rows * m * k];
                for (n, group) in g.data().chunks(k + 1).enumerate() {
                    dy[n] = group[0];
                    df[n * k..(n + 1) * k].copy_from_slice(&group[1..]);
                }
                vec![
                    Tensor::from_vec(dy, &[rows, m]).expect("shape consistent"),
                    Tensor::from_vec(df, &fdims).expect("shape consistent"),
                ]
            })),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck;
    use qn_tensor::Rng;

    fn t(data: &[f32], dims: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), dims).unwrap()
    }

    #[test]
    fn add_sub_mul_forward() {
        let mut g = Graph::new();
        let a = g.leaf(t(&[1.0, 2.0], &[2]));
        let b = g.leaf(t(&[3.0, 4.0], &[2]));
        let sum = g.add(a, b);
        assert_eq!(g.value(sum).data(), &[4.0, 6.0]);
        let mut g = Graph::new();
        let a = g.leaf(t(&[1.0, 2.0], &[2]));
        let b = g.leaf(t(&[3.0, 4.0], &[2]));
        let d = g.sub(a, b);
        assert_eq!(g.value(d).data(), &[-2.0, -2.0]);
        let m = g.mul(a, b);
        assert_eq!(g.value(m).data(), &[3.0, 8.0]);
    }

    #[test]
    fn gradcheck_elementwise() {
        let mut rng = Rng::seed_from(1);
        let x = Tensor::randn(&[3, 4], &mut rng);
        assert!(gradcheck(
            |g, v| {
                let y = g.square(v);
                g.sum_all(y)
            },
            &x,
            1e-2,
            2e-2
        ));
        assert!(gradcheck(
            |g, v| {
                let y = g.tanh(v);
                g.sum_all(y)
            },
            &x,
            1e-2,
            2e-2
        ));
        assert!(gradcheck(
            |g, v| {
                let y = g.sigmoid(v);
                g.sum_all(y)
            },
            &x,
            1e-2,
            2e-2
        ));
        assert!(gradcheck(
            |g, v| {
                let y = g.powi(v, 3);
                g.sum_all(y)
            },
            &x,
            1e-2,
            5e-2
        ));
        assert!(gradcheck(
            |g, v| {
                let y = g.scale(v, -2.5);
                g.sum_all(y)
            },
            &x,
            1e-2,
            2e-2
        ));
    }

    #[test]
    fn gradcheck_relu_away_from_kink() {
        let mut rng = Rng::seed_from(2);
        // keep values away from 0 so finite differences are valid
        let x = Tensor::randn(&[3, 3], &mut rng).map(|v| if v.abs() < 0.2 { v + 0.5 } else { v });
        assert!(gradcheck(
            |g, v| {
                let y = g.relu(v);
                g.sum_all(y)
            },
            &x,
            1e-3,
            2e-2
        ));
    }

    #[test]
    fn add_bcast_forward_and_grad() {
        let mut g = Graph::new();
        let a = g.leaf(t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let b = g.leaf(t(&[10.0, 20.0], &[2]));
        let y = g.add_bcast(a, b);
        assert_eq!(g.value(y).data(), &[11.0, 22.0, 13.0, 24.0]);
        let s = g.sum_all(y);
        g.backward(s);
        assert_eq!(g.grad(b).unwrap().data(), &[2.0, 2.0]);
        assert_eq!(g.grad(a).unwrap().data(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn mul_bcast_gradcheck_both_sides() {
        let mut rng = Rng::seed_from(3);
        let x = Tensor::randn(&[2, 3, 4], &mut rng);
        let w = Tensor::randn(&[3, 4], &mut rng);
        let wc = w.clone();
        assert!(gradcheck(
            move |g, v| {
                let wv = g.leaf(wc.clone());
                let y = g.mul_bcast(v, wv);
                g.sum_all(y)
            },
            &x,
            1e-2,
            2e-2
        ));
        let xc = x.clone();
        assert!(gradcheck(
            move |g, v| {
                let xv = g.leaf(xc.clone());
                let y = g.mul_bcast(xv, v);
                g.sum_all(y)
            },
            &w,
            1e-2,
            2e-2
        ));
    }

    #[test]
    fn channel_ops_grad() {
        let mut rng = Rng::seed_from(4);
        let x = Tensor::randn(&[2, 3, 2, 2], &mut rng);
        let bias = Tensor::randn(&[3], &mut rng);
        let bc = bias.clone();
        assert!(gradcheck(
            move |g, v| {
                let b = g.leaf(bc.clone());
                let y = g.add_channel(v, b);
                let y2 = g.square(y);
                g.sum_all(y2)
            },
            &x,
            1e-2,
            2e-2
        ));
        let xc = x.clone();
        assert!(gradcheck(
            move |g, v| {
                let xv = g.leaf(xc.clone());
                let y = g.mul_channel(xv, v);
                g.sum_all(y)
            },
            &bias,
            1e-2,
            2e-2
        ));
    }

    #[test]
    fn channel_broadcasts() {
        let mut g = Graph::new();
        let a = g.leaf(Tensor::ones(&[1, 2, 2, 2]));
        let bias = g.leaf(t(&[1.0, -1.0], &[2]));
        let ab = g.add_channel(a, bias);
        assert_eq!(g.value(ab).get(&[0, 0, 1, 1]), 2.0);
        assert_eq!(g.value(ab).get(&[0, 1, 0, 0]), 0.0);
        let scale = g.leaf(t(&[2.0, 3.0], &[2]));
        let ms = g.mul_channel(a, scale);
        assert_eq!(g.value(ms).get(&[0, 0, 0, 0]), 2.0);
        assert_eq!(g.value(ms).get(&[0, 1, 1, 0]), 3.0);
    }

    #[test]
    fn reshape_permute_grad_flow() {
        let mut rng = Rng::seed_from(5);
        let x = Tensor::randn(&[2, 3, 4], &mut rng);
        assert!(gradcheck(
            |g, v| {
                let r = g.reshape(v, &[6, 4]);
                let p = g.permute(r, &[1, 0]);
                let sq = g.square(p);
                g.sum_all(sq)
            },
            &x,
            1e-2,
            2e-2
        ));
    }

    #[test]
    fn concat_slice_grads() {
        let mut g = Graph::new();
        let a = g.leaf(t(&[1.0, 2.0], &[1, 2]));
        let b = g.leaf(t(&[3.0, 4.0, 5.0], &[1, 3]));
        let c = g.concat(&[a, b], 1);
        assert_eq!(g.value(c).data(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
        let sl = g.slice_axis(c, 1, 1, 4);
        let sq = g.square(sl);
        let s = g.sum_all(sq);
        g.backward(s);
        // d/dx of x² over sliced [2, 3, 4]
        assert_eq!(g.grad(a).unwrap().data(), &[0.0, 4.0]);
        assert_eq!(g.grad(b).unwrap().data(), &[6.0, 8.0, 0.0]);
    }

    #[test]
    fn sum_axis_grad() {
        let mut rng = Rng::seed_from(6);
        let x = Tensor::randn(&[3, 4, 2], &mut rng);
        for axis in 0..3 {
            assert!(
                gradcheck(
                    move |g, v| {
                        let s = g.sum_axis(v, axis);
                        let sq = g.square(s);
                        g.sum_all(sq)
                    },
                    &x,
                    1e-2,
                    3e-2
                ),
                "axis {axis}"
            );
        }
    }

    #[test]
    fn mean_ops() {
        let mut g = Graph::new();
        let a = g.leaf(t(&[2.0, 4.0, 6.0, 8.0], &[2, 2]));
        let m = g.mean_all(a);
        assert!((g.value(m).data()[0] - 5.0).abs() < 1e-6);
        let ma = g.mean_axis(a, 0);
        assert_eq!(g.value(ma).data(), &[4.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "trailing suffix")]
    fn bad_broadcast_panics() {
        let mut g = Graph::new();
        let a = g.leaf(Tensor::zeros(&[2, 3]));
        let b = g.leaf(Tensor::zeros(&[2]));
        g.add_bcast(a, b);
    }
}
