use crate::{tensor::PAR_MIN_ELEMS, Tensor};

/// Geometry of a 2-D pooling window (square, non-padded).
///
/// # Example
///
/// ```
/// use qn_tensor::PoolSpec;
///
/// let spec = PoolSpec::new(2, 2);
/// assert_eq!(spec.output_hw(8, 8), (4, 4));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PoolSpec {
    /// Window side length.
    pub window: usize,
    /// Stride in both directions.
    pub stride: usize,
}

impl PoolSpec {
    /// Creates a pooling spec.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0` or `stride == 0`.
    pub fn new(window: usize, stride: usize) -> Self {
        assert!(
            window > 0 && stride > 0,
            "window and stride must be positive"
        );
        PoolSpec { window, stride }
    }

    /// Output spatial size for an `h × w` input.
    ///
    /// # Panics
    ///
    /// Panics if the input is smaller than the window.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        assert!(
            h >= self.window && w >= self.window,
            "input {h}x{w} smaller than window {}",
            self.window
        );
        (
            (h - self.window) / self.stride + 1,
            (w - self.window) / self.stride + 1,
        )
    }
}

/// Max pooling over `[B, C, H, W]` into a caller-provided buffer of
/// `B·C·OH·OW` elements (fully overwritten). When `argmax` is given (same
/// length), it receives the flat input index of each output's winner — the
/// routing the backward pass needs; inference passes `None` and skips it.
///
/// # Panics
///
/// Panics if `input` is not 4-D, smaller than the window, or `dst`/`argmax`
/// has the wrong length.
pub fn max_pool2d(dst: &mut [f32], input: &Tensor, spec: PoolSpec, argmax: Option<&mut [usize]>) {
    let (b, c, h, w) = input.dims4();
    let (oh, ow) = spec.output_hw(h, w);
    assert_eq!(dst.len(), b * c * oh * ow, "max_pool2d length mismatch");
    let data = input.data();
    let pool_plane = |plane: usize, out_plane: &mut [f32], mut arg_plane: Option<&mut [usize]>| {
        let img = plane * h * w;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = 0usize;
                for ky in 0..spec.window {
                    for kx in 0..spec.window {
                        let idx = img + (oy * spec.stride + ky) * w + ox * spec.stride + kx;
                        if data[idx] > best {
                            best = data[idx];
                            best_idx = idx;
                        }
                    }
                }
                let o = oy * ow + ox;
                out_plane[o] = best;
                if let Some(arg) = arg_plane.as_deref_mut() {
                    arg[o] = best_idx;
                }
            }
        }
    };
    // One unit per (batch, channel) plane: pooled values and argmax indices
    // for a plane are disjoint output slabs, so the sweep parallelizes over
    // `b·c` with identical per-plane results at any thread count.
    match argmax {
        Some(arg) => {
            assert_eq!(arg.len(), dst.len(), "max_pool2d argmax length mismatch");
            qn_parallel::par_chunks_mut_pair_min(
                dst,
                oh * ow,
                arg,
                oh * ow,
                PAR_MIN_ELEMS,
                |plane, out_plane, arg_plane| pool_plane(plane, out_plane, Some(arg_plane)),
            );
        }
        None => qn_parallel::par_chunks_mut_min(dst, oh * ow, PAR_MIN_ELEMS, |plane, out_plane| {
            pool_plane(plane, out_plane, None)
        }),
    }
}

/// Backward pass of [`max_pool2d`]: routes each output gradient to the
/// winning input position.
///
/// # Panics
///
/// Panics if `grad.numel() != argmax.len()`.
pub fn max_pool2d_backward(
    grad: &Tensor,
    argmax: &[usize],
    input_dims: (usize, usize, usize, usize),
) -> Tensor {
    assert_eq!(grad.numel(), argmax.len(), "grad/argmax length mismatch");
    let (b, c, h, w) = input_dims;
    let mut out = Tensor::zeros(&[b, c, h, w]);
    for (g, &idx) in grad.data().iter().zip(argmax.iter()) {
        out.data_mut()[idx] += g;
    }
    out
}

/// Average pooling over `[B, C, H, W]` into a caller-provided buffer of
/// `B·C·OH·OW` elements (fully overwritten).
///
/// # Panics
///
/// Panics if `input` is not 4-D, smaller than the window, or `dst` has the
/// wrong length.
pub fn avg_pool2d_into(dst: &mut [f32], input: &Tensor, spec: PoolSpec) {
    let (b, c, h, w) = input.dims4();
    let (oh, ow) = spec.output_hw(h, w);
    assert_eq!(
        dst.len(),
        b * c * oh * ow,
        "avg_pool2d_into length mismatch"
    );
    let norm = 1.0 / (spec.window * spec.window) as f32;
    let data = input.data();
    // Parallel over (batch, channel) planes; window sums stay sequential.
    qn_parallel::par_chunks_mut_min(dst, oh * ow, PAR_MIN_ELEMS, |plane, out_plane| {
        let img = plane * h * w;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0f32;
                for ky in 0..spec.window {
                    for kx in 0..spec.window {
                        acc += data[img + (oy * spec.stride + ky) * w + ox * spec.stride + kx];
                    }
                }
                out_plane[oy * ow + ox] = acc * norm;
            }
        }
    });
}

/// Backward pass of [`avg_pool2d_into`]: spreads each output gradient uniformly
/// over its window.
///
/// # Panics
///
/// Panics if `grad`'s spatial dims are inconsistent with the geometry.
pub fn avg_pool2d_backward(
    grad: &Tensor,
    spec: PoolSpec,
    input_dims: (usize, usize, usize, usize),
) -> Tensor {
    let (b, c, h, w) = input_dims;
    let (oh, ow) = spec.output_hw(h, w);
    let (gb, gc, goh, gow) = grad.dims4();
    assert_eq!((gb, gc, goh, gow), (b, c, oh, ow), "grad geometry mismatch");
    let mut out = Tensor::zeros(&[b, c, h, w]);
    let norm = 1.0 / (spec.window * spec.window) as f32;
    let gdata = grad.data();
    // Overlapping windows accumulate only within their own plane, so the
    // scatter parallelizes over (batch, channel) planes with the in-plane
    // accumulation order unchanged.
    qn_parallel::par_chunks_mut_min(out.data_mut(), h * w, PAR_MIN_ELEMS, |plane, out_plane| {
        for oy in 0..oh {
            for ox in 0..ow {
                let g = gdata[(plane * oh + oy) * ow + ox] * norm;
                for ky in 0..spec.window {
                    for kx in 0..spec.window {
                        out_plane[(oy * spec.stride + ky) * w + ox * spec.stride + kx] += g;
                    }
                }
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    fn avg_pool2d(input: &Tensor, spec: PoolSpec) -> Tensor {
        let (b, c, h, w) = input.dims4();
        let (oh, ow) = spec.output_hw(h, w);
        let mut out = Tensor::zeros(&[b, c, oh, ow]);
        avg_pool2d_into(out.data_mut(), input, spec);
        out
    }

    #[test]
    fn max_pool_known_values() {
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let mut y = [0.0f32; 4];
        let mut arg = [0usize; 4];
        max_pool2d(&mut y, &x, PoolSpec::new(2, 2), Some(&mut arg));
        assert_eq!(y, [6.0, 8.0, 14.0, 16.0]);
        assert_eq!(arg, [5, 7, 13, 15]);
        let mut values_only = [0.0f32; 4];
        max_pool2d(&mut values_only, &x, PoolSpec::new(2, 2), None);
        assert_eq!(values_only, y);
    }

    #[test]
    fn max_pool_backward_routes_to_argmax() {
        let x = Tensor::from_vec(vec![1.0, 5.0, 2.0, 3.0], &[1, 1, 2, 2]).unwrap();
        let mut arg = [0usize; 1];
        max_pool2d(&mut [0.0], &x, PoolSpec::new(2, 2), Some(&mut arg));
        let g = Tensor::from_vec(vec![2.5], &[1, 1, 1, 1]).unwrap();
        let back = max_pool2d_backward(&g, &arg, (1, 1, 2, 2));
        assert_eq!(back.data(), &[0.0, 2.5, 0.0, 0.0]);
    }

    #[test]
    fn avg_pool_known_values() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let y = avg_pool2d(&x, PoolSpec::new(2, 2));
        assert_eq!(y.data(), &[2.5]);
    }

    #[test]
    fn avg_pool_backward_spreads() {
        let g = Tensor::from_vec(vec![4.0], &[1, 1, 1, 1]).unwrap();
        let back = avg_pool2d_backward(&g, PoolSpec::new(2, 2), (1, 1, 2, 2));
        assert_eq!(back.data(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn global_avg_pool_via_window() {
        let mut rng = Rng::seed_from(20);
        let x = Tensor::randn(&[2, 3, 4, 4], &mut rng);
        let y = avg_pool2d(&x, PoolSpec::new(4, 4));
        assert_eq!(y.shape().dims(), &[2, 3, 1, 1]);
        for bi in 0..2 {
            for ci in 0..3 {
                let manual = x.slice_axis(0, bi, bi + 1).slice_axis(1, ci, ci + 1).mean();
                assert!((y.get(&[bi, ci, 0, 0]) - manual).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn avg_pool_adjoint_property() {
        let mut rng = Rng::seed_from(21);
        let dims = (2usize, 2usize, 6usize, 6usize);
        let spec = PoolSpec::new(2, 2);
        let x = Tensor::randn(&[dims.0, dims.1, dims.2, dims.3], &mut rng);
        let y = avg_pool2d(&x, spec);
        let g = Tensor::randn(y.shape().dims(), &mut rng);
        let lhs = y.dot(&g);
        let rhs = x.dot(&avg_pool2d_backward(&g, spec, dims));
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    #[should_panic(expected = "smaller than window")]
    fn pool_window_too_large_panics() {
        PoolSpec::new(4, 1).output_hw(3, 3);
    }
}
