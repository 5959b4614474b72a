use crate::{tensor::PAR_MIN_ELEMS, Tensor};

/// Geometry of a 2-D convolution: kernel size, stride and zero padding.
///
/// Used by [`im2col`]/[`col2im`] and by every convolutional layer in the
/// workspace, including the quadratic-neuron convolutions, so that linear and
/// quadratic layers share one lowering path.
///
/// # Example
///
/// ```
/// use qn_tensor::Conv2dSpec;
///
/// let spec = Conv2dSpec::new(3, 1, 1); // 3x3 kernel, stride 1, pad 1
/// assert_eq!(spec.output_hw(8, 8), (8, 8)); // "same" convolution
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dSpec {
    /// Square kernel side length.
    pub kernel: usize,
    /// Stride in both spatial directions.
    pub stride: usize,
    /// Zero padding on each spatial border.
    pub padding: usize,
}

impl Conv2dSpec {
    /// Creates a spec for a square kernel.
    ///
    /// # Panics
    ///
    /// Panics if `kernel == 0` or `stride == 0`.
    pub fn new(kernel: usize, stride: usize, padding: usize) -> Self {
        assert!(kernel > 0, "kernel must be positive");
        assert!(stride > 0, "stride must be positive");
        Conv2dSpec {
            kernel,
            stride,
            padding,
        }
    }

    /// Output spatial size for an input of `h × w`.
    ///
    /// # Panics
    ///
    /// Panics if the padded input is smaller than the kernel.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let ph = h + 2 * self.padding;
        let pw = w + 2 * self.padding;
        assert!(
            ph >= self.kernel && pw >= self.kernel,
            "input {h}x{w} (+pad {}) smaller than kernel {}",
            self.padding,
            self.kernel
        );
        (
            (ph - self.kernel) / self.stride + 1,
            (pw - self.kernel) / self.stride + 1,
        )
    }

    /// Number of inputs seen by one output unit: `C · k · k`.
    pub fn patch_len(&self, in_channels: usize) -> usize {
        in_channels * self.kernel * self.kernel
    }
}

/// Lowers a `[B, C, H, W]` input into patch-matrix form `[B·OH·OW, C·K·K]`.
///
/// Row `b·OH·OW + oy·OW + ox` holds the receptive field of output position
/// `(oy, ox)` in image `b`, flattened channel-major. Convolution then becomes
/// a single matrix multiplication against flattened filters, which is also
/// exactly the form quadratic neurons need (`x` = one patch row).
///
/// # Panics
///
/// Panics if `input` is not 4-D.
pub fn im2col(input: &Tensor, spec: Conv2dSpec) -> Tensor {
    let (b, c, h, w) = input.dims4();
    let (oh, ow) = spec.output_hw(h, w);
    let k = spec.kernel;
    let patch = c * k * k;
    let rows = b * oh * ow;
    let mut out = vec![0.0f32; rows * patch];
    im2col_into(&mut out, input, spec);
    Tensor::from_vec(out, &[rows, patch]).expect("im2col sizes are consistent")
}

/// [`im2col`] into a caller-provided (e.g. pool-recycled) buffer of
/// `B·OH·OW × C·K·K` elements. The buffer is zero-filled first, so recycled
/// contents cannot leak into padding positions; results are bit-identical
/// to the allocating version.
///
/// # Panics
///
/// Panics if `input` is not 4-D or `dst` has the wrong length.
pub fn im2col_into(dst: &mut [f32], input: &Tensor, spec: Conv2dSpec) {
    let (b, c, h, w) = input.dims4();
    let (oh, ow) = spec.output_hw(h, w);
    let k = spec.kernel;
    let patch = c * k * k;
    let rows = b * oh * ow;
    assert_eq!(dst.len(), rows * patch, "im2col_into length mismatch");
    dst.fill(0.0);
    let data = input.data();
    let pad = spec.padding as isize;
    // Each image's patch rows are a disjoint slab of the output, so the
    // lowering parallelizes over the batch with identical per-row writes at
    // any thread count.
    qn_parallel::par_chunks_mut_min(dst, oh * ow * patch, PAR_MIN_ELEMS, |bi, slab| {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = (oy * ow + ox) * patch;
                let iy0 = (oy * spec.stride) as isize - pad;
                let ix0 = (ox * spec.stride) as isize - pad;
                for ci in 0..c {
                    let img = (bi * c + ci) * h * w;
                    for ky in 0..k {
                        let iy = iy0 + ky as isize;
                        if iy < 0 || iy >= h as isize {
                            continue; // stays zero
                        }
                        let src_row = img + iy as usize * w;
                        let dst = row + (ci * k + ky) * k;
                        for kx in 0..k {
                            let ix = ix0 + kx as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            slab[dst + kx] = data[src_row + ix as usize];
                        }
                    }
                }
            }
        }
    });
}

/// Adjoint of [`im2col`]: scatters patch-space gradients back to image space.
///
/// Given `cols` of shape `[B·OH·OW, C·K·K]` produced for an input of shape
/// `[B, C, H, W]` with `spec`, returns the gradient with respect to that
/// input (overlapping patches accumulate).
///
/// # Panics
///
/// Panics if `cols` is not 2-D or its dims are inconsistent with the
/// geometry.
pub fn col2im(cols: &Tensor, spec: Conv2dSpec, input_dims: (usize, usize, usize, usize)) -> Tensor {
    let (b, c, h, w) = input_dims;
    let (oh, ow) = spec.output_hw(h, w);
    let k = spec.kernel;
    let patch = c * k * k;
    let (rows, cols_w) = cols.dims2();
    assert_eq!(rows, b * oh * ow, "col2im row count mismatch");
    assert_eq!(cols_w, patch, "col2im patch length mismatch");
    let mut out = vec![0.0f32; b * c * h * w];
    let data = cols.data();
    let pad = spec.padding as isize;
    // Overlapping patches only ever accumulate into their own image, so the
    // scatter parallelizes over the batch; the in-image accumulation order
    // is unchanged, keeping results bit-identical at any thread count.
    qn_parallel::par_chunks_mut_min(&mut out, c * h * w, PAR_MIN_ELEMS, |bi, img_out| {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = ((bi * oh + oy) * ow + ox) * patch;
                let iy0 = (oy * spec.stride) as isize - pad;
                let ix0 = (ox * spec.stride) as isize - pad;
                for ci in 0..c {
                    let img = ci * h * w;
                    for ky in 0..k {
                        let iy = iy0 + ky as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let dst_row = img + iy as usize * w;
                        let src = row + (ci * k + ky) * k;
                        for kx in 0..k {
                            let ix = ix0 + kx as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            img_out[dst_row + ix as usize] += data[src + kx];
                        }
                    }
                }
            }
        }
    });
    Tensor::from_vec(out, &[b, c, h, w]).expect("col2im sizes are consistent")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    /// Direct O(B·C²·K²·H·W) reference convolution for validating im2col.
    fn conv2d_reference(input: &Tensor, weight: &Tensor, spec: Conv2dSpec) -> Tensor {
        let (b, c, h, w) = input.dims4();
        let (oc, wc, kh, kw) = weight.dims4();
        assert_eq!(c, wc);
        assert_eq!(kh, spec.kernel);
        assert_eq!(kw, spec.kernel);
        let (oh, ow) = spec.output_hw(h, w);
        let mut out = Tensor::zeros(&[b, oc, oh, ow]);
        for bi in 0..b {
            for oci in 0..oc {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0f32;
                        for ci in 0..c {
                            for ky in 0..kh {
                                for kx in 0..kw {
                                    let iy =
                                        (oy * spec.stride + ky) as isize - spec.padding as isize;
                                    let ix =
                                        (ox * spec.stride + kx) as isize - spec.padding as isize;
                                    if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                        continue;
                                    }
                                    acc += input.get(&[bi, ci, iy as usize, ix as usize])
                                        * weight.get(&[oci, ci, ky, kx]);
                                }
                            }
                        }
                        out.set(&[bi, oci, oy, ox], acc);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn output_hw_same_conv() {
        let spec = Conv2dSpec::new(3, 1, 1);
        assert_eq!(spec.output_hw(8, 8), (8, 8));
        assert_eq!(spec.output_hw(5, 7), (5, 7));
    }

    #[test]
    fn output_hw_strided() {
        let spec = Conv2dSpec::new(3, 2, 1);
        assert_eq!(spec.output_hw(8, 8), (4, 4));
        let spec1 = Conv2dSpec::new(1, 2, 0);
        assert_eq!(spec1.output_hw(8, 8), (4, 4));
    }

    #[test]
    fn patch_len_counts_inputs() {
        assert_eq!(Conv2dSpec::new(3, 1, 1).patch_len(16), 144);
    }

    #[test]
    fn im2col_matmul_equals_reference_conv() {
        let mut rng = Rng::seed_from(11);
        for &(c, k, s, p) in &[
            (1usize, 3usize, 1usize, 1usize),
            (2, 3, 2, 1),
            (3, 1, 1, 0),
            (2, 5, 1, 2),
        ] {
            let spec = Conv2dSpec::new(k, s, p);
            let input = Tensor::randn(&[2, c, 7, 6], &mut rng);
            let oc = 4;
            let weight = Tensor::randn(&[oc, c, k, k], &mut rng);
            let cols = im2col(&input, spec);
            let wmat = weight.reshape(&[oc, c * k * k]).unwrap();
            let out = cols.matmul_transb(&wmat); // [B*OH*OW, OC]
            let (oh, ow) = spec.output_hw(7, 6);
            let out = out
                .reshape(&[2, oh, ow, oc])
                .unwrap()
                .permute(&[0, 3, 1, 2]);
            let reference = conv2d_reference(&input, &weight, spec);
            assert!(
                out.allclose(&reference, 1e-4),
                "mismatch at c={c} k={k} s={s} p={p}"
            );
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property of the adjoint, which is exactly what backprop needs.
        let mut rng = Rng::seed_from(13);
        let spec = Conv2dSpec::new(3, 2, 1);
        let dims = (2usize, 3usize, 6usize, 5usize);
        let x = Tensor::randn(&[dims.0, dims.1, dims.2, dims.3], &mut rng);
        let cols = im2col(&x, spec);
        let y = Tensor::randn(cols.shape().dims(), &mut rng);
        let lhs = cols.dot(&y);
        let back = col2im(&y, spec, dims);
        let rhs = x.dot(&back);
        assert!(
            (lhs - rhs).abs() <= 1e-2 * lhs.abs().max(1.0),
            "adjoint mismatch: {lhs} vs {rhs}"
        );
    }

    #[test]
    fn im2col_shapes() {
        let spec = Conv2dSpec::new(3, 1, 1);
        let x = Tensor::zeros(&[4, 3, 8, 8]);
        let cols = im2col(&x, spec);
        assert_eq!(cols.shape().dims(), &[4 * 8 * 8, 3 * 9]);
    }

    #[test]
    #[should_panic(expected = "smaller than kernel")]
    fn kernel_larger_than_input_panics() {
        Conv2dSpec::new(5, 1, 0).output_hw(3, 3);
    }
}
