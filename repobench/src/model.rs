//! The one model every workload runs, and the seeded inputs it sees.
//!
//! CIFAR-style ResNet-20, `base_width` 8, 10 classes, 3×16×16 inputs,
//! built with the efficient quadratic neuron (rank 9) in every 3×3 conv
//! ("quad") or with linear convs ("linear").

use qn_core::NeuronSpec;
use qn_data::{ImageDataset, ImageDatasetConfig};
use qn_models::{NeuronPlacement, ResNet, ResNetConfig};
use qn_tensor::Tensor;

pub const RES: usize = 16;
pub const CLASSES: usize = 10;
/// Batch size of every batched call (inference and training).
pub const BATCH: usize = 32;

pub const QUAD: NeuronSpec = NeuronSpec::EfficientQuadratic { rank: 9 };
pub const LINEAR: NeuronSpec = NeuronSpec::Linear;

/// Weight-initialization seed. The weights are part of the program under
/// test, not of its input, so they stay the same for every `--seed`.
pub const WEIGHT_SEED: u64 = 20;

pub fn resnet20(neuron: NeuronSpec, seed: u64) -> ResNet {
    ResNet::cifar(ResNetConfig {
        depth: 20,
        base_width: 8,
        num_classes: CLASSES,
        neuron,
        placement: NeuronPlacement::All,
        seed,
    })
}

/// A seed for one purpose (`tag`) derived from the run seed (splitmix64),
/// so that each input stream of a workload depends on `--seed` alone.
pub fn derive(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A labelled synthetic CIFAR-style image set of `per_class * 10` train
/// images (and `test_per_class * 10` test images).
pub fn dataset(per_class: usize, test_per_class: usize, seed: u64) -> ImageDataset {
    ImageDataset::generate(ImageDatasetConfig {
        classes: CLASSES,
        resolution: RES,
        train_per_class: per_class,
        test_per_class,
        seed,
        variability: 0.5,
    })
}

/// The fixed input pool of the inference workloads: `batches` batches of
/// [`BATCH`] labelled images.
pub struct Pool {
    pub batches: Vec<Tensor>,
    pub labels: Vec<Vec<usize>>,
}

impl Pool {
    pub fn generate(batches: usize, seed: u64) -> Pool {
        let n = batches * BATCH;
        let data = dataset(n.div_ceil(CLASSES), 0, seed);
        // the generator emits classes in order: shuffle so every batch mixes
        let mut order: Vec<usize> = (0..n).collect();
        qn_tensor::Rng::seed_from(derive(seed, 1)).shuffle(&mut order);
        let mut pool = Pool {
            batches: Vec::with_capacity(batches),
            labels: Vec::with_capacity(batches),
        };
        for chunk in order.chunks(BATCH) {
            pool.batches.push(data.train_images.select_rows(chunk));
            pool.labels
                .push(chunk.iter().map(|&i| data.train_labels[i]).collect());
        }
        pool
    }

    /// Sample `i` of batch `b` (no batch dimension).
    pub fn sample(&self, b: usize, i: usize) -> Tensor {
        self.batches[b]
            .slice_axis(0, i, i + 1)
            .reshape(&[3, RES, RES])
            .expect("a pool row is one 3x16x16 sample")
    }
}

/// Softmax cross-entropy (nats) of one row of logits against `label`.
pub fn cross_entropy(logits: &[f32], label: usize) -> f64 {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max) as f64;
    let lse = logits
        .iter()
        .map(|&v| (v as f64 - max).exp())
        .sum::<f64>()
        .ln()
        + max;
    lse - logits[label] as f64
}

pub fn argmax(row: &[f32]) -> usize {
    row.iter()
        .enumerate()
        .fold((0, f32::NEG_INFINITY), |(bi, bv), (i, &v)| {
            if v > bv {
                (i, v)
            } else {
                (bi, bv)
            }
        })
        .0
}

pub fn bit_identical(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_entropy_of_uniform_logits_is_ln_classes() {
        let ce = cross_entropy(&[0.5; 10], 3);
        assert!((ce - 10f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn pool_is_a_function_of_its_seed() {
        let a = Pool::generate(2, 5);
        let b = Pool::generate(2, 5);
        let c = Pool::generate(2, 6);
        assert_eq!(a.batches[1].shape().dims(), &[BATCH, 3, RES, RES]);
        assert!(bit_identical(a.batches[1].data(), b.batches[1].data()));
        assert_eq!(a.labels, b.labels);
        assert!(!bit_identical(a.batches[0].data(), c.batches[0].data()));
    }
}
