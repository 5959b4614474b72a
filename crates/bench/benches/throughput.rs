//! Batched-inference throughput scaling across the `qn-parallel` pool:
//! batch-32 quadratic ResNet-20 `predict_batch` at 1/2/4/8 threads,
//! recorded in `BENCH_throughput.json`.
//!
//! Fails unless the outputs are bit-identical across thread counts (the
//! workspace's determinism contract), and — on a full run on a host with at
//! least 4 CPUs — unless 4 threads reach 2.5× the 1-thread throughput.
//! Thread counts beyond the host's CPUs only add context-switch overhead,
//! so read every record next to its `host.cpus`.

mod common;

use qn_core::NeuronSpec;
use qn_models::{InferenceSession, NeuronPlacement, ResNet, ResNetConfig};
use qn_tensor::{Rng, Tensor};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn main() {
    // Size the pool for the largest measured configuration before first use;
    // each measurement then caps the effective count.
    qn_parallel::configure_pool_threads(*THREAD_COUNTS.iter().max().expect("non-empty"));
    let mut bench = common::Bench::new("throughput");
    let samples = if bench.smoke { 3 } else { 15 };
    let (depth, width, res, rank, batch) = if bench.smoke {
        (8, 4, 12, 3, 8)
    } else {
        (20, 8, 16, 9, 32)
    };
    let net = ResNet::cifar(ResNetConfig {
        depth,
        base_width: width,
        num_classes: 10,
        neuron: NeuronSpec::EfficientQuadratic { rank },
        placement: NeuronPlacement::All,
        seed: 43,
    });
    let input = Tensor::randn(&[batch, 3, res, res], &mut Rng::seed_from(41));

    let mut session = InferenceSession::new(&net);
    let reference = qn_parallel::with_max_threads(1, || session.predict_batch(&input));
    let mut base = 0.0;
    let mut speedup_4t = 0.0;
    for threads in THREAD_COUNTS {
        let output = qn_parallel::with_max_threads(threads, || session.predict_batch(&input));
        assert!(
            output.bit_identical(&reference),
            "outputs must be bit-identical at {threads} threads"
        );
        let case = format!("predict_batch{batch}/resnet{depth}_quadratic/{threads}t");
        let r = bench.time(case, threads, samples, || {
            std::hint::black_box(session.predict_batch(&input).sum());
        });
        let t = r.median();
        if threads == 1 {
            base = t;
        }
        if threads == 4 {
            speedup_4t = base / t;
        }
        r.metric("samples_per_s", batch as f64 / t)
            .metric("speedup_vs_1t", base / t);
    }
    bench.write();

    let cpus = common::host().cpus;
    if bench.smoke || cpus < 4 {
        eprintln!("throughput: smoke run or {cpus} CPU(s) < 4, the >=2.5x@4t assertion is skipped");
    } else {
        assert!(
            speedup_4t >= 2.5,
            "4-thread speedup {speedup_4t:.2}x below the 2.5x target on a {cpus}-CPU host"
        );
    }
}
