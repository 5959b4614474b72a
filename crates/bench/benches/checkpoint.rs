//! Persistence-path benchmark: checkpoint serialize throughput, cold-start
//! load latency (blob-copying vs zero-copy mmap), and registry hot-swap
//! latency — recorded in `BENCH_load.json`.
//!
//! Doubles as the enforcement point for the zero-copy contract, with the
//! counting global allocator as the instrument:
//!
//! 1. a mmap load must leave **every** parameter backed by the mapped file,
//! 2. the mmap-loaded model must predict **bit-identically** to the model
//!    the checkpoint was saved from, and
//! 3. the mmap load must allocate at least the parameter-byte total *less*
//!    than the copying load — i.e. zero parameter bytes are copied.

#[global_allocator]
static ALLOC: qn_bench::counting_alloc::CountingAlloc = qn_bench::counting_alloc::CountingAlloc;

mod common;

use qn_autograd::Parameter;
use qn_bench::counting_alloc::snapshot;
use qn_core::NeuronSpec;
use qn_models::{InferenceSession, ModelRegistry, NeuronPlacement, ResNet, ResNetConfig};
use qn_nn::{checkpoint, LoadMode, Module, ParamVisitor};
use qn_tensor::{Rng, Tensor};
use std::sync::Arc;

fn quadratic_resnet(depth: usize, width: usize, rank: usize, seed: u64) -> ResNet {
    ResNet::cifar(ResNetConfig {
        depth,
        base_width: width,
        num_classes: 10,
        neuron: NeuronSpec::EfficientQuadratic { rank },
        placement: NeuronPlacement::All,
        seed,
    })
}

/// Counts parameters whose storage is / is not a mapped file window.
struct MapCensus {
    mapped: usize,
    owned: usize,
}

impl ParamVisitor for MapCensus {
    fn param(&mut self, _name: &str, p: &Parameter) {
        if p.value().is_mapped() {
            self.mapped += 1;
        } else {
            self.owned += 1;
        }
    }
}

fn main() {
    let mut bench = common::Bench::new("load");
    let (depth, width, res, rank) = if bench.smoke {
        (8, 4, 12, 3)
    } else {
        (20, 8, 16, 9)
    };
    let samples = if bench.smoke { 5 } else { 20 };
    let model = format!("resnet{depth}_quadratic_k{rank}");
    let net = quadratic_resnet(depth, width, rank, 47);
    let param_bytes = 4 * net.param_count() as u64;
    let path = std::env::temp_dir().join("qn_bench_checkpoint.qnckpt");
    let pool = qn_parallel::pool_threads();

    // ---- serialize ------------------------------------------------------
    let r = bench.time(format!("serialize/{model}"), pool, samples, || {
        checkpoint::save_module(&net, &[("bench", "checkpoint")], &path).expect("save");
    });
    let file_bytes = std::fs::metadata(&path).expect("checkpoint written").len();
    let t = r.median();
    r.metric("file_bytes", file_bytes as f64)
        .metric("param_bytes", param_bytes as f64)
        .metric("mb_per_s", file_bytes as f64 / 1e6 / t);

    // ---- cold-start load: copy vs mmap, and their allocations -----------
    let copied = quadratic_resnet(depth, width, rank, 48);
    let mapped = quadratic_resnet(depth, width, rank, 49);
    let mut loads = Vec::new();
    for (mode, target, name) in [
        (LoadMode::Copy, &copied, "copy"),
        (LoadMode::Mapped, &mapped, "mmap"),
    ] {
        let load = || {
            checkpoint::load_module(target, &path, mode).expect("checkpoint loads");
        };
        // single-threaded so the process-global counters are attributable
        let bytes = qn_parallel::with_max_threads(1, || {
            let before = snapshot();
            load();
            snapshot().since(&before).bytes
        });
        let mut census = MapCensus {
            mapped: 0,
            owned: 0,
        };
        target.visit_params(&mut census);
        bench
            .time(format!("cold_load_{name}/{model}"), pool, samples, load)
            .metric("alloc_bytes", bytes as f64)
            .metric("mapped_params", census.mapped as f64)
            .metric("owned_params", census.owned as f64);
        loads.push((bytes, census));
    }
    let (mapped_alloc, census) = loads.pop().expect("mmap load measured");
    let (copy_alloc, _) = loads.pop().expect("copy load measured");

    // ---- the zero-copy contract -----------------------------------------
    let mut rng = Rng::seed_from(51);
    let x = Tensor::randn(&[2, 3, res, res], &mut rng);
    let want = InferenceSession::new(&net).predict_batch(&x);
    let got = InferenceSession::new(&mapped).predict_batch(&x);
    let bit_identical = want.bit_identical(&got);

    // ---- registry hot-swap ----------------------------------------------
    let registry = ModelRegistry::new();
    let gen_a: Arc<dyn Module> = Arc::new(net);
    let gen_b: Arc<dyn Module> = Arc::new(mapped);
    registry.publish("serve", Arc::clone(&gen_a));
    let mut session = registry.session("serve").expect("slot exists");
    std::hint::black_box(session.predict_batch(&x).data()[0]);
    let mut flip = false;
    bench.time(format!("hot_swap/{model}"), pool, samples, || {
        flip = !flip;
        registry.publish("serve", Arc::clone(if flip { &gen_b } else { &gen_a }));
        session.refresh();
    });
    std::hint::black_box(session.predict_batch(&x).data()[0]);
    bench.write();
    let _ = std::fs::remove_file(&path);

    // Checked after the write so the record exists either way.
    assert_eq!(
        census.owned, 0,
        "mmap load left {} parameters owned",
        census.owned
    );
    assert!(census.mapped > 0, "census walked no parameters");
    assert!(
        bit_identical,
        "mmap-loaded model must predict bit-identically"
    );
    assert!(
        copy_alloc >= mapped_alloc + param_bytes,
        "mmap load must allocate at least the parameter-byte total ({param_bytes} B) less than \
         the copying load (copy {copy_alloc} B, mmap {mapped_alloc} B) — parameter bytes were copied"
    );
    eprintln!("load: mmap path copies zero parameter bytes ✓");
}
