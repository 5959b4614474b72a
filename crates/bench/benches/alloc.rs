//! Allocation accounting for the serving path, measured with a counting
//! global allocator: proves that steady-state `InferenceSession::predict`
//! on the paper's quadratic ResNet performs **zero** heap allocations once
//! the session's buffer pool is warm — both for the f32 session and for
//! its calibrated int8 twin (the deployment configuration of the int8
//! tier).
//!
//! Records cold-call vs steady-state allocation counts (and steady-state
//! latency) in `BENCH_alloc.json` at the repo root, and **fails** —
//! failing CI's smoke run — if either steady state allocates. The assertion
//! runs with the worker pool pinned to one thread so the process-global
//! counters are attributable to the measured loop; the sharded
//! `predict_batch` path is recorded unasserted for reference. Set
//! `QN_SMOKE=1` for a CI-sized configuration.

#[global_allocator]
static ALLOC: qn_bench::counting_alloc::CountingAlloc = qn_bench::counting_alloc::CountingAlloc;

use qn_bench::counting_alloc::{snapshot, Snapshot};
use qn_bench::time_mean;
use qn_core::NeuronSpec;
use qn_models::{InferenceSession, NeuronPlacement, ResNet, ResNetConfig};
use qn_tensor::{Rng, Tensor};

fn main() {
    let smoke = std::env::var("QN_SMOKE").map(|v| v == "1").unwrap_or(false);
    let (depth, width, res, rank, batch) = if smoke {
        (8, 4, 12, 3, 4)
    } else {
        (20, 8, 16, 9, 8)
    };
    let samples = if smoke { 5 } else { 30 };
    let net = ResNet::cifar(ResNetConfig {
        depth,
        base_width: width,
        num_classes: 10,
        neuron: NeuronSpec::EfficientQuadratic { rank },
        placement: NeuronPlacement::All,
        seed: 47,
    });
    let mut rng = Rng::seed_from(48);
    let x = Tensor::randn(&[3, res, res], &mut rng);
    let xb = Tensor::randn(&[batch, 3, res, res], &mut rng);
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // Spawn the worker pool before measuring: thread startup allocates.
    let _ = qn_parallel::pool_threads();

    // ---- single-sample predict: the asserted zero-alloc paths -----------
    let mut f32_session = InferenceSession::new(&net);
    let f32_predict = measure_predict(&mut f32_session, &x, samples, "f32");
    let mut int8_session = InferenceSession::quantized_calibrated(&net, [xb.clone()])
        .expect("the quadratic ResNet quantizes");
    let int8_predict = measure_predict(&mut int8_session, &x, samples, "int8 calibrated");

    // ---- batched predict (informational, not asserted) ------------------
    let (batch_steady, batch_ms) = {
        let mut session = InferenceSession::new(&net);
        for _ in 0..4 {
            let y = session.predict_batch(&xb);
            session.recycle(y);
        }
        let iters = 5u64;
        let before = snapshot();
        for _ in 0..iters {
            let y = session.predict_batch(&xb);
            std::hint::black_box(y.data()[0]);
            session.recycle(y);
        }
        let delta = snapshot().since(&before);
        let batch_ms = time_mean(samples.min(10), || {
            let y = session.predict_batch(&xb);
            std::hint::black_box(y.data()[0]);
            session.recycle(y);
        }) * 1e3;
        (
            Snapshot {
                allocations: delta.allocations / iters,
                bytes: delta.bytes / iters,
                frees: delta.frees / iters,
            },
            batch_ms,
        )
    };
    eprintln!(
        "alloc/predict_batch[{batch}]: steady-state {} allocations ({} B) per call, {:.3} ms \
         (sharded path boxes one task per worker when threads > 1)",
        batch_steady.allocations, batch_steady.bytes, batch_ms
    );

    let json = format!(
        "{{\n  \"bench\": \"alloc\",\n  \"model\": \"resnet{depth}_quadratic\",\n  \
\"input\": [3, {res}, {res}],\n  \"smoke\": {smoke},\n  \"host_cpus\": {host_cpus},\n  \
\"predict\": {},\n  \"predict_int8_calibrated\": {},\n  \
\"predict_batch\": {{\n    \"batch\": {batch},\n    \
\"steady_allocations_per_call\": {},\n    \"steady_bytes_per_call\": {},\n    \
\"steady_ms\": {:.4}\n  }}\n}}\n",
        f32_predict.json(),
        int8_predict.json(),
        batch_steady.allocations,
        batch_steady.bytes,
        batch_ms
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_alloc.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("could not write {path}: {e}");
    } else {
        eprintln!("recorded {path}");
    }

    // The contract this bench exists to enforce — checked last so the JSON
    // is written either way; a violation still fails CI's smoke run.
    for (name, m) in [("f32", &f32_predict), ("int8 calibrated", &int8_predict)] {
        assert_eq!(
            m.steady.allocations, 0,
            "steady-state {name} predict must perform zero heap allocations \
             (got {} per call)",
            m.steady.allocations
        );
        assert_eq!(
            m.steady.frees, 0,
            "steady-state {name} predict must free nothing (got {} per call)",
            m.steady.frees
        );
    }
    eprintln!("alloc: steady-state predict is allocation-free (f32 and int8) ✓");
}

/// Allocation counts and latency of one session's single-sample predict.
struct PredictAllocs {
    cold: Snapshot,
    /// Per-call steady-state counts.
    steady: Snapshot,
    steady_ms: f64,
}

impl PredictAllocs {
    fn json(&self) -> String {
        format!(
            "{{\n    \"cold_allocations\": {},\n    \"cold_bytes\": {},\n    \
\"steady_allocations_per_call\": {},\n    \"steady_bytes_per_call\": {},\n    \
\"steady_frees_per_call\": {},\n    \"steady_ms\": {:.4}\n  }}",
            self.cold.allocations,
            self.cold.bytes,
            self.steady.allocations,
            self.steady.bytes,
            self.steady.frees,
            self.steady_ms
        )
    }
}

/// Measures cold vs steady-state allocations of `session.predict(x)` with
/// the worker pool pinned to one thread (so the process-global counters
/// are attributable to the measured loop), and checks that the steady
/// state reproduces the cold output bit for bit.
fn measure_predict(
    session: &mut InferenceSession<'_>,
    x: &Tensor,
    samples: usize,
    name: &str,
) -> PredictAllocs {
    let m = qn_parallel::with_max_threads(1, || {
        let before = snapshot();
        let y = session.predict(x);
        let cold = snapshot().since(&before);
        let reference = y.clone();
        session.recycle(y);
        // a few more rounds so every pool bucket reaches steady state
        for _ in 0..3 {
            let y = session.predict(x);
            session.recycle(y);
        }
        let iters = 10u64;
        let before = snapshot();
        let mut sink = 0.0f32;
        for _ in 0..iters {
            let y = session.predict(x);
            sink += y.data()[0];
            session.recycle(y);
        }
        let steady = snapshot().since(&before);
        std::hint::black_box(sink);
        let steady_ms = time_mean(samples, || {
            let y = session.predict(x);
            std::hint::black_box(y.data()[0]);
            session.recycle(y);
        }) * 1e3;
        // steady-state output must still be the cold output, bit for bit
        let y = session.predict(x);
        assert!(
            y.bit_identical(&reference),
            "pooled steady state must reproduce the cold result bit-for-bit"
        );
        session.recycle(y);
        PredictAllocs {
            cold,
            steady: Snapshot {
                allocations: steady.allocations / iters,
                bytes: steady.bytes / iters,
                frees: steady.frees / iters,
            },
            steady_ms,
        }
    });
    eprintln!(
        "alloc/predict ({name}): cold {} allocations ({} KiB); steady-state {} allocations, \
         {} frees per call, {:.3} ms",
        m.cold.allocations,
        m.cold.bytes / 1024,
        m.steady.allocations,
        m.steady.frees,
        m.steady_ms
    );
    m
}
