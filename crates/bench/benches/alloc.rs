//! Allocation accounting for the serving path, measured with a counting
//! global allocator: proves that steady-state `InferenceSession::predict`
//! on the paper's quadratic ResNet performs **zero** heap allocations once
//! the session's buffer pool is warm — both for the f32 session and for
//! its calibrated int8 twin (the deployment configuration of the int8
//! tier).
//!
//! Records cold-call vs steady-state allocation counts and steady-state
//! latency in `BENCH_alloc.json`, and **fails** if either steady state
//! allocates or frees anything. The assertion runs with the worker pool
//! pinned to one thread so the process-global counters are attributable to
//! the measured loop; the sharded `predict_batch` path is recorded
//! unasserted for reference.

#[global_allocator]
static ALLOC: qn_bench::counting_alloc::CountingAlloc = qn_bench::counting_alloc::CountingAlloc;

mod common;

use qn_bench::counting_alloc::{snapshot, Snapshot};
use qn_core::NeuronSpec;
use qn_models::{InferenceSession, NeuronPlacement, ResNet, ResNetConfig};
use qn_tensor::{Rng, Tensor};

/// Calls in each counted steady-state loop.
const ITERS: u64 = 10;

fn main() {
    let mut bench = common::Bench::new("alloc");
    let (depth, width, res, rank, batch) = if bench.smoke {
        (8, 4, 12, 3, 4)
    } else {
        (20, 8, 16, 9, 8)
    };
    let samples = if bench.smoke { 5 } else { 30 };
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

    // Spawn the worker pool before measuring: thread startup allocates.
    let pool = qn_parallel::pool_threads();

    // ---- single-sample predict: the asserted zero-alloc paths -----------
    let mut steady = Vec::new();
    let mut f32_session = InferenceSession::new(&net);
    let mut int8_session = InferenceSession::quantized_calibrated(&net, [xb.clone()])
        .expect("the quadratic ResNet quantizes");
    for (tier, session) in [
        ("f32", &mut f32_session),
        ("int8_calibrated", &mut int8_session),
    ] {
        // the pool is pinned to one thread so the process-global counters
        // are attributable to the measured loop
        let (cold, loop_total) = qn_parallel::with_max_threads(1, || count_predict(session, &x));
        let case = format!("predict/resnet{depth}_quadratic/{tier}");
        let r = bench.time(case, 1, samples, || {
            let y = session.predict(&x);
            std::hint::black_box(y.data()[0]);
            session.recycle(y);
        });
        r.metric("cold_allocations", cold.allocations as f64)
            .metric("cold_bytes", cold.bytes as f64);
        per_call(r, loop_total);
        steady.push((tier, loop_total));
    }

    // ---- batched predict (informational, not asserted) ------------------
    let mut session = InferenceSession::new(&net);
    for _ in 0..4 {
        let y = session.predict_batch(&xb);
        session.recycle(y);
    }
    let before = snapshot();
    for _ in 0..ITERS {
        let y = session.predict_batch(&xb);
        std::hint::black_box(y.data()[0]);
        session.recycle(y);
    }
    let loop_total = snapshot().since(&before);
    // the sharded path boxes one task per worker when threads > 1
    let r = bench.time(
        format!("predict_batch{batch}/resnet{depth}_quadratic/f32"),
        pool,
        samples.min(10),
        || {
            let y = session.predict_batch(&xb);
            std::hint::black_box(y.data()[0]);
            session.recycle(y);
        },
    );
    per_call(r, loop_total);
    bench.write();

    // Checked after the write so the record exists either way. The loop
    // totals are asserted undivided: a per-call average would round up to
    // ITERS - 1 allocations down to zero.
    for (tier, total) in steady {
        assert_eq!(
            (total.allocations, total.frees),
            (0, 0),
            "steady-state {tier} predict must neither allocate nor free \
             ({} allocations, {} frees over {ITERS} calls)",
            total.allocations,
            total.frees
        );
    }
    eprintln!("alloc: steady-state predict is allocation-free (f32 and int8) ✓");
}

/// Adds the per-call steady-state counts of a loop of [`ITERS`] calls.
fn per_call(r: &mut qn_bench::Record, total: Snapshot) {
    let n = ITERS as f64;
    r.metric("steady_allocations_per_call", total.allocations as f64 / n)
        .metric("steady_bytes_per_call", total.bytes as f64 / n)
        .metric("steady_frees_per_call", total.frees as f64 / n);
}

/// Counts the allocations of a cold `session.predict(x)` and the totals of
/// a warm loop of [`ITERS`] calls, and checks that the warm output is
/// still the cold one, bit for bit.
fn count_predict(session: &mut InferenceSession<'_>, x: &Tensor) -> (Snapshot, Snapshot) {
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
    let before = snapshot();
    let mut sink = 0.0f32;
    for _ in 0..ITERS {
        let y = session.predict(x);
        sink += y.data()[0];
        session.recycle(y);
    }
    let total = snapshot().since(&before);
    std::hint::black_box(sink);
    let y = session.predict(x);
    assert!(
        y.bit_identical(&reference),
        "pooled steady state must reproduce the cold result bit-for-bit"
    );
    session.recycle(y);
    (cold, total)
}
