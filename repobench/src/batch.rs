//! `batch-linear` and `batch-quad-int8`: a closed loop of `predict_batch`
//! calls at batch 32 over a fixed, seeded pool of labelled images.
//!
//! - `batch-linear` runs the linear model in f32, sharded across the
//!   `qn-parallel` pool. Every output must be bit-identical to per-sample
//!   `predict` of the same image.
//! - `batch-quad-int8` runs the quad model's calibrated int8 twin. Every
//!   output must be bit-identical to per-sample int8 `predict`, and its
//!   top-1 must agree with the f32 model's on at least
//!   [`TOP1_AGREE_FLOOR`] of the pool.

use crate::model::{self, bit_identical, cross_entropy, derive, Pool, BATCH};
use crate::stats::{median, ms, repeat_setup};
use crate::{probes, Ctx, Report};
use qn_models::{InferenceSession, ResNet};
use std::sync::Arc;
use std::time::Instant;

/// Batches in the input pool.
const POOL_BATCHES: usize = 8;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// The repository gates int8 top-1 accuracy drift at 0.5 points. Drift is
/// at most the share of samples whose top-1 changes, so agreement below
/// this floor could hide drift beyond the gate.
pub const TOP1_AGREE_FLOOR: f64 = 0.995;

struct Setup {
    model: Arc<ResNet>,
    session: InferenceSession<'static>,
    first_predict_ms: f64,
}

/// Model build (and int8 calibration), then the first `predict_batch`.
fn setup(int8: bool, pool: &Pool, ctx: &Ctx) -> Setup {
    let spec = if int8 { model::QUAD } else { model::LINEAR };
    let model = Arc::new(model::resnet20(spec, model::WEIGHT_SEED));
    let mut session = if int8 {
        probes::quantize(ctx, &model, pool)
    } else {
        InferenceSession::owned(model.clone())
    };
    let t = Instant::now();
    let y = ctx.tracer.span("predict_batch", 0, || {
        session.predict_batch(&pool.batches[0])
    });
    let first_predict_ms = ms(t.elapsed());
    session.recycle(y);
    Setup {
        model,
        session,
        first_predict_ms,
    }
}

pub fn run(ctx: &Ctx, int8: bool) -> Report {
    let mut report = Report::default();
    let pool = Pool::generate(POOL_BATCHES, derive(ctx.seed, 1));

    let (
        Setup {
            model,
            mut session,
            first_predict_ms,
        },
        setup_s,
    ) = repeat_setup(SETUPS, || setup(int8, &pool, ctx));

    // expected outputs: per-sample predict of every pool image
    let mut expected: Vec<Vec<f32>> = Vec::with_capacity(POOL_BATCHES);
    let mut loss = 0.0;
    for (b, labels) in pool.labels.iter().enumerate() {
        let mut rows = Vec::new();
        for (i, &label) in labels.iter().enumerate() {
            let y = session.predict(&pool.sample(b, i));
            loss += cross_entropy(y.data(), label);
            rows.extend_from_slice(y.data());
            session.recycle(y);
        }
        expected.push(rows);
    }
    loss /= (POOL_BATCHES * BATCH) as f64;

    if int8 {
        let mut f32_session = InferenceSession::new(model.as_ref());
        let agree = probes::top1_agree(&mut session, &mut f32_session, &pool);
        report.check(agree >= TOP1_AGREE_FLOOR, || {
            format!(
                "int8 top-1 agrees with f32 on {agree:.4} of the pool, below {TOP1_AGREE_FLOOR}"
            )
        });
    }

    // The measured closed loop. A traced run traces every other call, so
    // the calls in between time the same loop untraced.
    let mut times = Vec::new();
    let mut traced = Vec::new();
    let start = Instant::now();
    let mut b = 0usize;
    let mut call = 0u64;
    while start.elapsed().as_secs_f64() < ctx.seconds {
        let x = &pool.batches[b];
        call += 1;
        let trace_this = ctx.tracer.on() && call.is_multiple_of(2);
        let t = Instant::now();
        let y = if trace_this {
            ctx.tracer
                .span("predict_batch", call, || session.predict_batch(x))
        } else {
            session.predict_batch(x)
        };
        if trace_this { &mut traced } else { &mut times }.push(ms(t.elapsed()));
        report.attempted += 1;
        if !bit_identical(y.data(), &expected[b]) {
            report.failed += 1;
        }
        session.recycle(y);
        b = (b + 1) % POOL_BATCHES;
    }
    let wall = start.elapsed().as_secs_f64();
    report.check_operations("batched outputs differ from per-sample predict");

    if ctx.tracer.on() {
        report.set("model.first_predict_ms", first_predict_ms);
        report.set("trace.overhead", median(&traced) / median(&times) - 1.0);
        probes::all(ctx, &model, &mut session, &pool, &mut report);
    } else {
        report.set("setup_s", setup_s);
        report.set("p50_ms", median(&times));
        report.set(
            "samples_per_s",
            (report.attempted as usize * BATCH) as f64 / wall,
        );
        report.set("loss", loss);
    }
    report
}
