//! Layer probes of the traced run: each times one layer directly through
//! its public calls, so a per-layer number can be set beside the
//! end-to-end metric it should move.

use crate::model::{argmax, Pool, BATCH, LINEAR, QUAD, RES};
use crate::stats::{median, ms};
use crate::{Ctx, Report};
use qn_autograd::{EagerExec, Exec, Parameter};
use qn_bench::counting_alloc::snapshot;
use qn_models::{InferenceSession, Precision, ResNet};
use qn_nn::{LoadMode, Module, ParamVisitor};
use qn_tensor::{gemm, gemm_i8, Conv2dSpec, MatMut, MatRef, QTensor, Rng, Tensor};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A ResNet-20 stage: the conv shape of the benchmark model (width 8,
/// 16×16 input) and the im2col GEMM shape `m×k×n` the repository's
/// GEMM benches have always reported for that stage.
pub struct Stage {
    pub name: &'static str,
    pub channels: usize,
    pub hw: usize,
    pub gemm: (usize, usize, usize),
}

pub const STAGES: [Stage; 3] = [
    Stage {
        name: "s1",
        channels: 8,
        hw: RES,
        gemm: (1024, 144, 16),
    },
    Stage {
        name: "s2",
        channels: 16,
        hw: RES / 2,
        gemm: (256, 288, 32),
    },
    Stage {
        name: "s3",
        channels: 32,
        hw: RES / 4,
        gemm: (64, 576, 64),
    },
];

/// Time budget of one probe case.
const CASE_BUDGET: Duration = Duration::from_millis(120);

/// Runs `f` repeatedly for about [`CASE_BUDGET`] (at least 5 timed calls,
/// after one warm-up) and returns the median milliseconds per call.
fn time_case(mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut t = Vec::new();
    while t.len() < 5 || (start.elapsed() < CASE_BUDGET && t.len() < 2000) {
        let s = Instant::now();
        f();
        t.push(ms(s.elapsed()));
    }
    median(&t)
}

/// `conv.*` — one 3×3 conv layer per neuron kind, stage and batch, built by
/// `NeuronSpec::build_conv`, run on an `EagerExec` on one thread. GMAC/s
/// uses the layer's own `Module::costs`.
pub fn convs(ctx: &Ctx, report: &mut Report) {
    let mut rng = Rng::seed_from(crate::model::derive(ctx.seed, 40));
    for (kind, spec) in [("linear", LINEAR), ("quad", QUAD)] {
        for stage in &STAGES {
            let (layer, _) = spec.build_conv(
                stage.channels,
                stage.channels,
                Conv2dSpec::new(3, 1, 1),
                &mut rng,
            );
            for (b, batch) in [("b1", 1), ("b32", BATCH)] {
                let dims = [batch, stage.channels, stage.hw, stage.hw];
                let x = Tensor::randn(&dims, &mut rng);
                let macs = layer.costs(&dims).macs as f64;
                let mut cx = EagerExec::new();
                let t = qn_parallel::with_max_threads(1, || {
                    time_case(|| {
                        ctx.tracer.span("conv", 0, || {
                            cx.reset();
                            let v = cx.leaf_view(&x);
                            let y = layer.forward(&mut cx, v);
                            black_box(cx.value(y).data()[0]);
                        })
                    })
                });
                report.set(
                    &format!("conv.{kind}.{}.{b}.gmacs", stage.name),
                    macs / (t * 1e-3) / 1e9,
                );
            }
        }
    }
}

/// `gemm.*` — the f32 and int8 GEMM cores at the stage im2col shapes, one
/// thread. Operation counts (`2·m·k·n`) come from the shapes.
pub fn gemms(ctx: &Ctx, report: &mut Report) {
    let mut rng = Rng::seed_from(crate::model::derive(ctx.seed, 41));
    for stage in &STAGES {
        let (m, k, n) = stage.gemm;
        let a = Tensor::randn(&[m, k], &mut rng);
        let w = Tensor::randn(&[n, k], &mut rng);
        let (qa, qw) = (QTensor::quantize(&a), QTensor::quantize(&w));
        let mut out = vec![0.0f32; m * n];
        let flops = 2.0 * (m * k * n) as f64;
        let (t32, t8) = qn_parallel::with_max_threads(1, || {
            let t32 = time_case(|| {
                ctx.tracer.span("gemm", 0, || {
                    gemm(
                        MatMut::new(&mut out, m, n),
                        MatRef::new(a.data(), m, k),
                        MatRef::new(w.data(), n, k).transpose(),
                    );
                    black_box(out[0]);
                })
            });
            let t8 = time_case(|| {
                ctx.tracer.span("gemm_i8", 0, || {
                    gemm_i8(
                        MatMut::new(&mut out, m, n),
                        qa.mat(),
                        qw.mat().transpose(),
                        qa.scales(),
                        qw.scales(),
                    );
                    black_box(out[0]);
                })
            });
            (t32, t8)
        });
        report.set(
            &format!("gemm.f32.{}.gflops", stage.name),
            flops / (t32 * 1e-3) / 1e9,
        );
        report.set(
            &format!("gemm.i8.{}.gflops", stage.name),
            flops / (t8 * 1e-3) / 1e9,
        );
    }
}

/// `model.*`, `parallel.speedup`, `alloc.per_predict` and `pool.hit_ratio`
/// on the workload's own session.
pub fn session(ctx: &Ctx, session: &mut InferenceSession<'_>, pool: &Pool, report: &mut Report) {
    let x1 = pool.sample(0, 0);
    let x2 = pool.batches[0].slice_axis(0, 0, 2);
    let xb = &pool.batches[0];
    let run = |name: &'static str, x: &Tensor, single: bool, s: &mut InferenceSession<'_>| {
        time_case(|| {
            ctx.tracer.span(name, 0, || {
                let y = if single {
                    s.predict(x)
                } else {
                    s.predict_batch(x)
                };
                black_box(y.data()[0]);
                s.recycle(y);
            })
        })
    };
    report.set("model.predict_b1_ms", run("predict", &x1, true, session));
    report.set(
        "model.predict_b2_ms",
        run("predict_batch", &x2, false, session),
    );
    let full = run("predict_batch", xb, false, session);
    let one = qn_parallel::with_max_threads(1, || run("predict_batch", xb, false, session));
    report.set("model.predict_batch_ms", full);
    report.set("model.predict_batch_1t_ms", one);
    report.set("parallel.speedup", one / full);

    // allocations per steady-state single-sample predict, on one thread so
    // the process-wide counters see only this loop
    let per_predict = ctx.tracer.span("predict", 0, || {
        qn_parallel::with_max_threads(1, || {
            for _ in 0..4 {
                let y = session.predict(&x1);
                session.recycle(y);
            }
            const CALLS: u64 = 20;
            let before = snapshot();
            for _ in 0..CALLS {
                let y = session.predict(&x1);
                black_box(y.data()[0]);
                session.recycle(y);
            }
            snapshot().since(&before).allocations as f64 / CALLS as f64
        })
    });
    report.set("alloc.per_predict", per_predict);
    // The zero-allocation contract (the repository's `alloc` bench gate)
    // covers the f32 path; the int8 layers return freshly allocated
    // outputs, so their count is reported, not gated.
    if session.precision() == Precision::F32 {
        report.check(per_predict == 0.0, || {
            format!("steady-state f32 predict allocates ({per_predict} per call)")
        });
    }
    let s = session.pool().stats();
    report.set(
        "pool.hit_ratio",
        s.hits as f64 / (s.hits + s.misses).max(1) as f64,
    );
}

/// What saving and zero-copy loading one checkpoint cost.
#[derive(Clone, Copy)]
pub struct CkptTimes {
    pub save_ms: f64,
    pub load_ms: f64,
    pub file_bytes: f64,
}

impl CkptTimes {
    pub fn record(&self, report: &mut Report) {
        report.set("ckpt.save_ms", self.save_ms);
        report.set("ckpt.load_mapped_ms", self.load_ms);
        report.set("ckpt.file_bytes", self.file_bytes);
    }
}

/// `ckpt.*` — saves `model` to `path` and loads it zero-copy into
/// `skeleton`.
pub fn checkpoint(ctx: &Ctx, model: &dyn Module, skeleton: &dyn Module, path: &Path) -> CkptTimes {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create the checkpoint directory");
    }
    let t = Instant::now();
    ctx.tracer.span("ckpt_save", 0, || {
        qn_nn::save_module(model, &[("model", "resnet20")], path).expect("save the checkpoint")
    });
    let save_ms = ms(t.elapsed());
    let t = Instant::now();
    ctx.tracer.span("ckpt_load", 0, || {
        qn_nn::load_module(skeleton, path, LoadMode::Mapped).expect("load the checkpoint")
    });
    let load_ms = ms(t.elapsed());
    CkptTimes {
        save_ms,
        load_ms,
        file_bytes: std::fs::metadata(path).map_or(f64::NAN, |m| m.len() as f64),
    }
}

/// Weight storage of `model` in f32 and as int8 rows (codes plus one f32
/// scale per row, the layout of `QTensor`), computed from the parameter
/// shapes: every parameter of rank 2 or more is a weight the int8 tier
/// quantizes, the rest (biases, norms) stays f32 in both.
pub fn weight_bytes(model: &dyn Module) -> (f64, f64) {
    struct Shapes(Vec<Vec<usize>>);
    impl ParamVisitor for Shapes {
        fn param(&mut self, _name: &str, p: &Parameter) {
            self.0.push(p.value().shape().dims().to_vec());
        }
    }
    let mut v = Shapes(Vec::new());
    model.visit_params(&mut v);
    let (mut f32_bytes, mut i8_bytes) = (0usize, 0usize);
    for dims in &v.0 {
        let numel: usize = dims.iter().product();
        f32_bytes += 4 * numel;
        i8_bytes += if dims.len() >= 2 {
            numel + 4 * dims[0]
        } else {
            4 * numel
        };
    }
    (f32_bytes as f64, i8_bytes as f64)
}

/// Share of `pool` samples whose top-1 class agrees between two sessions.
pub fn top1_agree(a: &mut InferenceSession<'_>, b: &mut InferenceSession<'_>, pool: &Pool) -> f64 {
    let (mut agree, mut total) = (0usize, 0usize);
    for x in &pool.batches {
        let ya = a.predict_batch(x);
        let yb = b.predict_batch(x);
        let classes = ya.shape().dim(1);
        for (ra, rb) in ya.data().chunks(classes).zip(yb.data().chunks(classes)) {
            agree += usize::from(argmax(ra) == argmax(rb));
            total += 1;
        }
        a.recycle(ya);
        b.recycle(yb);
    }
    agree as f64 / total.max(1) as f64
}

/// Batches of the input pool an int8 twin is calibrated on.
pub const CALIBRATION_BATCHES: usize = 2;

/// Builds the calibrated int8 twin of `model`, as the int8 tier deploys it.
pub fn quantize(ctx: &Ctx, model: &ResNet, pool: &Pool) -> InferenceSession<'static> {
    ctx.tracer
        .span("quantize", 0, || {
            InferenceSession::quantized_calibrated(
                model,
                pool.batches[..CALIBRATION_BATCHES].iter().cloned(),
            )
        })
        .expect("ResNet-20 has an int8 twin")
}

/// `int8.*` and `f32.weight_bytes` for an f32 `model`: calibrates its int8
/// twin and scores its top-1 agreement with the f32 model over the pool.
pub fn int8(ctx: &Ctx, model: &ResNet, pool: &Pool, report: &mut Report) {
    let t = Instant::now();
    let mut q = quantize(ctx, model, pool);
    report.set("int8.calibrate_ms", ms(t.elapsed()));
    let (f, i) = weight_bytes(model);
    report.set("f32.weight_bytes", f);
    report.set("int8.weight_bytes", i);
    let mut f32_session = InferenceSession::new(model);
    report.set(
        "int8.top1_agree",
        top1_agree(&mut q, &mut f32_session, pool),
    );
}

/// Every probe that does not depend on the workload's traffic.
pub fn all(
    ctx: &Ctx,
    model: &Arc<ResNet>,
    session: &mut InferenceSession<'_>,
    pool: &Pool,
    report: &mut Report,
) {
    self::session(ctx, session, pool, report);
    convs(ctx, report);
    gemms(ctx, report);
    int8(ctx, model, pool, report);
    crate::serve::probe(ctx, model, pool, report);
    // serve-quad records the checkpoint its set-up saved and served
    if !report.metrics.contains_key("ckpt.save_ms") {
        let skeleton = crate::model::resnet20(model.config().neuron, 0);
        let path = Path::new(".bench_out/tmp").join(format!("probe-{}.qnck", ctx.seed));
        let times = checkpoint(ctx, model.as_ref(), &skeleton, &path);
        let _ = std::fs::remove_file(&path);
        times.record(report);
    }
}
