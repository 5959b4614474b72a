//! `train-quad`: a closed loop of training jobs. Each job trains a fresh
//! quad model with `train_classifier` for [`EPOCHS`] epochs over the same
//! seeded `synthetic_cifar10` set at batch 32, one gradient shard, with
//! augmentation on, so every job of a run must produce the same loss curve
//! bit for bit.
//!
//! The traced run adds the same training rebuilt from public calls
//! (`DataLoader`, `augment_batch`, `Graph`, `Sgd`), with a span around
//! each call. Its loss curve must equal `train_classifier`'s bit for bit,
//! which shows the traced loop is the same program.

use crate::model::{self, derive, Pool, BATCH};
use crate::stats::{median, ms, repeat_setup};
use crate::trace::Tracer;
use crate::{probes, Ctx, Report};
use qn_autograd::Graph;
use qn_bench::counting_alloc::snapshot;
use qn_data::{augment_batch, DataLoader, ImageDataset};
use qn_experiments::{train_classifier, TrainConfig};
use qn_models::{InferenceSession, ResNet};
use qn_nn::{clip_grad_norm, Module, Sgd, SgdConfig, StepDecay};
use qn_tensor::{BufferPool, Rng};
use std::sync::Arc;
use std::time::Instant;

/// Training images per class (320 per epoch).
const PER_CLASS: usize = 32;
/// Test images per class, evaluated at the end of each job.
const TEST_PER_CLASS: usize = 8;
/// Epochs per job.
const EPOCHS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

fn config(seed: u64) -> TrainConfig {
    TrainConfig {
        epochs: EPOCHS,
        batch_size: BATCH,
        augment: true,
        grad_shards: 1,
        seed: derive(seed, 3),
        ..TrainConfig::default()
    }
}

fn fresh_model() -> ResNet {
    model::resnet20(model::QUAD, model::WEIGHT_SEED)
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let (data, setup_s) = repeat_setup(SETUPS, || {
        let data = model::dataset(PER_CLASS, TEST_PER_CLASS, derive(ctx.seed, 1));
        std::hint::black_box(fresh_model());
        data
    });
    let cfg = config(ctx.seed);
    let samples_per_job = (EPOCHS * data.train_len()) as f64;

    // a traced run needs one untraced job, as the reference curve
    let budget = if ctx.tracer.on() { 0.0 } else { ctx.seconds };
    let mut jobs = Vec::new();
    let mut reference: Option<Vec<f32>> = None;
    let start = Instant::now();
    while jobs.is_empty() || start.elapsed().as_secs_f64() < budget {
        let net = fresh_model();
        let t = Instant::now();
        let result = ctx
            .tracer
            .span("train_classifier", 0, || train_classifier(&net, &data, cfg));
        jobs.push(t.elapsed().as_secs_f64());
        let curve: Vec<f32> = result.curve.iter().map(|e| e.loss).collect();
        report.attempted += 1;
        let ok = !result.diverged
            && curve.len() == EPOCHS
            && curve.iter().all(|l| l.is_finite())
            && reference.as_ref().is_none_or(|r| bits(r) == bits(&curve));
        if !ok {
            report.failed += 1;
        }
        reference.get_or_insert(curve);
    }
    let reference = reference.expect("at least one job");
    report.check_operations("training jobs diverged or left the first job's loss curve");

    if ctx.tracer.on() {
        traced(ctx, &data, cfg, &reference, &mut report);
    } else {
        let job = median(&jobs);
        report.set("setup_s", setup_s);
        report.set("p50_ms", job * 1e3);
        report.set("samples_per_s", samples_per_job / job);
        report.set("loss", f64::from(reference[EPOCHS - 1]));
    }
    report
}

fn bits(curve: &[f32]) -> Vec<u32> {
    curve.iter().map(|l| l.to_bits()).collect()
}

/// What one pass of the step loop measured.
struct Steps {
    net: Arc<ResNet>,
    curve: Vec<f32>,
    wall_s: f64,
    data_ms: Vec<f64>,
    forward_ms: Vec<f64>,
    backward_ms: Vec<f64>,
    optim_ms: Vec<f64>,
    allocations: Vec<f64>,
}

/// `train_classifier`'s single-shard path rebuilt from public calls, with
/// a span around each call into a layer when `tr` is on.
fn step_loop(tr: &Tracer, data: &ImageDataset, cfg: TrainConfig) -> Steps {
    let net = fresh_model();
    let (lambda, other) = net.param_groups();
    let mut opt = Sgd::new(SgdConfig {
        lr: cfg.lr,
        momentum: cfg.momentum,
        weight_decay: cfg.weight_decay,
    });
    opt.add_group(other, None, None);
    if !lambda.is_empty() {
        opt.add_group(lambda, Some(cfg.lambda_lr), Some(0.0));
    }
    let schedule = StepDecay::new(vec![cfg.epochs / 2, cfg.epochs * 3 / 4], 0.1);
    let loader = DataLoader::new(&data.train_images, &data.train_labels, cfg.batch_size);
    let mut rng = Rng::seed_from(cfg.seed);
    let mut step_seed = cfg.seed;
    let pool = Arc::new(BufferPool::new());
    let clip = cfg.clip.expect("the default recipe clips gradients");

    let (mut data_ms, mut forward_ms, mut backward_ms, mut optim_ms, mut allocations) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut curve = Vec::with_capacity(cfg.epochs);
    let start = Instant::now();
    let mut step = 0u64;
    for epoch in 0..cfg.epochs {
        let factor = schedule.factor(epoch);
        let mut batches = tr.span("data", 0, || {
            loader.epoch_with_order(loader.shuffle_order(&mut rng))
        });
        let (mut loss_sum, mut n) = (0.0f32, 0usize);
        loop {
            step += 1;
            let before = snapshot();
            let t = Instant::now();
            let Some((images, labels)) = tr.span("data", step, || {
                batches.next().map(|(images, labels)| {
                    let images = if cfg.augment {
                        augment_batch(&images, 2, &mut rng)
                    } else {
                        images
                    };
                    (images, labels)
                })
            }) else {
                break;
            };
            data_ms.push(ms(t.elapsed()));
            step_seed = step_seed.wrapping_add(1);
            let t = Instant::now();
            let (mut g, loss, loss_val) = tr.span("forward", step, || {
                let mut g = Graph::training_pooled(step_seed, Arc::clone(&pool));
                let x = g.leaf(images);
                let logits = net.forward(&mut g, x);
                let loss = g.softmax_cross_entropy(logits, &labels, 0.0);
                let loss_val = g.value(loss).data()[0];
                (g, loss, loss_val)
            });
            forward_ms.push(ms(t.elapsed()));
            let t = Instant::now();
            tr.span("backward", step, || {
                if loss_val.is_finite() {
                    g.backward(loss);
                }
                g.recycle_into(&pool);
            });
            backward_ms.push(ms(t.elapsed()));
            let t = Instant::now();
            tr.span("sgd", step, || {
                clip_grad_norm(&opt.params(), clip);
                opt.step(factor);
                opt.zero_grad();
            });
            optim_ms.push(ms(t.elapsed()));
            allocations.push(snapshot().since(&before).allocations as f64);
            loss_sum += loss_val;
            n += 1;
        }
        curve.push(loss_sum / n.max(1) as f32);
    }
    Steps {
        net: Arc::new(net),
        curve,
        wall_s: start.elapsed().as_secs_f64(),
        data_ms,
        forward_ms,
        backward_ms,
        optim_ms,
        allocations,
    }
}

/// The traced run: the step loop once untraced and once traced. Both loss
/// curves must equal `train_classifier`'s; the wall-time gap between the
/// two is the tracing overhead.
fn traced(
    ctx: &Ctx,
    data: &ImageDataset,
    cfg: TrainConfig,
    reference: &[f32],
    report: &mut Report,
) {
    let plain = step_loop(&Tracer::new(false), data, cfg);
    let steps = step_loop(&ctx.tracer, data, cfg);
    for curve in [&plain.curve, &steps.curve] {
        report.check(bits(curve) == bits(reference), || {
            format!("step loop loss curve {curve:?} differs from train_classifier's {reference:?}")
        });
    }
    report.set("train.data_ms", median(&steps.data_ms));
    report.set("train.forward_ms", median(&steps.forward_ms));
    report.set("train.backward_ms", median(&steps.backward_ms));
    report.set("train.optim_ms", median(&steps.optim_ms));
    report.set("alloc.per_train_step", median(&steps.allocations));
    report.set("trace.overhead", steps.wall_s / plain.wall_s - 1.0);

    // layer probes on the trained model, at the training batch
    let pool_images = Pool::generate(4, derive(ctx.seed, 4));
    let net = &steps.net;
    let mut session = InferenceSession::new(net.as_ref());
    let t = Instant::now();
    let y = ctx.tracer.span("predict_batch", 0, || {
        session.predict_batch(&pool_images.batches[0])
    });
    report.set("model.first_predict_ms", ms(t.elapsed()));
    session.recycle(y);
    probes::all(ctx, net, &mut session, &pool_images, report);
    report.set(
        "train.tape_vs_eager",
        report.metrics["train.forward_ms"] / report.metrics["model.predict_batch_ms"],
    );
}
