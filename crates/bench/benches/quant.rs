//! The int8 inference tier, measured: weight-memory reduction at the
//! ResNet-20 im2col shapes, `predict` latency of the calibrated and dynamic
//! int8 sessions vs the f32 exact session on ResNet-20, and top-1 drift of
//! both int8 sessions on the synthetic classifier evaluation. The `gemm_i8`
//! kernel itself is timed next to the f32 core by the `gemm` bench.
//!
//! Fails unless every weight shape shrinks at least 3.5× and both int8
//! sessions stay within 0.5 points of f32 top-1. Writes `BENCH_quant.json`;
//! set `QN_SIMD={scalar,sse2,avx2}` to pin the dispatch level.

mod common;

use qn_core::NeuronSpec;
use qn_data::{ImageDataset, ImageDatasetConfig};
use qn_experiments::{
    evaluate_classifier, evaluate_classifier_session, train_classifier, TrainConfig,
};
use qn_models::{InferenceSession, NeuronPlacement, ResNet, ResNetConfig};
use qn_tensor::{QTensor, Rng, Tensor};

/// ResNet-20/CIFAR conv weights `[OC, C·K²]`, as in the `gemm` bench's
/// im2col shapes.
const WEIGHTS: [(&str, usize, usize); 3] = [
    ("resnet20_stage1_im2col", 16, 144),
    ("resnet20_stage2_im2col", 32, 288),
    ("resnet20_stage3_im2col", 64, 576),
];

fn resnet(depth: usize, neuron: NeuronSpec, seed: u64) -> ResNet {
    ResNet::cifar(ResNetConfig {
        depth,
        base_width: 8,
        num_classes: 10,
        neuron,
        placement: NeuronPlacement::All,
        seed,
    })
}

fn main() {
    let mut bench = common::Bench::new("quant");
    let samples = if bench.smoke { 5 } else { 30 };
    let mut rng = Rng::seed_from(91);

    // -- weight memory -----------------------------------------------------
    let mut reductions = Vec::new();
    for &(label, rows, cols) in &WEIGHTS {
        let qw = QTensor::quantize(&Tensor::randn(&[rows, cols], &mut rng));
        let reduction = qw.f32_bytes() as f64 / qw.weight_bytes() as f64;
        bench
            .record(format!("weight_memory/{label}"), None)
            .metric("f32_bytes", qw.f32_bytes() as f64)
            .metric("int8_bytes", qw.weight_bytes() as f64)
            .metric("reduction", reduction);
        reductions.push((label, reduction));
    }

    // -- predict latency on ResNet-20 --------------------------------------
    let x = Tensor::randn(&[8, 3, 16, 16], &mut rng);
    for (name, neuron) in [
        ("linear", NeuronSpec::Linear),
        ("ours_k9", NeuronSpec::EfficientQuadratic { rank: 9 }),
    ] {
        let net = resnet(20, neuron, 5);
        // calibrated = the deployment configuration (frozen activation
        // scales, no per-row absmax pass); dynamic = the fallback tier
        let sessions = [
            ("f32", InferenceSession::new(&net)),
            (
                "int8_calibrated",
                InferenceSession::quantized_calibrated(&net, [x.clone()])
                    .expect("ResNet quantizes"),
            ),
            (
                "int8_dynamic",
                InferenceSession::quantized(&net).expect("ResNet quantizes"),
            ),
        ];
        let mut f32_s = 0.0;
        for (tier, mut session) in sessions {
            let r = bench.time(
                format!("predict_b8/resnet20_{name}/{tier}"),
                1,
                samples,
                || {
                    std::hint::black_box(session.predict_batch(&x).sum());
                },
            );
            if tier == "f32" {
                f32_s = r.median();
            } else {
                let t = r.median();
                r.metric("speedup_vs_f32", f32_s / t);
            }
        }
    }

    // -- top-1 drift on the classifier evaluation --------------------------
    let data = ImageDataset::generate(ImageDatasetConfig {
        classes: 10,
        resolution: 16,
        train_per_class: if bench.smoke { 30 } else { 80 },
        test_per_class: 50,
        seed: 7,
        variability: 0.5,
    });
    let net = resnet(8, NeuronSpec::EfficientQuadratic { rank: 3 }, 11);
    train_classifier(
        &net,
        &data,
        TrainConfig {
            epochs: if bench.smoke { 2 } else { 5 },
            ..TrainConfig::default()
        },
    );
    let (images, labels) = (&data.test_images, &data.test_labels);
    let f32_top1 = evaluate_classifier(&net, images, labels, 64);
    let calibration = (0..2).map(|i| data.train_images.slice_axis(0, 64 * i, 64 * (i + 1)));
    let sessions = [
        ("int8_dynamic", InferenceSession::quantized(&net)),
        (
            "int8_calibrated",
            InferenceSession::quantized_calibrated(&net, calibration),
        ),
    ];
    let mut drifts = Vec::new();
    for (tier, session) in sessions {
        let mut session = session.expect("the quadratic ResNet quantizes");
        let top1 = evaluate_classifier_session(&mut session, images, labels, 64);
        let drift_points = 100.0 * (f32_top1 - top1).abs() as f64;
        bench
            .record(format!("accuracy/{tier}"), None)
            .metric("test_images", labels.len() as f64)
            .metric("f32_top1", f32_top1 as f64)
            .metric("int8_top1", top1 as f64)
            .metric("drift_points", drift_points);
        drifts.push((tier, drift_points));
    }
    bench.write();

    for (label, reduction) in reductions {
        assert!(
            reduction >= 3.5,
            "{label}: weight memory shrank only {reduction:.2}x (< 3.5x)"
        );
    }
    for (tier, drift) in drifts {
        assert!(drift <= 0.5, "{tier}: top-1 drift {drift:.2} pts > 0.5");
    }
}
