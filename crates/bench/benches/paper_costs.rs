//! The measured counterparts of the paper's cost claims, one case group
//! per artifact, recorded in `BENCH_costs.json` next to each module's MACs
//! and parameter count:
//!
//! - `neuron_forward` (Table I): one dense layer per neuron family;
//! - `conv_layers` (Fig. 4): linear vs quadratic convolutions at matched
//!   output channels;
//! - `eigendecomposition` (§III-A): Jacobi `eigh` and the rank-9 spectral
//!   top-k at the sizes quadratic convolutions produce (n = C·K²);
//! - `attention` (Table II): transformer forward with linear vs quadratic
//!   projections, the quadratic model at its reduced width;
//! - `resnet_inference` (Figs. 4–5): eager ResNet-8 predict (ResNet-20 is
//!   in `BENCH_inference.json`);
//! - `training_step`: one forward + backward + SGD step of ResNet-8.
//!
//! Forward passes run on the tape, as training sees them.

mod common;

use qn_autograd::Graph;
use qn_core::neurons::{
    EfficientQuadraticLinear, FactorizedQuadraticLinear, KervolutionLinear, LowRankQuadraticLinear,
    Quad1Linear, Quad2Linear,
};
use qn_core::NeuronSpec;
use qn_linalg::{eigh, spectral_top_k, symmetrize};
use qn_models::{
    InferenceSession, NeuronPlacement, ResNet, ResNetConfig, Transformer, TransformerConfig,
};
use qn_nn::{Linear, Module, Sgd, SgdConfig};
use qn_tensor::{Conv2dSpec, Rng, Tensor};

fn main() {
    let mut bench = common::Bench::new("costs");
    let samples = if bench.smoke { 3 } else { 20 };
    let pool = qn_parallel::pool_threads();
    let mut rng = Rng::seed_from(1);

    let mut taped_forward = |case: String, layer: &dyn Module, x: &Tensor| {
        let costs = layer.costs(x.shape().dims());
        bench
            .time(case, pool, samples, || {
                let mut g = Graph::new();
                let xv = g.leaf(x.clone());
                let y = layer.forward(&mut g, xv);
                std::hint::black_box(g.value(y).sum());
            })
            .metric("macs", costs.macs as f64)
            .metric("params", layer.param_count() as f64);
    };

    // -- neuron_forward: batch 32, 128 → 16 units, rank 9 ------------------
    let (n, units, k) = (128, 16, 9);
    let x = Tensor::randn(&[32, n], &mut rng);
    let layers: Vec<(&str, Box<dyn Module>)> = vec![
        ("linear", Box::new(Linear::new(n, units, false, &mut rng))),
        (
            "ours_k9",
            Box::new(EfficientQuadraticLinear::new(n, units, k, &mut rng)),
        ),
        (
            "lowrank_k9",
            Box::new(LowRankQuadraticLinear::new(n, units, k, &mut rng)),
        ),
        ("quad1", Box::new(Quad1Linear::new(n, units, &mut rng))),
        ("quad2", Box::new(Quad2Linear::new(n, units, &mut rng))),
        (
            "factorized",
            Box::new(FactorizedQuadraticLinear::new(n, units, &mut rng)),
        ),
        (
            "kervolution",
            Box::new(KervolutionLinear::new(n, units, 1.0, 3, &mut rng)),
        ),
    ];
    for (name, layer) in &layers {
        taped_forward(format!("neuron_forward/{name}"), layer.as_ref(), &x);
    }

    // -- conv_layers: 8 → 16 channels, 3×3, batch 4 at 16×16 ---------------
    let spec = Conv2dSpec::new(3, 1, 1);
    let x = Tensor::randn(&[4, 8, 16, 16], &mut rng);
    for (name, neuron) in [
        ("linear", NeuronSpec::Linear),
        ("ours_k3", NeuronSpec::EfficientQuadratic { rank: 3 }),
        ("ours_k9", NeuronSpec::EfficientQuadratic { rank: 9 }),
        ("quad2", NeuronSpec::Quad2),
    ] {
        let (layer, _) = neuron.build_conv(8, 16, spec, &mut rng);
        taped_forward(format!("conv_layers/{name}"), layer.as_ref(), &x);
    }

    // -- eigendecomposition ------------------------------------------------
    for n in [9usize, 27, 72] {
        let m = symmetrize(&Tensor::randn(&[n, n], &mut rng));
        bench.time(
            format!("eigendecomposition/eigh_n{n}"),
            pool,
            samples,
            || {
                std::hint::black_box(eigh(&m, 200).values[0]);
            },
        );
        bench.time(
            format!("eigendecomposition/top_k9_n{n}"),
            pool,
            samples,
            || {
                std::hint::black_box(spectral_top_k(&m, 9.min(n)).lambda[0]);
            },
        );
    }

    // -- attention: batch 4, source length 6, target length 5 --------------
    let base = TransformerConfig {
        src_vocab: 40,
        tgt_vocab: 44,
        d_model: 40,
        heads: 4,
        enc_layers: 2,
        dec_layers: 2,
        d_ff: 80,
        quadratic_rank: None,
        max_len: 24,
        dropout: 0.0,
        seed: 7,
    };
    let quad = TransformerConfig {
        d_model: 32,
        d_ff: 64,
        quadratic_rank: Some(7),
        ..base
    };
    let src: Vec<Vec<usize>> = (0..4).map(|i| vec![3 + i, 4, 5, 6, 7, 8]).collect();
    let tgt: Vec<Vec<usize>> = (0..4).map(|i| vec![1, 9 + i, 10, 11, 12]).collect();
    for (name, cfg) in [("baseline_d40", base), ("quadratic_d32_k7", quad)] {
        let model = Transformer::new(cfg);
        bench
            .time(format!("attention/{name}"), pool, samples, || {
                let mut g = Graph::new();
                let y = model.forward(&mut g, &src, &tgt);
                std::hint::black_box(g.value(y).sum());
            })
            .metric("params", model.param_count() as f64);
    }

    // -- resnet_inference and training_step --------------------------------
    let x = Tensor::randn(&[1, 3, 16, 16], &mut rng);
    let xt = Tensor::randn(&[8, 3, 12, 12], &mut rng);
    let labels: Vec<usize> = (0..8).map(|i| i % 10).collect();
    for (name, neuron) in [
        ("linear", NeuronSpec::Linear),
        ("ours_k9", NeuronSpec::EfficientQuadratic { rank: 9 }),
    ] {
        let resnet8 = |base_width, seed| {
            ResNet::cifar(ResNetConfig {
                depth: 8,
                base_width,
                num_classes: 10,
                neuron,
                placement: NeuronPlacement::All,
                seed,
            })
        };
        let net = resnet8(8, 5);
        let mut session = InferenceSession::new(&net);
        bench
            .time(
                format!("resnet_inference/resnet8_{name}"),
                pool,
                samples,
                || {
                    std::hint::black_box(session.predict_batch(&x).sum());
                },
            )
            .metric("macs", net.costs(x.shape().dims()).macs as f64)
            .metric("params", net.param_count() as f64);

        let net = resnet8(4, 17);
        let (lambda, other) = net.param_groups();
        let mut opt = Sgd::new(SgdConfig::default());
        opt.add_group(other, None, None);
        if !lambda.is_empty() {
            opt.add_group(lambda, Some(1e-4), None);
        }
        bench
            .time(
                format!("training_step/resnet8_{name}"),
                pool,
                samples,
                || {
                    let mut g = Graph::training(0);
                    let xv = g.leaf(xt.clone());
                    let logits = net.forward(&mut g, xv);
                    let loss = g.softmax_cross_entropy(logits, &labels, 0.0);
                    g.backward(loss);
                    opt.step(1.0);
                    opt.zero_grad();
                },
            )
            .metric("forward_macs", net.costs(xt.shape().dims()).macs as f64)
            .metric("params", net.param_count() as f64);
    }
    bench.write();
}
