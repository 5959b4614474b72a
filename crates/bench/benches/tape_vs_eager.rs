//! Dual-mode execution benchmark: the taped forward pass ([`Graph`]) vs the
//! tape-free inference path ([`InferenceSession`]) on the paper's linear
//! and quadratic ResNets, recorded with their speedup in
//! `BENCH_inference.json`.

mod common;

use qn_autograd::Graph;
use qn_core::NeuronSpec;
use qn_models::{InferenceSession, NeuronPlacement, ResNet, ResNetConfig};
use qn_nn::Module;
use qn_tensor::{Rng, Tensor};

fn main() {
    let mut bench = common::Bench::new("inference");
    let samples = if bench.smoke { 3 } else { 20 };
    let (depth, width, res, rank) = if bench.smoke {
        (8, 4, 12, 3)
    } else {
        (20, 8, 16, 9)
    };
    let pool = qn_parallel::pool_threads();
    let mut rng = Rng::seed_from(23);
    for (name, neuron) in [
        ("linear", NeuronSpec::Linear),
        ("ours_quadratic", NeuronSpec::EfficientQuadratic { rank }),
    ] {
        let net = ResNet::cifar(ResNetConfig {
            depth,
            base_width: width,
            num_classes: 10,
            neuron,
            placement: NeuronPlacement::All,
            seed: 29,
        });
        let input = Tensor::randn(&[1, 3, res, res], &mut rng);
        let model = format!("resnet{depth}_{name}");
        let taped = bench
            .time(format!("taped/{model}"), pool, samples, || {
                let mut g = Graph::new();
                let xv = g.leaf(input.clone());
                let y = net.forward(&mut g, xv);
                std::hint::black_box(g.value(y).sum());
            })
            .median();
        let mut session = InferenceSession::new(&net);
        let r = bench.time(format!("eager/{model}"), pool, samples, || {
            std::hint::black_box(session.predict_batch(&input).sum());
        });
        let eager = r.median();
        r.metric("speedup_vs_taped", taped / eager);
    }
    bench.write();
}
