//! Checkpoint round-trip properties: a model saved and loaded back —
//! whether by copying blobs ([`LoadMode::Copy`]) or borrowing them zero-copy
//! from the mapped file ([`LoadMode::Mapped`]) — must predict **bit
//! identically** to the fresh model it was saved from. Checked for every
//! neuron family, both model families (ResNet and Transformer), both
//! execution contexts (autograd tape and the eager serving arena), and at
//! one worker thread vs the full pool.

use proptest::prelude::*;
use qn_autograd::{Graph, Parameter};
use qn_core::neurons::{
    EfficientQuadraticLinear, FactorizedQuadraticLinear, GeneralQuadraticLinear, KervolutionLinear,
    LowRankQuadraticLinear, NoLinearQuadraticLinear, Quad1Linear, Quad2Linear,
};
use qn_core::NeuronSpec;
use qn_models::{
    InferenceSession, NeuronPlacement, ResNet, ResNetConfig, Transformer, TransformerConfig,
};
use qn_nn::{checkpoint, LoadMode, Module, ParamVisitor};
use qn_tensor::{Rng, Tensor};
use std::path::PathBuf;
use std::sync::RwLock;

fn tmp(tag: &str, seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!("qn_roundtrip_{tag}_{seed}.qnckpt"))
}

/// Forward pass on the autograd tape.
fn tape_forward(m: &dyn Module, x: &Tensor) -> Tensor {
    let mut g = Graph::new();
    let xv = g.leaf(x.clone());
    let y = m.forward(&mut g, xv);
    g.value(y).clone()
}

/// Forward pass on the eager serving arena.
fn eager_forward(m: &dyn Module, x: &Tensor) -> Tensor {
    InferenceSession::new(m).predict_batch(x)
}

/// The core property: `fresh` vs the same weights reloaded into the
/// differently-initialized `copied` (blob copies) and `mapped` (zero-copy
/// file windows) skeletons, on both exec contexts and both thread counts.
fn assert_roundtrip(
    tag: &str,
    seed: u64,
    fresh: &dyn Module,
    copied: &dyn Module,
    mapped: &dyn Module,
    x: &Tensor,
) -> Result<(), TestCaseError> {
    let path = tmp(tag, seed);
    checkpoint::save_module(fresh, &[], &path).expect("save");
    checkpoint::load_module(copied, &path, LoadMode::Copy).expect("load copy");
    checkpoint::load_module(mapped, &path, LoadMode::Mapped).expect("load mapped");

    let want_tape = tape_forward(fresh, x);
    prop_assert!(
        want_tape.bit_identical(&tape_forward(copied, x)),
        "{tag}: copy-loaded tape forward diverges"
    );
    prop_assert!(
        want_tape.bit_identical(&tape_forward(mapped, x)),
        "{tag}: mmap-loaded tape forward diverges"
    );

    let want_eager = eager_forward(fresh, x);
    prop_assert!(
        want_eager.bit_identical(&eager_forward(copied, x)),
        "{tag}: copy-loaded eager forward diverges"
    );
    prop_assert!(
        want_eager.bit_identical(&eager_forward(mapped, x)),
        "{tag}: mmap-loaded eager forward diverges"
    );
    // determinism contract: one worker thread must reproduce the full
    // pool bit for bit, also through mapped storage
    let sequential = qn_parallel::with_max_threads(1, || eager_forward(mapped, x));
    prop_assert!(
        want_eager.bit_identical(&sequential),
        "{tag}: single-threaded serve of the mmap-loaded model diverges"
    );
    let _ = std::fs::remove_file(&path);
    Ok(())
}

/// One constructor call per dense neuron family (covers the two families —
/// general and no-linear — that have no [`NeuronSpec`] conv deployment).
fn dense_families(n: usize, m: usize, k: usize, seed: u64) -> Vec<(&'static str, Box<dyn Module>)> {
    let mut rng = Rng::seed_from(seed);
    vec![
        (
            "efficient",
            Box::new(EfficientQuadraticLinear::new(n, m, k, &mut rng)) as Box<dyn Module>,
        ),
        (
            "efficient-scalar",
            Box::new(EfficientQuadraticLinear::new_scalar_output(
                n, m, k, &mut rng,
            )),
        ),
        (
            "general",
            Box::new(GeneralQuadraticLinear::new(n, m, &mut rng)),
        ),
        (
            "no-linear",
            Box::new(NoLinearQuadraticLinear::new(n, m, &mut rng)),
        ),
        (
            "low-rank",
            Box::new(LowRankQuadraticLinear::new(n, m, k, &mut rng)),
        ),
        (
            "factorized",
            Box::new(FactorizedQuadraticLinear::new(n, m, &mut rng)),
        ),
        ("quad1", Box::new(Quad1Linear::new(n, m, &mut rng))),
        ("quad2", Box::new(Quad2Linear::new(n, m, &mut rng))),
        (
            "kervolution",
            Box::new(KervolutionLinear::new(n, m, 0.5, 3, &mut rng)),
        ),
    ]
}

fn resnet_with(spec: NeuronSpec, seed: u64) -> ResNet {
    ResNet::cifar(ResNetConfig {
        depth: 8,
        base_width: 4,
        num_classes: 10,
        neuron: spec,
        placement: NeuronPlacement::All,
        seed,
    })
}

fn transformer_with(rank: Option<usize>, seed: u64) -> Transformer {
    Transformer::new(TransformerConfig {
        src_vocab: 13,
        tgt_vocab: 11,
        d_model: 16,
        heads: 2,
        enc_layers: 1,
        dec_layers: 1,
        d_ff: 24,
        quadratic_rank: rank,
        max_len: 12,
        dropout: 0.0,
        seed,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every dense neuron family survives save → load → predict untouched.
    #[test]
    fn dense_layers_roundtrip_bit_identically(
        n in 3usize..8, m in 1usize..4, seed in 0u64..1000,
    ) {
        let k = 1 + (seed as usize % 3);
        let fresh = dense_families(n, m, k, seed);
        let copied = dense_families(n, m, k, seed + 101);
        let mapped = dense_families(n, m, k, seed + 202);
        let mut rng = Rng::seed_from(seed ^ 0x5EED);
        let x = Tensor::randn(&[3, n], &mut rng);
        for (((tag, f), (_, c)), (_, p)) in fresh.iter().zip(&copied).zip(&mapped) {
            assert_roundtrip(tag, seed, f.as_ref(), c.as_ref(), p.as_ref(), &x)?;
        }
    }

    /// Every NeuronSpec deployment of the ResNet family round-trips.
    #[test]
    fn resnets_roundtrip_bit_identically(seed in 0u64..1000, batch in 1usize..3) {
        let specs = [
            NeuronSpec::Linear,
            NeuronSpec::EfficientQuadratic { rank: 3 },
            NeuronSpec::EfficientQuadraticScalar { rank: 3 },
            NeuronSpec::LowRank { rank: 2 },
            NeuronSpec::Quad1,
            NeuronSpec::Quad2,
            NeuronSpec::Factorized,
            NeuronSpec::Kervolution { degree: 3, offset: 1.0 },
        ];
        let mut rng = Rng::seed_from(seed ^ 0xCAFE);
        let x = Tensor::randn(&[batch, 3, 8, 8], &mut rng);
        for spec in specs {
            let fresh = resnet_with(spec, seed);
            let copied = resnet_with(spec, seed + 7);
            let mapped = resnet_with(spec, seed + 13);
            assert_roundtrip(&format!("resnet_{}", spec.label()), seed, &fresh, &copied, &mapped, &x)?;
        }
    }

    /// The Transformer family (linear and quadratic projections): tape
    /// forward plus the eager greedy decoder, fresh vs copy vs mmap.
    #[test]
    fn transformers_roundtrip_bit_identically(seed in 0u64..1000, rank_idx in 0usize..3) {
        // d_model 16 requires rank + 1 to divide 16
        let rank = [1usize, 3, 7][rank_idx];
        for (tag, rank) in [("linear", None), ("quadratic", Some(rank))] {
            let fresh = transformer_with(rank, seed);
            let copied = transformer_with(rank, seed + 7);
            let mapped = transformer_with(rank, seed + 13);
            let path = tmp(&format!("transformer_{tag}"), seed);
            checkpoint::save_visited(|v| fresh.visit_params(v), &[], &path).expect("save");
            checkpoint::load_visited(|v| copied.visit_params(v), &path, LoadMode::Copy)
                .expect("load copy");
            checkpoint::load_visited(|v| mapped.visit_params(v), &path, LoadMode::Mapped)
                .expect("load mapped");

            let mut rng = Rng::seed_from(seed ^ 0xBEEF);
            let src: Vec<usize> = (0..6).map(|_| 2 + rng.below(11)).collect();
            let tgt: Vec<usize> = (0..4).map(|_| 2 + rng.below(9)).collect();
            let forward = |t: &Transformer| {
                let mut g = Graph::new();
                let y = t.forward(&mut g, std::slice::from_ref(&src), std::slice::from_ref(&tgt));
                g.value(y).clone()
            };
            let want = forward(&fresh);
            prop_assert!(
                want.bit_identical(&forward(&copied)),
                "{tag}: copy-loaded transformer forward diverges"
            );
            prop_assert!(
                want.bit_identical(&forward(&mapped)),
                "{tag}: mmap-loaded transformer forward diverges"
            );

            let decoded = fresh.greedy_decode(&src, 10);
            prop_assert_eq!(&decoded, &copied.greedy_decode(&src, 10));
            prop_assert_eq!(&decoded, &mapped.greedy_decode(&src, 10));
            let sequential = qn_parallel::with_max_threads(1, || mapped.greedy_decode(&src, 10));
            prop_assert_eq!(&decoded, &sequential);
            let _ = std::fs::remove_file(&path);
        }
    }
}

/// Dotted names of every state tensor `m` reports, in visit order — the
/// checkpoint keys its `act_stats` and batch-norm statistics load from.
fn state_names(m: &dyn Module) -> Vec<String> {
    struct Names {
        path: Vec<String>,
        out: Vec<String>,
    }
    impl ParamVisitor for Names {
        fn enter(&mut self, scope: &str) {
            self.path.push(scope.to_string());
        }
        fn leave(&mut self) {
            self.path.pop();
        }
        fn param(&mut self, _name: &str, _p: &Parameter) {}
        fn state(&mut self, name: &str, _t: &RwLock<Tensor>) {
            let mut full = self.path.clone();
            full.push(name.to_string());
            self.out.push(full.join("."));
        }
    }
    let mut v = Names {
        path: Vec::new(),
        out: Vec::new(),
    };
    m.visit_params(&mut v);
    v.out
}

/// State keys of a depth-8 ResNet's int8 twin, quad and linear alike.
const QUANTIZED_RESNET8_STATE_KEYS: [&str; 28] = [
    "stem.act_stats",
    "stem_bn.running_mean",
    "stem_bn.running_var",
    "block0.conv1.act_stats",
    "block0.bn1.running_mean",
    "block0.bn1.running_var",
    "block0.conv2.act_stats",
    "block0.bn2.running_mean",
    "block0.bn2.running_var",
    "block1.conv1.act_stats",
    "block1.bn1.running_mean",
    "block1.bn1.running_var",
    "block1.conv2.act_stats",
    "block1.bn2.running_mean",
    "block1.bn2.running_var",
    "block1.shortcut.act_stats",
    "block1.shortcut_bn.running_mean",
    "block1.shortcut_bn.running_var",
    "block2.conv1.act_stats",
    "block2.bn1.running_mean",
    "block2.bn1.running_var",
    "block2.conv2.act_stats",
    "block2.bn2.running_mean",
    "block2.bn2.running_var",
    "block2.shortcut.act_stats",
    "block2.shortcut_bn.running_mean",
    "block2.shortcut_bn.running_var",
    "classifier.act_stats",
];

/// The int8 twins' state keys are pinned: calibrated checkpoints written
/// by earlier builds must keep loading into today's twins.
#[test]
fn quantized_resnet_state_keys_are_stable() {
    for spec in [
        NeuronSpec::EfficientQuadratic { rank: 3 },
        NeuronSpec::Linear,
    ] {
        let twin = resnet_with(spec, 0).quantized().expect("ResNet quantizes");
        assert_eq!(
            state_names(twin.as_ref()),
            QUANTIZED_RESNET8_STATE_KEYS,
            "{}",
            spec.label()
        );
    }
}
