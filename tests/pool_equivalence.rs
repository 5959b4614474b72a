//! Buffer-pool equivalence: pooled, slot-recycled execution must be
//! **bit-identical** to fresh-allocation execution.
//!
//! The recycling subsystem (the `BufferPool` free lists, the `EagerExec`
//! high-water-mark arena, the pooled GEMM packing scratch, the `Graph`
//! backward reclamation) hands kernels buffers with stale contents; the
//! contract is that every consumer fully overwrites (or zero-fills) what it
//! reads back out. These properties enforce the contract with
//! `Tensor::bit_identical` across random inputs, both `Exec` contexts,
//! 1-vs-N threads, and warm vs cold pools — including pools deliberately
//! **poisoned with NaN**, so a single recycled element leaking into a
//! result flips the comparison.

use proptest::prelude::*;
use quadranet::autograd::{EagerExec, Exec, Graph, Var};
use quadranet::core::NeuronSpec;
use quadranet::models::{InferenceSession, NeuronPlacement, ResNet, ResNetConfig};
use quadranet::tensor::{BufferPool, Conv2dSpec, PoolSpec, Tensor};
use std::sync::Arc;

fn vals(numel: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-2.0f32..2.0, numel)
}

fn tiny_net(seed: u64) -> ResNet {
    ResNet::cifar(ResNetConfig {
        depth: 8,
        base_width: 4,
        num_classes: 10,
        neuron: NeuronSpec::EfficientQuadratic { rank: 3 },
        placement: NeuronPlacement::All,
        seed,
    })
}

/// A mixed op chain covering every eager kernel family: elementwise,
/// broadcast, channel ops, shape ops, reductions, matmul/bmm, conv/pool,
/// norms, softmax, embedding and the fused composites.
fn op_gauntlet(cx: &mut dyn Exec, x4: &Tensor, w4: &Tensor, res3: &Tensor) -> Vec<Tensor> {
    let x = cx.leaf(x4.clone());
    let w = cx.leaf(w4.clone());
    let conv = cx.conv2d(x, w, Conv2dSpec::new(3, 1, 1));
    let bias = cx.leaf(Tensor::from_fn(&[4], |i| i as f32 * 0.3 - 0.5));
    let biased = cx.add_channel(conv, bias);
    let act = cx.relu(biased);
    let pooled = cx.max_pool2d(act, PoolSpec::new(2, 2));
    let avg = cx.avg_pool2d(act, PoolSpec::new(2, 2));
    let sum = cx.add(pooled, avg);
    let gap = cx.global_avg_pool(sum);
    let sq = cx.square(gap);
    let sm = cx.softmax_last(sq);
    let r3 = cx.leaf(res3.clone());
    let b1 = cx.slice_axis(r3, 0, 0, 1); // [1, 3, 6]
    let b2 = cx.slice_axis(r3, 0, 1, 2);
    let b2t = cx.permute(b2, &[0, 2, 1]); // [1, 6, 3]
    let bm = cx.bmm(b1, b2t); // [1, 3, 3]
    let cat = cx.concat(&[bm, b1], 2); // [1, 3, 9]
    let perm = cx.permute(cat, &[1, 0, 2]);
    let red = cx.sum_axis(perm, 1);
    let tot = cx.sum_all(red);
    let gamma = cx.leaf(Tensor::ones(&[6]));
    let beta = cx.leaf(Tensor::zeros(&[6]));
    let flat = cx.reshape(r3, &[2, 3, 6]);
    let ln = cx.layer_norm(flat, gamma, beta, 1e-5);
    let emb_w = cx.leaf(Tensor::from_fn(&[5, 3], |i| (i as f32).sin()));
    let emb = cx.embedding(emb_w, &[4, 0, 2]);
    // the efficient quadratic conv: 2 neurons of rank 3 over 3×3×3 patches
    let q = cx.leaf(Tensor::from_fn(&[6, 27], |i| (i as f32 * 0.37).sin()));
    let lambda = cx.leaf(Tensor::from_fn(&[2, 3], |i| i as f32 * 0.1 - 0.2));
    let wq = cx.leaf(Tensor::from_fn(&[2, 27], |i| (i as f32 * 0.11).cos()));
    let bq = cx.leaf(Tensor::from_fn(&[2], |i| i as f32 * 0.5));
    let quad = cx.quadratic_conv(x, q, lambda, wq, bq, Conv2dSpec::new(3, 2, 1));
    [act, sm, red, tot, ln, emb, quad]
        .into_iter()
        .map(|v| cx.value(v).clone())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Warm (slot-recycled, pool-backed) session output equals a cold
    /// fresh-session output bit-for-bit, request after request — with the
    /// session pool *and* the global pool poisoned with NaN between
    /// requests.
    #[test]
    fn pooled_predict_equals_fresh_even_when_poisoned(
        x in vals(3 * 12 * 12), seed in 0u64..50
    ) {
        let net = tiny_net(seed);
        let tx = Tensor::from_vec(x, &[3, 12, 12]).unwrap();
        let mut warm = InferenceSession::new(&net);
        // warm up the arena slots and every pool bucket
        let first = warm.predict(&tx);
        for round in 0..3 {
            // poison everything recycling can hand back: any kernel that
            // reads a recycled element before writing it surfaces as NaN
            warm.pool().poison_held(f32::NAN);
            BufferPool::global().poison_held(f32::NAN);
            let again = warm.predict(&tx);
            // cold reference: fresh session, fresh (empty) pool
            let mut cold = InferenceSession::new(&net);
            let reference = cold.predict(&tx);
            prop_assert!(again.bit_identical(&reference), "round {round}");
            prop_assert!(again.bit_identical(&first), "round {round} vs first");
            warm.recycle(again);
        }
    }

    /// The full eager op set, run twice through one recycled arena with
    /// different inputs, matches a fresh arena and the tape bit-for-bit.
    #[test]
    fn eager_arena_reuse_matches_fresh_and_tape(
        x1 in vals(2 * 3 * 8 * 8), x2 in vals(2 * 3 * 8 * 8),
        w in vals(4 * 3 * 3 * 3), r in vals(2 * 3 * 6)
    ) {
        let tw = Tensor::from_vec(w, &[4, 3, 3, 3]).unwrap();
        let tr = Tensor::from_vec(r, &[2, 3, 6]).unwrap();
        let tx1 = Tensor::from_vec(x1, &[2, 3, 8, 8]).unwrap();
        let tx2 = Tensor::from_vec(x2, &[2, 3, 8, 8]).unwrap();
        let mut arena = EagerExec::new();
        let _warm = op_gauntlet(&mut arena, &tx1, &tw, &tr);
        for tx in [&tx1, &tx2] {
            arena.reset();
            arena.pool().poison_held(f32::NAN);
            let warm = op_gauntlet(&mut arena, tx, &tw, &tr);
            let mut fresh = EagerExec::with_pool(Arc::new(BufferPool::new()));
            let cold = op_gauntlet(&mut fresh, tx, &tw, &tr);
            let mut tape = Graph::new();
            let taped = op_gauntlet(&mut tape, tx, &tw, &tr);
            for ((w, c), t) in warm.iter().zip(&cold).zip(&taped) {
                prop_assert!(w.bit_identical(c), "warm arena vs fresh arena");
                prop_assert!(w.bit_identical(t), "eager vs tape");
            }
        }
    }

    /// Pooled predict is bit-identical across thread counts (the recycled
    /// buffers must not perturb the parallel determinism contract).
    #[test]
    fn pooled_predict_bit_identical_across_thread_counts(
        x in vals(2 * 3 * 12 * 12), seed in 0u64..50
    ) {
        let net = tiny_net(seed);
        let tx = Tensor::from_vec(x, &[2, 3, 12, 12]).unwrap();
        let mut session = InferenceSession::new(&net);
        // warm in the parallel configuration, then poison and re-run
        let parallel = session.predict_batch(&tx);
        session.pool().poison_held(f32::NAN);
        let parallel2 = session.predict_batch(&tx);
        prop_assert!(parallel.bit_identical(&parallel2));
        let sequential = qn_parallel::with_max_threads(1, || {
            let mut s = InferenceSession::new(&net);
            s.predict_batch(&tx)
        });
        prop_assert!(parallel.bit_identical(&sequential));
    }

    /// A pooled training step (Graph::training_pooled + recycle_into)
    /// produces bit-identical gradients to unpooled graphs, on the first
    /// (cold) and second (warm, recycled-buffer) steps alike.
    #[test]
    fn pooled_backward_grads_match_unpooled(
        x in vals(4 * 3 * 8 * 8), seed in 0u64..50
    ) {
        let tx = Tensor::from_vec(x, &[4, 3, 8, 8]).unwrap();
        let targets = [0usize, 3, 1, 2];
        let step = |net: &ResNet, pool: Option<&Arc<BufferPool>>| -> Vec<Tensor> {
            let mut g = match pool {
                Some(p) => Graph::training_pooled(seed, Arc::clone(p)),
                None => Graph::training(seed),
            };
            let xv = g.leaf(tx.clone());
            let y = quadranet::nn::Module::forward(net, &mut g, xv);
            let loss = g.softmax_cross_entropy(y, &targets, 0.0);
            g.backward(loss);
            let grads: Vec<Tensor> = quadranet::nn::Module::params(net)
                .iter()
                .map(|p| {
                    let grad = p.grad();
                    p.zero_grad();
                    grad
                })
                .collect();
            if let Some(p) = pool {
                g.recycle_into(p);
            }
            grads
        };
        let net = tiny_net(seed);
        let pool = Arc::new(BufferPool::new());
        for round in 0..2 {
            let pooled = step(&net, Some(&pool));
            // poisoning between steps must not change the next step either
            pool.poison_held(f32::NAN);
            let fresh = step(&net, None);
            prop_assert_eq!(pooled.len(), fresh.len());
            for (pg, fg) in pooled.iter().zip(&fresh) {
                prop_assert!(pg.bit_identical(fg), "round {}", round);
            }
        }
    }
}

/// Non-property checks of the recycling bookkeeping itself.
#[test]
fn warm_pool_actually_recycles() {
    let net = tiny_net(3);
    let mut rng = quadranet::tensor::Rng::seed_from(9);
    let tx = Tensor::randn(&[3, 12, 12], &mut rng);
    let mut session = InferenceSession::new(&net);
    let y = session.predict(&tx);
    session.recycle(y);
    let before = session.pool().stats();
    let y = session.predict(&tx);
    session.recycle(y);
    let after = session.pool().stats();
    assert!(
        after.hits > before.hits,
        "second request must hit the pool ({before:?} -> {after:?})"
    );
    assert_eq!(
        after.misses, before.misses,
        "second request must not miss the pool"
    );
}

#[test]
fn take_and_reset_still_behave_on_the_slot_arena() {
    let mut e = EagerExec::new();
    let v = e.leaf(Tensor::ones(&[4]));
    let w: Var = e.relu(v);
    assert_eq!(e.len(), 2);
    let out = e.take(w);
    assert_eq!(out.data(), &[1.0, 1.0, 1.0, 1.0]);
    e.reset();
    assert!(e.is_empty());
    let v2 = e.leaf_view(&Tensor::zeros(&[2]));
    assert_eq!(e.value(v2).data(), &[0.0, 0.0]);
}
