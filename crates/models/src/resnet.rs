use qn_autograd::{Exec, Parameter, Var};
use qn_core::NeuronSpec;
use qn_nn::{
    visit_scoped, BatchNorm2d, Conv2d, Costs, GlobalAvgPool, Linear, Module, ParamVisitor,
};
use qn_tensor::{Conv2dSpec, Rng};

/// Which convolutional layers receive the configured neuron kind; the rest
/// fall back to linear convolutions. `FirstN` reproduces the paper's
/// "KNN-n" deployments (kervolution in the first `n` layers, Fig. 6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NeuronPlacement {
    /// Every 3×3 convolution uses the configured neuron.
    All,
    /// Only the first `n` 3×3 convolutions (in forward order) do.
    FirstN(usize),
    /// An explicit set of conv-layer indices (forward order, 0-based) —
    /// motivated by the paper's Fig. 7 observation that quadratic
    /// parameters matter in some layers and vanish in others.
    Layers(Vec<usize>),
}

/// Configuration for [`ResNet`].
#[derive(Debug, Clone, PartialEq)]
pub struct ResNetConfig {
    /// Total depth: `6n + 2` for CIFAR-style nets (20, 32, 44, 56, 110) or
    /// 18 for the ImageNet-style variant.
    pub depth: usize,
    /// Stem width (the paper's CIFAR ResNets use 16; reduce for CPU runs).
    pub base_width: usize,
    /// Classifier classes.
    pub num_classes: usize,
    /// Neuron kind for 3×3 convolutions.
    pub neuron: NeuronSpec,
    /// Which layers receive that neuron kind.
    pub placement: NeuronPlacement,
    /// Weight-initialization seed.
    pub seed: u64,
}

/// Builder state threading the conv-layer counter through construction.
struct Builder {
    rng: Rng,
    neuron: NeuronSpec,
    placement: NeuronPlacement,
    conv_index: usize,
}

impl Builder {
    fn spec_for_next(&mut self) -> NeuronSpec {
        let use_neuron = match &self.placement {
            NeuronPlacement::All => true,
            NeuronPlacement::FirstN(n) => self.conv_index < *n,
            NeuronPlacement::Layers(set) => set.contains(&self.conv_index),
        };
        self.conv_index += 1;
        if use_neuron {
            self.neuron
        } else {
            NeuronSpec::Linear
        }
    }

    fn conv3x3(&mut self, in_c: usize, target: usize, stride: usize) -> (Box<dyn Module>, usize) {
        let spec = self.spec_for_next();
        spec.build_conv(in_c, target, Conv2dSpec::new(3, stride, 1), &mut self.rng)
    }
}

/// One pre-activation-free basic residual block (conv–bn–relu–conv–bn +
/// shortcut, then relu), as in the original CIFAR ResNet.
struct BasicBlock {
    conv1: Box<dyn Module>,
    bn1: BatchNorm2d,
    conv2: Box<dyn Module>,
    bn2: BatchNorm2d,
    shortcut: Option<(Conv2d, BatchNorm2d)>,
    out_channels: usize,
}

impl BasicBlock {
    fn new(builder: &mut Builder, in_c: usize, target: usize, stride: usize) -> Self {
        let (conv1, mid) = builder.conv3x3(in_c, target, stride);
        let bn1 = BatchNorm2d::new(mid);
        let (conv2, out) = builder.conv3x3(mid, target, 1);
        let bn2 = BatchNorm2d::new(out);
        let shortcut = if stride != 1 || in_c != out {
            // projection shortcut stays linear (the paper replaces the 3×3
            // feature convolutions, not the 1×1 identity projections)
            let proj = Conv2d::new(
                in_c,
                out,
                Conv2dSpec::new(1, stride, 0),
                false,
                &mut builder.rng,
            );
            Some((proj, BatchNorm2d::new(out)))
        } else {
            None
        };
        BasicBlock {
            conv1,
            bn1,
            conv2,
            bn2,
            shortcut,
            out_channels: out,
        }
    }
}

impl BasicBlock {
    /// Int8 twin of this block, if every conv in it quantizes. Batch norms
    /// are snapshotted in f32 (see `BatchNorm2d::snapshot`), so the fused
    /// bn→(add)→relu inference tail survives quantization unchanged.
    fn quantize_block(&self) -> Option<QuantizedBasicBlock> {
        Some(QuantizedBasicBlock {
            conv1: self.conv1.quantized()?,
            bn1: self.bn1.snapshot(),
            conv2: self.conv2.quantized()?,
            bn2: self.bn2.snapshot(),
            shortcut: match &self.shortcut {
                Some((proj, bn)) => Some((proj.quantized()?, bn.snapshot())),
                None => None,
            },
        })
    }
}

impl Module for BasicBlock {
    fn forward(&self, g: &mut dyn Exec, x: Var) -> Var {
        // Both bn tails run through the fused elementwise chain: in
        // inference the eager path does bn1+relu in one activation pass and
        // bn2+residual+relu in another, instead of five passes; in training
        // they are the ordinary bn, add and relu ops (bit-identical values).
        let out = self.conv1.forward(g, x);
        let out = self.bn1.forward_fused(g, out, true, None);
        let out = self.conv2.forward(g, out);
        let sc = match &self.shortcut {
            Some((proj, bn)) => {
                let s = proj.forward(g, x);
                bn.forward(g, s)
            }
            None => x,
        };
        self.bn2.forward_fused(g, out, true, Some(sc))
    }

    fn visit_params(&self, v: &mut dyn ParamVisitor) {
        visit_scoped(v, "conv1", |v| self.conv1.visit_params(v));
        visit_scoped(v, "bn1", |v| self.bn1.visit_params(v));
        visit_scoped(v, "conv2", |v| self.conv2.visit_params(v));
        visit_scoped(v, "bn2", |v| self.bn2.visit_params(v));
        if let Some((proj, bn)) = &self.shortcut {
            visit_scoped(v, "shortcut", |v| proj.visit_params(v));
            visit_scoped(v, "shortcut_bn", |v| bn.visit_params(v));
        }
    }

    fn costs(&self, input: &[usize]) -> Costs {
        let c1 = self.conv1.costs(input);
        let c2 = self.conv2.costs(&c1.output);
        let mut macs = c1.macs + c2.macs;
        if let Some((proj, _)) = &self.shortcut {
            macs += proj.costs(input).macs;
        }
        Costs {
            macs,
            output: c2.output,
        }
    }

    fn quantized(&self) -> Option<Box<dyn Module>> {
        self.quantize_block()
            .map(|b| Box::new(b) as Box<dyn Module>)
    }
}

/// [`BasicBlock`] with int8 convolutions and f32 batch-norm snapshots —
/// the residual wiring and fused inference tails are identical.
struct QuantizedBasicBlock {
    conv1: Box<dyn Module>,
    bn1: BatchNorm2d,
    conv2: Box<dyn Module>,
    bn2: BatchNorm2d,
    shortcut: Option<(Box<dyn Module>, BatchNorm2d)>,
}

impl QuantizedBasicBlock {
    /// A deep copy (children are already int8, so their `quantized()` is a
    /// snapshot clone).
    fn requantize(&self) -> Option<QuantizedBasicBlock> {
        Some(QuantizedBasicBlock {
            conv1: self.conv1.quantized()?,
            bn1: self.bn1.snapshot(),
            conv2: self.conv2.quantized()?,
            bn2: self.bn2.snapshot(),
            shortcut: match &self.shortcut {
                Some((proj, bn)) => Some((proj.quantized()?, bn.snapshot())),
                None => None,
            },
        })
    }
}

impl Module for QuantizedBasicBlock {
    fn forward(&self, g: &mut dyn Exec, x: Var) -> Var {
        let out = self.conv1.forward(g, x);
        let out = self.bn1.forward_fused(g, out, true, None);
        let out = self.conv2.forward(g, out);
        let sc = match &self.shortcut {
            Some((proj, bn)) => {
                let s = proj.forward(g, x);
                bn.forward(g, s)
            }
            None => x,
        };
        self.bn2.forward_fused(g, out, true, Some(sc))
    }

    fn visit_params(&self, v: &mut dyn ParamVisitor) {
        visit_scoped(v, "conv1", |v| self.conv1.visit_params(v));
        visit_scoped(v, "bn1", |v| self.bn1.visit_params(v));
        visit_scoped(v, "conv2", |v| self.conv2.visit_params(v));
        visit_scoped(v, "bn2", |v| self.bn2.visit_params(v));
        if let Some((proj, bn)) = &self.shortcut {
            visit_scoped(v, "shortcut", |v| proj.visit_params(v));
            visit_scoped(v, "shortcut_bn", |v| bn.visit_params(v));
        }
    }

    fn costs(&self, input: &[usize]) -> Costs {
        let c1 = self.conv1.costs(input);
        let c2 = self.conv2.costs(&c1.output);
        let mut macs = c1.macs + c2.macs;
        if let Some((proj, _)) = &self.shortcut {
            macs += proj.costs(input).macs;
        }
        Costs {
            macs,
            output: c2.output,
        }
    }

    fn weight_dtype(&self) -> &'static str {
        "int8"
    }

    fn quantized(&self) -> Option<Box<dyn Module>> {
        self.requantize().map(|b| Box::new(b) as Box<dyn Module>)
    }
}

/// A residual network with pluggable neuron kinds.
///
/// `ResNet::cifar` builds the 6n+2-layer CIFAR family the paper evaluates in
/// Figs. 4, 5 and 7; `ResNet::imagenet18` builds the 4-stage ResNet-18 used
/// in the training-stability study (Fig. 6), adapted to small inputs
/// (3×3 stem, no initial max-pool).
pub struct ResNet {
    stem: Box<dyn Module>,
    stem_bn: BatchNorm2d,
    blocks: Vec<BasicBlock>,
    pool: GlobalAvgPool,
    classifier: Linear,
    config: ResNetConfig,
}

impl ResNet {
    /// Builds a CIFAR-style ResNet of depth `6n + 2`.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is not of the form `6n + 2` with `n >= 1`.
    pub fn cifar(config: ResNetConfig) -> Self {
        assert!(
            config.depth >= 8 && (config.depth - 2).is_multiple_of(6),
            "CIFAR ResNet depth must be 6n + 2, got {}",
            config.depth
        );
        let n = (config.depth - 2) / 6;
        let w = config.base_width;
        Self::build(config, &[(n, w, 1), (n, 2 * w, 2), (n, 4 * w, 2)])
    }

    /// Builds the 4-stage ResNet-18 variant (2 blocks per stage).
    pub fn imagenet18(config: ResNetConfig) -> Self {
        let w = config.base_width;
        Self::build(
            config,
            &[(2, w, 1), (2, 2 * w, 2), (2, 4 * w, 2), (2, 8 * w, 2)],
        )
    }

    fn build(config: ResNetConfig, stages: &[(usize, usize, usize)]) -> Self {
        let mut builder = Builder {
            rng: Rng::seed_from(config.seed),
            neuron: config.neuron,
            placement: config.placement.clone(),
            conv_index: 0,
        };
        let (stem, mut channels) = builder.conv3x3(3, config.base_width, 1);
        let stem_bn = BatchNorm2d::new(channels);
        let mut blocks = Vec::new();
        for &(count, target, first_stride) in stages {
            for b in 0..count {
                let stride = if b == 0 { first_stride } else { 1 };
                let block = BasicBlock::new(&mut builder, channels, target, stride);
                channels = block.out_channels;
                blocks.push(block);
            }
        }
        let classifier = Linear::new(channels, config.num_classes, true, &mut builder.rng);
        ResNet {
            stem,
            stem_bn,
            blocks,
            pool: GlobalAvgPool,
            classifier,
            config,
        }
    }

    /// The configuration the network was built with.
    pub fn config(&self) -> &ResNetConfig {
        &self.config
    }

    /// Number of residual blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Parameters split into (quadratic `Λᵏ`, all others) for the dedicated
    /// low-learning-rate group.
    pub fn param_groups(&self) -> (Vec<Parameter>, Vec<Parameter>) {
        qn_core::split_lambda_params(self.params())
    }

    /// Per-block parameter snapshots `(linear_weights, lambda_values)` used
    /// by the Fig. 7 distribution study. Entries without quadratic neurons
    /// have an empty lambda vector.
    pub fn layer_parameter_snapshots(&self) -> Vec<(Vec<f32>, Vec<f32>)> {
        let mut out = Vec::new();
        let collect = |m: &dyn Module| -> (Vec<f32>, Vec<f32>) {
            let mut lin = Vec::new();
            let mut lam = Vec::new();
            for p in m.params() {
                let v = p.value();
                if p.name() == qn_core::LAMBDA_PARAM_NAME {
                    lam.extend_from_slice(v.data());
                } else if p.name() != "bn.gamma" && p.name() != "bn.beta" {
                    lin.extend_from_slice(v.data());
                }
            }
            (lin, lam)
        };
        out.push(collect(self.stem.as_ref()));
        for b in &self.blocks {
            out.push(collect(b.conv1.as_ref()));
            out.push(collect(b.conv2.as_ref()));
        }
        out
    }
}

impl Module for ResNet {
    fn forward(&self, g: &mut dyn Exec, x: Var) -> Var {
        let mut v = self.stem.forward(g, x);
        v = self.stem_bn.forward_fused(g, v, true, None);
        for block in &self.blocks {
            v = block.forward(g, v);
        }
        v = self.pool.forward(g, v);
        self.classifier.forward(g, v)
    }

    fn visit_params(&self, v: &mut dyn ParamVisitor) {
        visit_scoped(v, "stem", |v| self.stem.visit_params(v));
        visit_scoped(v, "stem_bn", |v| self.stem_bn.visit_params(v));
        for (i, b) in self.blocks.iter().enumerate() {
            visit_scoped(v, &format!("block{i}"), |v| b.visit_params(v));
        }
        visit_scoped(v, "classifier", |v| self.classifier.visit_params(v));
    }

    fn costs(&self, input: &[usize]) -> Costs {
        let mut c = self.stem.costs(input);
        for b in &self.blocks {
            let nc = b.costs(&c.output);
            c.macs += nc.macs;
            c.output = nc.output;
        }
        let pool = self.pool.costs(&c.output);
        let cls = self.classifier.costs(&pool.output);
        Costs {
            macs: c.macs + cls.macs,
            output: cls.output,
        }
    }

    fn quantized(&self) -> Option<Box<dyn Module>> {
        let blocks = self
            .blocks
            .iter()
            .map(BasicBlock::quantize_block)
            .collect::<Option<Vec<_>>>()?;
        Some(Box::new(QuantizedResNet {
            stem: self.stem.quantized()?,
            stem_bn: self.stem_bn.snapshot(),
            blocks,
            pool: GlobalAvgPool,
            classifier: self.classifier.quantized()?,
        }))
    }
}

/// [`ResNet`] with int8 convolutions and classifier — what
/// [`Module::quantized`] on `ResNet` builds. Same topology, same
/// checkpoint paths (`stem`, `block{i}.conv1`, …), int8 weight storage.
struct QuantizedResNet {
    stem: Box<dyn Module>,
    stem_bn: BatchNorm2d,
    blocks: Vec<QuantizedBasicBlock>,
    pool: GlobalAvgPool,
    classifier: Box<dyn Module>,
}

impl Module for QuantizedResNet {
    fn forward(&self, g: &mut dyn Exec, x: Var) -> Var {
        let mut v = self.stem.forward(g, x);
        v = self.stem_bn.forward_fused(g, v, true, None);
        for block in &self.blocks {
            v = block.forward(g, v);
        }
        v = self.pool.forward(g, v);
        self.classifier.forward(g, v)
    }

    fn visit_params(&self, v: &mut dyn ParamVisitor) {
        visit_scoped(v, "stem", |v| self.stem.visit_params(v));
        visit_scoped(v, "stem_bn", |v| self.stem_bn.visit_params(v));
        for (i, b) in self.blocks.iter().enumerate() {
            visit_scoped(v, &format!("block{i}"), |v| b.visit_params(v));
        }
        visit_scoped(v, "classifier", |v| self.classifier.visit_params(v));
    }

    fn costs(&self, input: &[usize]) -> Costs {
        let mut c = self.stem.costs(input);
        for b in &self.blocks {
            let nc = b.costs(&c.output);
            c.macs += nc.macs;
            c.output = nc.output;
        }
        let pool = self.pool.costs(&c.output);
        let cls = self.classifier.costs(&pool.output);
        Costs {
            macs: c.macs + cls.macs,
            output: cls.output,
        }
    }

    fn weight_dtype(&self) -> &'static str {
        "int8"
    }

    fn quantized(&self) -> Option<Box<dyn Module>> {
        let blocks = self
            .blocks
            .iter()
            .map(QuantizedBasicBlock::requantize)
            .collect::<Option<Vec<_>>>()?;
        Some(Box::new(QuantizedResNet {
            stem: self.stem.quantized()?,
            stem_bn: self.stem_bn.snapshot(),
            blocks,
            pool: GlobalAvgPool,
            classifier: self.classifier.quantized()?,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qn_autograd::Graph;
    use qn_tensor::Tensor;

    fn tiny_config(neuron: NeuronSpec) -> ResNetConfig {
        ResNetConfig {
            depth: 8,
            base_width: 4,
            num_classes: 10,
            neuron,
            placement: NeuronPlacement::All,
            seed: 1,
        }
    }

    #[test]
    fn cifar_depths_have_right_block_counts() {
        for (depth, blocks) in [(8usize, 3usize), (20, 9), (32, 15), (56, 27), (110, 54)] {
            let net = ResNet::cifar(ResNetConfig {
                depth,
                ..tiny_config(NeuronSpec::Linear)
            });
            assert_eq!(net.block_count(), blocks, "depth {depth}");
        }
    }

    #[test]
    fn forward_shapes_linear_and_quadratic() {
        for neuron in [
            NeuronSpec::Linear,
            NeuronSpec::EfficientQuadratic { rank: 3 },
        ] {
            let net = ResNet::cifar(tiny_config(neuron));
            let mut rng = Rng::seed_from(2);
            let mut g = Graph::new();
            let x = g.leaf(Tensor::randn(&[2, 3, 16, 16], &mut rng));
            let y = net.forward(&mut g, x);
            assert_eq!(g.value(y).shape().dims(), &[2, 10], "{:?}", neuron);
        }
    }

    #[test]
    fn imagenet18_runs() {
        let net = ResNet::imagenet18(ResNetConfig {
            depth: 18,
            base_width: 4,
            num_classes: 20,
            neuron: NeuronSpec::Linear,
            placement: NeuronPlacement::All,
            seed: 3,
        });
        assert_eq!(net.block_count(), 8);
        let mut rng = Rng::seed_from(4);
        let mut g = Graph::new();
        let x = g.leaf(Tensor::randn(&[1, 3, 16, 16], &mut rng));
        let y = net.forward(&mut g, x);
        assert_eq!(g.value(y).shape().dims(), &[1, 20]);
    }

    #[test]
    fn first_n_placement_limits_neuron_layers() {
        let knn3 = ResNet::cifar(ResNetConfig {
            placement: NeuronPlacement::FirstN(3),
            neuron: NeuronSpec::Kervolution {
                degree: 3,
                offset: 1.0,
            },
            ..tiny_config(NeuronSpec::Linear)
        });
        let all_linear = ResNet::cifar(tiny_config(NeuronSpec::Linear));
        // kervolution has the same parameter count as linear, so totals match
        assert_eq!(knn3.param_count(), all_linear.param_count());
        // but lambda split shows no quadratic params in either
        assert!(knn3.param_groups().0.is_empty());
    }

    #[test]
    fn quadratic_net_exposes_lambda_group() {
        let net = ResNet::cifar(tiny_config(NeuronSpec::EfficientQuadratic { rank: 3 }));
        let (lambda, other) = net.param_groups();
        assert!(!lambda.is_empty());
        assert!(lambda
            .iter()
            .all(|p| p.name() == qn_core::LAMBDA_PARAM_NAME));
        assert!(other.len() > lambda.len());
    }

    #[test]
    fn deeper_nets_cost_more() {
        let d8 = ResNet::cifar(tiny_config(NeuronSpec::Linear));
        let d20 = ResNet::cifar(ResNetConfig {
            depth: 20,
            ..tiny_config(NeuronSpec::Linear)
        });
        assert!(d20.param_count() > d8.param_count());
        let c8 = d8.costs(&[1, 3, 16, 16]);
        let c20 = d20.costs(&[1, 3, 16, 16]);
        assert!(c20.macs > c8.macs);
        assert_eq!(c8.output, vec![1, 10]);
    }

    #[test]
    fn snapshots_cover_all_conv_layers() {
        let net = ResNet::cifar(tiny_config(NeuronSpec::EfficientQuadratic { rank: 2 }));
        let snaps = net.layer_parameter_snapshots();
        assert_eq!(snaps.len(), 1 + 2 * net.block_count());
        for (lin, lam) in &snaps {
            assert!(!lin.is_empty());
            assert!(!lam.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "6n + 2")]
    fn invalid_depth_panics() {
        ResNet::cifar(ResNetConfig {
            depth: 21,
            ..tiny_config(NeuronSpec::Linear)
        });
    }
}
