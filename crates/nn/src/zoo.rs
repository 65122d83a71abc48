//! The model zoo: scaled-down analogs of the paper's six benchmark CNNs
//! (Table II).
//!
//! | Paper network | Zoo analog | Notes |
//! |---|---|---|
//! | LeNet-5 | [`ArchSpec::lenet5`] | two conv + pool stages, two dense |
//! | ConvNet (cuda-convnet) | [`ArchSpec::convnet`] | shallow two-conv network, capacity-limited |
//! | ResNet20 | [`ArchSpec::resnet20_mini`] | conv stem + 3 residual blocks |
//! | DenseNet40 | [`ArchSpec::densenet_mini`] | two dense blocks with a transition |
//! | AlexNet | [`ArchSpec::alexnet_mini`] | three conv + two dense stages |
//! | ResNet34 | [`ArchSpec::resnet34_mini`] | wider stem + 4 residual blocks |
//!
//! Architectures are described by a serializable [`ArchSpec`] so a saved
//! parameter file can always be matched back to the network that produced
//! it, and an identical network can be rebuilt (with fresh random weights)
//! from a new seed — the mechanism behind the paper's random-initialization
//! MR baselines.

use crate::layer::Layer;
use crate::layers::{
    AvgPoolGlobal, BatchNorm2d, Conv2d, Dense, DenseBlock, Dropout, Flatten, MaxPool2d, Parallel,
    Relu, Residual,
};
use crate::network::Network;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The architecture family of a zoo network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ArchKind {
    /// LeNet-5 analog.
    LeNet5,
    /// cuda-convnet "ConvNet" analog.
    ConvNet,
    /// ResNet20 analog (3 residual blocks).
    ResNet20Mini,
    /// DenseNet40 analog (two dense blocks).
    DenseNetMini,
    /// AlexNet analog.
    AlexNetMini,
    /// ResNet34 analog (4 residual blocks, wider).
    ResNet34Mini,
    /// VGG16 analog (stacked 3×3 convolutions, no normalization).
    VggMini,
    /// GoogLeNet analog (inception blocks with parallel branches).
    GoogLeNetMini,
    /// ResNet152 analog (deepest residual stack in the zoo).
    ResNet152Mini,
    /// Inception-V3 analog (wider inception blocks + batch norm).
    InceptionMini,
    /// ResNeXt101 analog (grouped residual blocks via parallel branches).
    ResNeXtMini,
    /// ConvNet with dropout before the classifier — the substrate of the
    /// MC-dropout uncertainty baseline.
    ConvNetDropout,
}

impl ArchKind {
    /// Short stable name used in arch ids and reports.
    pub fn short_name(self) -> &'static str {
        match self {
            ArchKind::LeNet5 => "lenet5",
            ArchKind::ConvNet => "convnet",
            ArchKind::ResNet20Mini => "resnet20_mini",
            ArchKind::DenseNetMini => "densenet_mini",
            ArchKind::AlexNetMini => "alexnet_mini",
            ArchKind::ResNet34Mini => "resnet34_mini",
            ArchKind::VggMini => "vgg_mini",
            ArchKind::GoogLeNetMini => "googlenet_mini",
            ArchKind::ResNet152Mini => "resnet152_mini",
            ArchKind::InceptionMini => "inception_mini",
            ArchKind::ResNeXtMini => "resnext_mini",
            ArchKind::ConvNetDropout => "convnet_dropout",
        }
    }

    /// Nominal layer count reported in Table II for the paper-scale network
    /// this analog stands in for.
    pub fn paper_layer_count(self) -> usize {
        match self {
            ArchKind::LeNet5 => 5,
            ArchKind::ConvNet => 4,
            ArchKind::ResNet20Mini => 20,
            ArchKind::DenseNetMini => 40,
            ArchKind::AlexNetMini => 8,
            ArchKind::ResNet34Mini => 34,
            ArchKind::VggMini => 16,
            ArchKind::GoogLeNetMini => 22,
            ArchKind::ResNet152Mini => 152,
            ArchKind::InceptionMini => 48,
            ArchKind::ResNeXtMini => 101,
            ArchKind::ConvNetDropout => 4,
        }
    }
}

/// A complete, serializable description of a zoo network: family, input
/// geometry, and class count.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ArchSpec {
    /// Architecture family.
    pub kind: ArchKind,
    /// Input channels.
    pub in_c: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Output classes.
    pub classes: usize,
}

impl ArchSpec {
    fn new(kind: ArchKind, in_c: usize, in_h: usize, in_w: usize, classes: usize) -> Self {
        assert!(classes >= 2, "need at least two classes");
        ArchSpec { kind, in_c, in_h, in_w, classes }
    }

    /// LeNet-5 analog for `in_c × in_h × in_w` inputs.
    pub fn lenet5(in_c: usize, in_h: usize, in_w: usize, classes: usize) -> Self {
        Self::new(ArchKind::LeNet5, in_c, in_h, in_w, classes)
    }

    /// ConvNet analog.
    pub fn convnet(in_c: usize, in_h: usize, in_w: usize, classes: usize) -> Self {
        Self::new(ArchKind::ConvNet, in_c, in_h, in_w, classes)
    }

    /// ResNet20 analog.
    pub fn resnet20_mini(in_c: usize, in_h: usize, in_w: usize, classes: usize) -> Self {
        Self::new(ArchKind::ResNet20Mini, in_c, in_h, in_w, classes)
    }

    /// DenseNet40 analog.
    pub fn densenet_mini(in_c: usize, in_h: usize, in_w: usize, classes: usize) -> Self {
        Self::new(ArchKind::DenseNetMini, in_c, in_h, in_w, classes)
    }

    /// AlexNet analog.
    pub fn alexnet_mini(in_c: usize, in_h: usize, in_w: usize, classes: usize) -> Self {
        Self::new(ArchKind::AlexNetMini, in_c, in_h, in_w, classes)
    }

    /// ResNet34 analog.
    pub fn resnet34_mini(in_c: usize, in_h: usize, in_w: usize, classes: usize) -> Self {
        Self::new(ArchKind::ResNet34Mini, in_c, in_h, in_w, classes)
    }

    /// VGG16 analog.
    pub fn vgg_mini(in_c: usize, in_h: usize, in_w: usize, classes: usize) -> Self {
        Self::new(ArchKind::VggMini, in_c, in_h, in_w, classes)
    }

    /// GoogLeNet analog.
    pub fn googlenet_mini(in_c: usize, in_h: usize, in_w: usize, classes: usize) -> Self {
        Self::new(ArchKind::GoogLeNetMini, in_c, in_h, in_w, classes)
    }

    /// ResNet152 analog.
    pub fn resnet152_mini(in_c: usize, in_h: usize, in_w: usize, classes: usize) -> Self {
        Self::new(ArchKind::ResNet152Mini, in_c, in_h, in_w, classes)
    }

    /// Inception-V3 analog.
    pub fn inception_mini(in_c: usize, in_h: usize, in_w: usize, classes: usize) -> Self {
        Self::new(ArchKind::InceptionMini, in_c, in_h, in_w, classes)
    }

    /// ResNeXt101 analog.
    pub fn resnext_mini(in_c: usize, in_h: usize, in_w: usize, classes: usize) -> Self {
        Self::new(ArchKind::ResNeXtMini, in_c, in_h, in_w, classes)
    }

    /// ConvNet-with-dropout (MC-dropout baseline substrate).
    pub fn convnet_dropout(in_c: usize, in_h: usize, in_w: usize, classes: usize) -> Self {
        Self::new(ArchKind::ConvNetDropout, in_c, in_h, in_w, classes)
    }

    /// Stable architecture identifier, e.g. `"lenet5-1x16x16-10"`.
    pub fn arch_id(&self) -> String {
        format!(
            "{}-{}x{}x{}-{}",
            self.kind.short_name(),
            self.in_c,
            self.in_h,
            self.in_w,
            self.classes
        )
    }
}

/// Tracks `(c, h, w)` while stacking layers.
struct Builder {
    layers: Vec<Box<dyn Layer>>,
    c: usize,
    h: usize,
    w: usize,
    rng: StdRng,
}

impl Builder {
    fn new(spec: &ArchSpec, seed: u64) -> Self {
        Builder {
            layers: Vec::new(),
            c: spec.in_c,
            h: spec.in_h,
            w: spec.in_w,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn conv(&mut self, out_c: usize, kernel: usize, stride: usize, pad: usize) -> &mut Self {
        let conv = Conv2d::new(self.c, out_c, self.h, self.w, kernel, stride, pad, &mut self.rng);
        let g = conv.geometry();
        self.h = g.out_h;
        self.w = g.out_w;
        self.c = out_c;
        self.layers.push(Box::new(conv));
        self
    }

    fn bn(&mut self) -> &mut Self {
        self.layers.push(Box::new(BatchNorm2d::new(self.c)));
        self
    }

    fn relu(&mut self) -> &mut Self {
        self.layers.push(Box::new(Relu::new()));
        self
    }

    fn pool(&mut self, window: usize) -> &mut Self {
        self.layers.push(Box::new(MaxPool2d::new(window)));
        self.h /= window;
        self.w /= window;
        self
    }

    /// Residual block; when `out_c != c` or `stride != 1` a 1×1 projection
    /// is inserted on the skip path.
    fn residual(&mut self, out_c: usize, stride: usize) -> &mut Self {
        let (c, h, w) = (self.c, self.h, self.w);
        let conv1 = Conv2d::new(c, out_c, h, w, 3, stride, 1, &mut self.rng);
        let (oh, ow) = (conv1.geometry().out_h, conv1.geometry().out_w);
        let conv2 = Conv2d::new(out_c, out_c, oh, ow, 3, 1, 1, &mut self.rng);
        let body: Vec<Box<dyn Layer>> = vec![
            Box::new(conv1),
            Box::new(BatchNorm2d::new(out_c)),
            Box::new(Relu::new()),
            Box::new(conv2),
            Box::new(BatchNorm2d::new(out_c)),
        ];
        let projection: Option<Box<dyn Layer>> = if out_c != c || stride != 1 {
            Some(Box::new(Conv2d::new(c, out_c, h, w, 1, stride, 0, &mut self.rng)))
        } else {
            None
        };
        self.layers.push(Box::new(Residual::new(body, projection)));
        self.c = out_c;
        self.h = oh;
        self.w = ow;
        self
    }

    /// Inception block: parallel 1×1, 3×3 and 5×5 branches (each
    /// conv-BN-ReLU), concatenated on channels. Preserves spatial size.
    fn inception(&mut self, c1: usize, c3: usize, c5: usize) -> &mut Self {
        let (c, h, w) = (self.c, self.h, self.w);
        let branch =
            |out_c: usize, k: usize, pad: usize, rng: &mut StdRng| -> Vec<Box<dyn Layer>> {
                vec![
                    Box::new(Conv2d::new(c, out_c, h, w, k, 1, pad, rng)),
                    Box::new(BatchNorm2d::new(out_c)),
                    Box::new(Relu::new()),
                ]
            };
        let branches = vec![
            branch(c1, 1, 0, &mut self.rng),
            branch(c3, 3, 1, &mut self.rng),
            branch(c5, 5, 2, &mut self.rng),
        ];
        self.layers.push(Box::new(Parallel::new(branches)));
        self.c = c1 + c3 + c5;
        self
    }

    /// ResNeXt-style grouped residual block: the body splits into `groups`
    /// parallel 3×3 paths of `group_width` channels (the "cardinality"
    /// dimension), concatenates, and merges with a 1×1 convolution; a
    /// projection covers channel/stride changes on the skip path.
    fn resnext_block(
        &mut self,
        groups: usize,
        group_width: usize,
        out_c: usize,
        stride: usize,
    ) -> &mut Self {
        let (c, h, w) = (self.c, self.h, self.w);
        let mut paths = Vec::with_capacity(groups);
        let mut oh = h;
        let mut ow = w;
        for _ in 0..groups {
            let conv = Conv2d::new(c, group_width, h, w, 3, stride, 1, &mut self.rng);
            oh = conv.geometry().out_h;
            ow = conv.geometry().out_w;
            let path: Vec<Box<dyn Layer>> = vec![
                Box::new(conv),
                Box::new(BatchNorm2d::new(group_width)),
                Box::new(Relu::new()),
            ];
            paths.push(path);
        }
        let merged_c = groups * group_width;
        let body: Vec<Box<dyn Layer>> = vec![
            Box::new(Parallel::new(paths)),
            Box::new(Conv2d::new(merged_c, out_c, oh, ow, 1, 1, 0, &mut self.rng)),
            Box::new(BatchNorm2d::new(out_c)),
        ];
        let projection: Option<Box<dyn Layer>> = if out_c != c || stride != 1 {
            Some(Box::new(Conv2d::new(c, out_c, h, w, 1, stride, 0, &mut self.rng)))
        } else {
            None
        };
        self.layers.push(Box::new(Residual::new(body, projection)));
        self.c = out_c;
        self.h = oh;
        self.w = ow;
        self
    }

    fn dropout(&mut self, p: f32) -> &mut Self {
        // Seed derived from the builder's RNG so (spec, seed) stays the
        // only source of randomness.
        let seed = self.rng.gen::<u64>();
        self.layers.push(Box::new(Dropout::new(p, seed)));
        self
    }

    /// DenseNet-style block with `units` 3×3 conv units of `growth` channels.
    fn dense_block(&mut self, units: usize, growth: usize) -> &mut Self {
        let mut convs: Vec<Box<dyn Layer>> = Vec::new();
        for i in 0..units {
            let in_c = self.c + i * growth;
            convs.push(Box::new(Conv2d::new(in_c, growth, self.h, self.w, 3, 1, 1, &mut self.rng)));
        }
        let block = DenseBlock::new(convs, self.c, growth);
        self.c = block.out_channels();
        self.layers.push(Box::new(block));
        self
    }

    fn gap(&mut self) -> &mut Self {
        self.layers.push(Box::new(AvgPoolGlobal::new()));
        self
    }

    fn flatten(&mut self) -> &mut Self {
        self.layers.push(Box::new(Flatten::new()));
        self
    }

    fn dense_from_spatial(&mut self, out: usize) -> &mut Self {
        let in_features = self.c * self.h * self.w;
        let rng = &mut self.rng;
        self.layers.push(Box::new(Dense::new(in_features, out, rng)));
        self.c = out;
        self.h = 1;
        self.w = 1;
        self
    }

    fn dense(&mut self, in_features: usize, out: usize) -> &mut Self {
        let rng = &mut self.rng;
        self.layers.push(Box::new(Dense::new(in_features, out, rng)));
        self
    }
}

/// Builds a zoo network with weights seeded by `seed`.
///
/// The same `(spec, seed)` pair always produces bit-identical weights;
/// different seeds produce independently initialized copies (the paper's
/// random-init MR mechanism).
pub fn build(spec: &ArchSpec, seed: u64) -> Network {
    let mut b = Builder::new(spec, seed);
    let classes = spec.classes;
    match spec.kind {
        ArchKind::LeNet5 => {
            b.conv(6, 5, 1, 2).relu().pool(2);
            b.conv(16, 3, 1, 1).relu().pool(2);
            b.flatten().dense_from_spatial(64).relu().dense(64, classes);
        }
        ArchKind::ConvNet => {
            // Deliberately capacity-limited, like the cuda-convnet baseline
            // the paper uses: its accuracy should trail the residual/dense
            // networks on the same dataset by a wide margin.
            b.conv(4, 3, 1, 1).relu().pool(4);
            b.flatten().dense_from_spatial(classes);
        }
        ArchKind::ResNet20Mini => {
            b.conv(16, 3, 1, 1).bn().relu();
            b.residual(16, 1);
            b.residual(32, 2);
            b.residual(32, 1);
            b.gap().dense(32, classes);
        }
        ArchKind::DenseNetMini => {
            // Like the real DenseNet, batch normalization is load-bearing:
            // global average pooling scales gradients by 1/(h*w), and BN
            // restores the signal the conv stack needs to train.
            b.conv(16, 3, 1, 1).bn().relu();
            b.dense_block(4, 10);
            let mid_c = b.c;
            b.conv(mid_c / 2, 1, 1, 0).bn().relu().pool(2);
            b.dense_block(4, 10);
            b.bn().relu();
            b.gap();
            let final_c = b.c;
            b.dense(final_c, classes);
        }
        ArchKind::AlexNetMini => {
            b.conv(24, 3, 1, 1).relu().pool(2);
            b.conv(48, 3, 1, 1).relu().pool(2);
            b.conv(48, 3, 1, 1).relu();
            b.flatten().dense_from_spatial(128).relu().dense(128, classes);
        }
        ArchKind::ResNet34Mini => {
            b.conv(16, 3, 1, 1).bn().relu();
            b.residual(16, 1);
            b.residual(32, 2);
            b.residual(32, 1);
            b.residual(48, 2);
            b.gap().dense(48, classes);
        }
        ArchKind::VggMini => {
            // Stacked 3×3 pairs like VGG, no normalization.
            b.conv(12, 3, 1, 1).relu();
            b.conv(12, 3, 1, 1).relu().pool(2);
            b.conv(24, 3, 1, 1).relu();
            b.conv(24, 3, 1, 1).relu().pool(2);
            b.flatten().dense_from_spatial(96).relu().dense(96, classes);
        }
        ArchKind::GoogLeNetMini => {
            b.conv(12, 3, 1, 1).bn().relu().pool(2);
            b.inception(6, 10, 4);
            b.inception(8, 12, 4);
            b.pool(2);
            b.gap();
            let final_c = b.c;
            b.dense(final_c, classes);
        }
        ArchKind::ResNet152Mini => {
            b.conv(16, 3, 1, 1).bn().relu();
            b.residual(16, 1);
            b.residual(16, 1);
            b.residual(32, 2);
            b.residual(32, 1);
            b.residual(48, 2);
            b.residual(48, 1);
            b.gap().dense(48, classes);
        }
        ArchKind::InceptionMini => {
            b.conv(14, 3, 1, 1).bn().relu().pool(2);
            b.inception(8, 12, 6);
            b.inception(10, 14, 6);
            b.pool(2);
            b.inception(12, 16, 8);
            b.gap();
            let final_c = b.c;
            b.dense(final_c, classes);
        }
        ArchKind::ResNeXtMini => {
            b.conv(16, 3, 1, 1).bn().relu();
            b.resnext_block(4, 6, 24, 1);
            b.resnext_block(4, 8, 32, 2);
            b.resnext_block(4, 10, 48, 2);
            b.gap().dense(48, classes);
        }
        ArchKind::ConvNetDropout => {
            b.conv(8, 3, 1, 1).relu().pool(2);
            b.conv(12, 3, 1, 1).relu().pool(2);
            b.dropout(0.3);
            b.flatten().dense_from_spatial(classes);
        }
    }
    Network::new(b.layers, spec.arch_id(), classes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgmr_tensor::Tensor;

    fn check_spec(spec: ArchSpec) {
        let mut net = build(&spec, 1);
        let mut rng = StdRng::seed_from_u64(0);
        let x = Tensor::uniform(vec![2, spec.in_c, spec.in_h, spec.in_w], -1.0, 1.0, &mut rng);
        let probs = net.predict_proba(&x);
        assert_eq!(probs.len(), 2);
        assert_eq!(probs[0].len(), spec.classes);
        for row in &probs {
            assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        }
        // Forward/backward round trip must preserve shapes.
        let logits = net.forward(&x, true);
        let grad = Tensor::ones(*logits.shape());
        let dx = net.backward(&grad);
        assert_eq!(dx.shape().dims(), x.shape().dims());
    }

    #[test]
    fn lenet5_builds_and_runs() {
        check_spec(ArchSpec::lenet5(1, 16, 16, 10));
    }

    #[test]
    fn convnet_builds_and_runs() {
        check_spec(ArchSpec::convnet(3, 20, 20, 10));
    }

    #[test]
    fn resnet20_builds_and_runs() {
        check_spec(ArchSpec::resnet20_mini(3, 20, 20, 10));
    }

    #[test]
    fn densenet_builds_and_runs() {
        check_spec(ArchSpec::densenet_mini(3, 20, 20, 10));
    }

    #[test]
    fn alexnet_builds_and_runs() {
        check_spec(ArchSpec::alexnet_mini(3, 24, 24, 20));
    }

    #[test]
    fn resnet34_builds_and_runs() {
        check_spec(ArchSpec::resnet34_mini(3, 24, 24, 20));
    }

    #[test]
    fn vgg_builds_and_runs() {
        check_spec(ArchSpec::vgg_mini(3, 24, 24, 20));
    }

    #[test]
    fn googlenet_builds_and_runs() {
        check_spec(ArchSpec::googlenet_mini(3, 24, 24, 20));
    }

    #[test]
    fn resnet152_builds_and_runs() {
        check_spec(ArchSpec::resnet152_mini(3, 24, 24, 20));
    }

    #[test]
    fn inception_builds_and_runs() {
        check_spec(ArchSpec::inception_mini(3, 24, 24, 20));
    }

    #[test]
    fn resnext_builds_and_runs() {
        check_spec(ArchSpec::resnext_mini(3, 24, 24, 20));
    }

    #[test]
    fn convnet_dropout_builds_and_runs() {
        check_spec(ArchSpec::convnet_dropout(3, 20, 20, 10));
    }

    #[test]
    fn dropout_arch_is_deterministic_in_eval_mode() {
        let spec = ArchSpec::convnet_dropout(3, 20, 20, 10);
        let mut net = build(&spec, 3);
        let mut rng = StdRng::seed_from_u64(0);
        let x = Tensor::uniform(vec![2, 3, 20, 20], 0.0, 1.0, &mut rng);
        assert_eq!(net.predict_proba(&x), net.predict_proba(&x));
    }

    #[test]
    fn seeds_control_initialization() {
        let spec = ArchSpec::convnet(1, 8, 8, 4);
        let (a, b, c) = (build(&spec, 1), build(&spec, 1), build(&spec, 2));
        assert_eq!(a.state_dict(), b.state_dict());
        assert_ne!(a.state_dict(), c.state_dict());
    }

    #[test]
    fn arch_id_is_stable() {
        let spec = ArchSpec::lenet5(1, 16, 16, 10);
        assert_eq!(spec.arch_id(), "lenet5-1x16x16-10");
        assert_eq!(build(&spec, 0).arch_id(), "lenet5-1x16x16-10");
    }

    #[test]
    fn paper_layer_counts_match_table2() {
        assert_eq!(ArchKind::LeNet5.paper_layer_count(), 5);
        assert_eq!(ArchKind::ConvNet.paper_layer_count(), 4);
        assert_eq!(ArchKind::ResNet20Mini.paper_layer_count(), 20);
        assert_eq!(ArchKind::DenseNetMini.paper_layer_count(), 40);
        assert_eq!(ArchKind::AlexNetMini.paper_layer_count(), 8);
        assert_eq!(ArchKind::ResNet34Mini.paper_layer_count(), 34);
    }
}
