//! Whole-network finite-difference gradient checks.
//!
//! Per-layer gradient tests live next to each layer; these tests verify
//! that backpropagation composes correctly through entire zoo topologies —
//! including batch norm inside residual blocks, channel concatenation in
//! dense and parallel blocks, and pooling index routing.

use pgmr_nn::loss::softmax_cross_entropy;
use pgmr_nn::zoo::{build, ArchSpec};
use pgmr_nn::Network;
use pgmr_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Loss of the network on a fixed (input, labels) pair in training mode.
fn loss_of(net: &mut Network, x: &Tensor, labels: &[usize]) -> f32 {
    let logits = net.forward(x, true);
    softmax_cross_entropy(&logits, labels).0
}

/// Checks analytic parameter gradients against central differences at a
/// stratified sample of coordinates.
fn check_spec(spec: ArchSpec, tolerance: f32) {
    let mut net = build(&spec, 11);
    let mut rng = StdRng::seed_from_u64(0);
    let x = Tensor::uniform(vec![2, spec.in_c, spec.in_h, spec.in_w], 0.0, 1.0, &mut rng);
    let labels: Vec<usize> = (0..2).map(|i| i % spec.classes).collect();

    net.zero_grads();
    let logits = net.forward(&x, true);
    let (_, grad) = softmax_cross_entropy(&logits, &labels);
    net.backward(&grad);
    let mut grads: Vec<Vec<f32>> = Vec::new();
    net.visit_slots(&mut |s| grads.push(s.grad().to_vec()));
    let state = net.state_dict();

    let eps = 1e-2;
    let mut checked = 0usize;
    for (pi, param) in state.iter().enumerate() {
        // A few coordinates per parameter tensor, spread across it.
        for flat in (0..param.len()).step_by((param.len() / 3).max(1)) {
            let mut sp = state.clone();
            sp[pi].data_mut()[flat] += eps;
            net.load_state(&sp);
            let fp = loss_of(&mut net, &x, &labels);
            let mut sm = state.clone();
            sm[pi].data_mut()[flat] -= eps;
            net.load_state(&sm);
            let fm = loss_of(&mut net, &x, &labels);
            let numeric = (fp - fm) / (2.0 * eps);
            let analytic = grads[pi][flat];
            assert!(
                (numeric - analytic).abs() < tolerance,
                "{}: param {pi} flat {flat}: numeric {numeric} vs analytic {analytic}",
                spec.arch_id()
            );
            checked += 1;
        }
    }
    assert!(checked >= 10, "too few coordinates checked ({checked})");
}

#[test]
fn convnet_whole_network_gradients() {
    check_spec(ArchSpec::convnet(3, 8, 8, 4), 2e-2);
}

#[test]
fn lenet5_whole_network_gradients() {
    check_spec(ArchSpec::lenet5(1, 12, 12, 4), 2e-2);
}

#[test]
fn resnet_whole_network_gradients() {
    // Batch norm inside residual blocks: the hardest composition.
    check_spec(ArchSpec::resnet20_mini(2, 8, 8, 3), 5e-2);
}

#[test]
fn densenet_whole_network_gradients() {
    check_spec(ArchSpec::densenet_mini(2, 8, 8, 3), 5e-2);
}

#[test]
fn googlenet_whole_network_gradients() {
    // Parallel (inception) branches with batch norm.
    check_spec(ArchSpec::googlenet_mini(2, 8, 8, 3), 5e-2);
}

#[test]
fn resnext_whole_network_gradients() {
    // Grouped residual: Parallel inside Residual.
    check_spec(ArchSpec::resnext_mini(2, 8, 8, 3), 5e-2);
}
