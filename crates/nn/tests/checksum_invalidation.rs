//! A guarded layer derives the weight-side terms of its ABFT checksums
//! once and drops them whenever it lends its parameter slots out. This
//! pins that rule end to end: after each way the weights change —
//! `map_params`, `load_state`, an optimizer step, `inject_weights` and
//! `repair_weights` — a guarded `Network::run` returns the same logits
//! bits, or the same fault, as a network rebuilt from the same parameters
//! through `load_state(state_dict())`, whose sums are derived fresh.

use pgmr_faults::{inject_weights, repair_weights, FaultSpec, EXPONENT_BITS};
use pgmr_nn::network::{Guard, RunPlan};
use pgmr_nn::optim::Sgd;
use pgmr_nn::zoo::{build, ArchSpec};
use pgmr_nn::Network;
use pgmr_tensor::checksum::ChecksumFault;
use pgmr_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A guarded run's outcome: the logits' bits, or the fault's kind, index
/// and the bits of its deviation and bound.
type Outcome = Result<Vec<u32>, (String, usize, u32, u32)>;

fn guarded(net: &mut Network, input: &Tensor) -> Outcome {
    let plan = RunPlan { guard: Guard::All(1e-4), ..RunPlan::default() };
    let mut logits = Vec::new();
    match net.run(input, &plan, &mut logits) {
        Ok(()) => Ok(logits.iter().map(|v| v.to_bits()).collect()),
        Err(ChecksumFault { kind, index, deviation, bound }) => {
            Err((format!("{kind:?}"), index, deviation.to_bits(), bound.to_bits()))
        }
    }
}

/// Runs `net` guarded first, so stale sums would be used, then checks the
/// outcome against a network rebuilt from its parameters.
fn assert_fresh(net: &mut Network, spec: &ArchSpec, input: &Tensor, after: &str) -> Outcome {
    let got = guarded(net, input);
    let mut rebuilt = build(spec, 99);
    rebuilt.load_state(&net.state_dict());
    assert_eq!(got, guarded(&mut rebuilt, input), "guarded run after {after}");
    got
}

#[test]
fn every_weight_mutation_rederives_the_checksum_sums() {
    let mut rng = StdRng::seed_from_u64(5);
    for spec in [ArchSpec::lenet5(1, 16, 16, 10), ArchSpec::convnet(1, 16, 16, 10)] {
        let input = Tensor::uniform(vec![2, 1, 16, 16], -1.0, 1.0, &mut rng);
        let mut net = build(&spec, 1);
        let clean = assert_fresh(&mut net, &spec, &input, "build");
        assert!(clean.is_ok(), "a clean network verifies");

        net.map_params(|v| v * 0.75);
        let scaled = assert_fresh(&mut net, &spec, &input, "map_params");
        assert_ne!(scaled, clean, "map_params must change the logits");

        net.load_state(&build(&spec, 2).state_dict());
        let loaded = assert_fresh(&mut net, &spec, &input, "load_state");
        assert_ne!(loaded, scaled, "load_state must change the logits");

        let logits = net.forward(&input, true);
        net.backward(&Tensor::ones(*logits.shape()));
        Sgd::new(0.05, 0.0, 0.0).step(&mut net);
        let stepped = assert_fresh(&mut net, &spec, &input, "an optimizer step");
        assert_ne!(stepped, loaded, "a step must change the logits");

        let spec_faults = FaultSpec::persistent_weights(7, 0.01).with_bits(EXPONENT_BITS);
        let records = inject_weights(&mut net, &spec_faults);
        assert!(!records.is_empty(), "the weight barrage must flip something");
        let injected = assert_fresh(&mut net, &spec, &input, "inject_weights");
        assert_ne!(injected, stepped, "the flips must change the outcome");

        repair_weights(&mut net, &records);
        let repaired = assert_fresh(&mut net, &spec, &input, "repair_weights");
        assert_eq!(repaired, stepped, "repair restores the stepped network");
    }
}
