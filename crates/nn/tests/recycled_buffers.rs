//! `Workspace::acquire` hands out recycled buffers without clearing
//! them, so every layer must write its whole output. This pins that
//! contract end to end: the logits of an input computed on a thread whose
//! arena just served a forward of a different input equal the logits
//! computed on a fresh thread, bit for bit, for the six architectures of
//! `forward_digests.rs` (all eleven layer types), plain and fully
//! checked.

use pgmr_nn::network::{Guard, RunPlan};
use pgmr_nn::zoo::{self, ArchSpec};
use pgmr_nn::Network;
use pgmr_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn specs() -> Vec<ArchSpec> {
    vec![
        ArchSpec::lenet5(1, 16, 16, 10),
        ArchSpec::convnet_dropout(1, 16, 16, 10),
        ArchSpec::resnet20_mini(1, 16, 16, 10),
        ArchSpec::densenet_mini(1, 16, 16, 10),
        ArchSpec::googlenet_mini(1, 16, 16, 10),
        ArchSpec::resnext_mini(1, 16, 16, 10),
    ]
}

fn input(seed: u64, batch: usize) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::uniform(vec![batch, 1, 16, 16], -1.0, 1.0, &mut rng)
}

/// Runs `inputs` in order on a new thread, so on a fresh arena, each on
/// its own clone of `net`, and returns the bit patterns of the last
/// input's logits.
fn last_logits_on_new_thread(net: &Network, inputs: &[&Tensor], guard: Guard<'static>) -> Vec<u32> {
    let net = net.clone();
    let inputs: Vec<Tensor> = inputs.iter().map(|&x| x.clone()).collect();
    // pgmr-lint: allow(stray-spawn): the contract under test is about a thread's arena, so each case needs a thread whose arena provably starts empty; pool workers keep their arenas across jobs, and which worker runs a job is not fixed
    std::thread::spawn(move || {
        let plan = RunPlan { guard, ..RunPlan::default() };
        let mut out = Vec::new();
        for x in &inputs {
            net.clone().run(x, &plan, &mut out).expect("clean inputs must verify");
        }
        out.iter().map(|v| v.to_bits()).collect()
    })
    .join()
    .expect("forward thread panicked")
}

#[test]
fn logits_do_not_depend_on_what_the_arena_held_before() {
    for (i, spec) in specs().into_iter().enumerate() {
        let net = zoo::build(&spec, 300 + i as u64);
        let arch = spec.arch_id();
        for batch in [1usize, 7] {
            let a_same = input(10 * i as u64, batch);
            let a_other = input(10 * i as u64 + 1, 8 - batch);
            let b = input(10 * i as u64 + 2, batch);
            for (name, guard) in [("plain", Guard::Off), ("checked", Guard::All(1e-4))] {
                let fresh = last_logits_on_new_thread(&net, &[&b], guard);
                // A same-shape forward leaves every recycled buffer full of
                // A's values; a forward at the other batch leaves buffers
                // longer (then truncated) or shorter (then grown) than B
                // needs.
                let after_same = last_logits_on_new_thread(&net, &[&a_same, &b], guard);
                let after_other = last_logits_on_new_thread(&net, &[&a_other, &b], guard);
                assert_eq!(after_same, fresh, "{arch} batch {batch} {name}: same-shape forward");
                assert_eq!(after_other, fresh, "{arch} batch {batch} {name}: other-batch forward");
            }
        }
    }
}
