//! `infer.workspace_bytes` reads the process-wide peak: the largest peak
//! any thread's arena published, whichever thread publishes last.
//!
//! Its own test binary with one test, so no other test's forwards publish
//! into the global registry while it runs.

use pgmr_nn::workspace::thread_workspace_stats;
use pgmr_nn::zoo::{self, ArchSpec};
use pgmr_tensor::Tensor;

/// Runs one forward of `spec` at `batch` on a fresh thread (whose arena
/// starts empty and publishes its peak once) and returns that arena's peak.
fn peak_on_fresh_thread(spec: ArchSpec, batch: usize) -> usize {
    // pgmr-lint: allow(stray-spawn): the gauge contract is about several threads' arenas publishing in a chosen order; pool workers keep their arenas across jobs, and which worker runs a job is not fixed
    std::thread::spawn(move || {
        let mut net = zoo::build(&spec, 3);
        let x = Tensor::zeros(vec![batch, spec.in_c, spec.in_h, spec.in_w]);
        net.forward(&x, false);
        thread_workspace_stats().peak_bytes
    })
    .join()
    .expect("forward thread panicked")
}

#[test]
fn gauge_reads_the_largest_peak_whichever_thread_publishes_last() {
    let registry = pgmr_obs::global();
    let small = (ArchSpec::lenet5(1, 16, 16, 10), 1);
    let large = (ArchSpec::alexnet_mini(3, 24, 24, 20), 7);
    for order in [[&small, &large], [&large, &small]] {
        registry.reset();
        let peaks: Vec<usize> =
            order.iter().map(|(spec, batch)| peak_on_fresh_thread(spec.clone(), *batch)).collect();
        assert!(peaks[0] != peaks[1], "the two arenas must differ to tell the orders apart");
        let largest = *peaks.iter().max().expect("two peaks");
        assert_eq!(
            registry.gauge("infer.workspace_bytes").get(),
            largest as f64,
            "peaks {peaks:?} published in this order"
        );
    }
}
