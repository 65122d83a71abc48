//! Seeded workload inputs. The workload seed picks Test-split sample
//! indices and camera phases; the program only ever sees the images.

/// SplitMix64: a small generator whose output is fixed by its seed on
/// every platform and toolchain, so a seed names the same inputs forever.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed`, decorrelated per `stream` so two workloads
    /// with the same seed draw different inputs.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = SplitMix64(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        g.next_u64();
        g
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-32 for the
    /// sizes used here).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
}

/// `count` Test-split sample indices: consecutive seeded shuffles
/// ("decks") of `0..samples`. Every whole deck holds each sample once,
/// so runs of any seed whose count is a multiple of the split size see
/// the same multiset of samples and only their order changes — rates
/// over the outputs then differ between seeds only through the order.
pub fn sample_indices(seed: u64, stream: u64, count: usize, samples: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed, stream);
    let mut deck: Vec<usize> = (0..samples).collect();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        for i in (1..samples).rev() {
            // pgmr-lint: allow(bare-atomic): a slice element swap (Fisher–Yates), not an atomic
            deck.swap(i, rng.below(i + 1));
        }
        out.extend(deck.iter().take(count - out.len()));
    }
    out
}

/// One frame of the open-loop camera load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// When the frame is due, nanoseconds after the load starts.
    pub due_ns: u64,
    /// The camera stream it belongs to.
    pub stream: usize,
    /// The Test-split sample it shows.
    pub sample: usize,
}

/// The merged schedule of `streams` periodic cameras at `fps` over
/// `seconds`, each with a seeded phase within one frame period, in due
/// order (ties by stream). Every stream sends exactly `fps * seconds`
/// frames, so the count is fixed by the arguments alone.
pub fn camera_schedule(
    seed: u64,
    streams: usize,
    fps: u64,
    seconds: u64,
    samples: usize,
) -> Vec<Frame> {
    let period_ns = 1_000_000_000 / fps;
    let mut rng = SplitMix64::new(seed, 0xCA4E);
    let phases: Vec<u64> = (0..streams).map(|_| rng.next_u64() % period_ns).collect();
    let frames_per_stream = fps * seconds;
    let mut frames = Vec::with_capacity(streams * frames_per_stream as usize);
    for k in 0..frames_per_stream {
        for (stream, &phase) in phases.iter().enumerate() {
            frames.push(Frame { due_ns: phase + k * period_ns, stream, sample: 0 });
        }
    }
    frames.sort_by_key(|f| (f.due_ns, f.stream));
    let picks = sample_indices(rng.next_u64(), 0, frames.len(), samples);
    for (f, sample) in frames.iter_mut().zip(picks) {
        f.sample = sample;
    }
    frames
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        let a = camera_schedule(7, 8, 50, 2, 800);
        assert_eq!(a, camera_schedule(7, 8, 50, 2, 800));
        let b = camera_schedule(8, 8, 50, 2, 800);
        assert_ne!(
            a.iter().map(|f| f.due_ns).collect::<Vec<_>>(),
            b.iter().map(|f| f.due_ns).collect::<Vec<_>>()
        );
        assert_ne!(
            a.iter().map(|f| f.sample).collect::<Vec<_>>(),
            b.iter().map(|f| f.sample).collect::<Vec<_>>()
        );
    }

    #[test]
    fn schedule_is_periodic_per_stream_and_sorted() {
        let s = camera_schedule(3, 8, 50, 2, 800);
        assert_eq!(s.len(), 8 * 50 * 2);
        assert!(s.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        for stream in 0..8 {
            let dues: Vec<u64> =
                s.iter().filter(|f| f.stream == stream).map(|f| f.due_ns).collect();
            assert_eq!(dues.len(), 100);
            assert!(dues[0] < 20_000_000, "phase lies within one period");
            assert!(dues.windows(2).all(|w| w[1] - w[0] == 20_000_000));
        }
        assert!(s.iter().all(|f| f.sample < 800));
    }

    #[test]
    fn sample_indices_are_seeded_decks() {
        let a = sample_indices(11, 1, 1500, 600);
        assert_eq!(a, sample_indices(11, 1, 1500, 600));
        assert_ne!(a, sample_indices(12, 1, 1500, 600));
        assert_ne!(a, sample_indices(11, 2, 1500, 600));
        for deck in a.chunks(600).filter(|d| d.len() == 600) {
            let mut sorted = deck.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..600).collect::<Vec<_>>(), "a whole deck is a permutation");
        }
        assert_ne!(a[..600], a[600..1200], "each deck is shuffled afresh");
    }
}
