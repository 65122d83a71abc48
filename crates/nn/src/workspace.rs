//! The activation workspace every forward pass runs in: an arena of
//! activation buffers and im2col scratch shared by
//! [`crate::layer::Layer::forward_into`], the one forward body of every
//! layer.
//!
//! * Activations are owned [`Tensor`]s. Layers consume their input
//!   tensor by value and either return it (flatten, dropout, in-place
//!   ReLU and batch-norm) or trade it for an output tensor from the
//!   arena — the "ping-pong" scheme.
//! * [`Workspace::acquire`] / [`Workspace::release`] — a LIFO free list
//!   of the tensors' `Vec<f32>` storage; a tensor's shape is inline, so
//!   handing one out costs no allocation beyond its storage. Storage
//!   capacities only grow, and a network's acquire sequence is the same
//!   on every forward pass, so after the first call at a given
//!   (architecture, batch) the arena serves every request from recycled
//!   storage: zero steady-state heap allocations.
//! * [`Workspace::scratch_with_gemm`] — one dedicated buffer for im2col
//!   patch matrices, reused across images, layers, and calls without
//!   clearing (`im2col_into` writes every element, zeros for padded taps
//!   included), and the `A·B` kernel's column-tail panels
//!   ([`pgmr_tensor::gemm::GemmScratch`]), sized once at the largest
//!   panel a workload needs.
//!
//! Inference runs on a per-thread arena via [`with_thread_workspace`];
//! worker pool threads ([`crate::pool::WorkerPool`]) are persistent, so
//! one workspace per worker is reused across members and batches.
//! Training forwards, and the post-training [`crate::train::accuracy`]
//! evaluation, run the same layer bodies on a workspace of their own (see
//! [`crate::Network::run`]); training additionally records the backward
//! caches — the only allocations a layer makes.

use pgmr_obs::Gauge;
use pgmr_tensor::gemm::GemmScratch;
use pgmr_tensor::{Shape, Tensor};
use std::cell::RefCell;
use std::sync::Arc;

/// Steady-state counters exposed for regression tests and observability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// High-water mark of live activation + scratch bytes.
    pub peak_bytes: usize,
    /// Buffer-growth events (a fresh buffer or a capacity increase). Stops
    /// advancing once the arena reaches steady state for a workload.
    pub grows: u64,
}

/// A reusable arena of activation buffers and im2col scratch. See the
/// module docs for the ownership scheme.
#[derive(Debug, Default)]
pub struct Workspace {
    free: Vec<Vec<f32>>,
    scratch: Vec<f32>,
    gemm: GemmScratch,
    in_use_bytes: usize,
    scratch_bytes: usize,
    peak_bytes: usize,
    /// The `infer.workspace_bytes` gauge, looked up at the first report.
    gauge: Option<Arc<Gauge>>,
    grows: u64,
}

impl Workspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Hands out a tensor of the given shape over the most recently
    /// released storage (LIFO keeps ping-pong pairs hot). Contents are
    /// unspecified: recycled storage keeps what its last user wrote, and
    /// only storage past its previous length is zero-filled. The caller
    /// writes every element.
    pub fn acquire(&mut self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        let len = shape.len();
        let mut data = self.free.pop().unwrap_or_else(|| {
            self.grows += 1;
            Vec::new()
        });
        if data.capacity() < len {
            self.grows += 1;
        }
        data.resize(len, 0.0);
        self.in_use_bytes += len * std::mem::size_of::<f32>();
        self.note_usage();
        Tensor::from_vec(shape, data)
    }

    /// An acquired tensor holding a copy of `src` (the copies
    /// `Network::run` and the branching layers feed their sub-paths).
    pub(crate) fn acquire_copy(&mut self, src: &Tensor) -> Tensor {
        let mut copy = self.acquire(*src.shape());
        copy.data_mut().copy_from_slice(src.data());
        copy
    }

    /// Returns a tensor's storage to the free list for reuse. Re-samples
    /// the peak first: the GEMM tail panels may have grown since
    /// acquisition (they grow inside the layer's kernel call).
    pub fn release(&mut self, buf: Tensor) {
        self.note_usage();
        self.in_use_bytes =
            self.in_use_bytes.saturating_sub(buf.len() * std::mem::size_of::<f32>());
        self.free.push(buf.into_data());
    }

    /// The shared im2col scratch, resized (capacity only grows) to exactly
    /// `len` elements, *and* the GEMM tail panels, borrowed together —
    /// convolution writes patch matrices into the former while the tiled
    /// kernel pads its column tail into the latter. Scratch contents are
    /// unspecified: `im2col_into` overwrites every element it hands to the
    /// GEMM.
    pub fn scratch_with_gemm(&mut self, len: usize) -> (&mut [f32], &mut GemmScratch) {
        if self.scratch.capacity() < len {
            self.grows += 1;
        }
        if self.scratch.len() < len {
            self.scratch.resize(len, 0.0);
        }
        self.scratch_bytes = self.scratch_bytes.max(len * std::mem::size_of::<f32>());
        self.note_usage();
        (&mut self.scratch[..len], &mut self.gemm)
    }

    /// Current counters. GEMM panel growth counts toward `grows`, so the
    /// steady-state regression tests cover the tail panels too.
    pub fn stats(&self) -> WorkspaceStats {
        WorkspaceStats {
            peak_bytes: self
                .peak_bytes
                .max(self.in_use_bytes + self.scratch_bytes + self.gemm.bytes()),
            grows: self.grows + self.gemm.grows(),
        }
    }

    fn note_usage(&mut self) {
        self.peak_bytes =
            self.peak_bytes.max(self.in_use_bytes + self.scratch_bytes + self.gemm.bytes());
    }

    /// Publishes this arena's peak live bytes into the process-wide
    /// `infer.workspace_bytes` gauge whenever the gauge reads less. The
    /// gauge keeps the largest peak any arena has published (a
    /// max-update), so it reads the process's peak whichever thread
    /// reports last, and a registry reset, which zeroes it, is made good
    /// by each arena's next report. Each peak is a pure function of the
    /// (architecture, batch) schedules its thread ran, so the gauge stays
    /// deterministic in the obs snapshot.
    pub fn report_peak(&mut self) {
        let peak = self.peak_bytes as f64;
        let gauge =
            self.gauge.get_or_insert_with(|| pgmr_obs::global().gauge("infer.workspace_bytes"));
        if gauge.get() < peak {
            gauge.set_max(peak);
        }
    }
}

thread_local! {
    static THREAD_WS: RefCell<Workspace> = RefCell::new(Workspace::new());
}

/// Runs `f` with this thread's workspace. The arena is moved out for the
/// duration of the call (a re-entrant caller sees a fresh empty arena
/// rather than a borrow panic) and moved back afterwards, so buffers
/// persist across calls for the thread's lifetime — one workspace per
/// worker-pool thread, reused across members and batches.
pub fn with_thread_workspace<R>(f: impl FnOnce(&mut Workspace) -> R) -> R {
    THREAD_WS.with(|cell| {
        let mut ws = std::mem::take(&mut *cell.borrow_mut());
        let out = f(&mut ws);
        *cell.borrow_mut() = ws;
        out
    })
}

/// Counters of this thread's workspace (regression tests: two consecutive
/// `infer_batch` calls must not advance `grows`).
pub fn thread_workspace_stats() -> WorkspaceStats {
    THREAD_WS.with(|cell| cell.borrow().stats())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_recycles_storage() {
        let mut ws = Workspace::new();
        let a = ws.acquire([2, 3]);
        assert_eq!(a.len(), 6);
        assert_eq!(a.shape().dims(), &[2, 3]);
        ws.release(a);
        let grows_before = ws.stats().grows;
        let b = ws.acquire([3, 2]);
        assert_eq!(ws.stats().grows, grows_before, "recycled acquire must not grow");
        assert_eq!(b.shape().dims(), &[3, 2]);
        let mut src = Tensor::zeros([3, 2]);
        src.data_mut()[4] = 1.5;
        assert_eq!(ws.acquire_copy(&src), src);
    }

    #[test]
    fn acquire_zero_fills_fresh_storage() {
        let mut ws = Workspace::new();
        let mut a = ws.acquire([2]);
        assert_eq!(a.data(), [0.0, 0.0], "a fresh buffer reads zero");
        a.data_mut().fill(7.0);
        ws.release(a);
        // Only storage past the recycled buffer's previous length is
        // zero-filled; `acquire` leaves the recycled prefix as it was
        // written, which is why every layer writes its whole output.
        let mut b = ws.acquire([4]);
        assert_eq!(b.data(), [7.0, 7.0, 0.0, 0.0]);
        b.data_mut().fill(5.0);
        ws.release(b);
        let c = ws.acquire([3]);
        assert_eq!(c.shape().dims(), &[3]);
        assert_eq!(c.data(), [5.0, 5.0, 5.0], "shrinking truncates without a fill");
    }

    #[test]
    fn peak_bytes_tracks_concurrent_buffers() {
        let mut ws = Workspace::new();
        let a = ws.acquire([10]);
        let b = ws.acquire([20]);
        assert_eq!(ws.stats().peak_bytes, 30 * 4);
        ws.release(a);
        ws.release(b);
        let c = ws.acquire([10]);
        assert_eq!(ws.stats().peak_bytes, 30 * 4, "peak is a high-water mark");
        ws.release(c);
    }

    #[test]
    fn scratch_grows_monotonically() {
        let mut ws = Workspace::new();
        ws.scratch_with_gemm(100);
        let grows = ws.stats().grows;
        ws.scratch_with_gemm(50);
        assert_eq!(ws.stats().grows, grows, "smaller scratch reuses capacity");
        assert_eq!(ws.scratch_with_gemm(50).0.len(), 50);
    }

    #[test]
    fn thread_workspace_persists_across_calls() {
        let before = thread_workspace_stats();
        with_thread_workspace(|ws| {
            let buf = ws.acquire([128]);
            ws.release(buf);
        });
        let mid = thread_workspace_stats();
        assert!(mid.grows >= before.grows);
        with_thread_workspace(|ws| {
            let buf = ws.acquire([128]);
            ws.release(buf);
        });
        assert_eq!(thread_workspace_stats().grows, mid.grows, "second pass must reuse");
    }
}
