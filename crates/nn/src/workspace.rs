//! The activation workspace every forward pass runs in: an arena of
//! activation buffers and im2col scratch shared by
//! [`crate::layer::Layer::forward_into`], the one forward body of every
//! layer.
//!
//! * [`ActBuf`] — a plain `Vec<f32>` plus dimensions, the unit of
//!   activation storage. Layers consume their input buffer by value and
//!   either return it (flatten, dropout, in-place ReLU and batch-norm) or
//!   trade it for an output buffer from the arena — the "ping-pong"
//!   scheme.
//! * [`Workspace::acquire`] / [`Workspace::release`] — a LIFO free list.
//!   Buffer capacities only grow, and a network's acquire sequence is
//!   the same on every forward pass, so after the first call at a given
//!   (architecture, batch) the arena serves every request from recycled
//!   storage: zero steady-state heap allocations.
//! * [`Workspace::gemm_scratch`] — packing buffers
//!   ([`pgmr_tensor::gemm::GemmScratch`]) for the blocked GEMM kernels,
//!   sized once at the largest panel a workload needs;
//!   [`Workspace::scratch_with_gemm`] adds one dedicated buffer for im2col
//!   patch matrices, reused across images, layers, and calls without
//!   clearing: `im2col_into` writes every element, zeros for padded taps
//!   included.
//!
//! Inference runs on a per-thread arena via [`with_thread_workspace`];
//! worker pool threads ([`crate::pool::WorkerPool`]) are persistent, so
//! one workspace per worker is reused across members and batches.
//! Training forwards run the same layer bodies on a workspace of their
//! own (see [`crate::Network::run`]) and additionally record the
//! backward caches — the only allocations a layer makes.

use pgmr_tensor::gemm::GemmScratch;
use pgmr_tensor::Tensor;
use std::cell::RefCell;

/// An activation buffer: row-major data plus its dimensions. The currency
/// of [`crate::layer::Layer::forward_into`].
#[derive(Debug, Clone, Default)]
pub struct ActBuf {
    data: Vec<f32>,
    dims: Vec<usize>,
}

impl ActBuf {
    /// The buffer's dimensions.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Immutable view of the data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Rewrites the dimensions without touching the data (flatten/reshape).
    /// Reuses the dims vector's capacity, so it never allocates once the
    /// buffer has cycled through the arena.
    ///
    /// # Panics
    ///
    /// Panics if the new dimensions disagree with the element count.
    pub fn set_dims(&mut self, dims: &[usize]) {
        let len: usize = dims.iter().product();
        assert_eq!(
            len,
            self.data.len(),
            "dims {dims:?} disagree with {} elements",
            self.data.len()
        );
        self.dims.clear();
        self.dims.extend_from_slice(dims);
    }

    /// Interprets the dims as NCHW.
    ///
    /// # Panics
    ///
    /// Panics unless the buffer is rank 4.
    pub fn as_nchw(&self) -> (usize, usize, usize, usize) {
        assert_eq!(self.dims.len(), 4, "expected rank-4 dims, got {:?}", self.dims);
        (self.dims[0], self.dims[1], self.dims[2], self.dims[3])
    }

    /// Allocating copy into a [`Tensor`] (training-time backward caches;
    /// not used on the zero-allocation inference path).
    pub fn to_tensor(&self) -> Tensor {
        Tensor::from_vec(self.dims.clone(), self.data.clone())
    }
}

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
    free: Vec<ActBuf>,
    scratch: Vec<f32>,
    gemm: GemmScratch,
    in_use_bytes: usize,
    scratch_bytes: usize,
    peak_bytes: usize,
    reported_bytes: usize,
    grows: u64,
}

impl Workspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Hands out a buffer with the given dimensions, recycling the most
    /// recently released one (LIFO keeps ping-pong pairs hot). Contents
    /// are unspecified: a recycled buffer keeps what its last user wrote,
    /// and only storage past its previous length is zero-filled. The
    /// caller writes every element.
    pub fn acquire(&mut self, dims: &[usize]) -> ActBuf {
        let len: usize = dims.iter().product();
        let mut buf = match self.free.pop() {
            Some(b) => b,
            None => {
                self.grows += 1;
                ActBuf::default()
            }
        };
        if buf.data.capacity() < len {
            self.grows += 1;
        }
        buf.data.resize(len, 0.0);
        buf.dims.clear();
        buf.dims.extend_from_slice(dims);
        self.in_use_bytes += len * std::mem::size_of::<f32>();
        self.note_usage();
        buf
    }

    /// Returns a buffer to the free list for reuse. Re-samples the peak
    /// first: the GEMM packing buffers may have grown since acquisition
    /// (they grow inside the layer's kernel call).
    pub fn release(&mut self, buf: ActBuf) {
        self.note_usage();
        self.in_use_bytes =
            self.in_use_bytes.saturating_sub(buf.data.len() * std::mem::size_of::<f32>());
        self.free.push(buf);
    }

    /// The GEMM packing buffers (dense layers, which have no im2col
    /// scratch of their own). Capacities only grow — the hot path reaches
    /// a steady state after the first pass at a given shape set.
    pub fn gemm_scratch(&mut self) -> &mut GemmScratch {
        &mut self.gemm
    }

    /// The shared im2col scratch, resized (capacity only grows) to exactly
    /// `len` elements, *and* the GEMM packing buffers, borrowed together —
    /// convolution writes patch matrices into the former while the blocked
    /// kernel packs panels into the latter. Scratch contents are
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

    /// Current counters. GEMM packing growth counts toward `grows`, so the
    /// steady-state regression tests cover the packed kernels too.
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
    /// `infer.workspace_bytes` gauge when it changed since the last
    /// report. The gauge keeps the largest peak any arena has published
    /// (a max-update), so it reads the process's peak whichever thread
    /// reports last. Each peak is a pure function of the (architecture,
    /// batch) schedules its thread ran, so the gauge stays deterministic
    /// in the obs snapshot.
    pub fn report_peak(&mut self) {
        if self.peak_bytes != self.reported_bytes {
            self.reported_bytes = self.peak_bytes;
            pgmr_obs::global().gauge("infer.workspace_bytes").set_max(self.peak_bytes as f64);
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
        let a = ws.acquire(&[2, 3]);
        assert_eq!(a.len(), 6);
        assert_eq!(a.dims(), &[2, 3]);
        ws.release(a);
        let grows_before = ws.stats().grows;
        let b = ws.acquire(&[3, 2]);
        assert_eq!(ws.stats().grows, grows_before, "recycled acquire must not grow");
        assert_eq!(b.dims(), &[3, 2]);
    }

    #[test]
    fn acquire_zero_fills_fresh_storage() {
        let mut ws = Workspace::new();
        let mut a = ws.acquire(&[2]);
        assert_eq!(a.data(), [0.0, 0.0], "a fresh buffer reads zero");
        a.data_mut().fill(7.0);
        ws.release(a);
        // Only storage past the recycled buffer's previous length is
        // zero-filled; `acquire` leaves the recycled prefix as it was
        // written, which is why every layer writes its whole output.
        let mut b = ws.acquire(&[4]);
        assert_eq!(b.data(), [7.0, 7.0, 0.0, 0.0]);
        b.data_mut().fill(5.0);
        ws.release(b);
        let c = ws.acquire(&[3]);
        assert_eq!(c.dims(), &[3]);
        assert_eq!(c.data(), [5.0, 5.0, 5.0], "shrinking truncates without a fill");
    }

    #[test]
    fn peak_bytes_tracks_concurrent_buffers() {
        let mut ws = Workspace::new();
        let a = ws.acquire(&[10]);
        let b = ws.acquire(&[20]);
        assert_eq!(ws.stats().peak_bytes, 30 * 4);
        ws.release(a);
        ws.release(b);
        let c = ws.acquire(&[10]);
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
    fn set_dims_requires_matching_element_count() {
        let mut ws = Workspace::new();
        let mut a = ws.acquire(&[2, 3]);
        a.set_dims(&[6]);
        assert_eq!(a.dims(), &[6]);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| a.set_dims(&[7])));
        assert!(r.is_err());
    }

    #[test]
    fn thread_workspace_persists_across_calls() {
        let before = thread_workspace_stats();
        with_thread_workspace(|ws| {
            let buf = ws.acquire(&[128]);
            ws.release(buf);
        });
        let mid = thread_workspace_stats();
        assert!(mid.grows >= before.grows);
        with_thread_workspace(|ws| {
            let buf = ws.acquire(&[128]);
            ws.release(buf);
        });
        assert_eq!(thread_workspace_stats().grows, mid.grows, "second pass must reuse");
    }
}
