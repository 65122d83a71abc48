//! The [`Layer`] trait and parameter/cost accounting types.

use crate::workspace::{ActBuf, Workspace};
use pgmr_tensor::checksum::{ChecksumFault, GemmChecksums};
use pgmr_tensor::{ArenaView, Shape, Tensor};

/// A parameter value: either an owned [`Tensor`] (the training and parity
/// oracle representation) or a borrowed read-only view into a shared
/// weight arena (the multi-tenant inference representation).
///
/// Reads are uniform across both variants. The first mutable access to a
/// `Shared` value detaches it copy-on-write into an `Owned` tensor, so
/// per-tenant mutation (fault injection, precision quantization,
/// optimizer steps) never writes through to co-tenants.
#[derive(Debug, Clone)]
pub enum ParamValue {
    /// Heap-owned weights, private to this layer instance.
    Owned(Tensor),
    /// Read-only weights borrowed from a shared [`ArenaView`].
    Shared(ArenaView),
}

impl ParamValue {
    /// The parameter's shape.
    pub fn shape(&self) -> &Shape {
        match self {
            ParamValue::Owned(t) => t.shape(),
            ParamValue::Shared(v) => v.shape(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.shape().len()
    }

    /// True when the value holds no elements (never constructible: shapes
    /// reject zero dims).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read-only access to the row-major data.
    pub fn data(&self) -> &[f32] {
        match self {
            ParamValue::Owned(t) => t.data(),
            ParamValue::Shared(v) => v.data(),
        }
    }

    /// Mutable access; a `Shared` value detaches copy-on-write into an
    /// owned tensor first, so mutation is always tenant-private.
    pub fn data_mut(&mut self) -> &mut [f32] {
        self.detach();
        match self {
            ParamValue::Owned(t) => t.data_mut(),
            ParamValue::Shared(_) => unreachable!("detach produced an owned value"),
        }
    }

    /// Applies `f` to every element in place (detaching a shared value).
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for v in self.data_mut() {
            *v = f(*v);
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data().iter().sum()
    }

    /// An owned copy of the value.
    pub fn snapshot(&self) -> Tensor {
        match self {
            ParamValue::Owned(t) => t.clone(),
            ParamValue::Shared(v) => v.snapshot(),
        }
    }

    /// True while the value still borrows from a shared arena.
    pub fn is_shared(&self) -> bool {
        matches!(self, ParamValue::Shared(_))
    }

    /// Converts a shared value into a private owned copy (no-op when
    /// already owned).
    // pgmr-lint: boundary(hot-path-alloc): copy-on-write detach fires on the first *mutation* of an arena-shared slot (training, fault/precision injection) — the shared-weight inference forward only reads and never enters it
    fn detach(&mut self) {
        if let ParamValue::Shared(v) = self {
            *self = ParamValue::Owned(v.snapshot());
        }
    }
}

impl From<Tensor> for ParamValue {
    fn from(t: Tensor) -> Self {
        ParamValue::Owned(t)
    }
}

impl From<ArenaView> for ParamValue {
    fn from(v: ArenaView) -> Self {
        ParamValue::Shared(v)
    }
}

/// A gradient accumulator that materializes lazily for arena-backed
/// inference members: slots created by [`ParamSlot::new`] carry an eagerly
/// zeroed tensor (optimizers rely on reading zeros before any backward
/// pass — e.g. weight decay with untouched gradients), while slots created
/// by [`ParamSlot::share`] defer the allocation until a backward pass
/// actually writes, so N inference tenants never pay for gradients.
#[derive(Debug, Clone)]
pub struct GradSlot {
    dims: Vec<usize>,
    tensor: Option<Tensor>,
}

impl GradSlot {
    /// An eagerly zeroed gradient of the given shape.
    pub fn zeros(dims: Vec<usize>) -> Self {
        GradSlot { tensor: Some(Tensor::zeros(dims.clone())), dims }
    }

    /// An unmaterialized gradient: reads see an empty slice until the
    /// first mutable access allocates zeros of the recorded shape.
    pub fn lazy(dims: Vec<usize>) -> Self {
        GradSlot { dims, tensor: None }
    }

    /// Read-only access: the accumulated gradient data, or an empty slice
    /// while unmaterialized (semantically all-zeros).
    pub fn data(&self) -> &[f32] {
        self.tensor.as_ref().map(Tensor::data).unwrap_or(&[])
    }

    /// Mutable access, materializing zeros on first touch.
    // pgmr-lint: boundary(hot-path-alloc): lazy gradient materialization is a backward-pass event, once per tenant — inference reads the empty unmaterialized slice and never allocates here
    pub fn data_mut(&mut self) -> &mut [f32] {
        self.tensor.get_or_insert_with(|| Tensor::zeros(self.dims.clone())).data_mut()
    }

    /// Applies `f` to every materialized element in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        if let Some(t) = &mut self.tensor {
            t.map_in_place(f);
        }
    }

    /// Sum of all elements (0 while unmaterialized).
    pub fn sum(&self) -> f32 {
        self.data().iter().sum()
    }

    /// Squared L2 norm (0 while unmaterialized).
    pub fn norm_sq(&self) -> f32 {
        self.data().iter().map(|v| v * v).sum()
    }

    /// An owned tensor copy of the gradient (zeros while unmaterialized).
    pub fn snapshot(&self) -> Tensor {
        match &self.tensor {
            Some(t) => t.clone(),
            None => Tensor::zeros(self.dims.clone()),
        }
    }
}

impl From<Tensor> for GradSlot {
    fn from(t: Tensor) -> Self {
        GradSlot { dims: t.shape().dims().to_vec(), tensor: Some(t) }
    }
}

/// A trainable parameter together with its accumulated gradient.
///
/// Layers own their `ParamSlot`s; optimizers visit them through
/// [`Layer::visit_slots`] and update `value` from `grad`. The value is
/// either tenant-owned or borrowed from a shared weight arena (see
/// [`ParamValue`]); the two representations are pinned bit-identical on
/// every forward path.
#[derive(Debug, Clone)]
pub struct ParamSlot {
    /// Current parameter value.
    pub value: ParamValue,
    /// Gradient accumulated by the latest backward pass.
    pub grad: GradSlot,
}

impl ParamSlot {
    /// Creates an owned slot with a zeroed gradient of matching shape.
    pub fn new(value: Tensor) -> Self {
        let grad = GradSlot::zeros(value.shape().dims().to_vec());
        ParamSlot { value: ParamValue::Owned(value), grad }
    }

    /// Creates a slot borrowing its weights from a shared arena view. The
    /// gradient stays unmaterialized until a backward pass writes it —
    /// inference tenants never allocate gradient storage.
    pub fn share(view: ArenaView) -> Self {
        let grad = GradSlot::lazy(view.shape().dims().to_vec());
        ParamSlot { value: ParamValue::Shared(view), grad }
    }

    /// Zeroes the gradient in place (a no-op while unmaterialized, which
    /// already reads as zeros).
    pub fn zero_grad(&mut self) {
        self.grad.map_in_place(|_| 0.0);
    }
}

/// Static cost profile of one layer for a single input image, consumed by
/// the `pgmr-perf` analytical GPU model.
///
/// `macs` counts multiply-accumulate operations; `param_elems` counts weight
/// elements that must be streamed from memory; `output_elems` counts
/// activation elements written back (and re-read by the next layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LayerCost {
    /// Human-readable layer kind, e.g. `"conv2d"`.
    pub kind: &'static str,
    /// Multiply-accumulates per image.
    pub macs: u64,
    /// Parameter elements (weights + biases).
    pub param_elems: u64,
    /// Activation elements produced per image.
    pub output_elems: u64,
}

/// ABFT expectations over one layer's output tensor: a list of GEMM-result
/// checksum blocks, each anchored at a flat offset into the output data.
///
/// Dense layers produce a single block covering the whole `[n, out]`
/// output; convolutions produce one `[out_c, oh·ow]` block per image.
#[derive(Debug, Clone)]
pub struct OutputChecksum {
    segments: Vec<(usize, GemmChecksums)>,
}

impl OutputChecksum {
    /// Builds an expectation from `(flat_offset, checksums)` blocks.
    pub fn new(segments: Vec<(usize, GemmChecksums)>) -> Self {
        OutputChecksum { segments }
    }

    /// Verifies a (possibly corrupted) output against every block.
    ///
    /// # Panics
    ///
    /// Panics if a block extends past the data.
    pub fn verify(&self, data: &[f32], tolerance: f32) -> Result<(), ChecksumFault> {
        for (offset, sums) in &self.segments {
            let len = sums.rows() * sums.cols();
            sums.verify(&data[*offset..*offset + len], tolerance)?;
        }
        Ok(())
    }
}

/// A differentiable network layer.
///
/// The contract mirrors classic define-by-run frameworks:
///
/// 1. `forward_into` consumes a batch and, when `train` is set, caches
///    whatever the backward pass needs. `train` also distinguishes
///    training-time behavior (batch-norm batch statistics, dropout masks)
///    from inference (running statistics, pass-through).
/// 2. `backward` consumes the gradient w.r.t. the layer's output, updates
///    the internal parameter gradients, and returns the gradient w.r.t. the
///    layer's input. It must be called after a training forward on the
///    same batch.
/// 3. `visit_slots` exposes parameters to the optimizer and serializer in a
///    stable order.
///
/// Layers must be `Send` so ensembles can be trained on worker threads.
pub trait Layer: Send {
    /// Runs the layer on the batch held in `input`, returning the output in
    /// a buffer from `ws` (or `input` itself for pass-through layers — the
    /// ping-pong scheme). The input buffer is consumed: implementations
    /// must release it to `ws` unless they return it.
    ///
    /// `train` records the backward caches in the same body (those are the
    /// only allocations a layer makes). `checked` asks a guarded-GEMM layer
    /// (dense, convolution) to derive ABFT checksum expectations over its
    /// output; every other layer returns `None`.
    fn forward_into(
        &mut self,
        input: ActBuf,
        ws: &mut Workspace,
        train: bool,
        checked: bool,
    ) -> (ActBuf, Option<OutputChecksum>);

    /// Propagates gradients; returns the gradient w.r.t. the forward input.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before a training forward.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor;

    /// Visits every `(value, grad)` parameter slot in a stable order.
    fn visit_slots(&mut self, f: &mut dyn FnMut(&mut ParamSlot));

    /// Layer kind for debugging and cost reporting.
    fn name(&self) -> &'static str;

    /// Per-image cost profile for the analytical performance model.
    fn cost(&self) -> LayerCost;

    /// Clones the layer behind the trait object.
    fn clone_box(&self) -> Box<dyn Layer>;

    /// Switches Monte-Carlo dropout mode on or off. A no-op for layers
    /// without stochastic inference behavior; composite layers forward the
    /// call to their children.
    fn set_mc_dropout(&mut self, _on: bool) {}

    /// Visits every non-trainable state buffer in a stable order — e.g.
    /// batch-norm running means/variances. Buffers are part of a model's
    /// serialized state (they shape inference) but are never touched by
    /// optimizers. Composite layers forward the call to their children.
    fn visit_buffers(&mut self, _f: &mut dyn FnMut(&mut Vec<f32>)) {}
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_slot_zeroes_grad() {
        let mut slot = ParamSlot::new(Tensor::ones(vec![3]));
        slot.grad = Tensor::filled(vec![3], 2.0).into();
        slot.zero_grad();
        assert_eq!(slot.grad.sum(), 0.0);
        assert_eq!(slot.value.sum(), 3.0);
    }

    #[test]
    fn shared_slot_detaches_copy_on_write() {
        use pgmr_tensor::{ArenaView, WeightArena};
        use std::sync::Arc;
        let mut arena = WeightArena::new_zeroed(4);
        arena.data_mut().copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let arena = Arc::new(arena);
        let view = ArenaView::new(Arc::clone(&arena), 0, Shape::new(vec![4]));
        let mut slot = ParamSlot::share(view);
        assert!(slot.value.is_shared());
        assert_eq!(slot.value.data(), &[1.0, 2.0, 3.0, 4.0]);
        assert!(slot.grad.data().is_empty(), "shared slot must not allocate a gradient");

        slot.value.data_mut()[0] = 9.0;
        assert!(!slot.value.is_shared(), "mutation must detach the tenant copy");
        assert_eq!(slot.value.data(), &[9.0, 2.0, 3.0, 4.0]);
        assert_eq!(arena.data(), &[1.0, 2.0, 3.0, 4.0], "arena stays untouched");

        slot.grad.data_mut()[1] = 5.0;
        assert_eq!(slot.grad.data(), &[0.0, 5.0, 0.0, 0.0], "lazy grad materializes zeros");
    }

    #[test]
    fn layer_cost_default_is_zeroed() {
        let c = LayerCost::default();
        assert_eq!(c.macs, 0);
        assert_eq!(c.param_elems, 0);
    }
}
