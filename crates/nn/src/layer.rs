//! The [`Layer`] trait and parameter/cost accounting types.

use crate::workspace::Workspace;
use pgmr_tensor::checksum::{ChecksumFault, GemmChecksums, WeightSums};
use pgmr_tensor::Tensor;

/// A trainable parameter together with its accumulated gradient.
///
/// Layers own their `ParamSlot`s; optimizers visit them through
/// [`Layer::visit_slots`] and update `value` from `grad`. The value is
/// either tenant-owned or a slice of a shared weight arena (see
/// [`Tensor::shared`]); the two storages are pinned bit-identical on
/// every forward path.
#[derive(Debug, Clone)]
pub struct ParamSlot {
    /// Current parameter value.
    pub value: Tensor,
    /// Gradient accumulated by the latest backward pass, shaped like the
    /// value; `None` reads as zeros (see [`ParamSlot::grad`]).
    pub(crate) grad: Option<Tensor>,
}

impl ParamSlot {
    /// Wraps a parameter value. An owned value gets an eagerly zeroed
    /// gradient (optimizers rely on reading zeros before any backward
    /// pass — e.g. weight decay with untouched gradients); a shared one
    /// gets none until a backward pass writes it.
    pub fn new(value: Tensor) -> Self {
        let grad = (!value.is_shared()).then(|| Tensor::zeros(*value.shape()));
        ParamSlot { value, grad }
    }

    /// The gradient accumulated by the latest backward pass, or an empty
    /// slice while unmaterialized (semantically all zeros): a slot over
    /// shared weights defers the allocation until a backward pass writes
    /// ([`ParamSlot::grad_mut`]), so N inference tenants never pay for
    /// gradients.
    pub fn grad(&self) -> &[f32] {
        self.grad.as_ref().map_or(&[], Tensor::data)
    }

    /// Mutable gradient data, materializing zeros on first touch.
    // pgmr-lint: boundary(hot-path-alloc): lazy gradient materialization is a backward-pass event, once per tenant — inference reads the empty unmaterialized slice and never allocates here
    pub fn grad_mut(&mut self) -> &mut [f32] {
        let shape = *self.value.shape();
        self.grad.get_or_insert_with(|| Tensor::zeros(shape)).data_mut()
    }

    /// Zeroes the gradient in place (a no-op while unmaterialized, which
    /// already reads as zeros).
    pub fn zero_grad(&mut self) {
        if let Some(g) = &mut self.grad {
            g.data_mut().fill(0.0);
        }
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

/// The ABFT state of a guarded-GEMM layer (dense, convolution).
///
/// * The weight-side sums ([`WeightSums`]) are derived on the layer's first
///   checked forward after its weights change, and dropped whenever the
///   layer lends its parameter slots out ([`Layer::visit_slots`]): every
///   weight mutation — `map_params`/`set_precision`, `load_state`,
///   optimizer steps, fault injection and repair — goes through it.
/// * The expectations of the latest checked forward, one block per GEMM
///   (one per image for a convolution; one per batch for a dense layer,
///   which checks every image's row on its own), live in buffers refilled
///   in place, so a warmed checked forward
///   allocates nothing. An unchecked forward leaves them as they are: the
///   duplicated recompute of a checked layer runs between its forward and
///   [`Layer::verify_output`].
#[derive(Debug, Clone, Default)]
pub(crate) struct GemmGuard {
    weight: Option<WeightSums>,
    blocks: Vec<GemmChecksums>,
    /// Blocks the latest checked forward filled.
    pending: usize,
}

impl GemmGuard {
    /// Drops the weight-side sums: the weights may change.
    pub(crate) fn invalidate(&mut self) {
        self.weight = None;
    }

    /// The weight-side sums of `weight: rows×k` and `bias` (derived first
    /// if the weights changed since the last derivation) and `count`
    /// expectation blocks for the forward about to run.
    pub(crate) fn begin(
        &mut self,
        count: usize,
        rows: usize,
        k: usize,
        weight: &[f32],
        bias: &[f32],
    ) -> (&WeightSums, &mut [GemmChecksums]) {
        let sums = self.weight.get_or_insert_with(|| WeightSums::derive(rows, k, weight, bias));
        if self.blocks.len() < count {
            self.blocks.resize_with(count, GemmChecksums::default);
        }
        self.pending = count;
        (sums, &mut self.blocks[..count])
    }

    /// Verifies an output against the latest checked forward's blocks,
    /// laid out one after another.
    pub(crate) fn verify(&self, data: &[f32], tolerance: f32) -> Result<(), ChecksumFault> {
        let mut offset = 0;
        for sums in &self.blocks[..self.pending] {
            let len = sums.rows() * sums.cols();
            sums.verify(&data[offset..offset + len], tolerance)?;
            offset += len;
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
///    stable order. It is the only way to reach a layer's parameters, so a
///    guarded layer drops its weight-side checksum sums there.
///
/// Layers must be `Send` so ensembles can be trained on worker threads.
pub trait Layer: Send {
    /// Runs the layer on the batch held in `input`, returning the output in
    /// a tensor from `ws` (or `input` itself for pass-through layers — the
    /// ping-pong scheme). The input tensor is consumed: implementations
    /// must release it to `ws` unless they return it. A tensor acquired
    /// from `ws` holds unspecified values, so the layer writes every
    /// element of its output.
    ///
    /// `train` records the backward caches in the same body (those are the
    /// only allocations a layer makes). `checked` asks a guarded-GEMM layer
    /// (dense, convolution) to derive ABFT checksum expectations over its
    /// output, which it keeps for [`Layer::verify_output`]; every other
    /// layer ignores it.
    fn forward_into(
        &mut self,
        input: Tensor,
        ws: &mut Workspace,
        train: bool,
        checked: bool,
    ) -> Tensor;

    /// Verifies `output` — the latest checked forward's output, after the
    /// activation hook ran on it — against the checksum expectations that
    /// forward derived, returning the first violation. Layers without a
    /// guarded GEMM have nothing to verify.
    fn verify_output(&self, _output: &[f32], _tolerance: f32) -> Result<(), ChecksumFault> {
        Ok(())
    }

    /// Propagates gradients; returns the gradient w.r.t. the forward input.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before a training forward.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor;

    /// Visits every `(value, grad)` parameter slot in a stable order. A
    /// layer that derives forms from its weights (a guarded layer's ABFT
    /// weight sums) drops them here, since the visitor may change them.
    fn visit_slots(&mut self, f: &mut dyn FnMut(&mut ParamSlot));

    /// Visits every parameter slot read-only, in the order of
    /// [`Layer::visit_slots`]. Nothing derived from the weights is dropped.
    fn read_slots(&self, f: &mut dyn FnMut(&ParamSlot));

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
        let mut slot = ParamSlot::new(Tensor::ones([3]));
        slot.grad_mut().fill(2.0);
        slot.zero_grad();
        assert_eq!(slot.grad(), &[0.0; 3]);
        assert_eq!(slot.value.sum(), 3.0);
    }

    #[test]
    fn shared_slot_detaches_copy_on_write() {
        use pgmr_tensor::WeightArena;
        use std::sync::Arc;
        let mut arena = WeightArena::new_zeroed(4);
        arena.data_mut().copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let arena = Arc::new(arena);
        let mut slot = ParamSlot::new(Tensor::shared(Arc::clone(&arena), 0, [4]));
        assert!(slot.value.is_shared());
        assert_eq!(slot.value.data(), &[1.0, 2.0, 3.0, 4.0]);
        assert!(slot.grad.is_none(), "shared slot must not allocate a gradient");

        slot.value.data_mut()[0] = 9.0;
        assert!(!slot.value.is_shared(), "mutation must detach the tenant copy");
        assert_eq!(slot.value.data(), &[9.0, 2.0, 3.0, 4.0]);
        assert_eq!(arena.data(), &[1.0, 2.0, 3.0, 4.0], "arena stays untouched");

        slot.grad_mut()[1] = 5.0;
        assert_eq!(slot.grad(), &[0.0, 5.0, 0.0, 0.0], "lazy grad materializes zeros");
    }

    #[test]
    fn layer_cost_default_is_zeroed() {
        let c = LayerCost::default();
        assert_eq!(c.macs, 0);
        assert_eq!(c.param_elems, 0);
    }
}
