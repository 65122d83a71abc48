//! Shape adapter between convolutional and dense stages.

use crate::layer::{Layer, LayerCost, OutputChecksum, ParamSlot};
use crate::workspace::{ActBuf, Workspace};
use pgmr_tensor::Tensor;

/// Flattens `[n, c, h, w]` (or any rank ≥ 2) into `[n, c*h*w]`.
#[derive(Clone, Default)]
pub struct Flatten {
    input_dims: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten { input_dims: None }
    }
}

impl Layer for Flatten {
    fn forward_into(
        &mut self,
        mut input: ActBuf,
        _ws: &mut Workspace,
        _train: bool,
        _checked: bool,
    ) -> (ActBuf, Option<OutputChecksum>) {
        let dims = input.dims();
        assert!(dims.len() >= 2, "flatten expects a batched tensor");
        let n = dims[0];
        let rest: usize = dims[1..].iter().product();
        match &mut self.input_dims {
            Some(d) => {
                d.clear();
                d.extend_from_slice(input.dims());
            }
            // pgmr-lint: allow(hot-path-alloc): one-time slot initialization on the first image; every later pass reuses the Vec via clear+extend
            None => self.input_dims = Some(input.dims().to_vec()),
        }
        input.set_dims(&[n, rest]);
        (input, None)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let dims = self.input_dims.clone().expect("flatten backward called before forward");
        grad_output.reshape(dims)
    }

    fn visit_slots(&mut self, _f: &mut dyn FnMut(&mut ParamSlot)) {}

    fn name(&self) -> &'static str {
        "flatten"
    }

    fn cost(&self) -> LayerCost {
        LayerCost {
            kind: "flatten",
            macs: 0,
            param_elems: 0,
            output_elems: 0, // pure view change; no data is re-written
        }
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::forward;

    #[test]
    fn round_trips_shape() {
        let mut flat = Flatten::new();
        let x = Tensor::from_vec(vec![2, 2, 1, 2], (0..8).map(|v| v as f32).collect());
        let y = forward(&mut flat, &x, true);
        assert_eq!(y.shape().dims(), &[2, 4]);
        let dx = flat.backward(&y);
        assert_eq!(dx.shape().dims(), x.shape().dims());
        assert_eq!(dx.data(), x.data());
    }
}
