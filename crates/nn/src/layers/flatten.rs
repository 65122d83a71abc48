//! Shape adapter between convolutional and dense stages.

use crate::layer::{Layer, LayerCost, ParamSlot};
use crate::workspace::Workspace;
use pgmr_tensor::{Shape, Tensor};

/// Flattens `[n, c, h, w]` (or any rank ≥ 2) into `[n, c*h*w]`.
#[derive(Clone, Default)]
pub struct Flatten {
    input_shape: Option<Shape>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten { input_shape: None }
    }
}

impl Layer for Flatten {
    fn forward_into(
        &mut self,
        input: Tensor,
        _ws: &mut Workspace,
        _train: bool,
        _checked: bool,
    ) -> Tensor {
        let dims = input.shape().dims();
        assert!(dims.len() >= 2, "flatten expects a batched tensor");
        let flat = [dims[0], dims[1..].iter().product()];
        self.input_shape = Some(*input.shape());
        input.reshape(flat)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let shape = self.input_shape.expect("flatten backward called before forward");
        grad_output.clone().reshape(shape)
    }

    fn visit_slots(&mut self, _f: &mut dyn FnMut(&mut ParamSlot)) {}

    fn read_slots(&self, _f: &mut dyn FnMut(&ParamSlot)) {}

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
