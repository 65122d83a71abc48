//! Activation layers.

use crate::layer::{Layer, LayerCost, ParamSlot};
use crate::workspace::Workspace;
use pgmr_tensor::{relu_backward, Tensor};

/// Rectified linear unit layer.
#[derive(Clone, Default)]
pub struct Relu {
    input_cache: Option<Tensor>,
    output_elems_per_image: u64,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }

    /// Keeps the pre-activation input for `backward`.
    // pgmr-lint: boundary(hot-path-alloc): training-only backward cache; inference forwards never record it
    fn cache_input(&mut self, input: &Tensor) {
        self.input_cache = Some(input.clone());
    }
}

impl Layer for Relu {
    fn forward_into(
        &mut self,
        mut input: Tensor,
        _ws: &mut Workspace,
        train: bool,
        _checked: bool,
    ) -> Tensor {
        self.output_elems_per_image = (input.len() / input.shape().dim(0)) as u64;
        if train {
            self.cache_input(&input);
        } else {
            self.input_cache = None;
        }
        // Elementwise, so it clamps in place (pass-through).
        for v in input.data_mut() {
            *v = v.max(0.0);
        }
        input
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self.input_cache.as_ref().expect("relu backward called before forward");
        relu_backward(input, grad_output)
    }

    fn visit_slots(&mut self, _f: &mut dyn FnMut(&mut ParamSlot)) {}

    fn read_slots(&self, _f: &mut dyn FnMut(&ParamSlot)) {}

    fn name(&self) -> &'static str {
        "relu"
    }

    fn cost(&self) -> LayerCost {
        LayerCost {
            kind: "relu",
            macs: 0,
            param_elems: 0,
            output_elems: self.output_elems_per_image,
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
    fn forward_and_backward() {
        let mut layer = Relu::new();
        let x = Tensor::from_vec(vec![1, 4], vec![-1., 0., 1., 2.]);
        let y = forward(&mut layer, &x, true);
        assert_eq!(y.data(), &[0., 0., 1., 2.]);
        let dx = layer.backward(&Tensor::ones(vec![1, 4]));
        assert_eq!(dx.data(), &[0., 0., 1., 1.]);
    }

    #[test]
    #[should_panic(expected = "before forward")]
    fn backward_requires_forward() {
        Relu::new().backward(&Tensor::ones(vec![1]));
    }

    #[test]
    fn workspace_forward_clamps_in_place() {
        let mut layer = Relu::new();
        let mut ws = crate::workspace::Workspace::new();
        let mut buf = ws.acquire([1, 4]);
        buf.data_mut().copy_from_slice(&[-1., 0., 1., 2.]);
        let out = layer.forward_into(buf, &mut ws, false, true);
        assert_eq!(out.data(), &[0., 0., 1., 2.]);
        layer.verify_output(&[f32::NAN; 4], 0.0).expect("relu has no guarded GEMM");
        assert!(layer.input_cache.is_none(), "inference must not cache the input");
        assert_eq!(layer.cost().output_elems, 4);
    }
}
