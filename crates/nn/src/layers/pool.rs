//! Pooling layers.

use crate::layer::{Layer, LayerCost, OutputChecksum, ParamSlot};
use crate::workspace::{ActBuf, Workspace};
use pgmr_tensor::Tensor;

/// Records an input shape into a reusable `Option<Vec<usize>>` slot without
/// reallocating once the slot has been populated.
fn record_shape(slot: &mut Option<Vec<usize>>, dims: [usize; 4]) {
    match slot {
        Some(s) => {
            s.clear();
            s.extend_from_slice(&dims);
        }
        // pgmr-lint: allow(hot-path-alloc): one-time slot initialization on the first image; every later pass reuses the Vec via clear+extend
        None => *slot = Some(dims.to_vec()),
    }
}

/// Max pooling with a square window and matching stride (the common
/// `kernel == stride` configuration used by all zoo networks).
#[derive(Clone)]
pub struct MaxPool2d {
    window: usize,
    /// Flat argmax index (into the input) per output element, from the last
    /// forward pass.
    argmax_cache: Vec<usize>,
    input_shape: Option<Vec<usize>>,
    output_elems_per_image: u64,
}

impl MaxPool2d {
    /// Creates a max-pool layer with `window × window` cells and stride
    /// equal to the window.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "pool window must be positive");
        MaxPool2d { window, argmax_cache: Vec::new(), input_shape: None, output_elems_per_image: 0 }
    }
}

impl Layer for MaxPool2d {
    fn forward_into(
        &mut self,
        input: ActBuf,
        ws: &mut Workspace,
        train: bool,
        _checked: bool,
    ) -> (ActBuf, Option<OutputChecksum>) {
        let (n, c, h, w) = input.as_nchw();
        let k = self.window;
        assert!(h >= k && w >= k, "pool window {k} larger than spatial dims {h}x{w}");
        let oh = h / k;
        let ow = w / k;
        let mut out = ws.acquire(&[n, c, oh, ow]);
        // Only training builds the argmax routing table `backward` needs;
        // inference clears it (capacity is retained).
        self.argmax_cache.clear();
        let data = input.data();
        let od = out.data_mut();
        let mut oi = 0;
        for img in 0..n {
            for ch in 0..c {
                let base = (img * c + ch) * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0;
                        for dy in 0..k {
                            for dx in 0..k {
                                let idx = base + (oy * k + dy) * w + (ox * k + dx);
                                if data[idx] > best {
                                    best = data[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        od[oi] = best;
                        if train {
                            self.argmax_cache.push(best_idx);
                        }
                        oi += 1;
                    }
                }
            }
        }
        record_shape(&mut self.input_shape, [n, c, h, w]);
        self.output_elems_per_image = (c * oh * ow) as u64;
        ws.release(input);
        (out, None)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let shape = self.input_shape.clone().expect("pool backward called before forward");
        assert_eq!(grad_output.len(), self.argmax_cache.len());
        let mut grad_in = Tensor::zeros(shape);
        let gi = grad_in.data_mut();
        for (&src_idx, &g) in self.argmax_cache.iter().zip(grad_output.data()) {
            gi[src_idx] += g;
        }
        grad_in
    }

    fn visit_slots(&mut self, _f: &mut dyn FnMut(&mut ParamSlot)) {}

    fn name(&self) -> &'static str {
        "maxpool2d"
    }

    fn cost(&self) -> LayerCost {
        LayerCost {
            kind: "maxpool2d",
            macs: 0,
            param_elems: 0,
            output_elems: self.output_elems_per_image,
        }
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Global average pooling: reduces `[n, c, h, w]` to `[n, c]` by averaging
/// each channel's spatial plane. Used before the classifier head in the
/// ResNet- and DenseNet-style zoo networks.
#[derive(Clone, Default)]
pub struct AvgPoolGlobal {
    input_shape: Option<Vec<usize>>,
}

impl AvgPoolGlobal {
    /// Creates a global average pooling layer.
    pub fn new() -> Self {
        AvgPoolGlobal { input_shape: None }
    }
}

impl Layer for AvgPoolGlobal {
    fn forward_into(
        &mut self,
        input: ActBuf,
        ws: &mut Workspace,
        _train: bool,
        _checked: bool,
    ) -> (ActBuf, Option<OutputChecksum>) {
        let (n, c, h, w) = input.as_nchw();
        let plane = h * w;
        let mut out = ws.acquire(&[n, c]);
        let data = input.data();
        let od = out.data_mut();
        for img in 0..n {
            for ch in 0..c {
                let base = (img * c + ch) * plane;
                od[img * c + ch] = data[base..base + plane].iter().sum::<f32>() / plane as f32;
            }
        }
        record_shape(&mut self.input_shape, [n, c, h, w]);
        ws.release(input);
        (out, None)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let shape = self.input_shape.clone().expect("avgpool backward called before forward");
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let plane = h * w;
        let mut grad_in = Tensor::zeros(shape);
        let gi = grad_in.data_mut();
        let go = grad_output.data();
        for img in 0..n {
            for ch in 0..c {
                let g = go[img * c + ch] / plane as f32;
                let base = (img * c + ch) * plane;
                for v in &mut gi[base..base + plane] {
                    *v = g;
                }
            }
        }
        grad_in
    }

    fn visit_slots(&mut self, _f: &mut dyn FnMut(&mut ParamSlot)) {}

    fn name(&self) -> &'static str {
        "avgpool_global"
    }

    fn cost(&self) -> LayerCost {
        let out = self.input_shape.as_ref().map(|s| s[1] as u64).unwrap_or(0);
        LayerCost { kind: "avgpool_global", macs: 0, param_elems: 0, output_elems: out }
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
    fn maxpool_picks_maximum() {
        let x = Tensor::from_vec(
            vec![1, 1, 4, 4],
            vec![
                1., 2., 5., 6., //
                3., 4., 7., 8., //
                9., 10., 13., 14., //
                11., 12., 15., 16.,
            ],
        );
        let mut pool = MaxPool2d::new(2);
        let y = forward(&mut pool, &x, true);
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[4., 8., 12., 16.]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1., 9., 3., 4.]);
        let mut pool = MaxPool2d::new(2);
        let _ = forward(&mut pool, &x, true);
        let dx = pool.backward(&Tensor::from_vec(vec![1, 1, 1, 1], vec![5.0]));
        assert_eq!(dx.data(), &[0., 5., 0., 0.]);
    }

    #[test]
    fn maxpool_truncates_ragged_edges() {
        let x = Tensor::ones(vec![1, 1, 5, 5]);
        let mut pool = MaxPool2d::new(2);
        let y = forward(&mut pool, &x, true);
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
    }

    #[test]
    fn maxpool_inference_builds_no_routing() {
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1., 9., 3., 4.]);
        let mut pool = MaxPool2d::new(2);
        let _ = forward(&mut pool, &x, true);
        assert_eq!(pool.argmax_cache, vec![1]);
        let y = forward(&mut pool, &x, false);
        assert_eq!(y.data(), &[9.]);
        assert!(pool.argmax_cache.is_empty(), "inference must not build argmax routing");
    }

    #[test]
    fn avgpool_averages_plane() {
        let x = Tensor::from_vec(vec![1, 2, 2, 2], vec![1., 2., 3., 4., 10., 10., 10., 10.]);
        let mut pool = AvgPoolGlobal::new();
        let y = forward(&mut pool, &x, true);
        assert_eq!(y.data(), &[2.5, 10.0]);
    }

    #[test]
    fn avgpool_backward_spreads_gradient() {
        let x = Tensor::ones(vec![1, 1, 2, 2]);
        let mut pool = AvgPoolGlobal::new();
        let _ = forward(&mut pool, &x, true);
        let dx = pool.backward(&Tensor::from_vec(vec![1, 1], vec![8.0]));
        assert_eq!(dx.data(), &[2., 2., 2., 2.]);
    }
}
