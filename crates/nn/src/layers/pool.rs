//! Pooling layers.
//!
//! Max pooling runs one of two loops. Training walks each window with the
//! index of its best value, which `backward` routes the gradient to.
//! Inference needs only the value, so it keeps `best` with a select,
//! `if v > best { v } else { best }`, over the same values in the same
//! order: no data-dependent branch to mispredict on real activations, and
//! the result the training loop gives — the first of equal values wins
//! (−0.0 beats a later +0.0), NaN is never taken, and an all-NaN window
//! gives −∞. The windows the zoo uses (2 and 4) run a copy specialised
//! for their width.

use crate::layer::{Layer, LayerCost, ParamSlot};
use crate::workspace::Workspace;
use pgmr_tensor::{Shape, Tensor};

/// Max pooling with a square window and matching stride (the common
/// `kernel == stride` configuration used by all zoo networks).
#[derive(Clone)]
pub struct MaxPool2d {
    window: usize,
    /// Flat argmax index (into the input) per output element, from the last
    /// forward pass.
    argmax_cache: Vec<usize>,
    input_shape: Option<Shape>,
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
        input: Tensor,
        ws: &mut Workspace,
        train: bool,
        _checked: bool,
    ) -> Tensor {
        let (n, c, h, w) = input.shape().as_nchw();
        let k = self.window;
        assert!(h >= k && w >= k, "pool window {k} larger than spatial dims {h}x{w}");
        let oh = h / k;
        let ow = w / k;
        let mut out = ws.acquire([n, c, oh, ow]);
        // Only training builds the argmax routing table `backward` needs;
        // inference clears it (capacity is retained).
        self.argmax_cache.clear();
        let data = input.data();
        let od = out.data_mut();
        if train {
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
                            self.argmax_cache.push(best_idx);
                            oi += 1;
                        }
                    }
                }
            }
        } else {
            match k {
                2 => max_windows(data, n * c, 2, h, w, od),
                4 => max_windows(data, n * c, 4, h, w, od),
                _ => max_windows(data, n * c, k, h, w, od),
            }
        }
        self.input_shape = Some(*input.shape());
        self.output_elems_per_image = (c * oh * ow) as u64;
        ws.release(input);
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let shape = self.input_shape.expect("pool backward called before forward");
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

/// Inference max-pool of `planes` planes of `h × w` values in `data` into
/// `out`, one `k × k` window per output: the training loop without its
/// argmax. `best` starts at −∞ and takes each value of the window that
/// exceeds it, rows top to bottom and each row left to right — the
/// training loop's order and comparison, so the outputs match it bit for
/// bit. Inlined, so a constant `k` gets a loop specialised for its width.
#[inline(always)]
fn max_windows(data: &[f32], planes: usize, k: usize, h: usize, w: usize, out: &mut [f32]) {
    let (oh, ow) = (h / k, w / k);
    let mut oi = 0;
    for plane in 0..planes {
        let base = plane * h * w;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                for dy in 0..k {
                    for dx in 0..k {
                        let v = data[base + (oy * k + dy) * w + (ox * k + dx)];
                        best = if v > best { v } else { best };
                    }
                }
                out[oi] = best;
                oi += 1;
            }
        }
    }
}

/// Global average pooling: reduces `[n, c, h, w]` to `[n, c]` by averaging
/// each channel's spatial plane. Used before the classifier head in the
/// ResNet- and DenseNet-style zoo networks.
#[derive(Clone, Default)]
pub struct AvgPoolGlobal {
    input_shape: Option<Shape>,
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
        input: Tensor,
        ws: &mut Workspace,
        _train: bool,
        _checked: bool,
    ) -> Tensor {
        let (n, c, h, w) = input.shape().as_nchw();
        let plane = h * w;
        let mut out = ws.acquire([n, c]);
        let data = input.data();
        let od = out.data_mut();
        for img in 0..n {
            for ch in 0..c {
                let base = (img * c + ch) * plane;
                od[img * c + ch] = data[base..base + plane].iter().sum::<f32>() / plane as f32;
            }
        }
        self.input_shape = Some(*input.shape());
        ws.release(input);
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let shape = self.input_shape.expect("avgpool backward called before forward");
        let (n, c, h, w) = shape.as_nchw();
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
        let out = self.input_shape.map_or(0, |s| s.dim(1) as u64);
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
    fn inference_max_matches_the_training_loop() {
        // The training loop is the oracle. Values come from a small set,
        // so windows tie (±0 among them) and hold NaN and ±∞; the first
        // window of each batch is all NaN (−∞ out). Planes that the
        // window does not divide leave ragged edges.
        let set = [-1.0, -0.0, 0.0, 0.5, f32::NAN, f32::NEG_INFINITY, f32::INFINITY];
        let mut rng = StdRng::seed_from_u64(24);
        for k in [2, 3, 4] {
            for (h, w) in [(k, k), (2 * k + 1, 3 * k + 2), (4 * k, 3 * k - 1)] {
                let (n, c) = (2, 3);
                let mut data: Vec<f32> =
                    (0..n * c * h * w).map(|_| set[rng.gen_range(0..set.len())]).collect();
                for dy in 0..k {
                    data[dy * w..dy * w + k].fill(f32::NAN);
                }
                let x = Tensor::from_vec(vec![n, c, h, w], data);
                let mut pool = MaxPool2d::new(k);
                let want = forward(&mut pool, &x, true);
                let got = forward(&mut pool, &x, false);
                assert_eq!(got.data()[0], f32::NEG_INFINITY, "an all-NaN window gives -inf");
                let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "window {k} on {h}x{w}");
            }
        }
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
