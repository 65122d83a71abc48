//! Composite layers: residual blocks (ResNet-style) and dense blocks
//! (DenseNet-style). These give the zoo the two "deep" topologies of the
//! paper's Table II (ResNet20/ResNet34 and DenseNet40 analogs).

use crate::layer::{Layer, LayerCost, OutputChecksum, ParamSlot};
use crate::workspace::{ActBuf, Workspace};
use pgmr_tensor::{relu_backward, Tensor};

/// Extracts channels `[from, to)` of an NCHW tensor.
///
/// # Panics
///
/// Panics if the channel range is out of bounds or empty.
pub(crate) fn slice_channels(t: &Tensor, from: usize, to: usize) -> Tensor {
    let (n, c, h, w) = t.shape().as_nchw();
    assert!(from < to && to <= c, "bad channel slice {from}..{to} of {c}");
    let plane = h * w;
    let out_c = to - from;
    let mut out = vec![0.0f32; n * out_c * plane];
    for img in 0..n {
        let src_base = (img * c + from) * plane;
        let dst_base = img * out_c * plane;
        out[dst_base..dst_base + out_c * plane]
            .copy_from_slice(&t.data()[src_base..src_base + out_c * plane]);
    }
    Tensor::from_vec(vec![n, out_c, h, w], out)
}

/// Adds `src` into channels `[from, from + src_c)` of `dst` in place.
fn add_into_channels(dst: &mut Tensor, src: &Tensor, from: usize) {
    let (n, c, h, w) = dst.shape().as_nchw();
    let (sn, sc, sh, sw) = src.shape().as_nchw();
    assert_eq!((sn, sh, sw), (n, h, w), "channel add shape mismatch");
    assert!(from + sc <= c, "channel add out of range");
    let plane = h * w;
    for img in 0..n {
        let d_base = (img * c + from) * plane;
        let s_base = img * sc * plane;
        for i in 0..sc * plane {
            dst.data_mut()[d_base + i] += src.data()[s_base + i];
        }
    }
}

/// A pre-activation-sum residual block: `out = relu(body(x) + skip(x))`
/// where `skip` is the identity or an optional projection (1×1 convolution)
/// when the body changes the channel count or spatial size.
pub struct Residual {
    body: Vec<Box<dyn Layer>>,
    projection: Option<Box<dyn Layer>>,
    sum_cache: Option<Tensor>,
}

impl Residual {
    /// Creates a residual block from its body layers and optional skip
    /// projection.
    pub fn new(body: Vec<Box<dyn Layer>>, projection: Option<Box<dyn Layer>>) -> Self {
        assert!(!body.is_empty(), "residual body cannot be empty");
        Residual { body, projection, sum_cache: None }
    }

    /// Keeps the pre-ReLU sum for `backward`.
    // pgmr-lint: boundary(hot-path-alloc): training-only backward cache; inference forwards never record it
    fn cache_sum(&mut self, sum: &ActBuf) {
        self.sum_cache = Some(sum.to_tensor());
    }
}

impl Clone for Residual {
    fn clone(&self) -> Self {
        Residual {
            body: self.body.clone(),
            projection: self.projection.clone(),
            sum_cache: self.sum_cache.clone(),
        }
    }
}

impl Layer for Residual {
    fn forward_into(
        &mut self,
        input: ActBuf,
        ws: &mut Workspace,
        train: bool,
        _checked: bool,
    ) -> (ActBuf, Option<OutputChecksum>) {
        // The body consumes a copy; the original buffer feeds the skip path.
        let mut y = ws.acquire(input.dims());
        y.data_mut().copy_from_slice(input.data());
        for layer in &mut self.body {
            y = layer.forward_into(y, ws, train, false).0;
        }
        let skip = match &mut self.projection {
            Some(p) => p.forward_into(input, ws, train, false).0,
            None => input,
        };
        for (a, &b) in y.data_mut().iter_mut().zip(skip.data()) {
            *a += b;
        }
        ws.release(skip);
        if train {
            self.cache_sum(&y);
        } else {
            self.sum_cache = None;
        }
        for v in y.data_mut() {
            *v = v.max(0.0);
        }
        (y, None)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let sum = self.sum_cache.as_ref().expect("residual backward called before forward");
        let g_sum = relu_backward(sum, grad_output);
        // Body path.
        let mut g = g_sum.clone();
        for layer in self.body.iter_mut().rev() {
            g = layer.backward(&g);
        }
        // Skip path.
        let g_skip = match &mut self.projection {
            Some(p) => p.backward(&g_sum),
            None => g_sum,
        };
        g.add(&g_skip)
    }

    fn visit_slots(&mut self, f: &mut dyn FnMut(&mut ParamSlot)) {
        for layer in &mut self.body {
            layer.visit_slots(f);
        }
        if let Some(p) = &mut self.projection {
            p.visit_slots(f);
        }
    }

    fn name(&self) -> &'static str {
        "residual"
    }

    fn cost(&self) -> LayerCost {
        let mut total = LayerCost { kind: "residual", ..LayerCost::default() };
        for layer in &self.body {
            let c = layer.cost();
            total.macs += c.macs;
            total.param_elems += c.param_elems;
            total.output_elems += c.output_elems;
        }
        if let Some(p) = &self.projection {
            let c = p.cost();
            total.macs += c.macs;
            total.param_elems += c.param_elems;
            total.output_elems += c.output_elems;
        }
        total
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn set_mc_dropout(&mut self, on: bool) {
        for layer in &mut self.body {
            layer.set_mc_dropout(on);
        }
        if let Some(p) = &mut self.projection {
            p.set_mc_dropout(on);
        }
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Vec<f32>)) {
        for layer in &mut self.body {
            layer.visit_buffers(f);
        }
        if let Some(p) = &mut self.projection {
            p.visit_buffers(f);
        }
    }
}

/// A DenseNet-style dense block: every unit convolves the concatenation of
/// all previous feature maps and contributes `growth` new channels.
///
/// `unit[i]` must map `in_c + i*growth` channels to `growth` channels at the
/// same spatial size; a ReLU follows every unit.
pub struct DenseBlock {
    units: Vec<Box<dyn Layer>>,
    in_c: usize,
    growth: usize,
    /// Per-unit cached pre-ReLU outputs (for ReLU backward).
    pre_relu_cache: Vec<Tensor>,
}

impl DenseBlock {
    /// Creates a dense block.
    ///
    /// # Panics
    ///
    /// Panics if `units` is empty or `growth == 0`.
    pub fn new(units: Vec<Box<dyn Layer>>, in_c: usize, growth: usize) -> Self {
        assert!(!units.is_empty(), "dense block needs at least one unit");
        assert!(growth > 0, "growth must be positive");
        DenseBlock { units, in_c, growth, pre_relu_cache: Vec::new() }
    }

    /// Output channel count: `in_c + units * growth`.
    pub fn out_channels(&self) -> usize {
        self.in_c + self.units.len() * self.growth
    }

    /// Keeps one unit's pre-ReLU output for `backward`.
    // pgmr-lint: boundary(hot-path-alloc): training-only backward cache; inference forwards never record it
    fn cache_pre_relu(cache: &mut Vec<Tensor>, pre: &ActBuf) {
        cache.push(pre.to_tensor());
    }
}

impl Clone for DenseBlock {
    fn clone(&self) -> Self {
        DenseBlock {
            units: self.units.clone(),
            in_c: self.in_c,
            growth: self.growth,
            pre_relu_cache: self.pre_relu_cache.clone(),
        }
    }
}

impl Layer for DenseBlock {
    fn forward_into(
        &mut self,
        input: ActBuf,
        ws: &mut Workspace,
        train: bool,
        _checked: bool,
    ) -> (ActBuf, Option<OutputChecksum>) {
        let (_, c, _, _) = input.as_nchw();
        assert_eq!(c, self.in_c, "dense block input channel mismatch");
        self.pre_relu_cache.clear();
        let mut features = input;
        for unit in &mut self.units {
            // The unit consumes a copy of the running concatenation.
            let mut unit_in = ws.acquire(features.dims());
            unit_in.data_mut().copy_from_slice(features.data());
            let mut y = unit.forward_into(unit_in, ws, train, false).0;
            if train {
                Self::cache_pre_relu(&mut self.pre_relu_cache, &y);
            }
            for v in y.data_mut() {
                *v = v.max(0.0);
            }
            let (n, c, h, w) = features.as_nchw();
            let (yn, yc, yh, yw) = y.as_nchw();
            assert_eq!((yn, yh, yw), (n, h, w), "concat shape mismatch");
            let plane = h * w;
            let mut cat = ws.acquire(&[n, c + yc, h, w]);
            for img in 0..n {
                let dst = img * (c + yc) * plane;
                cat.data_mut()[dst..dst + c * plane]
                    .copy_from_slice(&features.data()[img * c * plane..(img + 1) * c * plane]);
                cat.data_mut()[dst + c * plane..dst + (c + yc) * plane]
                    .copy_from_slice(&y.data()[img * yc * plane..(img + 1) * yc * plane]);
            }
            ws.release(features);
            ws.release(y);
            features = cat;
        }
        (features, None)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        assert_eq!(
            self.pre_relu_cache.len(),
            self.units.len(),
            "dense block backward called before forward"
        );
        let mut grad_feat = grad_output.clone();
        for (i, unit) in self.units.iter_mut().enumerate().rev() {
            let prefix_c = self.in_c + i * self.growth;
            let g_y = slice_channels(&grad_feat, prefix_c, prefix_c + self.growth);
            let g_pre = relu_backward(&self.pre_relu_cache[i], &g_y);
            let g_in = unit.backward(&g_pre);
            // Shrink grad_feat to the prefix and accumulate the unit's input
            // gradient (the unit consumed exactly that prefix).
            let mut prefix = slice_channels(&grad_feat, 0, prefix_c);
            add_into_channels(&mut prefix, &g_in, 0);
            grad_feat = prefix;
        }
        grad_feat
    }

    fn visit_slots(&mut self, f: &mut dyn FnMut(&mut ParamSlot)) {
        for unit in &mut self.units {
            unit.visit_slots(f);
        }
    }

    fn name(&self) -> &'static str {
        "dense_block"
    }

    fn cost(&self) -> LayerCost {
        let mut total = LayerCost { kind: "dense_block", ..LayerCost::default() };
        for unit in &self.units {
            let c = unit.cost();
            total.macs += c.macs;
            total.param_elems += c.param_elems;
            total.output_elems += c.output_elems;
        }
        total
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn set_mc_dropout(&mut self, on: bool) {
        for unit in &mut self.units {
            unit.set_mc_dropout(on);
        }
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Vec<f32>)) {
        for unit in &mut self.units {
            unit.visit_buffers(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::forward;
    use crate::layers::Conv2d;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn slice_channels_extracts_a_channel_range() {
        // Channel `ch` of image `i` holds the constant `10 i + ch`.
        let data: Vec<f32> =
            (0..2).flat_map(|i| (0..5).flat_map(move |ch| [(10 * i + ch) as f32; 4])).collect();
        let t = Tensor::from_vec(vec![2, 5, 2, 2], data);
        let s = slice_channels(&t, 1, 3);
        assert_eq!(s.shape().dims(), &[2, 2, 2, 2]);
        let want: Vec<f32> = [1.0, 2.0, 11.0, 12.0].iter().flat_map(|&v| [v; 4]).collect();
        assert_eq!(s.data(), want.as_slice());
    }

    #[test]
    fn residual_identity_skip_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let body: Vec<Box<dyn Layer>> = vec![Box::new(Conv2d::new(4, 4, 6, 6, 3, 1, 1, &mut rng))];
        let mut res = Residual::new(body, None);
        let x = Tensor::uniform(vec![2, 4, 6, 6], -1.0, 1.0, &mut rng);
        let y = forward(&mut res, &x, true);
        assert_eq!(y.shape().dims(), x.shape().dims());
        // Output is post-ReLU: non-negative.
        assert!(y.min() >= 0.0);
    }

    #[test]
    fn residual_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(2);
        let body: Vec<Box<dyn Layer>> = vec![Box::new(Conv2d::new(2, 2, 4, 4, 3, 1, 1, &mut rng))];
        let mut res = Residual::new(body, None);
        let x = Tensor::uniform(vec![1, 2, 4, 4], -1.0, 1.0, &mut rng);
        let weights: Vec<f32> = (0..32).map(|i| (i as f32 * 0.37).sin()).collect();
        let y = forward(&mut res, &x, true);
        let w_t = Tensor::from_vec(y.shape().dims().to_vec(), weights.clone());
        let dx = res.backward(&w_t);
        let eps = 1e-3;
        for &flat in &[0usize, 9, 21, 31] {
            let mut xp = x.clone();
            xp.data_mut()[flat] += eps;
            let mut xm = x.clone();
            xm.data_mut()[flat] -= eps;
            let f = |t: &Tensor| -> f32 {
                let mut probe = res.clone();
                forward(&mut probe, t, true).data().iter().zip(&weights).map(|(a, b)| a * b).sum()
            };
            let numeric = (f(&xp) - f(&xm)) / (2.0 * eps);
            assert!(
                (numeric - dx.data()[flat]).abs() < 2e-2,
                "dx[{flat}] numeric {numeric} vs {}",
                dx.data()[flat]
            );
        }
    }

    #[test]
    fn dense_block_output_channels() {
        let mut rng = StdRng::seed_from_u64(3);
        let units: Vec<Box<dyn Layer>> = vec![
            Box::new(Conv2d::new(3, 2, 4, 4, 3, 1, 1, &mut rng)),
            Box::new(Conv2d::new(5, 2, 4, 4, 3, 1, 1, &mut rng)),
        ];
        let mut block = DenseBlock::new(units, 3, 2);
        assert_eq!(block.out_channels(), 7);
        let x = Tensor::uniform(vec![2, 3, 4, 4], -1.0, 1.0, &mut rng);
        let y = forward(&mut block, &x, true);
        assert_eq!(y.shape().dims(), &[2, 7, 4, 4]);
        // The first in_c channels of the output are the input itself.
        assert_eq!(slice_channels(&y, 0, 3), x);
    }

    #[test]
    fn dense_block_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(4);
        let units: Vec<Box<dyn Layer>> = vec![
            Box::new(Conv2d::new(2, 2, 3, 3, 3, 1, 1, &mut rng)),
            Box::new(Conv2d::new(4, 2, 3, 3, 3, 1, 1, &mut rng)),
        ];
        let mut block = DenseBlock::new(units, 2, 2);
        let x = Tensor::uniform(vec![1, 2, 3, 3], -1.0, 1.0, &mut rng);
        let y = forward(&mut block, &x, true);
        let weights: Vec<f32> = (0..y.len()).map(|i| (i as f32 * 0.61).cos()).collect();
        let w_t = Tensor::from_vec(y.shape().dims().to_vec(), weights.clone());
        let dx = block.backward(&w_t);
        let eps = 1e-3;
        for &flat in &[0usize, 7, 13, 17] {
            let mut xp = x.clone();
            xp.data_mut()[flat] += eps;
            let mut xm = x.clone();
            xm.data_mut()[flat] -= eps;
            let f = |t: &Tensor| -> f32 {
                let mut probe = block.clone();
                forward(&mut probe, t, true).data().iter().zip(&weights).map(|(a, b)| a * b).sum()
            };
            let numeric = (f(&xp) - f(&xm)) / (2.0 * eps);
            assert!(
                (numeric - dx.data()[flat]).abs() < 2e-2,
                "dx[{flat}] numeric {numeric} vs {}",
                dx.data()[flat]
            );
        }
    }
}
