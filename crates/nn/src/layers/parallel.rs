//! Parallel multi-branch layers (GoogLeNet/Inception-style blocks).

use super::composite::slice_channels;
use crate::layer::{Layer, LayerCost, ParamSlot};
use crate::workspace::Workspace;
use pgmr_tensor::Tensor;

/// Runs several branches on the same input and concatenates their NCHW
/// outputs along the channel axis — the structural core of the
/// GoogLeNet/Inception family (and, combined with a merge convolution, of
/// grouped-convolution ResNeXt blocks).
///
/// All branches must preserve the spatial size and batch dimension.
pub struct Parallel {
    branches: Vec<Vec<Box<dyn Layer>>>,
    /// Output channel count per branch, recorded during forward for the
    /// backward split.
    branch_channels: Vec<usize>,
    /// Scratch list holding branch outputs inside `forward_into`. Always
    /// drained back to the workspace before returning; kept as a field so
    /// the list's own storage is reused across calls.
    branch_outs: Vec<Tensor>,
}

impl Parallel {
    /// Creates a parallel block from its branches.
    ///
    /// # Panics
    ///
    /// Panics if `branches` is empty or any branch is empty.
    pub fn new(branches: Vec<Vec<Box<dyn Layer>>>) -> Self {
        assert!(!branches.is_empty(), "parallel block needs at least one branch");
        assert!(branches.iter().all(|b| !b.is_empty()), "every branch needs at least one layer");
        Parallel { branches, branch_channels: Vec::new(), branch_outs: Vec::new() }
    }

    /// Number of branches.
    pub fn branch_count(&self) -> usize {
        self.branches.len()
    }
}

impl Clone for Parallel {
    fn clone(&self) -> Self {
        Parallel {
            branches: self.branches.clone(),
            branch_channels: self.branch_channels.clone(),
            branch_outs: Vec::new(),
        }
    }
}

impl Layer for Parallel {
    fn forward_into(
        &mut self,
        input: Tensor,
        ws: &mut Workspace,
        train: bool,
        _checked: bool,
    ) -> Tensor {
        self.branch_channels.clear();
        let mut outs = std::mem::take(&mut self.branch_outs);
        for branch in &mut self.branches {
            let mut y = ws.acquire_copy(&input);
            for layer in branch.iter_mut() {
                y = layer.forward_into(y, ws, train, false);
            }
            let (_, c, _, _) = y.shape().as_nchw();
            self.branch_channels.push(c);
            outs.push(y);
        }
        ws.release(input);
        let (n, _, h, w) = outs[0].shape().as_nchw();
        let total_c: usize = outs
            .iter()
            .map(|t| {
                let (pn, pc, ph, pw) = t.shape().as_nchw();
                assert_eq!((pn, ph, pw), (n, h, w), "branch output shape mismatch");
                pc
            })
            .sum();
        let plane = h * w;
        let mut cat = ws.acquire([n, total_c, h, w]);
        for img in 0..n {
            let mut ch_off = 0;
            for t in &outs {
                let (_, pc, _, _) = t.shape().as_nchw();
                let src = &t.data()[img * pc * plane..(img + 1) * pc * plane];
                let dst = (img * total_c + ch_off) * plane;
                cat.data_mut()[dst..dst + pc * plane].copy_from_slice(src);
                ch_off += pc;
            }
        }
        for t in outs.drain(..) {
            ws.release(t);
        }
        self.branch_outs = outs;
        cat
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        assert_eq!(
            self.branch_channels.len(),
            self.branches.len(),
            "parallel backward called before forward"
        );
        let mut grad_in: Option<Tensor> = None;
        let mut offset = 0;
        for (branch, &bc) in self.branches.iter_mut().zip(&self.branch_channels) {
            let g_branch = slice_channels(grad_output, offset, offset + bc);
            offset += bc;
            let mut g = g_branch;
            for layer in branch.iter_mut().rev() {
                g = layer.backward(&g);
            }
            grad_in = Some(match grad_in {
                Some(acc) => acc.add(&g),
                None => g,
            });
        }
        grad_in.expect("at least one branch")
    }

    fn visit_slots(&mut self, f: &mut dyn FnMut(&mut ParamSlot)) {
        for branch in &mut self.branches {
            for layer in branch.iter_mut() {
                layer.visit_slots(f);
            }
        }
    }

    fn read_slots(&self, f: &mut dyn FnMut(&ParamSlot)) {
        for branch in &self.branches {
            for layer in branch {
                layer.read_slots(f);
            }
        }
    }

    fn name(&self) -> &'static str {
        "parallel"
    }

    fn cost(&self) -> LayerCost {
        let mut total = LayerCost { kind: "parallel", ..LayerCost::default() };
        for branch in &self.branches {
            for layer in branch {
                let c = layer.cost();
                total.macs += c.macs;
                total.param_elems += c.param_elems;
                total.output_elems += c.output_elems;
            }
        }
        total
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn set_mc_dropout(&mut self, on: bool) {
        for branch in &mut self.branches {
            for layer in branch.iter_mut() {
                layer.set_mc_dropout(on);
            }
        }
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Vec<f32>)) {
        for branch in &mut self.branches {
            for layer in branch.iter_mut() {
                layer.visit_buffers(f);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::forward;
    use crate::layers::{Conv2d, Relu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn block(rng: &mut StdRng) -> Parallel {
        // Two branches: 1x1 conv (3 ch) and 3x3 conv (2 ch) — inception-ish.
        let b1: Vec<Box<dyn Layer>> =
            vec![Box::new(Conv2d::new(2, 3, 5, 5, 1, 1, 0, rng)), Box::new(Relu::new())];
        let b2: Vec<Box<dyn Layer>> =
            vec![Box::new(Conv2d::new(2, 2, 5, 5, 3, 1, 1, rng)), Box::new(Relu::new())];
        Parallel::new(vec![b1, b2])
    }

    #[test]
    fn forward_concatenates_branch_channels() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut p = block(&mut rng);
        let x = Tensor::uniform(vec![2, 2, 5, 5], -1.0, 1.0, &mut rng);
        let y = forward(&mut p, &x, true);
        assert_eq!(y.shape().dims(), &[2, 5, 5, 5]);
        assert_eq!(p.branch_count(), 2);
        assert!(p.branch_outs.is_empty(), "branch buffers must drain back to the arena");
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = block(&mut rng);
        let x = Tensor::uniform(vec![1, 2, 5, 5], -1.0, 1.0, &mut rng);
        let y = forward(&mut p, &x, true);
        let weights: Vec<f32> = (0..y.len()).map(|i| (i as f32 * 0.29).sin()).collect();
        let w_t = Tensor::from_vec(*y.shape(), weights.clone());
        let dx = p.backward(&w_t);
        let eps = 1e-3;
        let f = |t: &Tensor| -> f32 {
            let mut probe = p.clone();
            forward(&mut probe, t, true).data().iter().zip(&weights).map(|(a, b)| a * b).sum()
        };
        for &flat in &[0usize, 11, 29, 49] {
            let mut xp = x.clone();
            xp.data_mut()[flat] += eps;
            let mut xm = x.clone();
            xm.data_mut()[flat] -= eps;
            let numeric = (f(&xp) - f(&xm)) / (2.0 * eps);
            assert!(
                (numeric - dx.data()[flat]).abs() < 2e-2,
                "dx[{flat}] numeric {numeric} vs {}",
                dx.data()[flat]
            );
        }
    }

    #[test]
    fn cost_sums_branches() {
        let mut rng = StdRng::seed_from_u64(2);
        let p = block(&mut rng);
        let c = p.cost();
        // 1x1: 3*2*25; 3x3: 2*18*25.
        assert_eq!(c.macs, (3 * 2 * 25 + 2 * 18 * 25) as u64);
    }

    #[test]
    #[should_panic(expected = "at least one branch")]
    fn rejects_empty() {
        Parallel::new(Vec::new());
    }
}
