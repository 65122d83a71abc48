//! Deterministic sample generation.

use crate::config::DatasetConfig;
use crate::primitives::{box_blur, occlude, Jitter, Prototype};
use crate::taxonomy::{CorruptionTag, SampleMeta};
use pgmr_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Dataset split. Each split draws from a disjoint seed stream, so train,
/// validation and test samples are independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Split {
    /// Training split (CNN weight fitting).
    Train,
    /// Validation split (threshold profiling, preprocessor selection).
    Val,
    /// Test split (all reported metrics).
    Test,
}

impl Split {
    fn stream_id(self) -> u64 {
        match self {
            Split::Train => 1,
            Split::Val => 2,
            Split::Test => 3,
        }
    }
}

/// An in-memory labeled dataset with ground-truth corruption metadata.
#[derive(Debug, Clone)]
pub struct Dataset {
    images: Vec<Tensor>,
    labels: Vec<usize>,
    metas: Vec<SampleMeta>,
    classes: usize,
}

impl Dataset {
    /// Assembles a dataset from parallel vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vectors' lengths differ or any label is out of range.
    pub fn new(
        images: Vec<Tensor>,
        labels: Vec<usize>,
        metas: Vec<SampleMeta>,
        classes: usize,
    ) -> Self {
        assert_eq!(images.len(), labels.len(), "image/label count mismatch");
        assert_eq!(images.len(), metas.len(), "image/meta count mismatch");
        assert!(labels.iter().all(|&l| l < classes), "label out of range");
        Dataset { images, labels, metas, classes }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// The images, each `[1, c, h, w]`.
    pub fn images(&self) -> &[Tensor] {
        &self.images
    }

    /// Ground-truth labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Per-sample corruption metadata.
    pub fn metas(&self) -> &[SampleMeta] {
        &self.metas
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Returns a new dataset with every image replaced by `f(image)` —
    /// the hook used to build preprocessed dataset variants for Layer-1
    /// training.
    pub fn map_images(&self, f: impl Fn(&Tensor) -> Tensor) -> Dataset {
        Dataset {
            images: self.images.iter().map(&f).collect(),
            labels: self.labels.clone(),
            metas: self.metas.clone(),
            classes: self.classes,
        }
    }

    /// Borrowing view of the first `n` samples (or all, if fewer).
    pub fn truncated(&self, n: usize) -> Dataset {
        let n = n.min(self.len());
        Dataset {
            images: self.images[..n].to_vec(),
            labels: self.labels[..n].to_vec(),
            metas: self.metas[..n].to_vec(),
            classes: self.classes,
        }
    }
}

/// Splitmix-style seed mixing so per-sample streams are independent.
fn mix_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DatasetConfig {
    /// Builds the per-class prototypes. Classes inside a similar pair share
    /// a perturbed prototype; all other classes are independent.
    pub fn prototypes(&self) -> Vec<Prototype> {
        self.validate();
        let mut protos: Vec<Prototype> = Vec::with_capacity(self.classes);
        for class in 0..self.classes {
            let proto = if self.in_similar_pair(class) && class % 2 == 1 {
                // Odd member of a pair: perturb the even member's prototype.
                let mut rng = StdRng::seed_from_u64(mix_seed(self.seed, 100, class as u64));
                protos[class - 1].perturbed(self.similar_epsilon, &mut rng)
            } else {
                let mut rng = StdRng::seed_from_u64(mix_seed(self.seed, 200, class as u64));
                Prototype::generate(self.proto_blobs, self.proto_strokes, &mut rng)
            };
            protos.push(proto);
        }
        protos
    }

    /// Generates `count` samples of the given split.
    ///
    /// Sample `i` depends only on `(self.seed, split, i)`, so datasets of
    /// different sizes share a prefix and regeneration is cheap and exact.
    pub fn generate(&self, split: Split, count: usize) -> Dataset {
        let protos = self.prototypes();
        let mut images = Vec::with_capacity(count);
        let mut labels = Vec::with_capacity(count);
        let mut metas = Vec::with_capacity(count);
        for i in 0..count {
            let mut rng = StdRng::seed_from_u64(mix_seed(self.seed, split.stream_id(), i as u64));
            let (img, label, meta) = self.generate_one(&protos, &mut rng);
            images.push(img);
            labels.push(label);
            metas.push(meta);
        }
        Dataset::new(images, labels, metas, self.classes)
    }

    fn generate_one<R: Rng>(
        &self,
        protos: &[Prototype],
        rng: &mut R,
    ) -> (Tensor, usize, SampleMeta) {
        let label = rng.gen_range(0..self.classes);
        let mut img = Tensor::zeros([1, self.channels, self.height, self.width]);
        let mut meta = SampleMeta::clean();

        // Scene-like background: a soft vertical/horizontal gradient.
        if self.background {
            let (gx, gy): (f32, f32) = (rng.gen_range(-0.3..0.3), rng.gen_range(-0.3..0.3));
            let base: f32 = rng.gen_range(0.1..0.4);
            let plane = self.height * self.width;
            let data = img.data_mut();
            for ch in 0..self.channels {
                for py in 0..self.height {
                    for px in 0..self.width {
                        let x = px as f32 / self.width as f32;
                        let y = py as f32 / self.height as f32;
                        data[ch * plane + py * self.width + px] = base + gx * x + gy * y;
                    }
                }
            }
        }

        // Primary object.
        let jitter = Jitter::random(self.jitter, rng);
        protos[label].render_into(&mut img, &jitter, 1.0, self.texture_strength);

        // Secondary object ("multiple objects in the image").
        if rng.gen::<f32>() < self.multi_object_prob {
            let mut other = rng.gen_range(0..self.classes);
            if other == label {
                other = (other + 1) % self.classes;
            }
            let jitter2 = Jitter::random((self.jitter + 0.3).min(1.0), rng);
            protos[other].render_into(&mut img, &jitter2, 0.8, self.texture_strength);
            meta.tags.push(CorruptionTag::MultiObject);
            meta.secondary_class = Some(other);
        }

        // Poor-detail corruptions.
        if rng.gen::<f32>() < self.occlusion_prob {
            occlude(&mut img, rng);
            meta.tags.push(CorruptionTag::Occlusion);
        }
        if rng.gen::<f32>() < self.blur_prob {
            box_blur(&mut img);
            meta.tags.push(CorruptionTag::Blur);
        }

        // Class-similarity is structural, not sampled.
        if self.in_similar_pair(label) {
            meta.tags.push(CorruptionTag::SimilarClassPair);
        }

        // Additive pixel noise, then clamp into [0, 1].
        if self.noise_std > 0.0 {
            let noise = Tensor::normal(*img.shape(), 0.0, self.noise_std, rng);
            img = img.add(&noise);
        }
        img.map_in_place(|v| v.clamp(0.0, 1.0));
        (img, label, meta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families;

    #[test]
    fn generation_is_deterministic() {
        let cfg = families::synth_digits(7);
        let a = cfg.generate(Split::Test, 20);
        let b = cfg.generate(Split::Test, 20);
        assert_eq!(a.images(), b.images());
        assert_eq!(a.labels(), b.labels());
        assert_eq!(a.metas(), b.metas());
    }

    #[test]
    fn larger_dataset_shares_prefix() {
        let cfg = families::synth_objects(3);
        let small = cfg.generate(Split::Train, 10);
        let big = cfg.generate(Split::Train, 25);
        assert_eq!(small.images(), &big.images()[..10]);
        assert_eq!(small.labels(), &big.labels()[..10]);
    }

    #[test]
    fn splits_are_disjoint_streams() {
        let cfg = families::synth_digits(1);
        let train = cfg.generate(Split::Train, 5);
        let test = cfg.generate(Split::Test, 5);
        assert_ne!(train.images()[0], test.images()[0]);
    }

    #[test]
    fn pixels_stay_in_unit_range() {
        let cfg = families::synth_scenes(2);
        let ds = cfg.generate(Split::Val, 30);
        for img in ds.images() {
            assert!(img.min() >= 0.0 && img.max() <= 1.0);
            assert!(!img.has_non_finite());
        }
    }

    #[test]
    fn corruption_tags_appear_at_expected_rates() {
        let mut cfg = families::synth_objects(5);
        cfg.blur_prob = 0.5;
        cfg.occlusion_prob = 0.0;
        cfg.multi_object_prob = 0.0;
        let ds = cfg.generate(Split::Train, 400);
        let blurred = ds.metas().iter().filter(|m| m.has(CorruptionTag::Blur)).count();
        let frac = blurred as f64 / 400.0;
        assert!((frac - 0.5).abs() < 0.1, "blur fraction {frac}");
        assert!(ds.metas().iter().all(|m| !m.has(CorruptionTag::Occlusion)));
    }

    #[test]
    fn similar_pair_tag_tracks_class() {
        let cfg = families::synth_objects(9); // has similar pairs
        let ds = cfg.generate(Split::Test, 200);
        for (label, meta) in ds.labels().iter().zip(ds.metas()) {
            assert_eq!(cfg.in_similar_pair(*label), meta.has(CorruptionTag::SimilarClassPair));
        }
    }

    #[test]
    fn multi_object_records_secondary_class() {
        let mut cfg = families::synth_scenes(11);
        cfg.multi_object_prob = 1.0;
        let ds = cfg.generate(Split::Test, 20);
        for (label, meta) in ds.labels().iter().zip(ds.metas()) {
            assert!(meta.has(CorruptionTag::MultiObject));
            let sec = meta.secondary_class.expect("secondary class recorded");
            assert_ne!(sec, *label);
        }
    }

    #[test]
    fn map_images_preserves_labels_and_metas() {
        let cfg = families::synth_digits(0);
        let ds = cfg.generate(Split::Train, 10);
        let mapped = ds.map_images(|img| img.scale(0.5));
        assert_eq!(mapped.labels(), ds.labels());
        assert_eq!(mapped.metas(), ds.metas());
        assert!((mapped.images()[0].sum() - ds.images()[0].sum() * 0.5).abs() < 1e-3);
    }

    #[test]
    fn truncated_takes_prefix() {
        let cfg = families::synth_digits(0);
        let ds = cfg.generate(Split::Train, 10);
        let t = ds.truncated(4);
        assert_eq!(t.len(), 4);
        assert_eq!(t.images(), &ds.images()[..4]);
        assert_eq!(ds.truncated(100).len(), 10);
    }

    #[test]
    fn labels_roughly_balanced() {
        let cfg = families::synth_digits(13);
        let ds = cfg.generate(Split::Train, 1000);
        let mut counts = vec![0usize; cfg.classes];
        for &l in ds.labels() {
            counts[l] += 1;
        }
        for &c in &counts {
            assert!(c > 50, "class count {c} too unbalanced");
        }
    }
}
