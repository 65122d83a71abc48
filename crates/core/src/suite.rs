//! The six-benchmark evaluation suite (paper Table II), bound to this
//! repository's synthetic datasets and model zoo, plus a disk cache for
//! trained members so harnesses don't retrain on every run.
//!
//! | Paper row | Suite benchmark | Dataset family | Zoo arch |
//! |---|---|---|---|
//! | MNIST / LeNet-5 (99.01%) | [`Benchmark::lenet5_digits`] | synth-digits | lenet5 |
//! | CIFAR10 / ConvNet (74.70%) | [`Benchmark::convnet_objects`] | synth-objects | convnet |
//! | CIFAR10 / ResNet20 (91.50%) | [`Benchmark::resnet20_objects`] | synth-objects | resnet20_mini |
//! | CIFAR10 / DenseNet40 (93.07%) | [`Benchmark::densenet_objects`] | synth-objects | densenet_mini |
//! | ImageNet / AlexNet (57.40%) | [`Benchmark::alexnet_scenes`] | synth-scenes | alexnet_mini |
//! | ImageNet / ResNet34 (71.46%) | [`Benchmark::resnet34_scenes`] | synth-scenes | resnet34_mini |

use crate::ensemble::Member;
use pgmr_datasets::{families, Dataset, DatasetConfig, Split};
use pgmr_faults::{ProfileConfig, VulnerabilityProfile};
use pgmr_nn::serialize::encode_params;
use pgmr_nn::zoo::ArchSpec;
use pgmr_nn::TrainConfig;
use pgmr_preprocess::Preprocessor;
use std::path::PathBuf;

/// Experiment scale. Controls dataset sizes and training epochs so the
/// same code drives fast tests (`Tiny`), the default harness runs
/// (`Small`), and extended runs (`Full`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// A few hundred samples, 2 epochs — for tests and doc examples.
    Tiny,
    /// The default harness scale: everything trains in minutes on one core.
    Small,
    /// Double the data and epochs of `Small`.
    Full,
}

impl Scale {
    /// Reads the scale from the `PGMR_SCALE` environment variable
    /// (`tiny`/`small`/`full`), defaulting to `Small`.
    pub fn from_env() -> Scale {
        match std::env::var("PGMR_SCALE").unwrap_or_default().to_lowercase().as_str() {
            "tiny" => Scale::Tiny,
            "full" => Scale::Full,
            _ => Scale::Small,
        }
    }

    fn factor(self) -> f64 {
        match self {
            Scale::Tiny => 0.2,
            Scale::Small => 1.0,
            Scale::Full => 2.0,
        }
    }

    fn epochs(self, small_epochs: usize) -> usize {
        match self {
            // Three quarters of the Small schedule (floor 2): enough for
            // the shallow digit/object networks to move well clear of
            // chance — weaker members push threshold profiling into
            // degenerate operating points — while keeping test-suite
            // training cheap.
            Scale::Tiny => (small_epochs * 3 / 4).max(2),
            Scale::Small => small_epochs,
            Scale::Full => small_epochs * 2,
        }
    }

    /// Epoch budget for the deep ImageNet-analog (scenes) benchmarks. At
    /// Tiny scale these 20-class networks stay at chance on the smoke
    /// budget, so Tiny runs the full Small schedule — the 0.2× dataset
    /// keeps that affordable.
    fn scenes_epochs(self, small_epochs: usize) -> usize {
        match self {
            Scale::Tiny => small_epochs,
            _ => self.epochs(small_epochs),
        }
    }

    /// Short stable name used in cache keys.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Full => "full",
        }
    }
}

/// One row of the evaluation suite: a dataset, an architecture, a training
/// recipe, and the paper-side numbers it stands in for.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Short stable benchmark id, e.g. `"lenet5-digits"`.
    pub id: &'static str,
    /// The paper's dataset this stands in for.
    pub paper_dataset: &'static str,
    /// The paper's network this stands in for.
    pub paper_network: &'static str,
    /// The paper's reported baseline accuracy (Table II).
    pub paper_accuracy: f64,
    /// Synthetic dataset configuration.
    pub dataset: DatasetConfig,
    /// Zoo architecture.
    pub arch: ArchSpec,
    /// Training recipe.
    pub train_config: TrainConfig,
    /// Training-set size.
    pub train_count: usize,
    /// Validation-set size (threshold profiling).
    pub val_count: usize,
    /// Test-set size (all reported metrics).
    pub test_count: usize,
    /// The scale this benchmark was instantiated at.
    pub scale: Scale,
}

impl Benchmark {
    fn sized(
        scale: Scale,
        base_train: usize,
        base_val: usize,
        base_test: usize,
    ) -> (usize, usize, usize) {
        let f = scale.factor();
        (
            ((base_train as f64 * f) as usize).max(100),
            ((base_val as f64 * f) as usize).max(60),
            ((base_test as f64 * f) as usize).max(60),
        )
    }

    /// MNIST / LeNet-5 analog.
    pub fn lenet5_digits(scale: Scale) -> Benchmark {
        let (train_count, val_count, test_count) = Self::sized(scale, 900, 500, 800);
        Benchmark {
            id: "lenet5-digits",
            paper_dataset: "MNIST",
            paper_network: "LeNet-5",
            paper_accuracy: 0.9901,
            dataset: families::synth_digits(101),
            arch: ArchSpec::lenet5(1, 16, 16, 10),
            train_config: TrainConfig {
                epochs: scale.epochs(8),
                batch_size: 32,
                lr: 0.08,
                ..TrainConfig::default()
            },
            train_count,
            val_count,
            test_count,
            scale,
        }
    }

    /// CIFAR-10 / ConvNet analog.
    pub fn convnet_objects(scale: Scale) -> Benchmark {
        let (train_count, val_count, test_count) = Self::sized(scale, 800, 400, 500);
        Benchmark {
            id: "convnet-objects",
            paper_dataset: "CIFAR10",
            paper_network: "ConvNet",
            paper_accuracy: 0.7470,
            dataset: families::synth_objects(202),
            arch: ArchSpec::convnet(3, 20, 20, 10),
            train_config: TrainConfig {
                epochs: scale.epochs(6),
                batch_size: 32,
                lr: 0.06,
                ..TrainConfig::default()
            },
            train_count,
            val_count,
            test_count,
            scale,
        }
    }

    /// CIFAR-10 / ResNet20 analog.
    pub fn resnet20_objects(scale: Scale) -> Benchmark {
        let (train_count, val_count, test_count) = Self::sized(scale, 1300, 400, 500);
        Benchmark {
            id: "resnet20-objects",
            paper_dataset: "CIFAR10",
            paper_network: "ResNet20",
            paper_accuracy: 0.9150,
            dataset: families::synth_objects(202),
            arch: ArchSpec::resnet20_mini(3, 20, 20, 10),
            train_config: TrainConfig {
                epochs: scale.epochs(8),
                batch_size: 32,
                lr: 0.05,
                ..TrainConfig::default()
            },
            train_count,
            val_count,
            test_count,
            scale,
        }
    }

    /// CIFAR-10 / DenseNet40 analog.
    pub fn densenet_objects(scale: Scale) -> Benchmark {
        let (train_count, val_count, test_count) = Self::sized(scale, 1300, 400, 500);
        Benchmark {
            id: "densenet-objects",
            paper_dataset: "CIFAR10",
            paper_network: "DenseNet40",
            paper_accuracy: 0.9307,
            dataset: families::synth_objects(202),
            arch: ArchSpec::densenet_mini(3, 20, 20, 10),
            train_config: TrainConfig {
                epochs: scale.epochs(8),
                batch_size: 32,
                lr: 0.05,
                ..TrainConfig::default()
            },
            train_count,
            val_count,
            test_count,
            scale,
        }
    }

    /// ImageNet / AlexNet analog.
    pub fn alexnet_scenes(scale: Scale) -> Benchmark {
        Self::imagenet_analog(
            scale,
            "alexnet-scenes",
            "AlexNet",
            0.5740,
            ArchSpec::alexnet_mini(3, 24, 24, 20),
            8,
            0.05,
        )
    }

    /// ImageNet / ResNet34 analog.
    pub fn resnet34_scenes(scale: Scale) -> Benchmark {
        Self::imagenet_analog(
            scale,
            "resnet34-scenes",
            "ResNet34",
            0.7146,
            ArchSpec::resnet34_mini(3, 24, 24, 20),
            6,
            0.05,
        )
    }

    /// Builds a Fig. 1-style ImageNet-analog benchmark: a given architecture
    /// on the scenes dataset with the scenes training recipe.
    fn imagenet_analog(
        scale: Scale,
        id: &'static str,
        paper_network: &'static str,
        paper_accuracy: f64,
        arch: ArchSpec,
        small_epochs: usize,
        lr: f32,
    ) -> Benchmark {
        let (train_count, val_count, test_count) = Self::sized(scale, 1100, 500, 600);
        Benchmark {
            id,
            paper_dataset: "ImageNet",
            paper_network,
            paper_accuracy,
            dataset: families::synth_scenes(303),
            arch,
            train_config: TrainConfig {
                epochs: scale.scenes_epochs(small_epochs),
                batch_size: 32,
                lr,
                ..TrainConfig::default()
            },
            train_count,
            val_count,
            test_count,
            scale,
        }
    }

    /// The six ImageNet-class networks of the paper's Fig. 1 (AlexNet,
    /// VGG16, GoogLeNet, ResNet152, Inception-V3, ResNeXt101 — paper top-1
    /// accuracies 57.4/71.6/69.8/78.3/77.5/79.3%), as scenes-dataset
    /// analogs of ascending capacity.
    pub fn imagenet_six(scale: Scale) -> Vec<Benchmark> {
        vec![
            Benchmark::alexnet_scenes(scale),
            // VGG has no normalization layers, so it needs a gentler
            // learning rate and a longer schedule than the BN networks.
            Self::imagenet_analog(
                scale,
                "vgg16-scenes",
                "VGG16",
                0.716,
                ArchSpec::vgg_mini(3, 24, 24, 20),
                10,
                0.02,
            ),
            Self::imagenet_analog(
                scale,
                "googlenet-scenes",
                "GoogleNet",
                0.698,
                ArchSpec::googlenet_mini(3, 24, 24, 20),
                6,
                0.05,
            ),
            Self::imagenet_analog(
                scale,
                "resnet152-scenes",
                "ResNet_152",
                0.783,
                ArchSpec::resnet152_mini(3, 24, 24, 20),
                6,
                0.05,
            ),
            Self::imagenet_analog(
                scale,
                "inception-scenes",
                "Inception_V3",
                0.775,
                ArchSpec::inception_mini(3, 24, 24, 20),
                6,
                0.05,
            ),
            Self::imagenet_analog(
                scale,
                "resnext-scenes",
                "ResNeXt_101",
                0.793,
                ArchSpec::resnext_mini(3, 24, 24, 20),
                6,
                0.05,
            ),
        ]
    }

    /// All six benchmarks in Table II order.
    pub fn all(scale: Scale) -> Vec<Benchmark> {
        vec![
            Benchmark::lenet5_digits(scale),
            Benchmark::convnet_objects(scale),
            Benchmark::resnet20_objects(scale),
            Benchmark::densenet_objects(scale),
            Benchmark::alexnet_scenes(scale),
            Benchmark::resnet34_scenes(scale),
        ]
    }

    /// Generates the split at the benchmark's configured size.
    pub fn data(&self, split: Split) -> Dataset {
        let count = match split {
            Split::Train => self.train_count,
            Split::Val => self.val_count,
            Split::Test => self.test_count,
        };
        self.dataset.generate(split, count)
    }

    /// The disk-cache key for a member: covers everything that affects the
    /// weights (benchmark id, scale, architecture, preprocessor, seed, and
    /// training recipe), so tuning any of them invalidates stale entries.
    /// Sibling artifacts derived from the same weights (e.g. vulnerability
    /// profiles) reuse this key with their own extension.
    pub fn member_key(&self, preprocessor: Preprocessor, seed: u64) -> String {
        // The fingerprint covers every remaining input that shapes the
        // weights (dataset knobs, learning-rate schedule).
        let fingerprint = {
            let repr = format!("{:?}|{:?}", self.dataset, self.train_config);
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in repr.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            h
        };
        format!(
            "{}-{}-{}-{}-s{}-e{}-n{}-f{:016x}",
            self.id,
            self.scale.name(),
            self.arch.arch_id(),
            preprocessor.name().replace(['(', ')', '%', '.'], "_"),
            seed,
            self.train_config.epochs,
            self.train_count,
            fingerprint,
        )
    }

    /// Trains (or loads from the shared model store / disk cache) a member
    /// with the given preprocessor and weight seed.
    ///
    /// The cache key ([`Benchmark::member_key`]) covers everything that
    /// affects the weights. Cached weights are served through the
    /// process-wide [`pgmr_nn::model_store`]: the blob is read from disk
    /// and digest-verified once, decoded into a shared read-only arena,
    /// and every further tenant of the same blob (additional ensemble
    /// members, serve replicas, repeat builds) attaches arena-shared tensors —
    /// no re-read, no re-verify, no weight copy. Per-tenant state
    /// (quarantine, monitors, protection plans, batch-norm buffers) stays
    /// private to each member. Set `PGMR_NO_CACHE=1` to force retraining
    /// (which also bypasses the store).
    pub fn member(&self, preprocessor: Preprocessor, seed: u64) -> Member {
        let key = self.member_key(preprocessor, seed);
        let cache_enabled = std::env::var("PGMR_NO_CACHE").is_err();
        let path = cache_path(&key);
        // The store is keyed by the full cache path, so a redirected cache
        // dir (tests, parallel harnesses) never aliases another tenant's
        // blob even when member keys collide.
        let store_key = path.to_string_lossy().into_owned();
        if cache_enabled {
            if let Some(stored) = pgmr_nn::model_store().get(&store_key) {
                let mut net = pgmr_nn::zoo::build(&self.arch, seed);
                if stored.attach(&mut net).is_ok() {
                    return Member::new(preprocessor, net);
                }
            }
            if let Ok(blob) = std::fs::read(&path) {
                if let Ok(stored) = pgmr_nn::model_store().insert(&store_key, &blob) {
                    let mut net = pgmr_nn::zoo::build(&self.arch, seed);
                    if stored.attach(&mut net).is_ok() {
                        return Member::new(preprocessor, net);
                    }
                }
            }
        }
        let train = self.data(Split::Train);
        let (mut member, _) =
            Member::train(preprocessor, &self.arch, &train, &self.train_config, seed);
        if cache_enabled {
            let blob = encode_params(member.network_mut());
            if let Some(dir) = path.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            let _ = std::fs::write(&path, &blob);
            // Seed the store so co-tenants of this fresh blob share its
            // arena without going back to disk.
            let _ = pgmr_nn::model_store().insert(&store_key, &blob);
        }
        member
    }

    /// Like [`Benchmark::member`], additionally resolving the member's
    /// [`VulnerabilityProfile`]: the per-site SDC measurement that drives
    /// selective protection. The profile is measured on a small fixed
    /// slice of the validation split (preprocessed exactly as the member
    /// sees it at inference time) and cached next to the weight blob as
    /// `<member-key>.pgvp`; a corrupted or configuration-stale artifact
    /// self-heals by re-running the campaign. `PGMR_NO_CACHE=1` bypasses
    /// the artifact entirely.
    pub fn member_with_profile(
        &self,
        preprocessor: Preprocessor,
        seed: u64,
        cfg: &ProfileConfig,
    ) -> (Member, VulnerabilityProfile) {
        /// Validation images the campaign cycles through per trial batch —
        /// enough input diversity to excite every site without making the
        /// measurement the slow step of a bench run.
        const PROFILE_IMAGES: usize = 16;
        let mut member = self.member(preprocessor, seed);
        let val = self.data(Split::Val).truncated(PROFILE_IMAGES);
        let inputs: Vec<_> =
            val.images().iter().map(|img| member.preprocessor().apply(img)).collect();
        let cache_enabled = std::env::var("PGMR_NO_CACHE").is_err();
        let path = cache_dir().join(format!("{}.pgvp", self.member_key(preprocessor, seed)));
        let pool = pgmr_nn::pool::global();
        let profile = if cache_enabled {
            VulnerabilityProfile::load_or_measure(&path, member.network_mut(), &inputs, cfg, pool)
                .map(|(profile, _)| profile)
                // An unwritable cache dir degrades to measuring in-memory,
                // mirroring the weight cache's best-effort writes.
                .unwrap_or_else(|_| {
                    VulnerabilityProfile::measure(member.network_mut(), &inputs, cfg, pool)
                })
        } else {
            VulnerabilityProfile::measure(member.network_mut(), &inputs, cfg, pool)
        };
        (member, profile)
    }
}

/// Process-wide cache-dir override, set via [`set_cache_dir`]. Kept
/// behind a mutex instead of mutating `PGMR_CACHE_DIR` at runtime:
/// `std::env::set_var` is unsound with concurrent environment reads (and
/// a hard error in Rust 2024), which made the multi-threaded test runner
/// racy.
static CACHE_DIR_OVERRIDE: std::sync::Mutex<Option<PathBuf>> = std::sync::Mutex::new(None);

/// Overrides where trained-member blobs are cached, process-wide and
/// thread-safe. `None` restores the default resolution (the
/// `PGMR_CACHE_DIR` environment variable, then the workspace target dir).
/// Tests that need an isolated cache should use this instead of
/// `std::env::set_var`.
pub fn set_cache_dir(dir: Option<PathBuf>) {
    *CACHE_DIR_OVERRIDE.lock().expect("cache-dir override mutex poisoned") = dir;
}

/// Overrides the worker-thread count of the workspace's shared pool,
/// process-wide and thread-safe — the suite-config analogue of
/// [`set_cache_dir`] (no `std::env::set_var`, which is unsound with
/// concurrent environment reads). `None` restores the default resolution:
/// the `PGMR_THREADS` environment variable, then the host's available
/// parallelism. Must be called before the shared pool's first use to
/// affect its width; see [`pgmr_nn::pool::global`].
pub fn set_threads(threads: Option<usize>) {
    pgmr_nn::pool::set_thread_override(threads);
}

/// The worker-thread count the shared pool resolves right now (override,
/// else `PGMR_THREADS`, else host parallelism).
pub fn configured_threads() -> usize {
    pgmr_nn::pool::configured_threads()
}

/// Where trained-member blobs are cached. Override at runtime with
/// [`set_cache_dir`] or at launch with `PGMR_CACHE_DIR`; defaults to
/// `<workspace>/target/pgmr-model-cache` (falling back to the OS temp dir
/// when `CARGO_MANIFEST_DIR` is unavailable).
pub fn cache_dir() -> PathBuf {
    if let Some(dir) =
        CACHE_DIR_OVERRIDE.lock().expect("cache-dir override mutex poisoned").as_ref()
    {
        return dir.clone();
    }
    if let Ok(dir) = std::env::var("PGMR_CACHE_DIR") {
        return PathBuf::from(dir);
    }
    let base = std::env::var("CARGO_TARGET_DIR").map(PathBuf::from).unwrap_or_else(|_| {
        // The manifest dir of whichever crate is running; hop to its
        // workspace target dir heuristically.
        std::env::var("CARGO_MANIFEST_DIR")
            .map(|m| {
                let mut p = PathBuf::from(m);
                // crates/<name> → workspace root
                if p.ends_with("core") || p.parent().map(|q| q.ends_with("crates")).unwrap_or(false)
                {
                    p.pop();
                    p.pop();
                }
                p.join("target")
            })
            .unwrap_or_else(|_| std::env::temp_dir())
    });
    base.join("pgmr-model-cache")
}

fn cache_path(key: &str) -> PathBuf {
    cache_dir().join(format!("{key}.pgmr"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_six_benchmarks_in_table2_order() {
        let all = Benchmark::all(Scale::Tiny);
        let ids: Vec<&str> = all.iter().map(|b| b.id).collect();
        assert_eq!(
            ids,
            vec![
                "lenet5-digits",
                "convnet-objects",
                "resnet20-objects",
                "densenet-objects",
                "alexnet-scenes",
                "resnet34-scenes"
            ]
        );
        // Paper accuracies match Table II.
        let accs: Vec<f64> = all.iter().map(|b| b.paper_accuracy).collect();
        assert_eq!(accs, vec![0.9901, 0.7470, 0.9150, 0.9307, 0.5740, 0.7146]);
    }

    #[test]
    fn imagenet_six_matches_fig1_network_set() {
        let six = Benchmark::imagenet_six(Scale::Tiny);
        let names: Vec<&str> = six.iter().map(|b| b.paper_network).collect();
        assert_eq!(
            names,
            vec!["AlexNet", "VGG16", "GoogleNet", "ResNet_152", "Inception_V3", "ResNeXt_101"]
        );
        // All share the scenes dataset, so their error distributions are
        // comparable (the Fig. 1 normalization requirement).
        for b in &six {
            assert_eq!(b.dataset, six[0].dataset);
        }
        // Paper accuracies ascend from AlexNet to the modern networks.
        assert!(six[0].paper_accuracy < six[1].paper_accuracy);
        assert!(six[3].paper_accuracy > six[2].paper_accuracy);
    }

    #[test]
    fn shared_dataset_benchmarks_use_identical_configs() {
        let convnet = Benchmark::convnet_objects(Scale::Tiny);
        let resnet = Benchmark::resnet20_objects(Scale::Tiny);
        assert_eq!(convnet.dataset, resnet.dataset, "same CIFAR analog for both");
    }

    #[test]
    fn scale_controls_counts_and_epochs() {
        let tiny = Benchmark::convnet_objects(Scale::Tiny);
        let small = Benchmark::convnet_objects(Scale::Small);
        let full = Benchmark::convnet_objects(Scale::Full);
        assert!(tiny.train_count < small.train_count);
        assert!(small.train_count < full.train_count);
        assert!(tiny.train_config.epochs < small.train_config.epochs);
        assert_eq!(full.train_config.epochs, small.train_config.epochs * 2);
    }

    #[test]
    fn data_respects_split_sizes() {
        let b = Benchmark::lenet5_digits(Scale::Tiny);
        assert_eq!(b.data(Split::Train).len(), b.train_count);
        assert_eq!(b.data(Split::Val).len(), b.val_count);
        assert_eq!(b.data(Split::Test).len(), b.test_count);
    }

    /// Serializes the tests that mutate the process-wide cache override.
    /// Other tests in this binary resolve members while an override is
    /// active and may write their own blobs into the overriding test's
    /// directory, so these tests check only the paths their own keys name.
    static CACHE_OVERRIDE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Takes [`CACHE_OVERRIDE_LOCK`]; a test that panicked while holding
    /// it does not fail the others.
    fn lock_cache_override() -> std::sync::MutexGuard<'static, ()> {
        CACHE_OVERRIDE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn cache_key_tracks_config_changes() {
        let _guard = lock_cache_override();
        // Changing anything that shapes the weights — dataset knobs or the
        // training recipe — must change the cache key, or a tuned config
        // would silently load stale models (a bug class this suite hit
        // during development).
        let base = Benchmark::lenet5_digits(Scale::Tiny);
        let dir = std::env::temp_dir().join(format!("pgmr-fp-cache-{}", std::process::id()));
        set_cache_dir(Some(dir.clone()));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = base.member(Preprocessor::Identity, 7);
        let base_blob = cache_path(&base.member_key(Preprocessor::Identity, 7));
        let base_cached = base_blob.exists();

        let mut tweaked = base.clone();
        tweaked.dataset.noise_std += 0.01;
        let tweaked_blob = cache_path(&tweaked.member_key(Preprocessor::Identity, 7));
        let _ = tweaked.member(Preprocessor::Identity, 7);
        let both_cached = base_blob.exists() && tweaked_blob.exists();
        set_cache_dir(None);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(base_cached, "the first member must be cached");
        assert_ne!(base_blob, tweaked_blob, "dataset tweak must produce a new cache entry");
        assert!(both_cached, "the tweaked member is cached beside the first, not over it");
    }

    #[test]
    fn member_cache_round_trips() {
        let _guard = lock_cache_override();
        let b = Benchmark::lenet5_digits(Scale::Tiny);
        // Unique cache dir for the test.
        let dir = std::env::temp_dir().join(format!("pgmr-test-cache-{}", std::process::id()));
        set_cache_dir(Some(dir.clone()));
        let mut first = b.member(Preprocessor::Identity, 42);
        let mut second = b.member(Preprocessor::Identity, 42); // from cache
        set_cache_dir(None);
        let test = b.data(Split::Test).truncated(30);
        for (img, _) in test.images().iter().zip(test.labels()) {
            assert_eq!(first.predict(img), second.predict(img));
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn members_share_one_store_arena() {
        let _guard = lock_cache_override();
        let b = Benchmark::lenet5_digits(Scale::Tiny);
        let dir = std::env::temp_dir().join(format!("pgmr-share-cache-{}", std::process::id()));
        set_cache_dir(Some(dir.clone()));
        let _ = std::fs::remove_dir_all(&dir);
        pgmr_nn::model_store().clear();
        let mut first = b.member(Preprocessor::Identity, 3); // trains, seeds store
        let mut second = b.member(Preprocessor::Identity, 3); // attaches to arena
        let mut third = b.member(Preprocessor::FlipX, 3); // same weights, own preprocessor state

        // All three tenants resolve to the same resident blob (keyed by
        // the cache path), and the attached members borrow rather than
        // own. Global blob/tenant totals are not asserted — other tests
        // in this process use the store concurrently.
        let store_key =
            cache_path(&b.member_key(Preprocessor::Identity, 3)).to_string_lossy().into_owned();
        set_cache_dir(None);
        let one = pgmr_nn::model_store().get(&store_key).expect("blob resident after training");
        let two = pgmr_nn::model_store().get(&store_key).expect("blob stays resident");
        assert!(std::sync::Arc::ptr_eq(&one, &two), "tenants must share one arena");
        let mut shared = 0;
        second.network_mut().visit_slots(&mut |s| shared += usize::from(s.value.is_shared()));
        assert!(shared > 0, "cache-served member must borrow from the arena");

        let test = b.data(Split::Test).truncated(20);
        for img in test.images() {
            assert_eq!(first.predict(img), second.predict(img), "arena tenant diverged");
        }
        // The FlipX tenant shares weights but sees flipped inputs.
        assert_ne!(first.predict(&test.images()[0]), third.predict(&test.images()[0]));
        pgmr_nn::model_store().clear();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cache_blob_self_heals() {
        let _guard = lock_cache_override();
        let b = Benchmark::lenet5_digits(Scale::Tiny);
        let dir = std::env::temp_dir().join(format!("pgmr-heal-cache-{}", std::process::id()));
        set_cache_dir(Some(dir.clone()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut first = b.member(Preprocessor::Identity, 9);

        // Flip one bit of the cached blob, then simulate a cold process so
        // the next load must go back to the (corrupt) disk copy.
        let blob_path = cache_path(&b.member_key(Preprocessor::Identity, 9));
        let mut blob = std::fs::read(&blob_path).expect("cached weight blob");
        let mid = blob.len() / 2;
        blob[mid] ^= 0x20;
        std::fs::write(&blob_path, &blob).unwrap();
        pgmr_nn::model_store().clear();

        // The corrupt blob fails digest verification, the member retrains
        // (deterministically — same seed and data), and the rewritten blob
        // is valid again for the next tenant.
        let mut healed = b.member(Preprocessor::Identity, 9);
        let repaired = std::fs::read(&blob_path).unwrap();
        assert_ne!(repaired, blob, "retraining must rewrite the corrupt blob");
        let mut reloaded = b.member(Preprocessor::Identity, 9);
        set_cache_dir(None);
        let test = b.data(Split::Test).truncated(20);
        for img in test.images() {
            assert_eq!(first.predict(img), healed.predict(img), "self-heal changed the member");
            assert_eq!(first.predict(img), reloaded.predict(img), "rewritten blob diverged");
        }
        pgmr_nn::model_store().clear();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn member_profile_caches_next_to_weights_and_round_trips() {
        let _guard = lock_cache_override();
        let b = Benchmark::lenet5_digits(Scale::Tiny);
        let dir = std::env::temp_dir().join(format!("pgmr-profile-cache-{}", std::process::id()));
        set_cache_dir(Some(dir.clone()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ProfileConfig { trials_per_site: 6, ..ProfileConfig::default() };
        let (_, first) = b.member_with_profile(Preprocessor::Identity, 42, &cfg);
        let blob = cache_path(&b.member_key(Preprocessor::Identity, 42));
        let pgvp = blob.with_extension("pgvp");
        assert!(blob.exists(), "the member's weight blob is cached");
        assert!(pgvp.exists(), "the profile artifact sits next to the weight blob");
        // Second resolution loads the artifact and reproduces the exact
        // measurement; a different profiling config re-measures rather
        // than serving the stale artifact.
        let (_, second) = b.member_with_profile(Preprocessor::Identity, 42, &cfg);
        assert_eq!(first, second);
        let drifted = ProfileConfig { trials_per_site: 7, ..cfg };
        let (_, third) = b.member_with_profile(Preprocessor::Identity, 42, &drifted);
        set_cache_dir(None);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(third.config.trials_per_site, 7);
        assert_ne!(first.config.trials_per_site, third.config.trials_per_site);
    }
}
