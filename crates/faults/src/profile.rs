//! Measured per-site vulnerability profiles and the selective-protection
//! plans derived from them.
//!
//! A [`VulnerabilityProfile`] records, for one architecture, how often
//! transient faults at each guarded activation site turned into silent
//! data corruption when nothing was protected — the measurement HarDNN
//! argues concentrates in a few layers. Profiles are persisted next to
//! the cached weight blobs in the weight codec's digest-verified frame
//! (magic `b"PGVP"`, version 1; see [`pgmr_nn::serialize`]) and
//! *self-heal*: a corrupted, stale, or mismatched artifact is silently
//! replaced by re-running the measurement campaign. The frame body:
//!
//! ```text
//! arch_id len u16 + utf-8 bytes
//! seed u64, rate f64, bits lo u8 + hi u8, trials_per_site u32
//! site count u32
//! per site: site u32, masked u32, sdc u32, detected u32, injected u64
//! ```

use std::ops::RangeInclusive;
use std::path::Path;

use pgmr_nn::pool::WorkerPool;
use pgmr_nn::serialize::{DecodeError, FrameReader, FrameWriter};
use pgmr_nn::{CheckPlan, Network, ProtectionLevel};
use pgmr_tensor::Tensor;

use crate::campaign::{run_site_sweep, CampaignConfig, CampaignGuard, SiteTally};
use crate::inject::{guarded_sites, FaultTarget, SiteFilter, ANY_BIT};

const MAGIC: &[u8; 4] = b"PGVP";
const VERSION: u16 = 1;
/// Bytes per site record: four `u32` tallies and the `u64` flip count.
const SITE_RECORD_LEN: usize = 4 * 4 + 8;

/// Parameters of a vulnerability measurement: the per-site activation
/// campaign a profile is derived from. Two profiles are comparable only
/// when their configs match, so the config is persisted inside the
/// artifact and checked on load.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileConfig {
    /// Trials devoted to each guarded site.
    pub trials_per_site: usize,
    /// Measurement seed.
    pub seed: u64,
    /// Per-element flip probability per trial.
    pub rate: f64,
    /// Eligible bit positions.
    pub bits: RangeInclusive<u8>,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        ProfileConfig { trials_per_site: 40, seed: 0, rate: 1e-3, bits: ANY_BIT }
    }
}

impl ProfileConfig {
    /// True when `other` describes the identical measurement (bit-exact
    /// rate comparison: these are configuration constants, not computed
    /// quantities).
    fn same_measurement(&self, other: &ProfileConfig) -> bool {
        self.trials_per_site == other.trials_per_site
            && self.seed == other.seed
            && self.rate.to_bits() == other.rate.to_bits()
            && self.bits == other.bits
    }
}

/// A persisted per-site SDC-contribution measurement for one
/// architecture, from which [`CheckPlan`]s are derived.
#[derive(Debug, Clone, PartialEq)]
pub struct VulnerabilityProfile {
    /// Architecture the measurement ran against.
    pub arch_id: String,
    /// The campaign parameters that produced it.
    pub config: ProfileConfig,
    /// Per-site tallies of the unguarded sweep, sorted by site index: hook
    /// site `s` is the output of layer `s − 1`, `sdc` is the ranking key
    /// and `detected` is zero (nothing was guarded).
    pub sites: Vec<SiteTally>,
}

/// Where [`VulnerabilityProfile::load_or_measure`] got its profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileSource {
    /// Decoded from a valid on-disk artifact.
    Cached,
    /// Measured fresh (no artifact, corruption, or config/arch mismatch)
    /// and re-persisted.
    Measured,
}

impl VulnerabilityProfile {
    /// Measures a profile with an unguarded transient activation sweep
    /// over every guarded site of `net` (see [`run_site_sweep`]), sharded
    /// across `pool`; the profile is the same at every pool width.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty or `net` has no guarded sites.
    pub fn measure(
        net: &mut Network,
        inputs: &[Tensor],
        cfg: &ProfileConfig,
        pool: &WorkerPool,
    ) -> Self {
        let sites = guarded_sites(net);
        assert!(!sites.is_empty(), "{} has no guarded sites to profile", net.arch_id());
        let sweep = CampaignConfig {
            trials: cfg.trials_per_site,
            seed: cfg.seed,
            rate: cfg.rate,
            bits: cfg.bits.clone(),
            sites: SiteFilter::Only(sites),
            target: FaultTarget::Activations,
            // Unguarded measurement: the profile asks where faults *become*
            // SDCs, not where the checksums would have stopped them.
            guard: CampaignGuard::Off,
        };
        let sites = run_site_sweep(net, inputs, &sweep, pool).per_site;
        VulnerabilityProfile { arch_id: net.arch_id().to_string(), config: cfg.clone(), sites }
    }

    /// Sites ranked by SDC contribution: most vulnerable first, site
    /// index breaking ties (so the ranking is total and deterministic).
    pub fn ranking(&self) -> Vec<&SiteTally> {
        let mut ranked: Vec<&SiteTally> = self.sites.iter().collect();
        ranked.sort_by(|a, b| b.sdc.cmp(&a.sdc).then(a.site.cmp(&b.site)));
        ranked
    }

    /// The single most SDC-prone site, if the profile is non-empty.
    pub fn most_critical_site(&self) -> Option<usize> {
        self.ranking().first().map(|v| v.site)
    }

    /// Derives the [`CheckPlan`] a [`ProtectionLevel`] asks for, for a
    /// network with `num_layers` layers. Hook site `s` is the output of
    /// layer `s − 1`, so the plan checks layer `s − 1` for each selected
    /// site. With `duplicate_critical`, the most vulnerable layer also
    /// runs duplicated (compute-twice-compare) — except under
    /// [`ProtectionLevel::Off`], which disables everything.
    ///
    /// # Panics
    ///
    /// Panics if a profiled site maps outside the network's layers.
    pub fn plan(
        &self,
        level: ProtectionLevel,
        num_layers: usize,
        duplicate_critical: bool,
    ) -> CheckPlan {
        let mut plan = match level {
            ProtectionLevel::Off => return CheckPlan::off(num_layers),
            ProtectionLevel::Full => CheckPlan::full(num_layers),
            ProtectionLevel::Selective { top_k } => {
                let mut check = vec![false; num_layers];
                for v in self.ranking().into_iter().take(top_k) {
                    assert!(
                        v.site >= 1 && v.site <= num_layers,
                        "profiled site {} does not map to a layer of a {num_layers}-layer network",
                        v.site
                    );
                    check[v.site - 1] = true;
                }
                CheckPlan::new(check, None)
            }
        };
        if duplicate_critical {
            if let Some(site) = self.most_critical_site() {
                assert!(
                    site >= 1 && site <= num_layers,
                    "profiled site {site} does not map to a layer of a {num_layers}-layer network"
                );
                plan.set_duplicate(Some(site - 1));
            }
        }
        plan
    }

    /// Serializes the profile (see the module docs for the layout).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = FrameWriter::new(MAGIC, VERSION, 0);
        w.put_str(&self.arch_id);
        w.put(self.config.seed.to_le_bytes());
        w.put(self.config.rate.to_le_bytes());
        w.put([*self.config.bits.start(), *self.config.bits.end()]);
        w.put((self.config.trials_per_site as u32).to_le_bytes());
        w.put((self.sites.len() as u32).to_le_bytes());
        for v in &self.sites {
            for tally in [v.site, v.masked, v.sdc, v.detected] {
                w.put((tally as u32).to_le_bytes());
            }
            w.put((v.injected as u64).to_le_bytes());
        }
        w.finish()
    }

    /// Decodes a profile artifact produced by
    /// [`VulnerabilityProfile::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when the blob is malformed or its digest
    /// does not match.
    pub fn decode(blob: &[u8]) -> Result<Self, DecodeError> {
        let mut body = FrameReader::open(blob, MAGIC, VERSION)?;
        let arch_id = body.str()?;
        let seed = body.u64()?;
        let rate = f64::from_bits(body.u64()?);
        let (lo, hi) = (body.u8()?, body.u8()?);
        let trials_per_site = body.u32()? as usize;
        let count = body.count(SITE_RECORD_LEN)?;
        let mut sites = Vec::with_capacity(count);
        for _ in 0..count {
            sites.push(SiteTally {
                site: body.u32()? as usize,
                masked: body.u32()? as usize,
                sdc: body.u32()? as usize,
                detected: body.u32()? as usize,
                injected: body.u64()? as usize,
            });
        }
        body.finish()?;
        let config = ProfileConfig { trials_per_site, seed, rate, bits: lo..=hi };
        Ok(VulnerabilityProfile { arch_id, config, sites })
    }

    /// Loads the profile for `net` from `path`, or measures it on `pool`
    /// and persists it. Any decode failure, architecture mismatch, or
    /// measurement-config mismatch silently *self-heals*: the campaign
    /// re-runs and the fresh artifact overwrites the stale one.
    ///
    /// # Errors
    ///
    /// Returns an error only for filesystem failures while writing the
    /// refreshed artifact (a missing or unreadable file just re-measures).
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty or `net` has no guarded sites.
    pub fn load_or_measure(
        path: &Path,
        net: &mut Network,
        inputs: &[Tensor],
        cfg: &ProfileConfig,
        pool: &WorkerPool,
    ) -> std::io::Result<(Self, ProfileSource)> {
        if let Ok(blob) = std::fs::read(path) {
            if let Ok(profile) = Self::decode(&blob) {
                if profile.arch_id == net.arch_id() && profile.config.same_measurement(cfg) {
                    return Ok((profile, ProfileSource::Cached));
                }
            }
        }
        let profile = Self::measure(net, inputs, cfg, pool);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, profile.encode())?;
        Ok((profile, ProfileSource::Measured))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgmr_nn::layer::Layer;
    use pgmr_nn::layers::{Conv2d, Dense, Flatten, Relu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net_and_inputs() -> (Network, Vec<Tensor>) {
        let mut rng = StdRng::seed_from_u64(5);
        let layers: Vec<Box<dyn Layer>> = vec![
            Box::new(Conv2d::new(1, 4, 8, 8, 3, 1, 1, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Flatten::new()),
            Box::new(Dense::new(4 * 8 * 8, 6, &mut rng)),
        ];
        let net = Network::new(layers, "profile-net", 6);
        let inputs =
            (0..4).map(|_| Tensor::uniform(vec![1, 1, 8, 8], -1.0, 1.0, &mut rng)).collect();
        (net, inputs)
    }

    fn test_config() -> ProfileConfig {
        ProfileConfig {
            trials_per_site: 20,
            seed: 9,
            rate: 5e-3,
            bits: crate::inject::EXPONENT_BITS,
        }
    }

    #[test]
    fn measurement_covers_guarded_sites_and_is_deterministic() {
        let (mut net, inputs) = net_and_inputs();
        let cfg = test_config();
        let solo = WorkerPool::new(1);
        let a = VulnerabilityProfile::measure(&mut net, &inputs, &cfg, &solo);
        let b = VulnerabilityProfile::measure(&mut net, &inputs, &cfg, &solo);
        assert_eq!(a, b);
        let sites: Vec<usize> = a.sites.iter().map(|v| v.site).collect();
        assert_eq!(sites, guarded_sites(&net));
        // Unguarded measurement can never classify a trial as detected.
        assert!(a.sites.iter().all(|v| v.detected == 0));
        let pool = WorkerPool::new(3);
        assert_eq!(VulnerabilityProfile::measure(&mut net, &inputs, &cfg, &pool), a);
    }

    #[test]
    fn ranking_is_sdc_descending_with_site_tiebreak() {
        let profile = VulnerabilityProfile {
            arch_id: "x".into(),
            config: ProfileConfig::default(),
            sites: vec![
                SiteTally { site: 1, masked: 5, sdc: 2, detected: 0, injected: 9 },
                SiteTally { site: 3, masked: 1, sdc: 7, detected: 0, injected: 8 },
                SiteTally { site: 4, masked: 2, sdc: 2, detected: 0, injected: 4 },
            ],
        };
        let ranked: Vec<usize> = profile.ranking().iter().map(|v| v.site).collect();
        assert_eq!(ranked, vec![3, 1, 4]);
        assert_eq!(profile.most_critical_site(), Some(3));
    }

    #[test]
    fn plans_follow_the_protection_level() {
        let profile = VulnerabilityProfile {
            arch_id: "x".into(),
            config: ProfileConfig::default(),
            sites: vec![
                SiteTally { site: 1, masked: 5, sdc: 2, detected: 0, injected: 9 },
                SiteTally { site: 4, masked: 1, sdc: 7, detected: 0, injected: 8 },
            ],
        };
        let full = profile.plan(ProtectionLevel::Full, 4, false);
        assert_eq!(full, CheckPlan::full(4));
        let off = profile.plan(ProtectionLevel::Off, 4, true);
        assert_eq!(off, CheckPlan::off(4), "Off disables duplication too");
        let top1 = profile.plan(ProtectionLevel::Selective { top_k: 1 }, 4, false);
        assert!(top1.checks(3), "site 4 is layer 3");
        assert!(!top1.checks(0) && !top1.checks(1) && !top1.checks(2));
        let dup = profile.plan(ProtectionLevel::Selective { top_k: 2 }, 4, true);
        assert!(dup.checks(0) && dup.checks(3));
        assert_eq!(dup.duplicated_layer(), Some(3));
    }

    #[test]
    fn round_trip_is_exact() {
        let (mut net, inputs) = net_and_inputs();
        let profile =
            VulnerabilityProfile::measure(&mut net, &inputs, &test_config(), &WorkerPool::new(1));
        let decoded = VulnerabilityProfile::decode(&profile.encode()).expect("clean round trip");
        assert_eq!(decoded, profile);
    }

    #[test]
    fn single_bit_flips_anywhere_are_rejected() {
        let (mut net, inputs) = net_and_inputs();
        let profile =
            VulnerabilityProfile::measure(&mut net, &inputs, &test_config(), &WorkerPool::new(1));
        let blob = profile.encode();
        // Header flips trip magic/version/length checks; body flips (from
        // byte 18) trip the FNV digest.
        for pos in [0usize, 5, 18, blob.len() / 2, blob.len() - 1] {
            for bit in [0u8, 3, 7] {
                let mut bad = blob.clone();
                bad[pos] ^= 1 << bit;
                assert!(
                    VulnerabilityProfile::decode(&bad).is_err(),
                    "bit {bit} of byte {pos} flipped silently"
                );
            }
        }
        let mut bad = blob.clone();
        bad[blob.len() - 2] ^= 0x10;
        assert_eq!(VulnerabilityProfile::decode(&bad), Err(DecodeError::ChecksumMismatch));
        let cut = &blob[..blob.len() / 2];
        assert_eq!(VulnerabilityProfile::decode(cut), Err(DecodeError::Truncated));
    }

    #[test]
    fn load_or_measure_self_heals_corruption_and_mismatches() {
        let (mut net, inputs) = net_and_inputs();
        let cfg = test_config();
        let pool = WorkerPool::new(1);
        let dir = std::env::temp_dir().join(format!("pgvp-test-{}", std::process::id()));
        let path = dir.join("profile-net.pgvp");
        let _ = std::fs::remove_dir_all(&dir);

        // First call measures and persists.
        let (fresh, src) =
            VulnerabilityProfile::load_or_measure(&path, &mut net, &inputs, &cfg, &pool).unwrap();
        assert_eq!(src, ProfileSource::Measured);
        // Second call hits the cache, bit-identically.
        let (cached, src) =
            VulnerabilityProfile::load_or_measure(&path, &mut net, &inputs, &cfg, &pool).unwrap();
        assert_eq!(src, ProfileSource::Cached);
        assert_eq!(cached, fresh);

        // A flipped byte in the artifact self-heals by re-measuring.
        let mut blob = std::fs::read(&path).unwrap();
        let mid = blob.len() / 2;
        blob[mid] ^= 0x04;
        std::fs::write(&path, &blob).unwrap();
        let (healed, src) =
            VulnerabilityProfile::load_or_measure(&path, &mut net, &inputs, &cfg, &pool).unwrap();
        assert_eq!(src, ProfileSource::Measured, "corruption must trigger re-measurement");
        assert_eq!(healed, fresh);
        // And the healed artifact is valid again.
        let reread = VulnerabilityProfile::decode(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(reread, fresh);

        // A changed measurement config also re-measures.
        let other = ProfileConfig { seed: cfg.seed + 1, ..cfg.clone() };
        let (_, src) =
            VulnerabilityProfile::load_or_measure(&path, &mut net, &inputs, &other, &pool).unwrap();
        assert_eq!(src, ProfileSource::Measured, "config drift must trigger re-measurement");

        let _ = std::fs::remove_dir_all(&dir);
    }
}
