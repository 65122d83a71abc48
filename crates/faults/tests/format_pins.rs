//! Format pin for `PGVP` v1 vulnerability profiles: the length and FNV-1a
//! digest of `VulnerabilityProfile::encode` for one seeded profile,
//! recorded from the codec as it stood before the shared frame writer and
//! reader replaced its hand-written framing. Never regenerate the pin. A
//! mismatch means the encoded bytes changed, and every cached `.pgvp`
//! artifact would be re-measured. The pinned bytes must also decode back
//! to the same profile.

use pgmr_faults::{ProfileConfig, SiteTally, VulnerabilityProfile};
use pgmr_nn::serialize::fnv1a;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `(blob length, FNV-1a of the whole blob)`.
const PIN: (usize, u64) = (278, 0x1d26635a31976c21);

fn seeded_profile() -> VulnerabilityProfile {
    let mut rng = StdRng::seed_from_u64(0x5047_5650);
    let sites = (1..=9)
        .map(|site| SiteTally {
            site,
            masked: rng.gen_range(0..100_000usize),
            sdc: rng.gen_range(0..100_000usize),
            detected: rng.gen_range(0..100_000usize),
            injected: rng.gen_range(0..1usize << 40),
        })
        .collect();
    let config = ProfileConfig { trials_per_site: 40, seed: 7, rate: 1e-3, bits: 23..=30 };
    VulnerabilityProfile { arch_id: "lenet5-1x12x12-4".into(), config, sites }
}

#[test]
fn profile_keeps_the_pinned_bytes_and_round_trips() {
    let profile = seeded_profile();
    let blob = profile.encode();
    assert_eq!((blob.len(), fnv1a(&blob)), PIN, "the encoded bytes drifted from the pinned format");
    let decoded = VulnerabilityProfile::decode(&blob).expect("pinned profile decodes");
    assert_eq!(decoded, profile);
    assert_eq!(decoded.encode(), blob);
}
