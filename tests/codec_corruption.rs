//! Structure-aware corruption of both on-disk artifacts: `.pgmr` weight
//! blobs and `.pgvp` vulnerability profiles.
//!
//! The FNV-1a digest rejects random storage corruption, so these cases
//! recompute it: each one is a blob that passes the frame check yet lies
//! about its own layout. Every truncation and every count, rank, dim and
//! length field rewritten to 0, 1, one past what the remaining bytes can
//! hold, and the field's maximum must come back as an `Err` — never a
//! panic, an abort or a huge allocation — and leave the model store
//! untouched. A rewrite that keeps the payload length consistent (dims
//! reordered) still decodes, and must then fail `attach` without touching
//! the target network.
//!
//! CI also runs this file in release, where integer overflow wraps
//! silently instead of panicking.

use pgmr::faults::{ProfileConfig, VulnerabilityProfile, EXPONENT_BITS};
use pgmr::nn::serialize::{encode_params, fnv1a, DecodeError};
use pgmr::nn::zoo::{build, ArchSpec};
use pgmr::nn::{ModelStore, Network, StoredModel};
use pgmr::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Frame header: magic (4) + version (2) + body length (4) + digest (8).
const HEADER_LEN: usize = 18;

/// An integer field of a blob body that sizes what follows it.
#[derive(Debug, Clone, Copy)]
struct Field {
    /// Byte offset in the blob.
    at: usize,
    /// Width in bytes: 1, 2 or 4.
    width: usize,
    /// Body bytes each unit of the field's value claims; a value above
    /// `remaining / unit` cannot fit in what follows the field.
    unit: usize,
}

impl Field {
    fn read(&self, blob: &[u8]) -> u64 {
        let mut le = [0u8; 8];
        le[..self.width].copy_from_slice(&blob[self.at..self.at + self.width]);
        u64::from_le_bytes(le)
    }

    /// The lies to tell: 0, 1, one past what the bytes after the field
    /// can hold, and the field's maximum.
    fn lies(&self, blob: &[u8]) -> [u64; 4] {
        let max = (1u64 << (8 * self.width)) - 1;
        let remaining = (blob.len() - self.at - self.width) as u64;
        [0, 1, (remaining / self.unit as u64 + 1).min(max), max]
    }
}

/// Writes `value` into `field` and recomputes the body length and digest
/// so the frame check passes.
fn rewrite(blob: &[u8], field: Field, value: u64) -> Vec<u8> {
    let mut bad = blob.to_vec();
    bad[field.at..field.at + field.width].copy_from_slice(&value.to_le_bytes()[..field.width]);
    refresh_frame(&mut bad);
    bad
}

fn refresh_frame(blob: &mut [u8]) {
    let body_len = (blob.len() - HEADER_LEN) as u32;
    let digest = fnv1a(&blob[HEADER_LEN..]);
    blob[6..10].copy_from_slice(&body_len.to_le_bytes());
    blob[10..HEADER_LEN].copy_from_slice(&digest.to_le_bytes());
}

/// A little-endian cursor for walking a blob's layout in this test,
/// independently of the decoder under test.
struct Walk<'a> {
    blob: &'a [u8],
    at: usize,
}

impl Walk<'_> {
    fn field(&mut self, width: usize, unit: usize) -> (Field, usize) {
        let field = Field { at: self.at, width, unit };
        self.at += width;
        (field, field.read(self.blob) as usize)
    }
}

/// One tensor record of a weight blob: where its rank byte sits, and its
/// dim fields with their values.
struct TensorRecord {
    rank_at: usize,
    dims: Vec<(Field, usize)>,
}

/// Every sizing field of a `PGMR` v3 blob, plus the tensor records.
fn weight_layout(blob: &[u8]) -> (Vec<Field>, Vec<TensorRecord>) {
    let mut walk = Walk { blob, at: HEADER_LEN };
    let mut fields = Vec::new();
    let (arch_len, n) = walk.field(2, 1);
    fields.push(arch_len);
    walk.at += n;
    // The smallest tensor record is a rank-0 scalar: rank byte + one f32.
    let (count, tensors) = walk.field(4, 5);
    fields.push(count);
    let mut records = Vec::new();
    for _ in 0..tensors {
        let (rank_field, rank) = walk.field(1, 4);
        fields.push(rank_field);
        let dims: Vec<(Field, usize)> = (0..rank).map(|_| walk.field(4, 4)).collect();
        let len: usize = dims.iter().map(|&(_, d)| d).product();
        for (i, &(field, _)) in dims.iter().enumerate() {
            let others: usize =
                dims.iter().enumerate().filter(|&(j, _)| j != i).map(|(_, d)| d.1).product();
            fields.push(Field { unit: 4 * others, ..field });
        }
        walk.at += 4 * len;
        records.push(TensorRecord { rank_at: rank_field.at, dims });
    }
    let (buffer_count, buffers) = walk.field(4, 4);
    fields.push(buffer_count);
    for _ in 0..buffers {
        let (len_field, len) = walk.field(4, 4);
        fields.push(len_field);
        walk.at += 4 * len;
    }
    assert_eq!(walk.at, blob.len(), "test walker disagrees with the v3 layout");
    (fields, records)
}

/// Every sizing field of a `PGVP` v1 profile.
fn profile_layout(blob: &[u8]) -> Vec<Field> {
    let mut walk = Walk { blob, at: HEADER_LEN };
    let (arch_len, n) = walk.field(2, 1);
    walk.at += n + 8 + 8 + 2 + 4; // seed, rate, bit range, trials per site
    let (count, sites) = walk.field(4, 4 * 4 + 8);
    walk.at += sites * (4 * 4 + 8);
    assert_eq!(walk.at, blob.len(), "test walker disagrees with the v1 layout");
    vec![arch_len, count]
}

/// The six benchmark networks of `arena_parity.rs`; the batch-norm nets
/// carry trained running statistics.
fn zoo_blobs() -> Vec<(ArchSpec, Vec<u8>)> {
    let specs = [
        ArchSpec::lenet5(1, 12, 12, 4),
        ArchSpec::convnet(1, 8, 8, 4),
        ArchSpec::resnet20_mini(1, 8, 8, 4),
        ArchSpec::densenet_mini(1, 8, 8, 4),
        ArchSpec::alexnet_mini(1, 8, 8, 4),
        ArchSpec::resnet34_mini(1, 8, 8, 4),
    ];
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    specs
        .into_iter()
        .map(|spec| {
            let mut net = build(&spec, 31);
            let x = Tensor::uniform(vec![4, spec.in_c, spec.in_h, spec.in_w], -1.0, 1.0, &mut rng);
            net.forward(&x, true); // moves the batch-norm running statistics
            let blob = encode_params(&mut net);
            (spec, blob)
        })
        .collect()
}

fn measured_profile_blob() -> Vec<u8> {
    let spec = ArchSpec::convnet(1, 8, 8, 4);
    let mut net = build(&spec, 3);
    let mut rng = StdRng::seed_from_u64(4);
    let inputs: Vec<Tensor> =
        (0..2).map(|_| Tensor::uniform(vec![1, 1, 8, 8], -1.0, 1.0, &mut rng)).collect();
    let cfg = ProfileConfig { trials_per_site: 4, seed: 5, rate: 5e-3, bits: EXPONENT_BITS };
    VulnerabilityProfile::measure(&mut net, &inputs, &cfg, &pgmr::nn::WorkerPool::new(1)).encode()
}

fn buffers(net: &mut Network) -> Vec<Vec<f32>> {
    let mut out = Vec::new();
    net.visit_buffers(&mut |b| out.push(b.clone()));
    out
}

/// `store.insert` (which runs `StoredModel::from_blob`) must reject `bad`
/// and leave the store empty.
fn assert_rejected(store: &ModelStore, bad: &[u8], what: &str) {
    match store.insert("victim", bad) {
        Err(_) => {}
        Ok(m) => panic!("{what}: decoded as {}", m.arch_id()),
    }
    assert_eq!((store.blobs(), store.resident_bytes()), (0, 0), "{what}: store changed");
}

#[test]
fn weight_blob_truncated_at_every_offset_is_rejected() {
    let store = ModelStore::new();
    for (spec, blob) in zoo_blobs() {
        for cut in 0..blob.len() {
            assert_rejected(&store, &blob[..cut], &format!("{} cut at {cut}", spec.arch_id()));
        }
    }
}

#[test]
fn weight_blob_lying_about_any_size_is_rejected() {
    let store = ModelStore::new();
    for (spec, blob) in zoo_blobs() {
        let (fields, _) = weight_layout(&blob);
        for field in fields {
            let original = field.read(&blob);
            for value in field.lies(&blob).into_iter().filter(|&v| v != original) {
                let bad = rewrite(&blob, field, value);
                let what = format!("{} field at {} = {value}", spec.arch_id(), field.at);
                assert_rejected(&store, &bad, &what);
            }
        }
    }
}

/// A record rewritten to rank 4 with dims whose product wraps modulo 2^64
/// to the element count that keeps the layout consistent. The extra dim
/// fields take the place of the first `4 − rank` payload floats, so the
/// wrapped count is `len − (4 − rank)`. (2^32−1)² ≡ 1 − 2^33, whose
/// inverse is 1 + 2^33 = 3 · 0xAAAA_AAAB, so the dims
/// `[2^32−1, 2^32−1, 3·count, 0xAAAA_AAAB]` multiply to `count` once
/// wrapped. Only checked arithmetic, not a debug build's overflow panic,
/// keeps a decoder from accepting such a blob.
#[test]
fn dims_whose_product_wraps_to_a_consistent_length_are_rejected() {
    let store = ModelStore::new();
    for (spec, blob) in zoo_blobs() {
        let (_, records) = weight_layout(&blob);
        for record in records.iter().filter(|r| r.dims.len() <= 4) {
            let len: usize = record.dims.iter().map(|&(_, d)| d).product();
            let Some(count) = len.checked_sub(4 - record.dims.len()).filter(|&c| c > 0) else {
                continue;
            };
            let lie = [u32::MAX, u32::MAX, 3 * count as u32, 0xAAAA_AAAB];
            assert_eq!(lie.iter().fold(1u64, |p, &d| p.wrapping_mul(d.into())), count as u64);
            let mut bad = blob.clone();
            bad[record.rank_at] = 4;
            for (i, d) in lie.iter().enumerate() {
                let at = record.rank_at + 1 + 4 * i;
                bad[at..at + 4].copy_from_slice(&d.to_le_bytes());
            }
            refresh_frame(&mut bad);
            assert_rejected(&store, &bad, &format!("{} wrapped dims {lie:?}", spec.arch_id()));
        }
    }
}

/// A record rewritten to rank 5, one more dim than a tensor holds, with
/// dims of 1 appended after its own: the element count, the payload and
/// the rest of the layout still agree, so only the rank bound stops it.
/// The decoder must refuse the rank before it builds a shape, not leave
/// the mismatch to `attach`.
#[test]
fn rank_above_four_is_rejected_at_decode() {
    let store = ModelStore::new();
    for (spec, blob) in zoo_blobs() {
        let (_, records) = weight_layout(&blob);
        for record in records {
            let dims_end = record.rank_at + 1 + 4 * record.dims.len();
            let mut bad = blob[..dims_end].to_vec();
            bad[record.rank_at] = 5;
            for _ in record.dims.len()..5 {
                bad.extend_from_slice(&1u32.to_le_bytes());
            }
            bad.extend_from_slice(&blob[dims_end..]);
            refresh_frame(&mut bad);
            let what = format!("{} rank 5 at {}", spec.arch_id(), record.rank_at);
            let err = StoredModel::from_blob(&bad).err();
            assert_eq!(err, Some(DecodeError::ShapeMismatch), "{what}");
            assert_rejected(&store, &bad, &what);
        }
    }
}

#[test]
fn reordered_dims_decode_but_never_attach() {
    for (spec, blob) in zoo_blobs() {
        let (_, records) = weight_layout(&blob);
        let mut victim = build(&spec, 77);
        let (params, bufs) = (victim.state_dict(), buffers(&mut victim));
        let mut reordered = 0;
        for record in records {
            let dims: Vec<usize> = record.dims.iter().map(|&(_, d)| d).collect();
            let mut reversed = dims.clone();
            reversed.reverse();
            if reversed == dims {
                continue;
            }
            let mut bad = blob.clone();
            for (&(field, _), d) in record.dims.iter().zip(&reversed) {
                bad[field.at..field.at + 4].copy_from_slice(&(*d as u32).to_le_bytes());
            }
            refresh_frame(&mut bad);
            let stored = StoredModel::from_blob(&bad).expect("a consistent length still decodes");
            assert_eq!(stored.attach(&mut victim), Err(DecodeError::ShapeMismatch));
            assert_eq!(
                victim.state_dict(),
                params,
                "{}: failed attach mutated weights",
                spec.arch_id()
            );
            assert_eq!(
                buffers(&mut victim),
                bufs,
                "{}: failed attach mutated buffers",
                spec.arch_id()
            );
            reordered += 1;
        }
        assert!(reordered > 0, "{} has no tensor whose dims can be reordered", spec.arch_id());
    }
}

#[test]
fn profile_truncated_or_lying_about_any_size_is_rejected() {
    let blob = measured_profile_blob();
    VulnerabilityProfile::decode(&blob).expect("the clean profile decodes");
    for cut in 0..blob.len() {
        assert!(VulnerabilityProfile::decode(&blob[..cut]).is_err(), "cut at {cut} decoded");
    }
    for field in profile_layout(&blob) {
        let original = field.read(&blob);
        for value in field.lies(&blob).into_iter().filter(|&v| v != original) {
            let bad = rewrite(&blob, field, value);
            assert!(
                VulnerabilityProfile::decode(&bad).is_err(),
                "field at {} = {value} decoded",
                field.at
            );
        }
    }
}
