//! The checked binary codec behind both on-disk artifacts: cached weight
//! blobs (`.pgmr`, written here by [`encode_params`] and decoded by
//! [`StoredModel::from_blob`](crate::store::StoredModel::from_blob)) and
//! vulnerability profiles (`.pgvp`, in `pgmr-faults`). Both share one
//! little-endian frame:
//!
//! ```text
//! magic  4 bytes                         (b"PGMR" / b"PGVP")
//! version u16
//! body_len u32                           (bytes after the checksum field)
//! checksum u64                           (FNV-1a over the body)
//! body
//! ```
//!
//! [`FrameWriter`] writes it; [`FrameReader::open`] checks the magic,
//! version, length and digest before the body is parsed, then hands out a
//! cursor whose every read is bounds-checked and fails with
//! [`DecodeError::Truncated`] instead of panicking. Counts and lengths
//! read from a blob are checked against the bytes that remain before they
//! size anything, so a blob that lies about them (with a recomputed
//! digest) is rejected without a huge allocation.
//!
//! The weight body (`PGMR` version 3):
//!
//! ```text
//! arch_id len u16 + utf-8 bytes
//! tensor count u32
//! per tensor: rank u8, dims u32×rank, data f32×len
//! buffer count u32
//! per buffer: len u32, data f32×len      (batch-norm running statistics)
//! ```
//!
//! The checksum makes storage corruption loud: a single flipped bit
//! anywhere in the body (e.g. in a cached weight) fails verification
//! before any parameter is parsed, instead of silently loading a
//! corrupted network.

use crate::network::Network;
use std::error::Error;
use std::fmt;

/// Magic bytes of a weight blob.
pub(crate) const MAGIC: &[u8; 4] = b"PGMR";
/// Weight blob format version.
pub(crate) const VERSION: u16 = 3;
/// Fixed frame header size: magic (4) + version (2) + body_len (4) +
/// checksum (8).
const HEADER_LEN: usize = 18;

/// Obs counter incremented each time a weight blob passes its FNV-1a body
/// check — the observable behind the store's digest-once-per-blob
/// invariant (the `model_store` bench divides it by tenant count).
pub const DIGEST_VERIFY_COUNTER: &str = "store.digest_verify_total";

/// FNV-1a 64-bit hash. Not cryptographic, but every single-byte change —
/// in particular any single bit flip — provably changes the digest: each
/// step is a bijection of the running state, so for a fixed suffix the
/// final value is injective in every input byte.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Error decoding a framed artifact, or attaching a decoded weight blob
/// to a network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The blob does not start with the expected magic bytes.
    BadMagic,
    /// The blob's format version is unsupported.
    BadVersion(u16),
    /// The blob was written for a different architecture.
    ArchMismatch {
        /// Architecture recorded in the blob.
        expected: String,
        /// Architecture of the network being loaded into.
        found: String,
    },
    /// The blob ended before all declared data was read, or declares a
    /// count or length the remaining bytes cannot hold.
    Truncated,
    /// Bytes are left over after the last declared field.
    TrailingBytes,
    /// The body checksum does not match — the blob was corrupted in
    /// storage (e.g. a flipped bit in a cached weight).
    ChecksumMismatch,
    /// Tensor shapes in the blob are invalid or disagree with the target
    /// network.
    ShapeMismatch,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "missing magic bytes"),
            DecodeError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            DecodeError::ArchMismatch { expected, found } => {
                write!(f, "blob is for architecture {expected}, network is {found}")
            }
            DecodeError::Truncated => write!(f, "blob truncated"),
            DecodeError::TrailingBytes => write!(f, "unexpected bytes after the last field"),
            DecodeError::ChecksumMismatch => {
                write!(f, "blob checksum mismatch (storage corruption)")
            }
            DecodeError::ShapeMismatch => write!(f, "tensor shape mismatch"),
        }
    }
}

impl Error for DecodeError {}

/// Writes one frame: the header, then the body through [`FrameWriter::put`],
/// with the body length and digest patched in by [`FrameWriter::finish`].
pub struct FrameWriter {
    buf: Vec<u8>,
}

impl FrameWriter {
    /// Starts a frame, reserving room for `body_capacity` body bytes.
    pub fn new(magic: &[u8; 4], version: u16, body_capacity: usize) -> Self {
        let mut buf = Vec::with_capacity(HEADER_LEN + body_capacity);
        buf.extend_from_slice(magic);
        buf.extend_from_slice(&version.to_le_bytes());
        buf.resize(HEADER_LEN, 0); // body length and checksum, patched by `finish`
        FrameWriter { buf }
    }

    /// Appends raw bytes (pass `x.to_le_bytes()` for a number).
    pub fn put(&mut self, bytes: impl AsRef<[u8]>) {
        self.buf.extend_from_slice(bytes.as_ref());
    }

    /// Appends a `u16` length and the string's UTF-8 bytes.
    ///
    /// # Panics
    ///
    /// Panics if the string is longer than `u16::MAX` bytes.
    pub fn put_str(&mut self, s: &str) {
        let len = u16::try_from(s.len()).expect("string field longer than u16::MAX bytes");
        self.put(len.to_le_bytes());
        self.put(s);
    }

    /// Patches the body length and FNV-1a digest into the header and
    /// returns the finished frame.
    ///
    /// # Panics
    ///
    /// Panics if the body is longer than `u32::MAX` bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let body = &self.buf[HEADER_LEN..];
        let len = u32::try_from(body.len()).expect("frame body longer than u32::MAX bytes");
        let checksum = fnv1a(body);
        self.buf[6..10].copy_from_slice(&len.to_le_bytes());
        self.buf[10..HEADER_LEN].copy_from_slice(&checksum.to_le_bytes());
        self.buf
    }
}

/// A bounds-checked little-endian cursor over a verified frame body.
/// Every read past the end returns [`DecodeError::Truncated`] instead of
/// panicking.
#[derive(Debug)]
pub struct FrameReader<'a> {
    buf: &'a [u8],
}

impl<'a> FrameReader<'a> {
    /// Checks the frame's magic, version, body length and FNV-1a digest,
    /// and returns a reader positioned at the start of the body.
    ///
    /// # Errors
    ///
    /// [`DecodeError::BadMagic`], [`DecodeError::BadVersion`],
    /// [`DecodeError::Truncated`] when the body is shorter than declared,
    /// [`DecodeError::TrailingBytes`] when the blob runs past it, and
    /// [`DecodeError::ChecksumMismatch`].
    pub fn open(blob: &'a [u8], magic: &[u8; 4], version: u16) -> Result<Self, DecodeError> {
        let mut header = FrameReader { buf: blob };
        if header.bytes(magic.len()) != Ok(magic.as_slice()) {
            return Err(DecodeError::BadMagic);
        }
        let found = header.u16()?;
        if found != version {
            return Err(DecodeError::BadVersion(found));
        }
        let body_len = header.u32()? as usize;
        let checksum = header.u64()?;
        let body = header.bytes(body_len)?;
        header.finish()?;
        if fnv1a(body) != checksum {
            return Err(DecodeError::ChecksumMismatch);
        }
        Ok(FrameReader { buf: body })
    }

    /// Takes the next `n` bytes.
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let (head, rest) = self.buf.split_at_checked(n).ok_or(DecodeError::Truncated)?;
        self.buf = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.bytes(N)?);
        Ok(out)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        self.array().map(u8::from_le_bytes)
    }

    /// Reads a little-endian `u16`.
    fn u16(&mut self) -> Result<u16, DecodeError> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads a string written by [`FrameWriter::put_str`] (invalid UTF-8
    /// is replaced, not rejected).
    pub fn str(&mut self) -> Result<String, DecodeError> {
        let len = self.u16()?;
        Ok(String::from_utf8_lossy(self.bytes(len.into())?).into_owned())
    }

    /// Reads a `u32` record count, rejecting (as `Truncated`) one that the
    /// remaining bytes cannot hold at `min_record` bytes per record — so a
    /// lying count fails here instead of sizing an allocation.
    pub fn count(&mut self, min_record: usize) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        match n.checked_mul(min_record) {
            Some(need) if need <= self.buf.len() => Ok(n),
            _ => Err(DecodeError::Truncated),
        }
    }

    /// Takes the little-endian payload of `len` `f32`s, still as bytes.
    pub(crate) fn f32s(&mut self, len: usize) -> Result<&'a [u8], DecodeError> {
        self.bytes(len.checked_mul(4).ok_or(DecodeError::Truncated)?)
    }

    /// Ends the read.
    ///
    /// # Errors
    ///
    /// [`DecodeError::TrailingBytes`] unless every byte was consumed.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes)
        }
    }
}

/// Decodes a payload taken by [`FrameReader::f32s`] into `dst`.
pub(crate) fn f32s_from_le(payload: &[u8], dst: &mut [f32]) {
    for (d, b) in dst.iter_mut().zip(payload.chunks_exact(4)) {
        *d = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    }
}

/// Serializes a network's parameters and state buffers (not its
/// architecture) into a weight blob. Buffers — batch-norm running
/// statistics — must round-trip too: inference depends on them even
/// though they are not trainable.
pub fn encode_params(net: &mut Network) -> Vec<u8> {
    // Census pass: exact body size from the layer parameter inventory, so
    // the blob is written in one pre-reserved allocation — no intermediate
    // tensor clones or `Vec<Vec<f32>>` staging.
    let arch = net.arch_id().to_string();
    let mut tensor_count = 0u32;
    let mut buffer_count = 0u32;
    let mut body_len = 2 + arch.len() + 4 + 4; // arch header, both counts
    net.visit_slots(&mut |slot| {
        tensor_count += 1;
        body_len += 1 + 4 * slot.value.shape().rank() + 4 * slot.value.len();
    });
    net.visit_buffers(&mut |b| {
        buffer_count += 1;
        body_len += 4 + 4 * b.len();
    });

    let mut w = FrameWriter::new(MAGIC, VERSION, body_len);
    w.put_str(&arch);
    w.put(tensor_count.to_le_bytes());
    net.visit_slots(&mut |slot| {
        let dims = slot.value.shape().dims();
        w.put([dims.len() as u8]);
        for &d in dims {
            w.put((d as u32).to_le_bytes());
        }
        for &v in slot.value.data() {
            w.put(v.to_le_bytes());
        }
    });
    w.put(buffer_count.to_le_bytes());
    net.visit_buffers(&mut |b| {
        w.put((b.len() as u32).to_le_bytes());
        for &v in b.iter() {
            w.put(v.to_le_bytes());
        }
    });
    let blob = w.finish();
    debug_assert_eq!(blob.len(), HEADER_LEN + body_len, "census disagreed with the stream");
    blob
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoredModel;
    use crate::zoo::{build, ArchSpec};
    use pgmr_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Loads `blob` into `net` the only way there is: decode, then attach.
    fn load(net: &mut Network, blob: &[u8]) -> Result<(), DecodeError> {
        StoredModel::from_blob(blob)?.attach(net)
    }

    #[test]
    fn round_trip_preserves_predictions() {
        let spec = ArchSpec::convnet(1, 8, 8, 4);
        let mut net = build(&spec, 3);
        let blob = encode_params(&mut net);
        let mut fresh = build(&spec, 99);
        load(&mut fresh, &blob).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let x = Tensor::uniform(vec![2, 1, 8, 8], -1.0, 1.0, &mut rng);
        assert_eq!(net.predict_proba(&x), fresh.predict_proba(&x));
    }

    #[test]
    fn round_trip_preserves_batchnorm_running_stats() {
        // Regression test: running statistics are not trainable parameters
        // but inference depends on them; a codec that drops them silently
        // collapses the accuracy of every reloaded BN network.
        use crate::loss::softmax_cross_entropy;
        use crate::optim::Sgd;
        let spec = ArchSpec::resnet20_mini(1, 8, 8, 4);
        let mut net = build(&spec, 3);
        // A few training steps so running stats move off their defaults.
        let mut rng = StdRng::seed_from_u64(1);
        let mut opt = Sgd::new(0.05, 0.9, 0.0);
        for _ in 0..5 {
            let x = Tensor::uniform(vec![8, 1, 8, 8], 0.0, 1.0, &mut rng);
            net.zero_grads();
            let logits = net.forward(&x, true);
            let (_, grad) = softmax_cross_entropy(&logits, &[0, 1, 2, 3, 0, 1, 2, 3]);
            net.backward(&grad);
            opt.step(&mut net);
        }
        let blob = encode_params(&mut net);
        let mut fresh = build(&spec, 77);
        load(&mut fresh, &blob).unwrap();
        let x = Tensor::uniform(vec![4, 1, 8, 8], 0.0, 1.0, &mut rng);
        assert_eq!(
            net.predict_proba(&x),
            fresh.predict_proba(&x),
            "inference after reload must be bit-identical, including BN stats"
        );
        // And the buffers themselves round-tripped.
        let mut orig_buffers = Vec::new();
        net.visit_buffers(&mut |b| orig_buffers.push(b.clone()));
        let mut new_buffers = Vec::new();
        fresh.visit_buffers(&mut |b| new_buffers.push(b.clone()));
        assert_eq!(orig_buffers, new_buffers);
        assert!(!orig_buffers.is_empty(), "resnet must expose BN buffers");
    }

    #[test]
    fn rejects_garbage() {
        let spec = ArchSpec::convnet(1, 8, 8, 4);
        let mut net = build(&spec, 0);
        assert_eq!(load(&mut net, b"nope"), Err(DecodeError::BadMagic));
    }

    #[test]
    fn single_bit_flips_anywhere_are_rejected() {
        let spec = ArchSpec::convnet(1, 8, 8, 4);
        let mut net = build(&spec, 1);
        let blob = encode_params(&mut net);
        let mut victim = build(&spec, 2);
        let before = victim.state_dict();
        // Header flips trip magic/version/length checks; body flips (the
        // weight payload starts at byte 18) trip the FNV checksum.
        for pos in [0usize, 5, 18, blob.len() / 2, blob.len() - 1] {
            for bit in [0u8, 3, 7] {
                let mut bad = blob.clone();
                bad[pos] ^= 1 << bit;
                assert!(
                    load(&mut victim, &bad).is_err(),
                    "bit {bit} of byte {pos} flipped silently"
                );
                assert_eq!(victim.state_dict(), before);
            }
        }
        // Payload corruption specifically reports the checksum.
        let mut bad = blob.clone();
        bad[blob.len() - 2] ^= 0x10;
        assert_eq!(load(&mut victim, &bad), Err(DecodeError::ChecksumMismatch));
    }

    #[test]
    fn rejects_truncated_blob() {
        let spec = ArchSpec::convnet(1, 8, 8, 4);
        let mut net = build(&spec, 0);
        let blob = encode_params(&mut net);
        let cut = &blob[..blob.len() / 2];
        assert_eq!(load(&mut net, cut), Err(DecodeError::Truncated));
    }

    #[test]
    fn rejects_wrong_architecture() {
        let mut a = build(&ArchSpec::convnet(1, 8, 8, 4), 0);
        let mut b = build(&ArchSpec::lenet5(1, 16, 16, 10), 0);
        let blob = encode_params(&mut a);
        match load(&mut b, &blob) {
            Err(DecodeError::ArchMismatch { .. }) => {}
            other => panic!("expected arch mismatch, got {other:?}"),
        }
    }

    #[test]
    fn error_messages_are_informative() {
        let err = DecodeError::BadVersion(9);
        assert!(err.to_string().contains('9'));
    }
}
