//! The process-wide model store: shared, digest-verified, read-only
//! weight arenas behind multi-tenant member sharing.
//!
//! A [`StoredModel`] is one decoded blob — a single 64-byte-aligned
//! [`WeightArena`] holding every parameter tensor, verified against its
//! FNV-1a digest exactly once at load time. Any number of tenants
//! (ensemble members, serve worker replicas)
//! [`attach`](StoredModel::attach) to it: attaching swaps the network's
//! owned parameter tensors for arena-shared ones ([`Tensor::shared`]), so
//! an additional tenant costs per-tenant state buffers (batch-norm running
//! statistics) and bookkeeping — never another weight copy and never
//! another digest verification.
//!
//! The [`model_store`] singleton keys models by their cache path, which
//! the `suite` blob cache feeds directly; tests that redirect the cache
//! directory get distinct keys for free, and [`ModelStore::clear`]
//! restores a cold store.
//!
//! Observability: `store.resident_bytes`, `store.blobs`, and
//! `store.bytes_per_tenant` gauges track the arena population;
//! `store.load_ns` times cold blob decodes; the digest-once rule is
//! observable through [`crate::serialize::DIGEST_VERIFY_COUNTER`].

use crate::network::Network;
use crate::serialize::{
    f32s_from_le, DecodeError, FrameReader, DIGEST_VERIFY_COUNTER, MAGIC, VERSION,
};
use crate::ParamSlot;
use pgmr_tensor::{align_offset, Shape, Tensor, WeightArena, MAX_RANK};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// One decoded weight blob: a shared weight arena — one 64-byte-aligned
/// allocation, every parameter tensor a read-only slice of it — plus the
/// per-tenant template state (batch-norm running statistics, which each
/// tenant copies because they are mutable inference state).
#[derive(Debug)]
pub struct StoredModel {
    arch_id: String,
    arena: Arc<WeightArena>,
    /// One arena-shared tensor per parameter, in `visit_slots` order.
    params: Vec<Tensor>,
    /// Non-trainable state buffers, in `visit_buffers` order.
    buffers: Vec<Vec<f32>>,
}

impl StoredModel {
    /// Decodes a blob written by [`crate::serialize::encode_params`] — the
    /// only weight decoder. The FNV-1a digest is verified exactly once,
    /// before any record is parsed (counted into [`DIGEST_VERIFY_COUNTER`]);
    /// one walk then validates every tensor record (a rank above
    /// [`MAX_RANK`] or a zero dimension is a [`DecodeError::ShapeMismatch`])
    /// and lays it out at a cache-line-aligned arena offset, and one copy
    /// fills the arena. The decode is timed into the `store.load_ns`
    /// histogram (the cold-start load cost the bench reports).
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when the blob is malformed or corrupt.
    pub fn from_blob(blob: &[u8]) -> Result<Self, DecodeError> {
        pgmr_obs::global().timer("store.load_ns").time(|| Self::decode(blob))
    }

    fn decode(blob: &[u8]) -> Result<Self, DecodeError> {
        let mut body = FrameReader::open(blob, MAGIC, VERSION)?;
        pgmr_obs::global().counter(DIGEST_VERIFY_COUNTER).inc();
        let arch_id = body.str()?;

        // The smallest tensor record is a rank-0 scalar: rank byte + one f32.
        let count = body.count(5)?;
        let mut records = Vec::with_capacity(count); // (arena offset, shape, payload)
        let mut arena_len = 0usize;
        for _ in 0..count {
            let rank = usize::from(body.u8()?);
            if rank > MAX_RANK {
                return Err(DecodeError::ShapeMismatch);
            }
            let mut dims = [0; MAX_RANK];
            let mut len = 1usize;
            for dim in &mut dims[..rank] {
                *dim = body.u32()? as usize;
                if *dim == 0 {
                    return Err(DecodeError::ShapeMismatch);
                }
                len = len.checked_mul(*dim).ok_or(DecodeError::Truncated)?;
            }
            let payload = body.f32s(len)?;
            let offset = align_offset(arena_len);
            arena_len = offset + len;
            records.push((offset, Shape::new(&dims[..rank]), payload));
        }

        // Buffers stay owned: tenants mutate them during calibration, so
        // each attach copies them.
        let buffer_count = body.count(4)?;
        let mut buffers = Vec::with_capacity(buffer_count);
        for _ in 0..buffer_count {
            let len = body.u32()? as usize;
            let payload = body.f32s(len)?;
            let mut data = vec![0.0; len];
            f32s_from_le(payload, &mut data);
            buffers.push(data);
        }
        body.finish()?;

        let mut arena = WeightArena::new_zeroed(arena_len);
        let dst = arena.data_mut();
        for (offset, shape, payload) in &records {
            f32s_from_le(payload, &mut dst[*offset..*offset + shape.len()]);
        }
        let arena = Arc::new(arena);
        let params = records
            .into_iter()
            .map(|(offset, shape, _)| Tensor::shared(Arc::clone(&arena), offset, shape))
            .collect();
        Ok(StoredModel { arch_id, arena, params, buffers })
    }

    /// Architecture the stored blob was written for.
    pub fn arch_id(&self) -> &str {
        &self.arch_id
    }

    /// Resident bytes of the shared arena allocation.
    pub fn resident_bytes(&self) -> usize {
        self.arena.resident_bytes()
    }

    /// Attaches `net` as a tenant: every parameter slot's value becomes an
    /// arena-shared tensor with no gradient until a backward pass writes
    /// one ([`ParamSlot::new`]), and the state buffers are copied (they
    /// are mutable per-tenant inference state). No weight bytes are copied
    /// and the digest is not re-verified.
    ///
    /// Shapes are validated up front; on error the network is untouched.
    ///
    /// # Errors
    ///
    /// [`DecodeError::ArchMismatch`] when `net` was built for a different
    /// architecture, [`DecodeError::ShapeMismatch`] when the slot or
    /// buffer inventory disagrees.
    pub fn attach(&self, net: &mut Network) -> Result<(), DecodeError> {
        if net.arch_id() != self.arch_id {
            return Err(DecodeError::ArchMismatch {
                expected: self.arch_id.clone(),
                found: net.arch_id().to_string(),
            });
        }
        let mut ok = true;
        {
            let mut i = 0;
            let params = &self.params;
            net.visit_slots(&mut |slot| {
                if i >= params.len() || slot.value.shape() != params[i].shape() {
                    ok = false;
                }
                i += 1;
            });
            if i != params.len() {
                ok = false;
            }
        }
        {
            let mut i = 0;
            let buffers = &self.buffers;
            net.visit_buffers(&mut |b| {
                if i >= buffers.len() || b.len() != buffers[i].len() {
                    ok = false;
                }
                i += 1;
            });
            if i != buffers.len() {
                ok = false;
            }
        }
        if !ok {
            return Err(DecodeError::ShapeMismatch);
        }
        let mut i = 0;
        let params = &self.params;
        net.visit_slots(&mut |slot| {
            *slot = ParamSlot::new(params[i].clone());
            i += 1;
        });
        let mut i = 0;
        let buffers = &self.buffers;
        net.visit_buffers(&mut |b| {
            b.copy_from_slice(&buffers[i]);
            i += 1;
        });
        Ok(())
    }
}

/// Bookkeeping for one stored blob.
struct Entry {
    model: Arc<StoredModel>,
    tenants: u64,
}

/// A keyed collection of [`StoredModel`]s with tenant accounting. The
/// canonical instance is [`model_store`]; tests may build private stores.
#[derive(Default)]
pub struct ModelStore {
    entries: Mutex<HashMap<String, Entry>>,
}

impl ModelStore {
    /// An empty store.
    pub fn new() -> Self {
        ModelStore::default()
    }

    /// The stored model under `key`, if any, counting the caller as a new
    /// tenant of it.
    pub fn get(&self, key: &str) -> Option<Arc<StoredModel>> {
        let mut entries = self.entries.lock().expect("model store mutex poisoned");
        let found = entries.get_mut(key).map(|e| {
            e.tenants += 1;
            Arc::clone(&e.model)
        });
        if found.is_some() {
            Self::publish(&entries);
        }
        found
    }

    /// Decodes `blob` (digest verified once, load timed) and stores it
    /// under `key`, counting the caller as its first tenant. Replaces any
    /// existing entry — the self-heal path after a corrupt blob was
    /// re-trained and re-written.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when the blob is malformed or corrupt;
    /// the store is unchanged.
    pub fn insert(&self, key: &str, blob: &[u8]) -> Result<Arc<StoredModel>, DecodeError> {
        let model = Arc::new(StoredModel::from_blob(blob)?);
        let mut entries = self.entries.lock().expect("model store mutex poisoned");
        entries.insert(key.to_string(), Entry { model: Arc::clone(&model), tenants: 1 });
        Self::publish(&entries);
        Ok(model)
    }

    /// Number of resident blobs.
    pub fn blobs(&self) -> usize {
        self.entries.lock().expect("model store mutex poisoned").len()
    }

    /// Total resident arena bytes across all blobs.
    pub fn resident_bytes(&self) -> usize {
        let entries = self.entries.lock().expect("model store mutex poisoned");
        entries.values().map(|e| e.model.resident_bytes()).sum()
    }

    /// Total tenants attached across all blobs.
    pub fn tenants(&self) -> u64 {
        let entries = self.entries.lock().expect("model store mutex poisoned");
        entries.values().map(|e| e.tenants).sum()
    }

    /// Drops every stored blob (tests and cache-reset paths). Tenants that
    /// already attached keep their arenas alive through their own `Arc`s.
    pub fn clear(&self) {
        let mut entries = self.entries.lock().expect("model store mutex poisoned");
        entries.clear();
        Self::publish(&entries);
    }

    /// Refreshes the store gauges from the entry map (called with the lock
    /// held — gauge writes are lock-free atomics).
    fn publish(entries: &HashMap<String, Entry>) {
        let resident: usize = entries.values().map(|e| e.model.resident_bytes()).sum();
        let tenants: u64 = entries.values().map(|e| e.tenants).sum();
        let obs = pgmr_obs::global();
        obs.gauge("store.resident_bytes").set(resident as f64);
        obs.gauge("store.blobs").set(entries.len() as f64);
        obs.gauge("store.bytes_per_tenant").set(if tenants == 0 {
            0.0
        } else {
            resident as f64 / tenants as f64
        });
    }
}

/// The process-wide model store.
pub fn model_store() -> &'static ModelStore {
    static STORE: OnceLock<ModelStore> = OnceLock::new();
    STORE.get_or_init(ModelStore::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serialize::encode_params;
    use crate::zoo::{build, ArchSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn attach_is_bit_identical_to_owned() {
        let spec = ArchSpec::lenet5(1, 8, 8, 4);
        let mut net = build(&spec, 11);
        let blob = encode_params(&mut net);
        let stored = StoredModel::from_blob(&blob).unwrap();
        assert_eq!(stored.arch_id(), net.arch_id());
        assert!(stored.resident_bytes() > 0);

        let mut tenant = build(&spec, 99);
        stored.attach(&mut tenant).unwrap();
        let mut shared = 0;
        tenant.read_slots(&mut |s| shared += usize::from(s.value.is_shared()));
        assert!(shared > 0, "attached tenant must borrow from the arena");

        let mut rng = StdRng::seed_from_u64(0);
        let x = Tensor::uniform(vec![3, 1, 8, 8], -1.0, 1.0, &mut rng);
        assert_eq!(net.predict_proba(&x), tenant.predict_proba(&x));
    }

    #[test]
    fn attach_rejects_wrong_architecture() {
        let mut a = build(&ArchSpec::convnet(1, 8, 8, 4), 0);
        let blob = encode_params(&mut a);
        let stored = StoredModel::from_blob(&blob).unwrap();
        let mut b = build(&ArchSpec::lenet5(1, 16, 16, 10), 0);
        match stored.attach(&mut b) {
            Err(DecodeError::ArchMismatch { .. }) => {}
            other => panic!("expected arch mismatch, got {other:?}"),
        }
    }

    #[test]
    fn store_shares_one_arena_across_tenants() {
        let store = ModelStore::new();
        let spec = ArchSpec::convnet(1, 8, 8, 4);
        let mut net = build(&spec, 5);
        let blob = encode_params(&mut net);
        assert!(store.get("k").is_none());
        let first = store.insert("k", &blob).unwrap();
        let second = store.get("k").expect("hit after insert");
        assert!(Arc::ptr_eq(&first, &second), "tenants must share one arena");
        assert_eq!(store.blobs(), 1);
        assert_eq!(store.tenants(), 2);
        assert_eq!(store.resident_bytes(), first.resident_bytes());
        store.clear();
        assert_eq!(store.blobs(), 0);
        assert!(store.get("k").is_none());
    }
}
