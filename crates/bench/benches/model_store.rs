//! Model store bench — what the zero-copy weight arena buys multi-tenant
//! deployments.
//!
//! Not a paper exhibit: this harness measures the three properties the
//! shared model store promises. (1) **Resident bytes per additional
//! tenant**: before the arena, every tenant (ensemble member, serve
//! worker replica) deep-copied the full weight set; after, a tenant holds
//! only its private state buffers (batch-norm running statistics) and
//! borrows every weight tensor from the shared arena. (2) **Cold-start
//! load latency**: decoding a blob into the arena, digest verification
//! included. (3) **Digest verifications per blob**: the FNV-1a check runs
//! exactly once when the blob becomes resident — never again per tenant
//! or per worker, observable through the `store.digest_verify_total`
//! counter.
//!
//! Writes `BENCH_model_store.json` with a `store_ok` verdict CI gates on:
//! per-additional-tenant resident bytes under 10% of a full member copy,
//! exactly one digest verification per blob, and every tenant
//! bit-identical to the owned-weight network.

use std::time::Instant;

use pgmr_bench::{banner, scale};
use pgmr_nn::serialize::{encode_params, DIGEST_VERIFY_COUNTER};
use pgmr_nn::zoo::{build, ArchSpec};
use pgmr_nn::{ModelStore, Network};
use pgmr_tensor::Tensor;
use polygraph_mr::suite::Scale;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[global_allocator]
static ALLOC: pgmr_bench::alloc_counter::CountingAlloc = pgmr_bench::alloc_counter::CountingAlloc;

/// Bytes a network holds privately: owned parameter tensors, materialized
/// gradients, and state buffers. Arena-borrowed weights count zero — they
/// are resident in the shared arena, not in the tenant.
fn private_bytes(net: &mut Network) -> usize {
    let mut bytes = 0usize;
    net.read_slots(&mut |s| {
        if !s.value.is_shared() {
            bytes += s.value.len() * 4;
        }
        bytes += s.grad().len() * 4;
    });
    net.visit_buffers(&mut |b| bytes += b.len() * 4);
    bytes
}

fn main() {
    banner("Model store", "zero-copy weight arena: resident bytes, load latency, digest-once");
    let tenants = match scale() {
        Scale::Tiny => 4,
        Scale::Small => 8,
        Scale::Full => 16,
    };
    let spec = ArchSpec::lenet5(1, 16, 16, 10);
    let mut owned = build(&spec, 7);
    let blob = encode_params(&mut owned);
    let full_copy_bytes = private_bytes(&mut owned);
    println!(
        "arch: {}   blob: {} bytes   full member copy: {} bytes   tenants: {tenants}",
        spec.arch_id(),
        blob.len(),
        full_copy_bytes
    );

    // Cold-start load latency: a fresh store decodes the blob (digest
    // verified) into a new arena each round.
    let store = ModelStore::new();
    let mut load_ms = Vec::new();
    for _ in 0..7 {
        store.clear();
        let t = Instant::now();
        store.insert("bench", &blob).expect("valid blob");
        load_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let load_min = load_ms.iter().cloned().fold(f64::INFINITY, f64::min);
    let load_mean = load_ms.iter().sum::<f64>() / load_ms.len() as f64;

    // Digest-once + tenant accounting: one resident blob, `tenants`
    // attached networks, one digest verification total.
    let digest_before = pgmr_obs::global().counter(DIGEST_VERIFY_COUNTER).get();
    store.clear();
    let stored = store.insert("bench", &blob).expect("valid blob");
    let mut members: Vec<Network> = Vec::with_capacity(tenants);
    for k in 0..tenants {
        let mut net = build(&spec, 1000 + k as u64);
        let resolved = store.get("bench").expect("blob stays resident");
        resolved.attach(&mut net).expect("same architecture attaches");
        members.push(net);
    }
    let digest_verifications =
        pgmr_obs::global().counter(DIGEST_VERIFY_COUNTER).get() - digest_before;

    let arena_bytes = stored.resident_bytes();
    let tenant_bytes: Vec<usize> = members.iter_mut().map(private_bytes).collect();
    let per_additional = *tenant_bytes.iter().max().unwrap_or(&0);

    // Parity: every tenant must be bit-identical to the owned network.
    let mut rng = StdRng::seed_from_u64(0);
    let x = Tensor::uniform(vec![4, spec.in_c, spec.in_h, spec.in_w], -1.0, 1.0, &mut rng);
    let want = owned.predict_logits(&x);
    let tenants_identical = members.iter_mut().all(|m| m.predict_logits(&x) == want);

    // The serve replica path: cloning an arena tenant must not copy
    // weights (allocation events, since the counter tracks events).
    let e0 = pgmr_bench::alloc_counter::alloc_events();
    let owned_clone = owned.clone();
    let e1 = pgmr_bench::alloc_counter::alloc_events();
    let shared_clone = members[0].clone();
    let e2 = pgmr_bench::alloc_counter::alloc_events();
    drop((owned_clone, shared_clone));
    let (owned_clone_events, shared_clone_events) = (e1 - e0, e2 - e1);

    println!();
    println!("resident arena bytes (shared once):      {arena_bytes}");
    println!("per-additional-tenant resident bytes:    {per_additional}");
    println!("full member copy (pre-arena baseline):   {full_copy_bytes}");
    println!("cold-start load: min {load_min:.3} ms   mean {load_mean:.3} ms");
    println!("digest verifications for 1 blob / {tenants} tenants: {digest_verifications}");
    println!("clone alloc events: owned {owned_clone_events}   arena tenant {shared_clone_events}");

    let bytes_ok = (per_additional as f64) < 0.10 * full_copy_bytes as f64;
    let digest_once = digest_verifications == 1;
    let store_ok = bytes_ok && digest_once && tenants_identical;
    println!();
    println!(
        "store_ok: {store_ok}  (bytes_ok: {bytes_ok}, digest_once: {digest_once}, parity: {tenants_identical})"
    );

    // Hand-rolled JSON artifact (the workspace has no JSON dependency).
    let json = format!(
        "{{\n  \"arch\": \"{}\",\n  \"tenants\": {tenants},\n  \"blob_bytes\": {},\n  \"arena_resident_bytes\": {arena_bytes},\n  \"full_member_copy_bytes\": {full_copy_bytes},\n  \"per_additional_tenant_bytes\": {per_additional},\n  \"per_additional_tenant_fraction\": {:.6},\n  \"cold_load_min_ms\": {load_min:.4},\n  \"cold_load_mean_ms\": {load_mean:.4},\n  \"digest_verifications\": {digest_verifications},\n  \"owned_clone_alloc_events\": {owned_clone_events},\n  \"shared_clone_alloc_events\": {shared_clone_events},\n  \"tenants_bit_identical\": {tenants_identical},\n  \"store_ok\": {store_ok}\n}}\n",
        spec.arch_id(),
        blob.len(),
        per_additional as f64 / full_copy_bytes as f64,
    );
    std::fs::write("BENCH_model_store.json", &json).expect("write BENCH_model_store.json");
    println!();
    println!("wrote BENCH_model_store.json (store_ok gate for CI)");
    assert!(store_ok, "model store gate failed — see the summary above");
}
