//! `hot-path-alloc`: the zero-alloc invariant — **0 steady-state
//! allocations per image** — as a workspace-wide static gate instead of
//! one bench.
//!
//! Any function reachable (over the call graph) from the zero-alloc
//! roots must not call an allocating constructor (`Vec::new`, `vec!`,
//! `.to_vec()`, `.collect()`, `Box::new`, `String::from`, `format!`)
//! outside the workspace-arena APIs. The roots are the serving-path
//! entries: the forward driver `Network::run`, every layer's
//! `Layer::forward_into`, `PolygraphSystem::decide` (every request's
//! decision), `PolygraphSystem::infer_batch` (batch decisions) and the
//! serve batcher fold (`BatchEngine::process`).
//!
//! The rule's world has a *frontier* past which it neither traverses
//! nor reports:
//! - the methods that allocate by design (`ALLOCATING_FNS`): `backward`
//!   and `Network`'s three `Tensor`-returning wrappers (`forward`,
//!   `forward_with_hook`, `forward_checked`) — callers that want no
//!   allocation call `run` with a reused logits buffer;
//! - the arena file itself (`EXEMPT_FILES`) — where the hot path's
//!   memory legitimately comes from;
//! - any function annotated `pgmr-lint: boundary(hot-path-alloc):
//!   reason` — a *documented* allocating tier (e.g. a layer's
//!   training-only backward cache, or the preprocessors that allocate
//!   scratch per call).
//!
//! Individual intentional allocations inside the rule's world instead
//! take `pgmr-lint: allow(hot-path-alloc): reason` on the site.

use crate::callgraph::{CallGraph, Reach};
use crate::diag::Diagnostic;
use crate::index::{FnId, WorkspaceIndex};

pub const RULE: &str = "hot-path-alloc";

/// Root functions by name; a `Some` owner restricts to that impl type.
const ROOT_FNS: &[(&str, Option<&str>)] = &[
    ("run", Some("Network")),
    ("forward_into", None),
    ("decide", Some("PolygraphSystem")),
    ("infer_batch", Some("PolygraphSystem")),
    ("process", Some("BatchEngine")),
];

/// Files whose allocations are the arena implementation itself.
const EXEMPT_FILES: &[&str] = &["crates/nn/src/workspace.rs"];

/// Methods that allocate by design and sit past the rule's frontier:
/// backward passes, and the `Tensor`-returning forward wrappers.
const ALLOCATING_FNS: &[&str] = &["backward", "forward", "forward_with_hook", "forward_checked"];

fn is_frontier(ix: &WorkspaceIndex, id: FnId) -> bool {
    let f = &ix.fns[id];
    f.boundaries.iter().any(|b| b == RULE)
        || (f.has_self && ALLOCATING_FNS.contains(&f.name.as_str()))
        || EXEMPT_FILES.contains(&ix.files[f.file].relpath.as_str())
}

/// The zero-alloc roots present in `ix` (non-test definitions only).
pub fn roots(ix: &WorkspaceIndex) -> Vec<FnId> {
    (0..ix.fns.len())
        .filter(|&id| {
            let f = &ix.fns[id];
            !f.in_test
                && ROOT_FNS.iter().any(|(name, owner)| {
                    f.name == *name && owner.is_none_or(|o| f.self_type.as_deref() == Some(o))
                })
        })
        .collect()
}

pub fn run(ix: &WorkspaceIndex, graph: &CallGraph, out: &mut Vec<Diagnostic>) {
    let roots = roots(ix);
    if roots.is_empty() {
        return;
    }
    let reach = Reach::compute(graph, &roots, |f| is_frontier(ix, f));
    for id in 0..ix.fns.len() {
        if !reach.seen[id] || ix.fns[id].in_test || is_frontier(ix, id) {
            continue;
        }
        let file = &ix.files[ix.fns[id].file];
        let chain = reach.chain(id);
        let root_name = ix.qualified_name(chain[0]);
        for alloc in &ix.fns[id].allocs {
            let mut d = Diagnostic::new(
                file.relpath.clone(),
                alloc.line,
                alloc.col,
                RULE,
                format!(
                    "`{}` allocates on the zero-alloc hot path (reachable from `{root_name}`) — use the workspace arena, hoist the allocation off the serving path, or annotate why it is intentional",
                    alloc.what
                ),
            );
            d.witness = reach.witness(ix, id);
            out.push(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::resolve::Resolver;

    fn run_on(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let mut ix = WorkspaceIndex::default();
        for (path, src) in files {
            ix.add_file(path, &lex(src), false, &[], &[]);
        }
        let resolver = Resolver::new(&ix);
        let graph = CallGraph::build(&ix, &resolver);
        let mut out = Vec::new();
        run(&ix, &graph, &mut out);
        out
    }

    #[test]
    fn allocation_reachable_from_root_fires_with_witness() {
        let diags = run_on(&[(
            "crates/nn/src/network.rs",
            "impl Network { pub fn run(&mut self) { helper(); } }\n\
             fn helper() { let v: Vec<u32> = (0..3).collect(); }\n\
             fn cold() { let v: Vec<u32> = Vec::new(); }\n",
        )]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RULE);
        assert_eq!(diags[0].line, 2);
        assert_eq!(diags[0].witness.len(), 2);
        assert!(diags[0].witness[0].starts_with("pgmr_nn::network::Network::run"));
    }

    #[test]
    fn arena_file_is_exempt() {
        let diags = run_on(&[
            (
                "crates/nn/src/network.rs",
                "impl Network { pub fn run(&mut self) { crate::workspace::acquire(); } }\n",
            ),
            ("crates/nn/src/workspace.rs", "pub fn acquire() { let v: Vec<u8> = Vec::new(); }\n"),
        ]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn boundary_stops_traversal_into_reference_shims() {
        let src = "impl Network { pub fn run(&mut self) { self.shim(); } }\n\
                   impl Network {\n\
                   // pgmr-lint: boundary(hot-path-alloc): allocating reference oracle\n\
                   fn shim(&self) { self.deep(); }\n\
                   fn deep(&self) { let v = vec![1]; }\n}\n";
        let lexed = lex(src);
        let dirs = crate::allow::collect("crates/nn/src/network.rs", &lexed);
        let mut ix = WorkspaceIndex::default();
        let blines: Vec<(usize, String)> =
            dirs.boundaries.iter().map(|b| (b.target_line, b.rule.clone())).collect();
        ix.add_file("crates/nn/src/network.rs", &lexed, false, &[], &blines);
        let resolver = Resolver::new(&ix);
        let graph = CallGraph::build(&ix, &resolver);
        let mut out = Vec::new();
        run(&ix, &graph, &mut out);
        assert!(out.is_empty(), "boundary must stop descent: {out:?}");
    }

    #[test]
    fn allocating_wrappers_sit_past_the_frontier() {
        // A root reaching an allocate-by-design method (a backward pass, a
        // Tensor-returning wrapper) must not chase into it.
        let diags = run_on(&[(
            "crates/nn/src/network.rs",
            "impl Network {\n\
             fn forward(&mut self) -> Tensor { let v = vec![0.0]; Tensor::of(v) }\n\
             fn backward(&mut self) -> Tensor { let v = vec![0.0]; Tensor::of(v) }\n\
             pub fn run(&mut self) { self.forward(); self.backward(); }\n}\n",
        )]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn only_networks_run_is_a_root() {
        let diags = run_on(&[(
            "crates/nn/src/pool.rs",
            "impl WorkerPool { pub fn run(&self) { let v: Vec<u8> = Vec::new(); } }\n",
        )]);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
