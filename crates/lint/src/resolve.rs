//! Cross-file name resolution: maps file paths to module paths, and
//! call sites to candidate callee functions in the workspace index.
//!
//! Resolution is *name-based over-approximation*, not type checking:
//! a `.forward(…)` method call resolves to every indexed method named
//! `forward`, and `Type::name` to every `name` owned by an impl or
//! trait block for `Type`. That errs toward extra call-graph edges —
//! the safe direction for the reachability rules, which exist to prove
//! the *absence* of bad paths. Precision comes from four filters:
//! `Self`-rewriting against the caller's impl block, module-suffix
//! matching for qualified free functions, the per-file `use` map
//! for bare imported names, and `STD_COLLISION_METHODS` — receiver
//! calls whose names belong to the std prelude do not fan out at all.

use std::collections::HashMap;

use crate::index::{CallSite, FnId, WorkspaceIndex};

/// Method names that collide with the std prelude's iterator/container
/// vocabulary and the `std::ops` arithmetic traits (plus the
/// workspace's ubiquitous accessor names `data` and `set`/`get`). A
/// receiver-form call like `.map(…)`, `.clone()`, or `.add(…)` is
/// overwhelmingly a std call, and fanning it out to every workspace
/// method of that name floods the graph with cross-tier false edges
/// (`members.iter().map(…)` must not become an edge to `Tensor::map`,
/// nor `Counter::inc`'s `self.add(1)` one to `Tensor::add`).
/// These names therefore resolve only in qualified form
/// (`Tensor::map(…)`); the documented cost is that receiver-form calls
/// to same-named workspace methods go unseen (DESIGN.md §4c).
const STD_COLLISION_METHODS: &[&str] = &[
    "add",
    "all",
    "any",
    "chain",
    "clear",
    "clone",
    "collect",
    "contains",
    "count",
    "data",
    "div",
    "enumerate",
    "extend",
    "fill",
    "filter",
    "find",
    "first",
    "flat_map",
    "flatten",
    "fold",
    "get",
    "insert",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "last",
    "len",
    "map",
    "max",
    "min",
    "mul",
    "next",
    "pop",
    "position",
    "push",
    "resize",
    "rev",
    "set",
    "skip",
    "sub",
    "sum",
    "take",
    "zip",
];

/// Derives `(crate_module_name, module_path)` from a workspace-relative
/// file path. Mirrors the workspace layout: `crates/<dir>/src/a/b.rs`
/// → (`pgmr_<dir>`, `["a", "b"]`), with `mod.rs`, `lib.rs`, `main.rs`,
/// and the `bin/`/`tests/`/`benches/` roots collapsing as cargo does.
pub fn module_path_for(relpath: &str) -> (String, Vec<String>) {
    let parts: Vec<&str> = relpath.split('/').collect();
    let (crate_name, rest): (String, &[&str]) =
        if parts.first() == Some(&"crates") && parts.len() >= 2 {
            (crate_module_name(parts[1]), &parts[2..])
        } else {
            ("pgmr".to_string(), &parts[..])
        };
    // Strip the source root (`src/`, `tests/`, `benches/`).
    let rest = match rest.first() {
        Some(&"src") => &rest[1..],
        Some(&"tests") | Some(&"benches") => &rest[1..],
        _ => rest,
    };
    let mut modules: Vec<String> = Vec::new();
    for (i, part) in rest.iter().enumerate() {
        let last = i + 1 == rest.len();
        if last {
            let stem = part.strip_suffix(".rs").unwrap_or(part);
            if !matches!(stem, "lib" | "main" | "mod") {
                modules.push(stem.to_string());
            }
        } else if *part == "bin" {
            // `src/bin/x.rs` is its own crate root.
        } else {
            modules.push((*part).to_string());
        }
    }
    (crate_name, modules)
}

/// The module name a crate directory compiles to. The workspace names
/// crates `pgmr-<dir>` except the core crate (`polygraph-mr`) and the
/// root package (`pgmr`).
fn crate_module_name(dir: &str) -> String {
    if dir == "core" {
        "polygraph_mr".to_string()
    } else {
        format!("pgmr_{}", dir.replace('-', "_"))
    }
}

/// Name-based callee resolution over a [`WorkspaceIndex`].
pub struct Resolver {
    /// Methods (`has_self`) by bare name.
    methods: HashMap<String, Vec<FnId>>,
    /// Free functions (no `self`) by bare name.
    free: HashMap<String, Vec<FnId>>,
    /// All fns by `(owner_type, name)` — inherent, trait impl, or
    /// trait default/decl.
    typed: HashMap<(String, String), Vec<FnId>>,
}

impl Resolver {
    pub fn new(ix: &WorkspaceIndex) -> Self {
        let mut methods: HashMap<String, Vec<FnId>> = HashMap::new();
        let mut free: HashMap<String, Vec<FnId>> = HashMap::new();
        let mut typed: HashMap<(String, String), Vec<FnId>> = HashMap::new();
        for (id, f) in ix.fns.iter().enumerate() {
            if f.has_self {
                methods.entry(f.name.clone()).or_default().push(id);
            } else {
                free.entry(f.name.clone()).or_default().push(id);
            }
            if let Some(t) = &f.self_type {
                typed.entry((t.clone(), f.name.clone())).or_default().push(id);
            }
            if let Some(t) = &f.trait_name {
                // `impl Trait for Type` also answers `Trait::name`.
                typed.entry((t.clone(), f.name.clone())).or_default().push(id);
            }
        }
        Resolver { methods, free, typed }
    }

    /// Candidate callees for one call site in `caller`.
    pub fn resolve(&self, ix: &WorkspaceIndex, caller: FnId, call: &CallSite) -> Vec<FnId> {
        let name = call.path.last().map(String::as_str).unwrap_or_default();
        if call.method {
            // `.name(…)`: every method of that name, plus trait
            // defaults (indexed under the trait's own type) — except
            // std-prelude collisions, which only resolve qualified.
            if STD_COLLISION_METHODS.contains(&name) {
                return Vec::new();
            }
            return self.methods.get(name).cloned().unwrap_or_default();
        }
        if call.path.len() >= 2 {
            let qual = &call.path[..call.path.len() - 1];
            let owner = qual.last().map(String::as_str).unwrap_or_default();
            let owner = if owner == "Self" {
                match &ix.fns[caller].self_type {
                    Some(t) => t.as_str(),
                    None => owner,
                }
            } else {
                owner
            };
            if owner.starts_with(|c: char| c.is_ascii_uppercase()) {
                // Type- or trait-qualified: `Type::name`.
                return self
                    .typed
                    .get(&(owner.to_string(), name.to_string()))
                    .cloned()
                    .unwrap_or_default();
            }
            // Module-qualified free fn: match the qualifier as a
            // suffix of the callee's full module path.
            return self
                .free
                .get(name)
                .map(|cands| {
                    cands
                        .iter()
                        .copied()
                        .filter(|&id| self.module_suffix_matches(ix, caller, id, qual))
                        .collect()
                })
                .unwrap_or_default();
        }
        // Bare call: prefer free fns in the same file, then the `use`
        // map, then any free fn of that name workspace-wide.
        let Some(cands) = self.free.get(name) else { return Vec::new() };
        let caller_file = ix.fns[caller].file;
        let same_file: Vec<FnId> =
            cands.iter().copied().filter(|&id| ix.fns[id].file == caller_file).collect();
        if !same_file.is_empty() {
            return same_file;
        }
        if let Some(u) = ix.files[caller_file].uses.iter().find(|u| u.alias == name) {
            if u.path.len() >= 2 {
                let qual = &u.path[..u.path.len() - 1];
                let imported: Vec<FnId> = cands
                    .iter()
                    .copied()
                    .filter(|&id| self.module_suffix_matches(ix, caller, id, qual))
                    .collect();
                if !imported.is_empty() {
                    return imported;
                }
            }
        }
        cands.clone()
    }

    /// Whether `callee`'s full module path (`crate::mods…`) ends with
    /// the written qualifier, after rewriting `crate`/`self`/`super`
    /// heads against the caller's location.
    fn module_suffix_matches(
        &self,
        ix: &WorkspaceIndex,
        caller: FnId,
        callee: FnId,
        qual: &[String],
    ) -> bool {
        let cf = &ix.fns[callee];
        let file = &ix.files[cf.file];
        let mut full: Vec<&str> = vec![file.crate_name.as_str()];
        full.extend(file.module_path.iter().map(String::as_str));
        full.extend(cf.modules.iter().map(String::as_str));
        // Rewrite relative heads; keep only plain segments for the
        // suffix match, requiring a `crate`-headed path to stay within
        // the caller's crate.
        let caller_crate = &ix.files[ix.fns[caller].file].crate_name;
        let mut segs: Vec<&str> = Vec::new();
        for s in qual {
            match s.as_str() {
                "crate" => {
                    if &file.crate_name != caller_crate {
                        return false;
                    }
                }
                "self" | "super" => {}
                other => segs.push(other),
            }
        }
        if segs.is_empty() {
            return true;
        }
        full.ends_with(&segs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn module_paths_follow_workspace_layout() {
        let cases: &[(&str, &str, &[&str])] = &[
            ("crates/nn/src/lib.rs", "pgmr_nn", &[]),
            ("crates/nn/src/layers/conv.rs", "pgmr_nn", &["layers", "conv"]),
            ("crates/nn/src/layers/mod.rs", "pgmr_nn", &["layers"]),
            ("crates/core/src/system.rs", "polygraph_mr", &["system"]),
            ("crates/serve/src/main.rs", "pgmr_serve", &[]),
            ("crates/tensor/tests/gemm.rs", "pgmr_tensor", &["gemm"]),
            ("src/main.rs", "pgmr", &[]),
        ];
        for (path, want_crate, want_mods) in cases {
            let (c, m) = module_path_for(path);
            assert_eq!(&c, want_crate, "{path}");
            assert_eq!(m, *want_mods, "{path}");
        }
    }

    fn build(files: &[(&str, &str)]) -> WorkspaceIndex {
        let mut ix = WorkspaceIndex::default();
        for (path, src) in files {
            let lexed = lex(src);
            ix.add_file(path, &lexed, false, &[], &[]);
        }
        ix
    }

    fn id_of(ix: &WorkspaceIndex, qualified: &str) -> FnId {
        (0..ix.fns.len())
            .find(|&i| ix.qualified_name(i) == qualified)
            .unwrap_or_else(|| panic!("no fn {qualified}"))
    }

    #[test]
    fn self_qualified_calls_resolve_to_impl_type() {
        let ix = build(&[(
            "crates/a/src/lib.rs",
            "struct S;\nimpl S { fn a(&self) { Self::b(); } fn b() {} }\n\
             struct T;\nimpl T { fn b() {} }\n",
        )]);
        let r = Resolver::new(&ix);
        let a = id_of(&ix, "pgmr_a::S::a");
        let call = ix.fns[a].calls.iter().find(|c| c.path.last().unwrap() == "b").unwrap();
        let got = r.resolve(&ix, a, call);
        assert_eq!(got, vec![id_of(&ix, "pgmr_a::S::b")]);
    }

    #[test]
    fn module_qualified_free_fns_filter_by_suffix() {
        let ix = build(&[
            ("crates/nn/src/pool.rs", "pub fn global() {}\n"),
            ("crates/obs/src/lib.rs", "pub fn global() {}\n"),
            (
                "crates/core/src/lib.rs",
                "fn f() { pgmr_nn::pool::global(); pool::global(); pgmr_obs::global(); }\n",
            ),
        ]);
        let r = Resolver::new(&ix);
        let f = id_of(&ix, "polygraph_mr::f");
        let pool_global = id_of(&ix, "pgmr_nn::pool::global");
        let obs_global = id_of(&ix, "pgmr_obs::global");
        let calls = &ix.fns[f].calls;
        assert_eq!(r.resolve(&ix, f, &calls[0]), vec![pool_global]);
        assert_eq!(r.resolve(&ix, f, &calls[1]), vec![pool_global]);
        assert_eq!(r.resolve(&ix, f, &calls[2]), vec![obs_global]);
    }

    #[test]
    fn bare_calls_prefer_same_file_then_uses() {
        let ix = build(&[
            ("crates/a/src/lib.rs", "pub fn work() {}\n"),
            ("crates/b/src/lib.rs", "use pgmr_a::work;\nfn f() { work(); }\n"),
            ("crates/c/src/lib.rs", "pub fn work() {}\nfn g() { work(); }\n"),
        ]);
        let r = Resolver::new(&ix);
        let f = id_of(&ix, "pgmr_b::f");
        let g = id_of(&ix, "pgmr_c::g");
        let call_f = &ix.fns[f].calls[0];
        let call_g = &ix.fns[g].calls[0];
        assert_eq!(r.resolve(&ix, f, call_f), vec![id_of(&ix, "pgmr_a::work")]);
        assert_eq!(r.resolve(&ix, g, call_g), vec![id_of(&ix, "pgmr_c::work")]);
    }

    #[test]
    fn method_calls_fan_out_to_all_methods_of_that_name() {
        let ix = build(&[(
            "crates/a/src/lib.rs",
            "struct S;\nimpl S { fn go(&self) {} }\nstruct T;\nimpl T { fn go(&self) {} }\n\
             fn f(s: &S) { s.go(); }\n",
        )]);
        let r = Resolver::new(&ix);
        let f = id_of(&ix, "pgmr_a::f");
        let got = r.resolve(&ix, f, &ix.fns[f].calls[0]);
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn trait_qualified_calls_reach_impls_and_defaults() {
        let ix = build(&[(
            "crates/a/src/lib.rs",
            "trait L { fn fwd(&self) { self.aux(); } fn aux(&self); }\n\
             struct S;\nimpl L for S { fn aux(&self) {} }\n\
             fn f(x: &S) { L::fwd(x); }\n",
        )]);
        let r = Resolver::new(&ix);
        let f = id_of(&ix, "pgmr_a::f");
        let call = ix.fns[f].calls.iter().find(|c| c.path == ["L", "fwd"]).unwrap();
        let got = r.resolve(&ix, f, call);
        assert_eq!(got, vec![id_of(&ix, "pgmr_a::L::fwd")]);
    }
}
