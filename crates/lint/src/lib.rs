//! `pgmr-lint` — the workspace invariant checker.
//!
//! PolygraphMR's headline numbers (false-positive detection rates, RADE
//! exit statistics, byte-identical deterministic snapshots across seeded
//! runs, 0 steady-state allocations per image) rest on invariants no
//! type checker enforces. This crate checks them mechanically in two
//! layers:
//!
//! - **Lexical** (per file): a hand-rolled comment/string/lifetime-aware
//!   lexer ([`lexer`]) and six token-stream rules
//!   ([`rules::lexical`]) — float-eq, wall-clock, stray-spawn,
//!   panic-hygiene, unordered-iter, bare-atomic.
//! - **Semantic** (whole workspace): an item indexer ([`index`]), a
//!   cross-file name resolver ([`resolve`]), and a call graph with
//!   reachability queries ([`callgraph`]) feed three rules —
//!   `hot-path-alloc` (no allocating constructors reachable from the
//!   zero-alloc serving roots), `nested-pool-run` (no pool dispatch
//!   reachable from inside a pool job closure), and `lock-order`
//!   (consistent pairwise lock acquisition order across obs/pool/
//!   serve). Their findings carry witness call chains.
//!
//! Both layers share the inline-suppression machinery with mandatory
//! reasons ([`allow`]), and the CLI (`cargo run -p pgmr-lint --
//! --workspace --deny`) walks every workspace `.rs` file and emits
//! `file:line:col` diagnostics plus a machine-readable JSON report
//! ([`diag`]).
//!
//! See `DESIGN.md` §4c for the rule table, the suppression syntax, the
//! call-graph architecture, and how to add a rule.

pub mod allow;
pub mod callgraph;
pub mod diag;
pub mod fix;
pub mod index;
pub mod lexer;
pub mod resolve;
pub mod rules;

pub use diag::{Diagnostic, LintReport};

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::callgraph::CallGraph;
use crate::index::WorkspaceIndex;
use crate::resolve::Resolver;

/// Lints a set of sources as one workspace: lexical rules per file,
/// then the semantic rules over the joint index, then per-file
/// suppression. Paths are workspace-relative and drive the path-scoped
/// rules, so tests can lint fixture text under any virtual location.
pub fn lint_sources(files: &[(String, String)]) -> LintReport {
    let mut report = LintReport::default();
    // Phase 1: lex, classify, and parse directives per file.
    let lexed: Vec<lexer::Lexed> = files.iter().map(|(_, src)| lexer::lex(src)).collect();
    let ctxs: Vec<rules::FileContext<'_>> =
        files.iter().zip(&lexed).map(|((path, _), lx)| rules::FileContext::new(path, lx)).collect();
    let mut dirs: Vec<allow::FileDirectives> =
        files.iter().zip(&lexed).map(|((path, _), lx)| allow::collect(path, lx)).collect();
    // Phase 2: build the workspace index and call graph.
    let mut ix = WorkspaceIndex::default();
    for ((ctx, lx), d) in ctxs.iter().zip(&lexed).zip(&dirs) {
        let boundary_lines: Vec<(usize, String)> =
            d.boundaries.iter().map(|b| (b.target_line, b.rule.clone())).collect();
        ix.add_file(ctx.relpath, lx, ctx.test_file, &ctx.test_ranges, &boundary_lines);
    }
    let resolver = Resolver::new(&ix);
    let graph = CallGraph::build(&ix, &resolver);
    report.indexed_fns = ix.fns.len();
    report.indexed_calls = ix.total_calls();
    // Phase 3: run both rule layers.
    let mut raw: Vec<Diagnostic> = Vec::new();
    for ctx in &ctxs {
        raw.extend(rules::run_all(ctx));
    }
    rules::run_semantic(&ix, &graph, &resolver, &mut raw);
    // A boundary directive must precede an actual fn definition.
    for (file_ix, d) in dirs.iter().enumerate() {
        for b in &d.boundaries {
            let anchors_fn = ix.files[file_ix].fns.iter().any(|&f| ix.fns[f].line == b.target_line);
            if !anchors_fn {
                raw.push(Diagnostic::new(
                    files[file_ix].0.clone(),
                    b.line,
                    b.column,
                    "invalid-allow",
                    format!(
                        "boundary({}) does not precede a function definition (target line {})",
                        b.rule, b.target_line
                    ),
                ));
            }
        }
    }
    // Phase 4: apply suppressions per file, in input order.
    let by_file: HashMap<&str, usize> =
        files.iter().enumerate().map(|(i, (p, _))| (p.as_str(), i)).collect();
    let mut grouped: Vec<Vec<Diagnostic>> = vec![Vec::new(); files.len()];
    for d in raw {
        match by_file.get(d.file.as_str()) {
            Some(&i) => grouped[i].push(d),
            None => report.diagnostics.push(d),
        }
    }
    for (i, mut diags) in grouped.into_iter().enumerate() {
        let d = std::mem::take(&mut dirs[i]);
        allow::apply_directives(&files[i].0, d, &mut diags);
        report.diagnostics.append(&mut diags);
    }
    report.files_scanned = files.len();
    report.sort();
    report
}

/// Lints one file's source under a given workspace-relative path. The
/// semantic rules run over a single-file index — cross-file edges are
/// absent, which is exactly what fixture tests want.
pub fn lint_source(relpath: &str, source: &str) -> Vec<Diagnostic> {
    lint_sources(&[(relpath.to_string(), source.to_string())]).diagnostics
}

/// Directory names never descended into: build output, VCS metadata,
/// the offline dependency stand-ins under `compat/` (they mirror
/// external crates' APIs, not workspace invariants), and lint fixtures
/// (which exist to violate the rules on purpose).
const SKIP_DIRS: &[&str] = &["target", "compat", "fixtures"];

/// Every workspace `.rs` file under `root`, sorted, with skip dirs
/// (`SKIP_DIRS` and dot-dirs) pruned.
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !name.starts_with('.') && !SKIP_DIRS.contains(&name.as_ref()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Reads every workspace `.rs` file under `root` into `(relpath,
/// source)` pairs ready for [`lint_sources`].
pub fn read_workspace_sources(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut out = Vec::new();
    for path in workspace_files(root)? {
        let source = fs::read_to_string(&path)?;
        let rel = path.strip_prefix(root).unwrap_or(&path);
        out.push((rel.to_string_lossy().replace('\\', "/"), source));
    }
    Ok(out)
}

/// Lints every workspace `.rs` file under `root` as one workspace.
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    Ok(lint_sources(&read_workspace_sources(root)?))
}

/// Builds just the semantic index for every workspace `.rs` file under
/// `root` — the raw material for reachability assertions in tests.
pub fn index_workspace(root: &Path) -> io::Result<WorkspaceIndex> {
    let files = read_workspace_sources(root)?;
    let mut ix = WorkspaceIndex::default();
    for (path, src) in &files {
        let lexed = lexer::lex(src);
        let ctx = rules::FileContext::new(path, &lexed);
        let dirs = allow::collect(path, &lexed);
        let boundary_lines: Vec<(usize, String)> =
            dirs.boundaries.iter().map(|b| (b.target_line, b.rule.clone())).collect();
        ix.add_file(path, &lexed, ctx.test_file, &ctx.test_ranges, &boundary_lines);
    }
    Ok(ix)
}

/// Ascends from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]` — the root the CLI lints by default.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_source_end_to_end() {
        let src = "pub fn f(x: f32) -> bool { x == 0.0 }\n";
        let diags = lint_source("crates/x/src/lib.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "float-eq");
        assert_eq!(diags[0].line, 1);
    }

    #[test]
    fn lint_sources_sees_cross_file_reachability() {
        let files = vec![
            (
                "crates/nn/src/network.rs".to_string(),
                "impl Network { pub fn run(&mut self) { crate::util::helper(); } }\n".to_string(),
            ),
            (
                "crates/nn/src/util.rs".to_string(),
                "pub fn helper() { let v: Vec<u8> = Vec::new(); }\n".to_string(),
            ),
        ];
        let report = lint_sources(&files);
        assert_eq!(report.files_scanned, 2);
        assert!(report.indexed_fns >= 2);
        let hot: Vec<_> =
            report.diagnostics.iter().filter(|d| d.rule == "hot-path-alloc").collect();
        assert_eq!(hot.len(), 1, "{:?}", report.diagnostics);
        assert_eq!(hot[0].file, "crates/nn/src/util.rs");
        assert_eq!(hot[0].witness.len(), 2);
    }

    #[test]
    fn boundary_without_fn_definition_is_reported() {
        let src = "// pgmr-lint: boundary(hot-path-alloc): misplaced\nstruct S;\n";
        let diags = lint_source("crates/x/src/lib.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "invalid-allow");
        assert!(diags[0].message.contains("does not precede a function definition"));
    }

    #[test]
    fn workspace_root_is_found_from_this_crate() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root above crates/lint");
        assert!(root.join("crates").is_dir());
    }
}
