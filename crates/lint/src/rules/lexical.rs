//! The six lexical invariant rules. Every rule here sees one file's
//! token stream, not types, so each trades a documented sliver of
//! coverage for zero dependencies; the limits are listed per rule.

use crate::diag::Diagnostic;
use crate::lexer::{Token, TokenKind};
use crate::rules::FileContext;

/// Runs every lexical rule over `ctx`, returning raw findings.
pub fn run(ctx: &FileContext<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    float_eq(ctx, &mut out);
    wall_clock(ctx, &mut out);
    stray_spawn(ctx, &mut out);
    panic_hygiene(ctx, &mut out);
    unordered_iter(ctx, &mut out);
    bare_atomic(ctx, &mut out);
    out
}

fn diag(ctx: &FileContext<'_>, t: &Token, rule: &'static str, message: String) -> Diagnostic {
    Diagnostic::new(ctx.relpath.to_string(), t.line, t.col, rule, message)
}

/// `float-eq`: `==`/`!=` with a float-typed operand. Lexical scope: an
/// operand is recognizably float when it is a float literal or an
/// `f32::`/`f64::` associated constant; float-typed *variables* compared
/// to each other are invisible to this rule.
fn float_eq(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Punct || (t.text != "==" && t.text != "!=") {
            continue;
        }
        let right_float = toks.get(i + 1).is_some_and(|n| n.kind == TokenKind::Float)
            || ((ctx.is_ident(i + 1, "f32") || ctx.is_ident(i + 1, "f64"))
                && ctx.is_punct(i + 2, "::"));
        let left_float = i >= 1 && toks[i - 1].kind == TokenKind::Float
            || (i >= 3
                && toks[i - 1].kind == TokenKind::Ident
                && ctx.is_punct(i - 2, "::")
                && (ctx.is_ident(i - 3, "f32") || ctx.is_ident(i - 3, "f64")));
        if right_float || left_float {
            out.push(diag(
                ctx,
                t,
                "float-eq",
                format!(
                    "exact float comparison `{}` — compare against an epsilon or use integer counts",
                    t.text
                ),
            ));
        }
    }
}

/// `wall-clock`: `Instant::now`, `SystemTime`, or `UNIX_EPOCH` outside
/// `crates/obs`, `crates/bench`, and `crates/serve`. Timing belongs
/// behind `pgmr_obs` spans/histograms so seeded runs stay byte-identical
/// in deterministic exports; the serving front-end is exempt because
/// request deadlines and latencies are inherently wall-clock.
fn wall_clock(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.relpath.starts_with("crates/obs/")
        || ctx.relpath.starts_with("crates/bench/")
        || ctx.relpath.starts_with("crates/serve/")
    {
        return;
    }
    let toks = &ctx.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let hit = match t.text.as_str() {
            "Instant" => ctx.is_punct(i + 1, "::") && ctx.is_ident(i + 2, "now"),
            "SystemTime" | "UNIX_EPOCH" => true,
            _ => false,
        };
        if hit {
            out.push(diag(
                ctx,
                t,
                "wall-clock",
                format!(
                    "wall-clock read `{}` outside pgmr-obs/pgmr-bench/pgmr-serve — route timing through pgmr_obs spans or `Histogram::time`",
                    t.text
                ),
            ));
        }
    }
}

/// `stray-spawn`: `thread::spawn` (or any `.spawn(…)` call) outside the
/// sanctioned thread owners — `pgmr_nn::pool` (worker threads) and
/// `crates/serve` (the one batcher thread per front-end, joined on
/// shutdown with its panic re-raised). Threads spawned elsewhere dodge
/// the pool's panic capture, ordering and instrumentation guarantees.
fn stray_spawn(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.relpath == "crates/nn/src/pool.rs" || ctx.relpath.starts_with("crates/serve/src/") {
        return;
    }
    let toks = &ctx.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident || t.text != "spawn" {
            continue;
        }
        let path_spawn = i >= 2 && ctx.is_ident(i - 2, "thread") && ctx.is_punct(i - 1, "::");
        let method_spawn = i >= 1 && ctx.is_punct(i - 1, ".") && ctx.is_punct(i + 1, "(");
        if path_spawn || method_spawn {
            out.push(diag(
                ctx,
                t,
                "stray-spawn",
                "thread spawned outside pgmr_nn::pool / pgmr-serve — use the shared worker pool"
                    .to_string(),
            ));
        }
    }
}

/// `panic-hygiene`: `.unwrap()` or `.expect("")` in non-test library
/// code. Tests, benches, examples and binary entry points may panic
/// freely; libraries must either propagate errors or `expect` with a
/// message a 3am operator can act on.
fn panic_hygiene(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.test_file || ctx.bin_file {
        return;
    }
    let toks = &ctx.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident
            || ctx.in_test_code(t.line)
            || i == 0
            || !ctx.is_punct(i - 1, ".")
        {
            continue;
        }
        match t.text.as_str() {
            "unwrap" if ctx.is_punct(i + 1, "(") && ctx.is_punct(i + 2, ")") => {
                out.push(diag(
                    ctx,
                    t,
                    "panic-hygiene",
                    "`unwrap()` in library code — `expect` with a diagnostic message or propagate the error"
                        .to_string(),
                ));
            }
            "expect"
                if ctx.is_punct(i + 1, "(")
                    && toks
                        .get(i + 2)
                        .is_some_and(|a| a.kind == TokenKind::Str && a.text.is_empty()) =>
            {
                out.push(diag(
                    ctx,
                    t,
                    "panic-hygiene",
                    "`expect(\"\")` carries no diagnostic message — say what invariant broke"
                        .to_string(),
                ));
            }
            _ => {}
        }
    }
}

/// Path fragments that mark a file as an export/serialization surface
/// for the `unordered-iter` rule.
const EXPORT_PATH_MARKERS: &[&str] = &["snapshot", "export", "serialize", "json"];

/// `unordered-iter`: `HashMap`/`HashSet` anywhere in a snapshot/export/
/// serialization file. Iteration order of the std hash collections is
/// seeded per process, so any use on an export surface risks
/// nondeterministic bytes; `BTreeMap`/`BTreeSet` or pre-sorted vectors
/// keep snapshots byte-identical.
fn unordered_iter(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    let lower = ctx.relpath.to_ascii_lowercase();
    if !EXPORT_PATH_MARKERS.iter().any(|m| lower.contains(m)) {
        return;
    }
    for t in &ctx.lexed.tokens {
        if t.kind == TokenKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
            out.push(diag(
                ctx,
                t,
                "unordered-iter",
                format!(
                    "`{}` in an export path — unordered iteration breaks byte-stable snapshots; use BTree collections or sort",
                    t.text
                ),
            ));
        }
    }
}

/// Atomic method names whose call sites must spell out an `Ordering`.
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_nand",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// `bare-atomic`: an atomic-shaped method call whose argument list never
/// names `Ordering` — orderings smuggled through variables or glob
/// imports hide the synchronization contract from review. (A non-atomic
/// method that happens to share a name, e.g. some `cache.load(path)`,
/// also fires; annotate it, or rename — the collision itself confuses
/// readers.)
fn bare_atomic(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident
            || !ATOMIC_METHODS.contains(&t.text.as_str())
            || i == 0
            || !ctx.is_punct(i - 1, ".")
            || !ctx.is_punct(i + 1, "(")
        {
            continue;
        }
        let mut depth = 0usize;
        let mut named = false;
        for a in toks.iter().skip(i + 1) {
            if a.kind == TokenKind::Punct && a.text == "(" {
                depth += 1;
            } else if a.kind == TokenKind::Punct && a.text == ")" {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if a.kind == TokenKind::Ident && a.text == "Ordering" {
                named = true;
            }
        }
        if !named {
            out.push(diag(
                ctx,
                t,
                "bare-atomic",
                format!("`.{}(…)` without an explicit `Ordering::…` at the call site", t.text),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::test_line_ranges;

    fn rules_on(path: &str, src: &str) -> Vec<Diagnostic> {
        let lexed = lex(src);
        let ctx = FileContext::new(path, &lexed);
        run(&ctx)
    }

    #[test]
    fn test_region_detection_spans_cfg_test_mod() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\nfn tail() {}\n";
        let lexed = lex(src);
        let ranges = test_line_ranges(&lexed.tokens);
        assert_eq!(ranges, vec![(2, 5)]);
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nmod real {\n    fn f() {}\n}\n";
        let lexed = lex(src);
        assert!(test_line_ranges(&lexed.tokens).is_empty());
    }

    #[test]
    fn unwrap_in_cfg_test_is_exempt_but_library_code_fires() {
        let src = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n#[cfg(test)]\nmod tests {\n    fn t() { Some(1).unwrap(); }\n}\n";
        let diags = rules_on("crates/x/src/lib.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!((diags[0].rule, diags[0].line), ("panic-hygiene", 1));
    }

    #[test]
    fn float_eq_sees_literals_and_consts() {
        let diags = rules_on(
            "crates/x/src/lib.rs",
            "fn f(x: f32) -> bool { x == 0.5 || 1.0 != x || x == f32::EPSILON }",
        );
        assert_eq!(diags.iter().filter(|d| d.rule == "float-eq").count(), 3);
    }

    #[test]
    fn wall_clock_allows_obs_bench_and_serve() {
        let src = "fn f() { let _ = std::time::Instant::now(); }";
        assert_eq!(rules_on("crates/core/src/x.rs", src).len(), 1);
        assert!(rules_on("crates/obs/src/x.rs", src).is_empty());
        assert!(rules_on("crates/bench/benches/x.rs", src).is_empty());
        assert!(rules_on("crates/serve/src/lib.rs", src).is_empty());
    }

    #[test]
    fn bare_atomic_wants_ordering_in_args() {
        let src = "fn f(a: &std::sync::atomic::AtomicU64, o: Ordering) { a.load(o); }";
        let diags = rules_on("crates/x/src/lib.rs", src);
        assert_eq!(diags.iter().filter(|d| d.rule == "bare-atomic").count(), 1);
        let src = "fn f(a: &std::sync::atomic::AtomicU64) { a.load(Ordering::Relaxed); }";
        assert!(rules_on("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn unordered_iter_only_on_export_paths() {
        let src = "use std::collections::HashMap;\n";
        assert!(rules_on("crates/x/src/math.rs", src).is_empty());
        let diags = rules_on("crates/x/src/snapshot.rs", src);
        assert_eq!(diags.iter().filter(|d| d.rule == "unordered-iter").count(), 1);
    }

    #[test]
    fn spawn_outside_pool_fires_inside_pool_and_serve_does_not() {
        let src = "fn f() { std::thread::spawn(|| {}); }";
        assert_eq!(rules_on("crates/x/src/lib.rs", src).len(), 1);
        assert!(rules_on("crates/nn/src/pool.rs", src).is_empty());
        assert!(rules_on("crates/serve/src/lib.rs", src).is_empty());
    }
}
