//! The item indexer: turns each file's token stream into *items with
//! facts* — functions (with their impl/trait owner, module path, and
//! whether they take `self`), `use` declarations, and, per function
//! body, the four fact kinds the semantic rules consume: call sites
//! (with closure-region tracking), allocating-constructor sites, lock
//! acquisitions, and worker-pool `run` dispatches.
//!
//! The indexer is still lexical — it never type-checks — but it is
//! *structural*: it brace-matches `mod`/`impl`/`trait`/`fn` bodies, so
//! every fact is attributed to the function that executes it. The
//! resolver ([`crate::resolve`]) and call graph ([`crate::callgraph`])
//! build on this to answer workspace-wide reachability questions.

use crate::lexer::{Lexed, Token, TokenKind};

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Path segments as written: `["foo"]` for a bare call, `["Vec",
    /// "new"]` for a qualified call, the bare method name for `.m(…)`.
    pub path: Vec<String>,
    /// True for `.name(…)` method-call syntax.
    pub method: bool,
    /// True when the call happens inside a closure literal.
    pub in_closure: bool,
    /// 1-based line of the callee name token.
    pub line: usize,
    /// 1-based column of the callee name token.
    pub col: usize,
}

/// One allocating-constructor site (`Vec::new`, `vec!`, `.collect()`, …).
#[derive(Debug, Clone)]
pub struct AllocSite {
    /// The constructor, normalized (`Vec::new`, `vec!`, `collect`, …).
    pub what: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

/// One lock acquisition site (`recv.lock()`, `guarded.read()`, …).
#[derive(Debug, Clone)]
pub struct LockSite {
    /// The lock's identity: the final receiver segment (`stats` for
    /// `self.shared.stats.lock()`). Field names, not types — two locks
    /// sharing a field name alias into one identity (documented limit).
    pub name: String,
    /// The full receiver chain as written, for messages.
    pub receiver: String,
    /// True when the acquisition's statement is a `let` binding — the
    /// guard outlives the statement. A non-`let` acquisition is a
    /// statement temporary whose guard dies at the semicolon, so it
    /// never enters the held set (it can still form the *second* half
    /// of an ordering pair).
    pub let_bound: bool,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

/// One worker-pool dispatch: `.run(…)` on a receiver that is
/// recognizably a pool (`pool::global()`, a `WorkerPool`, or any
/// binding whose name contains "pool").
#[derive(Debug, Clone)]
pub struct PoolRunSite {
    /// The receiver chain as written (`self.pool`, `pgmr_nn::pool::global()`).
    pub receiver: String,
    /// True when the dispatch itself sits inside a closure literal.
    pub in_closure: bool,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

/// One indexed function (free fn, inherent/trait method, or trait
/// default), with every fact the semantic rules need about its body.
#[derive(Debug)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Inline `mod` path within the file (file-level path comes from
    /// [`FileIndex::module_path`]).
    pub modules: Vec<String>,
    /// `impl Type` / `trait Type` owner, if any.
    pub self_type: Option<String>,
    /// The trait in `impl Trait for Type`, if any.
    pub trait_name: Option<String>,
    /// True when the parameter list contains `self`.
    pub has_self: bool,
    /// Index of the owning file in [`WorkspaceIndex::files`].
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// True when the definition sits in test code (test file or
    /// `#[cfg(test)]`/`#[test]` region).
    pub in_test: bool,
    /// Rules for which this function is a traversal boundary (via a
    /// `pgmr-lint: boundary(rule): reason` directive on its definition).
    pub boundaries: Vec<String>,
    /// Call sites in body order.
    pub calls: Vec<CallSite>,
    /// Allocating-constructor sites in body order.
    pub allocs: Vec<AllocSite>,
    /// Lock acquisitions in body order.
    pub locks: Vec<LockSite>,
    /// Worker-pool dispatches in body order.
    pub pool_runs: Vec<PoolRunSite>,
}

/// One `use` declaration leaf: `alias` names `path` in this file.
#[derive(Debug, Clone)]
pub struct UseItem {
    /// The name the file refers to (`Member`, or the `as` alias).
    pub alias: String,
    /// Full path segments as written (`["polygraph_mr", "ensemble",
    /// "Member"]`, `["crate", "pool", "WorkerPool"]`).
    pub path: Vec<String>,
}

/// Everything indexed from one file.
#[derive(Debug)]
pub struct FileIndex {
    /// Workspace-relative path, forward slashes.
    pub relpath: String,
    /// Crate module name derived from the path (`pgmr_nn`,
    /// `polygraph_mr`); see [`crate::resolve::module_path_for`].
    pub crate_name: String,
    /// Module path derived from the file's location under `src/`.
    pub module_path: Vec<String>,
    /// Indices into [`WorkspaceIndex::fns`] for functions in this file.
    pub fns: Vec<usize>,
    /// `use` declarations in this file.
    pub uses: Vec<UseItem>,
}

/// The workspace-wide index the semantic rules and call graph run over.
#[derive(Debug, Default)]
pub struct WorkspaceIndex {
    /// Per-file indexes, in input order.
    pub files: Vec<FileIndex>,
    /// All indexed functions, flat; `FnId` is an index into this.
    pub fns: Vec<FnItem>,
}

/// Identifier of an indexed function: an index into [`WorkspaceIndex::fns`].
pub type FnId = usize;

impl WorkspaceIndex {
    /// Indexes one file into the workspace index. `test_lines` are the
    /// `#[cfg(test)]`/`#[test]` line ranges from the rule context;
    /// `boundary_lines` maps a definition line to the rules it bounds
    /// (from `pgmr-lint: boundary(rule): reason` directives).
    pub fn add_file(
        &mut self,
        relpath: &str,
        lexed: &Lexed,
        test_file: bool,
        test_lines: &[(usize, usize)],
        boundary_lines: &[(usize, String)],
    ) {
        let file_id = self.files.len();
        let (crate_name, module_path) = crate::resolve::module_path_for(relpath);
        let mut file = FileIndex {
            relpath: relpath.to_string(),
            crate_name,
            module_path,
            fns: Vec::new(),
            uses: Vec::new(),
        };
        let mut walker = Walker {
            toks: &lexed.tokens,
            file_id,
            test_file,
            test_lines,
            boundary_lines,
            fns: &mut self.fns,
            file: &mut file,
        };
        walker.walk_items(0, lexed.tokens.len(), &mut Vec::new(), None, None);
        self.files.push(file);
    }

    /// Total number of call sites across every indexed function.
    pub fn total_calls(&self) -> usize {
        self.fns.iter().map(|f| f.calls.len()).sum()
    }

    /// A function's qualified display path:
    /// `crate::mods::Type::name` (file-level and inline mods merged).
    pub fn qualified_name(&self, f: FnId) -> String {
        let fun = &self.fns[f];
        let file = &self.files[fun.file];
        let mut parts: Vec<&str> = vec![&file.crate_name];
        parts.extend(file.module_path.iter().map(String::as_str));
        parts.extend(fun.modules.iter().map(String::as_str));
        if let Some(t) = &fun.self_type {
            parts.push(t);
        }
        parts.push(&fun.name);
        parts.join("::")
    }

    /// `qualified_name` plus the definition site, for witness chains.
    pub fn describe(&self, f: FnId) -> String {
        let fun = &self.fns[f];
        format!("{} ({}:{})", self.qualified_name(f), self.files[fun.file].relpath, fun.line)
    }
}

/// Allocating constructors recognized as `Type::ctor` qualified calls.
const ALLOC_QUALIFIED: &[(&str, &str)] = &[("Vec", "new"), ("Box", "new"), ("String", "from")];

/// Allocating constructors recognized as `.method()` calls.
const ALLOC_METHODS: &[&str] = &["to_vec", "collect"];

/// Allocating macros.
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Keywords that look like `ident (` but are not calls.
const NOT_CALLS: &[&str] =
    &["if", "while", "for", "match", "return", "fn", "loop", "move", "in", "as", "let", "else"];

struct Walker<'a> {
    toks: &'a [Token],
    file_id: usize,
    test_file: bool,
    test_lines: &'a [(usize, usize)],
    boundary_lines: &'a [(usize, String)],
    fns: &'a mut Vec<FnItem>,
    file: &'a mut FileIndex,
}

impl<'a> Walker<'a> {
    fn tok(&self, i: usize) -> Option<&Token> {
        self.toks.get(i)
    }

    fn is_punct(&self, i: usize, text: &str) -> bool {
        self.tok(i).is_some_and(|t| t.kind == TokenKind::Punct && t.text == text)
    }

    fn is_ident(&self, i: usize, text: &str) -> bool {
        self.tok(i).is_some_and(|t| t.kind == TokenKind::Ident && t.text == text)
    }

    fn in_test(&self, line: usize) -> bool {
        self.test_file || self.test_lines.iter().any(|&(lo, hi)| (lo..=hi).contains(&line))
    }

    /// Index of the token after the `{…}` (or `(…)`, `[…]`, `<…>`)
    /// group opening at `open`; `end` bounds the scan.
    fn skip_group(&self, open: usize, end: usize, open_c: &str, close_c: &str) -> usize {
        let mut depth = 0usize;
        let mut i = open;
        while i < end {
            if self.is_punct(i, open_c) {
                depth += 1;
            } else if self.is_punct(i, close_c) {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            i += 1;
        }
        end
    }

    /// Walks an item-position token range: modules, impls, traits, fns,
    /// uses. `modules` is the inline-mod stack; `self_type`/`trait_name`
    /// the enclosing impl/trait context.
    fn walk_items(
        &mut self,
        start: usize,
        end: usize,
        modules: &mut Vec<String>,
        self_type: Option<&str>,
        trait_name: Option<&str>,
    ) {
        let mut i = start;
        while i < end {
            if self.is_ident(i, "mod")
                && self.tok(i + 1).is_some_and(|t| t.kind == TokenKind::Ident)
            {
                let name = self.toks[i + 1].text.clone();
                if self.is_punct(i + 2, "{") {
                    let body_end = self.skip_group(i + 2, end, "{", "}");
                    modules.push(name);
                    self.walk_items(i + 3, body_end - 1, modules, None, None);
                    modules.pop();
                    i = body_end;
                } else {
                    i += 2; // out-of-line `mod x;` — covered by file layout
                }
            } else if self.is_ident(i, "impl") {
                i = self.walk_impl(i, end, modules);
            } else if self.is_ident(i, "trait")
                && self.tok(i + 1).is_some_and(|t| t.kind == TokenKind::Ident)
            {
                let name = self.toks[i + 1].text.clone();
                let mut j = i + 2;
                while j < end && !self.is_punct(j, "{") && !self.is_punct(j, ";") {
                    if self.is_punct(j, "<") {
                        j = self.skip_group(j, end, "<", ">");
                    } else {
                        j += 1;
                    }
                }
                if self.is_punct(j, "{") {
                    let body_end = self.skip_group(j, end, "{", "}");
                    self.walk_items(j + 1, body_end - 1, modules, Some(&name), None);
                    i = body_end;
                } else {
                    i = j + 1;
                }
            } else if self.is_ident(i, "fn")
                && self.tok(i + 1).is_some_and(|t| t.kind == TokenKind::Ident)
            {
                i = self.walk_fn(i, end, modules, self_type, trait_name);
            } else if self.is_ident(i, "use") {
                i = self.walk_use(i + 1, end);
            } else {
                i += 1;
            }
        }
    }

    /// Parses an `impl` header (`impl<…> Trait for Type<…> {`) and walks
    /// its body with the owner context set. Returns the index after it.
    fn walk_impl(&mut self, at: usize, end: usize, modules: &mut Vec<String>) -> usize {
        let mut j = at + 1;
        if self.is_punct(j, "<") {
            j = self.skip_group(j, end, "<", ">");
        }
        // Collect path segments up to `for`, `where`, `{`, or `;`.
        let mut first: Vec<String> = Vec::new();
        let mut second: Vec<String> = Vec::new();
        let mut saw_for = false;
        while j < end {
            if self.is_punct(j, "{") || self.is_punct(j, ";") {
                break;
            }
            if self.is_ident(j, "where") {
                // Skip the where clause to the body.
                while j < end && !self.is_punct(j, "{") && !self.is_punct(j, ";") {
                    j += 1;
                }
                break;
            }
            if self.is_ident(j, "for") {
                saw_for = true;
                j += 1;
                continue;
            }
            if self.is_punct(j, "<") {
                j = self.skip_group(j, end, "<", ">");
                continue;
            }
            if let Some(t) = self.tok(j) {
                if t.kind == TokenKind::Ident && t.text != "dyn" && t.text != "mut" {
                    if saw_for {
                        second.push(t.text.clone());
                    } else {
                        first.push(t.text.clone());
                    }
                }
            }
            j += 1;
        }
        let (ty, tr) = if saw_for {
            (second.last().cloned(), first.last().cloned())
        } else {
            (first.last().cloned(), None)
        };
        if self.is_punct(j, "{") {
            let body_end = self.skip_group(j, end, "{", "}");
            self.walk_items(j + 1, body_end - 1, modules, ty.as_deref(), tr.as_deref());
            body_end
        } else {
            j + 1
        }
    }

    /// Parses one `use` declaration into leaf aliases. Handles nested
    /// groups (`use a::{b, c::{d as e}}`) and ignores globs.
    fn walk_use(&mut self, at: usize, end: usize) -> usize {
        let mut i = at;
        if self.is_ident(i, "pub") {
            i += 1;
        }
        let mut prefix: Vec<String> = Vec::new();
        self.use_tree(&mut i, end, &mut prefix);
        while i < end && !self.is_punct(i, ";") {
            i += 1;
        }
        i + 1
    }

    fn use_tree(&mut self, i: &mut usize, end: usize, prefix: &mut Vec<String>) {
        let depth_here = prefix.len();
        while *i < end {
            if self.is_punct(*i, ";") || self.is_punct(*i, "}") {
                return;
            }
            if self.is_punct(*i, "{") {
                let group_depth = prefix.len();
                *i += 1;
                loop {
                    self.use_tree(i, end, prefix);
                    prefix.truncate(group_depth);
                    if self.is_punct(*i, ",") {
                        *i += 1;
                        continue;
                    }
                    break;
                }
                if self.is_punct(*i, "}") {
                    *i += 1;
                }
                return;
            }
            if self.is_punct(*i, ",") {
                // Leaf ended at the previous segment.
                self.push_use_leaf(prefix);
                return;
            }
            if self.is_ident(*i, "as") {
                let alias = self.tok(*i + 1).map(|t| t.text.clone()).unwrap_or_default();
                if !alias.is_empty() && alias != "_" {
                    self.file.uses.push(UseItem { alias, path: prefix.clone() });
                }
                *i += 2;
                // Consume to the leaf end.
                while *i < end
                    && !self.is_punct(*i, ",")
                    && !self.is_punct(*i, "}")
                    && !self.is_punct(*i, ";")
                {
                    *i += 1;
                }
                prefix.truncate(depth_here);
                return;
            }
            if let Some(t) = self.tok(*i) {
                if t.kind == TokenKind::Ident {
                    prefix.push(t.text.clone());
                    *i += 1;
                    if self.is_punct(*i, "::") {
                        *i += 1;
                        continue;
                    }
                    if self.is_ident(*i, "as") {
                        continue; // the `as` branch above aliases this leaf
                    }
                    // Leaf.
                    self.push_use_leaf(prefix);
                    prefix.truncate(depth_here);
                    // Advance past leaf; caller handles `,`/`}`.
                    return;
                }
                if t.kind == TokenKind::Punct && t.text == "*" {
                    *i += 1; // glob — untracked
                    return;
                }
            }
            *i += 1;
        }
    }

    fn push_use_leaf(&mut self, path: &[String]) {
        if let Some(last) = path.last() {
            if last != "self" {
                self.file.uses.push(UseItem { alias: last.clone(), path: path.to_vec() });
            } else if path.len() >= 2 {
                // `use a::b::{self}` names `b`.
                let alias = path[path.len() - 2].clone();
                self.file.uses.push(UseItem { alias, path: path[..path.len() - 1].to_vec() });
            }
        }
    }

    /// Parses one `fn` definition (signature + optional body), records
    /// the [`FnItem`], and scans the body for facts. Returns the index
    /// after the definition.
    fn walk_fn(
        &mut self,
        at: usize,
        end: usize,
        modules: &mut Vec<String>,
        self_type: Option<&str>,
        trait_name: Option<&str>,
    ) -> usize {
        let name_tok = &self.toks[at + 1];
        let name = name_tok.text.clone();
        let line = self.toks[at].line;
        let mut j = at + 2;
        if self.is_punct(j, "<") {
            j = self.skip_group(j, end, "<", ">");
        }
        // Parameter list.
        let mut has_self = false;
        if self.is_punct(j, "(") {
            let params_end = self.skip_group(j, end, "(", ")");
            for k in j + 1..params_end.saturating_sub(1) {
                if self.is_ident(k, "self") {
                    has_self = true;
                    break;
                }
            }
            j = params_end;
        }
        // Signature tail (return type, where clause) up to body or `;`.
        while j < end && !self.is_punct(j, "{") && !self.is_punct(j, ";") {
            j += 1;
        }
        let boundaries: Vec<String> = self
            .boundary_lines
            .iter()
            .filter(|&&(l, _)| l == line)
            .map(|(_, r)| r.clone())
            .collect();
        let fn_id = self.fns.len();
        self.fns.push(FnItem {
            name,
            modules: modules.clone(),
            self_type: self_type.map(str::to_string),
            trait_name: trait_name.map(str::to_string),
            has_self,
            file: self.file_id,
            line,
            in_test: self.in_test(line),
            boundaries,
            calls: Vec::new(),
            allocs: Vec::new(),
            locks: Vec::new(),
            pool_runs: Vec::new(),
        });
        self.file.fns.push(fn_id);
        if self.is_punct(j, "{") {
            let body_end = self.skip_group(j, end, "{", "}");
            self.walk_body(j + 1, body_end - 1, fn_id, modules, self_type, trait_name);
            body_end
        } else {
            j + 1
        }
    }

    /// Scans a function body for facts; nested items (`fn`, `mod`,
    /// `impl`) are indexed separately and skipped here.
    fn walk_body(
        &mut self,
        start: usize,
        end: usize,
        fn_id: FnId,
        modules: &mut Vec<String>,
        self_type: Option<&str>,
        trait_name: Option<&str>,
    ) {
        let closures = closure_regions(self, start, end);
        let in_closure = |i: usize| closures.iter().any(|&(lo, hi)| (lo..hi).contains(&i));
        let mut i = start;
        while i < end {
            // Nested items get their own FnItem; don't double-count.
            if self.is_ident(i, "fn") && self.tok(i + 1).is_some_and(|t| t.kind == TokenKind::Ident)
            {
                i = self.walk_fn(i, end, modules, None, None);
                continue;
            }
            if (self.is_ident(i, "mod")
                && self.tok(i + 1).is_some_and(|t| t.kind == TokenKind::Ident)
                && self.is_punct(i + 2, "{"))
                || self.is_ident(i, "impl")
            {
                // Item-position recursion handles these.
                let save = i;
                self.walk_items(i, end, modules, self_type, trait_name);
                // walk_items consumed through `end`; restart scanning
                // after the nested item by brace-matching it here.
                let mut j = save;
                while j < end && !self.is_punct(j, "{") {
                    j += 1;
                }
                i = if j < end { self.skip_group(j, end, "{", "}") } else { end };
                continue;
            }
            let t = &self.toks[i];
            if t.kind != TokenKind::Ident {
                i += 1;
                continue;
            }
            // Macro call: `name ! (`/`[`/`{`.
            if self.is_punct(i + 1, "!")
                && (self.is_punct(i + 2, "(")
                    || self.is_punct(i + 2, "[")
                    || self.is_punct(i + 2, "{"))
            {
                if ALLOC_MACROS.contains(&t.text.as_str()) {
                    self.fns[fn_id].allocs.push(AllocSite {
                        what: format!("{}!", t.text),
                        line: t.line,
                        col: t.col,
                    });
                }
                i += 2;
                continue;
            }
            // Call shapes: `name(` possibly with a `::<…>` turbofish.
            let Some(_paren) = self.call_paren(i, end) else {
                i += 1;
                continue;
            };
            if NOT_CALLS.contains(&t.text.as_str()) {
                i += 1;
                continue;
            }
            let is_method = i > start && self.is_punct(i - 1, ".");
            let path = if is_method { vec![t.text.clone()] } else { self.path_backwards(i) };
            let name = t.text.as_str();
            // Fact extraction, most specific first.
            if is_method && name == "lock" {
                let receiver = self.receiver_chain(i - 1);
                let last = receiver.rsplit(['.']).next().unwrap_or(&receiver).to_string();
                let let_bound = self.stmt_has_let(start, i);
                self.fns[fn_id].locks.push(LockSite {
                    name: last,
                    receiver,
                    let_bound,
                    line: t.line,
                    col: t.col,
                });
            } else if is_method && name == "run" {
                let receiver = self.receiver_chain(i - 1);
                if receiver_is_pool(&receiver) {
                    self.fns[fn_id].pool_runs.push(PoolRunSite {
                        receiver,
                        in_closure: in_closure(i),
                        line: t.line,
                        col: t.col,
                    });
                }
            }
            if (is_method && ALLOC_METHODS.contains(&name))
                || (!is_method
                    && path.len() == 2
                    && ALLOC_QUALIFIED.contains(&(path[0].as_str(), path[1].as_str())))
            {
                let what = if is_method { name.to_string() } else { path.join("::") };
                self.fns[fn_id].allocs.push(AllocSite { what, line: t.line, col: t.col });
            }
            self.fns[fn_id].calls.push(CallSite {
                path,
                method: is_method,
                in_closure: in_closure(i),
                line: t.line,
                col: t.col,
            });
            i += 1;
        }
    }

    /// Whether the statement containing token `i` starts with `let`:
    /// scan back to the nearest statement boundary (`;`, `{`, `}`),
    /// looking for the keyword on the way.
    fn stmt_has_let(&self, start: usize, i: usize) -> bool {
        let mut j = i;
        while j > start {
            j -= 1;
            let t = &self.toks[j];
            if t.kind == TokenKind::Punct && matches!(t.text.as_str(), ";" | "{" | "}") {
                return false;
            }
            if t.kind == TokenKind::Ident && t.text == "let" {
                return true;
            }
        }
        false
    }

    /// If token `i` heads a call (`name(` or `name::<…>(`), returns the
    /// index of the opening paren.
    fn call_paren(&self, i: usize, end: usize) -> Option<usize> {
        if self.is_punct(i + 1, "(") {
            return Some(i + 1);
        }
        if self.is_punct(i + 1, "::") && self.is_punct(i + 2, "<") {
            let after = self.skip_group(i + 2, end, "<", ">");
            if self.is_punct(after, "(") {
                return Some(after);
            }
        }
        None
    }

    /// Collects the `::`-separated path ending at the ident `i`,
    /// skipping turbofish groups (`Vec::<u8>::new` → `["Vec","new"]`).
    fn path_backwards(&self, i: usize) -> Vec<String> {
        let mut segs = vec![self.toks[i].text.clone()];
        let mut j = i;
        loop {
            if j < 1 || !self.is_punct(j - 1, "::") {
                break;
            }
            let mut k = j - 2; // token before `::`
            if self.is_punct(k, ">") {
                // Skip `<…>` backwards.
                let mut depth = 0usize;
                loop {
                    if self.is_punct(k, ">") {
                        depth += 1;
                    } else if self.is_punct(k, "<") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    if k == 0 {
                        break;
                    }
                    k -= 1;
                }
                if k == 0 {
                    break;
                }
                k -= 1;
                if self.is_punct(k, "::") {
                    if k == 0 {
                        break;
                    }
                    k -= 1;
                } else {
                    break;
                }
            }
            match self.tok(k) {
                Some(t) if t.kind == TokenKind::Ident => {
                    segs.push(t.text.clone());
                    j = k;
                }
                _ => break,
            }
        }
        segs.reverse();
        segs
    }

    /// The receiver chain before a `.method` at `dot` (the `.` token),
    /// rendered as written: `self.shared.stats`, `pool::global()`.
    fn receiver_chain(&self, dot: usize) -> String {
        let mut parts: Vec<String> = Vec::new();
        let mut j = dot; // token index of the `.`; receiver ends at j-1
        loop {
            if j == 0 {
                break;
            }
            let k = j - 1;
            if self.is_punct(k, ")") {
                // A call in the chain (`global()`); skip its parens.
                let mut depth = 0usize;
                let mut m = k;
                loop {
                    if self.is_punct(m, ")") {
                        depth += 1;
                    } else if self.is_punct(m, "(") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    if m == 0 {
                        break;
                    }
                    m -= 1;
                }
                parts.push("()".to_string());
                if m == 0 {
                    break;
                }
                j = m;
                continue;
            }
            match self.tok(k) {
                Some(t) if t.kind == TokenKind::Ident => {
                    parts.push(t.text.clone());
                    if k >= 1 && (self.is_punct(k - 1, ".") || self.is_punct(k - 1, "::")) {
                        parts.push(if self.is_punct(k - 1, ".") { "." } else { "::" }.to_string());
                        j = k - 1;
                        continue;
                    }
                    break;
                }
                _ => break,
            }
        }
        parts.reverse();
        parts.concat()
    }
}

/// Whether a `.run(…)` receiver is recognizably a worker pool: names a
/// `WorkerPool`, a `global()` pool accessor, or any binding/field whose
/// name contains "pool". A pool bound to an unrelated name escapes this
/// rule — a documented lexical limit.
fn receiver_is_pool(receiver: &str) -> bool {
    let lower = receiver.to_ascii_lowercase();
    lower.contains("pool") || receiver.contains("WorkerPool") || lower.contains("global()")
}

/// Finds closure-literal token ranges `[start, end)` inside a body: a
/// `|params|`/`||` head plus its expression or block body.
fn closure_regions(w: &Walker<'_>, start: usize, end: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = start;
    while i < end {
        // `|` and `||` open a closure only in expression position; after an
        // operand they are an or (`a | b`, `a || b`).
        let is_closure_head = (w.is_punct(i, "||") || w.is_punct(i, "|"))
            && (i == start
                || w.tok(i - 1).is_some_and(|p| {
                    (p.kind == TokenKind::Punct
                        && ["(", ",", "=", "{", "=>", ";", ":", "&&"].contains(&p.text.as_str()))
                        || (p.kind == TokenKind::Ident
                            && ["move", "return", "else"].contains(&p.text.as_str()))
                }));
        if !is_closure_head {
            i += 1;
            continue;
        }
        let head_start = i;
        let body_start = if w.is_punct(i, "||") {
            i + 1
        } else {
            // Find the closing `|` of the parameter list.
            let mut k = i + 1;
            let mut depth = 0usize;
            while k < end {
                if w.is_punct(k, "(") || w.is_punct(k, "[") {
                    depth += 1;
                } else if w.is_punct(k, ")") || w.is_punct(k, "]") {
                    depth = depth.saturating_sub(1);
                } else if depth == 0 && w.is_punct(k, "|") {
                    break;
                }
                k += 1;
            }
            k + 1
        };
        let body_end = if w.is_punct(body_start, "{") {
            w.skip_group(body_start, end, "{", "}")
        } else {
            // Expression closure: until `,` or `;` at depth 0, or an
            // enclosing group closes.
            let mut k = body_start;
            let mut paren = 0isize;
            let mut brack = 0isize;
            let mut brace = 0isize;
            while k < end {
                let closes_enclosing = (w.is_punct(k, ")") && paren == 0)
                    || (w.is_punct(k, "]") && brack == 0)
                    || (w.is_punct(k, "}") && brace == 0);
                if closes_enclosing {
                    break;
                }
                if paren == 0
                    && brack == 0
                    && brace == 0
                    && (w.is_punct(k, ",") || w.is_punct(k, ";"))
                {
                    break;
                }
                if w.is_punct(k, "(") {
                    paren += 1;
                } else if w.is_punct(k, ")") {
                    paren -= 1;
                } else if w.is_punct(k, "[") {
                    brack += 1;
                } else if w.is_punct(k, "]") {
                    brack -= 1;
                } else if w.is_punct(k, "{") {
                    brace += 1;
                } else if w.is_punct(k, "}") {
                    brace -= 1;
                }
                k += 1;
            }
            k
        };
        out.push((head_start, body_end));
        i = body_start.max(head_start + 1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn index_one(path: &str, src: &str) -> WorkspaceIndex {
        let lexed = lex(src);
        let mut ix = WorkspaceIndex::default();
        ix.add_file(path, &lexed, false, &[], &[]);
        ix
    }

    fn fn_named<'a>(ix: &'a WorkspaceIndex, name: &str) -> &'a FnItem {
        ix.fns.iter().find(|f| f.name == name).unwrap_or_else(|| panic!("fn {name} indexed"))
    }

    #[test]
    fn impl_and_trait_owners_are_recorded() {
        let src = "pub struct Net;\nimpl Net { pub fn fwd(&mut self) {} }\n\
                   trait Layer { fn forward_into(&mut self) { self.fwd2(); } }\n\
                   impl Layer for Net { fn forward_into(&mut self) {} }\n";
        let ix = index_one("crates/x/src/lib.rs", src);
        let fwd = fn_named(&ix, "fwd");
        assert_eq!(fwd.self_type.as_deref(), Some("Net"));
        assert!(fwd.has_self);
        let impls: Vec<_> = ix.fns.iter().filter(|f| f.name == "forward_into").collect();
        assert_eq!(impls.len(), 2);
        assert!(impls.iter().any(|f| f.self_type.as_deref() == Some("Layer")));
        assert!(impls
            .iter()
            .any(|f| f.self_type.as_deref() == Some("Net")
                && f.trait_name.as_deref() == Some("Layer")));
    }

    #[test]
    fn calls_and_allocs_are_attributed_to_their_fn() {
        let src = "fn a() { b(); let v: Vec<u32> = (0..3).collect(); }\n\
                   fn b() { let _ = Vec::<u8>::new(); let s = format!(\"x\"); }\n";
        let ix = index_one("crates/x/src/lib.rs", src);
        let a = fn_named(&ix, "a");
        assert!(a.calls.iter().any(|c| c.path == ["b"] && !c.method));
        assert_eq!(a.allocs.len(), 1);
        assert_eq!(a.allocs[0].what, "collect");
        let b = fn_named(&ix, "b");
        let whats: Vec<_> = b.allocs.iter().map(|s| s.what.as_str()).collect();
        assert!(whats.contains(&"Vec::new"), "turbofish Vec::<u8>::new missed: {whats:?}");
        assert!(whats.contains(&"format!"));
    }

    #[test]
    fn locks_use_last_receiver_segment() {
        let src = "fn f(s: &S) { let g = s.shared.stats.lock().expect(\"x\"); drop(g); }\n";
        let ix = index_one("crates/x/src/lib.rs", src);
        let f = fn_named(&ix, "f");
        assert_eq!(f.locks.len(), 1);
        assert_eq!(f.locks[0].name, "stats");
        assert_eq!(f.locks[0].receiver, "s.shared.stats");
    }

    #[test]
    fn pool_runs_recognize_pool_receivers_only() {
        let src = "fn f(pool: &WorkerPool, engine: &E) {\n\
                   pool.run(jobs());\n\
                   pgmr_nn::pool::global().run(jobs());\n\
                   WorkerPool::new(2).run(jobs());\n\
                   engine.run();\n}\nfn jobs() -> Vec<fn()> { Vec::new() }\n";
        let ix = index_one("crates/x/src/lib.rs", src);
        let f = fn_named(&ix, "f");
        assert_eq!(f.pool_runs.len(), 3, "{:?}", f.pool_runs);
    }

    #[test]
    fn closure_calls_are_marked() {
        let src = "fn f(pool: &P) { let jobs = xs.iter().map(|x| work(x)); pool.run(jobs); \
                   direct(); }\nfn work(x: u32) {}\nfn direct() {}\n";
        let ix = index_one("crates/x/src/lib.rs", src);
        let f = fn_named(&ix, "f");
        let work = f.calls.iter().find(|c| c.path == ["work"]).expect("work call");
        assert!(work.in_closure);
        let direct = f.calls.iter().find(|c| c.path == ["direct"]).expect("direct call");
        assert!(!direct.in_closure);
    }

    #[test]
    fn logical_or_is_not_a_closure_head() {
        let src = "fn f(a: bool, b: bool) { if a || b { left(); } else { right(); } \
                   let g = || inner(); }\nfn left() {}\nfn right() {}\nfn inner() {}\n";
        let ix = index_one("crates/x/src/lib.rs", src);
        let f = fn_named(&ix, "f");
        for name in ["left", "right"] {
            let call = f.calls.iter().find(|c| c.path == [name]).expect("branch call");
            assert!(!call.in_closure, "{name} sits after a logical or, not in a closure");
        }
        let inner = f.calls.iter().find(|c| c.path == ["inner"]).expect("inner call");
        assert!(inner.in_closure);
    }

    #[test]
    fn move_closures_and_nested_blocks() {
        let src = "fn f() { let j = items.map(|(a, b)| { move || helper(a, b) }); }\n\
                   fn helper(a: u32, b: u32) {}\n";
        let ix = index_one("crates/x/src/lib.rs", src);
        let f = fn_named(&ix, "f");
        let h = f.calls.iter().find(|c| c.path == ["helper"]).expect("helper call");
        assert!(h.in_closure);
    }

    #[test]
    fn nested_fns_get_their_own_item() {
        let src = "fn outer() { fn inner() { leaf(); } inner(); }\nfn leaf() {}\n";
        let ix = index_one("crates/x/src/lib.rs", src);
        let outer = fn_named(&ix, "outer");
        assert!(outer.calls.iter().any(|c| c.path == ["inner"]));
        assert!(!outer.calls.iter().any(|c| c.path == ["leaf"]), "leaf belongs to inner");
        let inner = fn_named(&ix, "inner");
        assert!(inner.calls.iter().any(|c| c.path == ["leaf"]));
    }

    #[test]
    fn uses_are_collected_with_groups_and_aliases() {
        let src = "use a::b::{C, d as e};\nuse f::g;\n";
        let ix = index_one("crates/x/src/lib.rs", src);
        let uses = &ix.files[0].uses;
        let find = |alias: &str| uses.iter().find(|u| u.alias == alias);
        assert_eq!(find("C").expect("C").path, ["a", "b", "C"]);
        assert_eq!(find("e").expect("e").path, ["a", "b", "d"]);
        assert_eq!(find("g").expect("g").path, ["f", "g"]);
    }

    #[test]
    fn qualified_names_include_crate_module_and_type() {
        let src = "impl Conv2d { fn forward_into(&mut self) {} }\n";
        let ix = index_one("crates/nn/src/layers/conv.rs", src);
        let f = ix.fns.iter().position(|f| f.name == "forward_into").expect("indexed");
        assert_eq!(ix.qualified_name(f), "pgmr_nn::layers::conv::Conv2d::forward_into");
    }

    #[test]
    fn inline_mod_path_is_tracked() {
        let src = "mod inner { pub fn f() {} }\n";
        let ix = index_one("crates/x/src/lib.rs", src);
        let f = fn_named(&ix, "f");
        assert_eq!(f.modules, ["inner"]);
    }
}
