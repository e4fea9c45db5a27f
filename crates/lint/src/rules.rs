//! The rule set: token-pattern checks over [`SourceFile`]s.
//!
//! Every rule protects one invariant the WEFR reproduction depends on
//! (DESIGN.md §9): bit-identical selections across worker counts and split
//! strategies, a registry-free dependency graph, and panic-free library
//! crates. Rules and their allowlists live here as Rust constants — no
//! config file — so scope changes are reviewable diffs.

use std::collections::BTreeSet;

use crate::lexer::{Token, TokenKind};
use crate::source::{SourceFile, Suppression, TargetKind};

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: usize,
    /// Rule id (see [`all_rules`]).
    pub rule: String,
    /// Human-readable explanation.
    pub message: String,
}

json::impl_json!(Diagnostic {
    file,
    line,
    rule,
    message
});

/// Static description of one rule, used by `--list-rules` and the JSON
/// report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleMeta {
    /// Stable kebab-case id, the name used in `lint:allow(...)`.
    pub id: &'static str,
    /// One-line summary of what the rule flags.
    pub summary: &'static str,
    /// Which workspace invariant the rule protects.
    pub rationale: &'static str,
}

/// Id of the suppression-hygiene pseudo-rule (reason-less or malformed
/// `lint:allow` comments, unknown rule ids). Not itself suppressible.
pub const SUPPRESSION_RULE: &str = "suppression";

/// Crates whose *library* code must not panic: every `unwrap`/`expect`/
/// `panic!`-family use needs a typed error or a reasoned `lint:allow`.
pub const PANIC_FREE_CRATES: &[&str] = &[
    "wefr-core",
    "smart-stats",
    "smart-trees",
    "smart-complexity",
    "smart-changepoint",
    "smart-dataset",
    "smart-pipeline",
    "smart-serve",
    "smart-lint",
];

/// Crates on the ranking/selection path, where `HashMap`/`HashSet`
/// iteration order would leak nondeterminism into selections and reports.
pub const ORDER_SENSITIVE_CRATES: &[&str] = &[
    "wefr-core",
    "smart-stats",
    "smart-trees",
    "smart-complexity",
    "smart-changepoint",
    "smart-dataset",
    "smart-pipeline",
    "smart-serve",
    "smart-lint",
];

/// Crates whose whole purpose is observation: wall-clock, environment,
/// and stderr access are their job, so the side-effects rule skips them.
pub const SIDE_EFFECT_EXEMPT_CRATES: &[&str] = &["smart-telemetry", "wefr-bench"];

/// Path roots that are always importable: the standard library facade
/// and Rust's path keywords.
const BUILTIN_ROOTS: &[&str] = &["std", "core", "alloc", "crate", "self", "super"];

/// All rules, in reporting order.
pub fn all_rules() -> Vec<RuleMeta> {
    vec![
        RuleMeta {
            id: "float-determinism",
            summary: "no partial_cmp on floats; use total_cmp",
            rationale: "partial_cmp returns None on NaN, so sorts panic or silently reorder; \
                        total_cmp keeps every float ordering deterministic (DESIGN.md §8)",
        },
        RuleMeta {
            id: "panic-free",
            summary: "no unwrap/expect/panic!/todo!/unreachable! in library code",
            rationale: "library crates must surface typed errors, not abort a fleet-scale \
                        selection run; panics that encode real invariants need a reasoned \
                        lint:allow",
        },
        RuleMeta {
            id: "hash-iteration",
            summary: "no std HashMap/HashSet in ranking/selection crates",
            rationale: "RandomState iteration order differs per process, which would break \
                        bit-identical selections across runs and worker counts (DESIGN.md §8); \
                        use BTreeMap/BTreeSet or sorted vecs",
        },
        RuleMeta {
            id: "hermetic-use",
            summary: "no use/extern crate of anything outside the workspace",
            rationale: "the build is hermetic — only in-repo path crates and std are allowed \
                        (DESIGN.md §5); catches dev-dependency imports before cargo metadata can",
        },
        RuleMeta {
            id: "side-effects",
            summary: "Instant::now/env::var/stderr only in telemetry, bench, and bins; \
                      sockets only in telemetry's one listener",
            rationale: "library hot paths must stay pure and reproducible; clocks, environment \
                        reads, and stderr writes belong to the observability layer, and network \
                        I/O belongs to smart-telemetry's serve module alone \
                        (DESIGN.md §6)",
        },
        RuleMeta {
            id: "forbid-unsafe",
            summary: "every crate root must declare #![forbid(unsafe_code)]",
            rationale: "the workspace's no-unsafe policy is self-enforcing: forbid cannot be \
                        overridden by inner allow attributes; smart-telemetry alone may gate \
                        forbid on the obs-alloc feature (its counting allocator is an unsafe \
                        trait impl), paired with an unconditional deny",
        },
        RuleMeta {
            id: "sync-hygiene",
            summary: "no raw std::sync Mutex/Condvar/RwLock/Barrier/atomic/mpsc outside \
                      crates/sync",
            rationale: "concurrency primitives must route through the crates/sync shim so the \
                        `model` feature can interpose its deterministic scheduler; a raw \
                        std::sync import is invisible to the model checker (DESIGN.md §13)",
        },
        RuleMeta {
            id: "condvar-loop",
            summary: "every condvar wait/wait_timeout must sit in a predicate loop, not an if",
            rationale: "condvars wake spuriously and notifications race with the predicate; an \
                        if-guarded wait silently loses wakeups — the model checker demonstrates \
                        this on the IfWaitQueue fixture (DESIGN.md §13)",
        },
        RuleMeta {
            id: "atomic-ordering",
            summary: "Ordering::Relaxed requires a reasoned lint:allow",
            rationale: "Relaxed provides no happens-before edge, so every use is a proof \
                        obligation; the written reason is the proof sketch — use SeqCst (or \
                        Acquire/Release) when in doubt (DESIGN.md §13)",
        },
        RuleMeta {
            id: SUPPRESSION_RULE,
            summary: "lint:allow must name known rules and carry a reason",
            rationale: "suppressions are reviewable waivers, not blanket opt-outs; a written \
                        reason is the price of silencing a rule",
        },
    ]
}

/// The result of checking one file: surviving violations plus the
/// suppressions that absorbed would-be violations.
#[derive(Debug, Clone, Default)]
pub struct FileOutcome {
    /// Violations that survived suppression filtering.
    pub violations: Vec<Diagnostic>,
    /// Suppressions that matched at least one diagnostic, with the
    /// diagnostic they absorbed.
    pub used_suppressions: Vec<(Suppression, Diagnostic)>,
}

/// Run every rule over `file`. `workspace_libs` is the set of library
/// names `use` may legitimately reference (besides std and path
/// keywords).
pub fn check_file(file: &SourceFile, workspace_libs: &BTreeSet<String>) -> FileOutcome {
    let mut raw = Vec::new();
    float_determinism(file, &mut raw);
    panic_free(file, &mut raw);
    hash_iteration(file, &mut raw);
    hermetic_use(file, workspace_libs, &mut raw);
    side_effects(file, &mut raw);
    forbid_unsafe(file, &mut raw);
    sync_hygiene(file, &mut raw);
    condvar_loop(file, &mut raw);
    atomic_ordering(file, &mut raw);

    let known: BTreeSet<&str> = all_rules().iter().map(|r| r.id).collect();
    let mut out = FileOutcome {
        violations: file.parse_diags.clone(),
        used_suppressions: Vec::new(),
    };
    for s in &file.suppressions {
        for rule in &s.rules {
            if !known.contains(rule.as_str()) {
                out.violations.push(Diagnostic {
                    file: file.path.clone(),
                    line: s.comment_line,
                    rule: SUPPRESSION_RULE.to_string(),
                    message: format!("lint:allow names unknown rule `{rule}`"),
                });
            }
        }
    }
    for d in raw {
        match file.suppression_for(&d.rule, d.line) {
            Some(s) => out.used_suppressions.push((s.clone(), d)),
            None => out.violations.push(d),
        }
    }
    out.violations
        .sort_by(|a, b| (a.line, &a.rule, &a.message).cmp(&(b.line, &b.rule, &b.message)));
    out
}

fn diag(file: &SourceFile, line: usize, rule: &str, message: String) -> Diagnostic {
    Diagnostic {
        file: file.path.clone(),
        line,
        rule: rule.to_string(),
        message,
    }
}

fn ident_at(code: &[Token], i: usize) -> Option<&str> {
    code.get(i)
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.as_str())
}

fn punct_at(code: &[Token], i: usize, text: &str) -> bool {
    code.get(i)
        .is_some_and(|t| t.kind == TokenKind::Punct && t.text == text)
}

/// `code[i]` and `code[i+1]` spell `::`.
fn path_sep(code: &[Token], i: usize) -> bool {
    punct_at(code, i, ":") && punct_at(code, i + 1, ":")
}

fn in_list(list: &[&str], package: &str) -> bool {
    list.contains(&package)
}

/// Rule `float-determinism`: any `.partial_cmp(` / `::partial_cmp(`
/// outside tests. The workspace compares nothing but floats with it, and
/// floats must be ordered with `total_cmp` to stay NaN-safe and
/// deterministic.
fn float_determinism(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let code = &file.code;
    for i in 0..code.len() {
        if ident_at(code, i) != Some("partial_cmp") {
            continue;
        }
        // Method call or path form only; skip `fn partial_cmp` definitions.
        let call_like = i > 0 && (punct_at(code, i - 1, ".") || punct_at(code, i - 1, ":"));
        if !call_like || file.in_test(code[i].line) {
            continue;
        }
        out.push(diag(
            file,
            code[i].line,
            "float-determinism",
            "partial_cmp on floats is not total (None on NaN); use total_cmp, or a reasoned \
             lint:allow if the operands cannot be floats"
                .to_string(),
        ));
    }
}

const PANIC_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];
const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented", "unreachable"];

/// Rule `panic-free`: no panicking calls in library code of the crates in
/// [`PANIC_FREE_CRATES`]. Bins, tests, benches, and examples are exempt.
fn panic_free(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !in_list(PANIC_FREE_CRATES, &file.package) || file.target != TargetKind::Lib {
        return;
    }
    let code = &file.code;
    for i in 0..code.len() {
        let Some(text) = ident_at(code, i) else {
            continue;
        };
        if file.in_test(code[i].line) {
            continue;
        }
        let method = PANIC_METHODS.contains(&text)
            && i > 0
            && punct_at(code, i - 1, ".")
            && punct_at(code, i + 1, "(");
        let mac = PANIC_MACROS.contains(&text) && punct_at(code, i + 1, "!");
        if method {
            out.push(diag(
                file,
                code[i].line,
                "panic-free",
                format!(
                    ".{text}() panics at runtime; propagate a typed error instead, or add a \
                     reasoned lint:allow if this encodes a real invariant"
                ),
            ));
        } else if mac {
            out.push(diag(
                file,
                code[i].line,
                "panic-free",
                format!(
                    "{text}! aborts the caller; library code must return typed errors, or \
                     carry a reasoned lint:allow for true invariants"
                ),
            ));
        }
    }
}

/// Rule `hash-iteration`: no `HashMap`/`HashSet` in order-sensitive
/// crates' library code.
fn hash_iteration(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !in_list(ORDER_SENSITIVE_CRATES, &file.package) || file.target != TargetKind::Lib {
        return;
    }
    for t in &file.code {
        if t.kind == TokenKind::Ident
            && (t.text == "HashMap" || t.text == "HashSet")
            && !file.in_test(t.line)
        {
            out.push(diag(
                file,
                t.line,
                "hash-iteration",
                format!(
                    "{} iterates in RandomState order, which varies per process; use \
                     BTreeMap/BTreeSet or a sorted Vec on ranking/selection paths",
                    t.text
                ),
            ));
        }
    }
}

/// Rule `hermetic-use`: the first segment of every `use` path and every
/// `extern crate` must be std, a path keyword, a workspace library, or a
/// name visibly local to the file. Applies everywhere, tests included —
/// in-src test modules are built by the same hermetic graph.
///
/// Two uniform-path forms (edition 2021) are recognised as local:
/// `use sibling_mod::X` where `mod sibling_mod` is declared in the same
/// file, and `use SomeType::*` (enum-variant imports) — external crates
/// are conventionally snake_case, so an uppercase-initial root can only
/// name an in-scope item.
fn hermetic_use(file: &SourceFile, workspace_libs: &BTreeSet<String>, out: &mut Vec<Diagnostic>) {
    let code = &file.code;
    let local_mods = declared_mods(code);
    let allowed = |root: &str| {
        BUILTIN_ROOTS.contains(&root)
            || workspace_libs.contains(root)
            || local_mods.contains(root)
            || root.chars().next().is_some_and(char::is_uppercase)
    };
    let mut i = 0;
    while i < code.len() {
        if ident_at(code, i) == Some("extern") && ident_at(code, i + 1) == Some("crate") {
            if let Some(root) = ident_at(code, i + 2) {
                if !allowed(root) {
                    out.push(diag(
                        file,
                        code[i].line,
                        "hermetic-use",
                        format!(
                            "extern crate `{root}` is not a workspace crate; the build is \
                             hermetic (DESIGN.md §5)"
                        ),
                    ));
                }
            }
            i += 3;
            continue;
        }
        if ident_at(code, i) != Some("use") {
            i += 1;
            continue;
        }
        for (root, line) in use_roots(code, i + 1) {
            if !allowed(&root) {
                out.push(diag(
                    file,
                    line,
                    "hermetic-use",
                    format!(
                        "use of `{root}` — not a workspace crate or std; the dependency graph \
                         is hermetic (DESIGN.md §5)"
                    ),
                ));
            }
        }
        i += 1;
    }
}

/// Names declared by `mod <name>` anywhere in the file — legal roots for
/// uniform-path `use` statements referring to sibling modules.
fn declared_mods(code: &[Token]) -> BTreeSet<String> {
    let mut mods = BTreeSet::new();
    for i in 0..code.len() {
        if ident_at(code, i) == Some("mod") {
            if let Some(name) = ident_at(code, i + 1) {
                mods.insert(name.to_string());
            }
        }
    }
    mods
}

/// The root segments of a `use` statement starting right after the `use`
/// token: `use a::b` yields `a`; `use {a::b, c}` yields `a` and `c`;
/// nested groups under a root contribute nothing further.
fn use_roots(code: &[Token], mut i: usize) -> Vec<(String, usize)> {
    let mut roots = Vec::new();
    if path_sep(code, i) {
        i += 2; // `use ::std::…` — absolute path, root follows.
    }
    if let Some(root) = ident_at(code, i) {
        roots.push((root.to_string(), code[i].line));
        return roots;
    }
    if !punct_at(code, i, "{") {
        return roots;
    }
    // Top-level brace group: the first ident of each depth-1 element.
    let mut depth = 1usize;
    let mut expect_root = true;
    i += 1;
    while i < code.len() && depth > 0 {
        let t = &code[i];
        match (t.kind, t.text.as_str()) {
            (TokenKind::Punct, "{") => depth += 1,
            (TokenKind::Punct, "}") => depth -= 1,
            (TokenKind::Punct, ",") if depth == 1 => expect_root = true,
            (TokenKind::Punct, ";") => break,
            (TokenKind::Ident, root) if expect_root => {
                roots.push((root.to_string(), t.line));
                expect_root = false;
            }
            _ => {}
        }
        i += 1;
    }
    roots
}

const ENV_CALLS: &[&str] = &["var", "var_os", "vars", "set_var", "remove_var"];
const CLOCK_TYPES: &[&str] = &["Instant", "SystemTime"];
/// Socket types the `side-effects` rule flags outside [`NET_ALLOWED_FILES`].
pub const NET_TYPES: &[&str] = &["TcpListener", "TcpStream", "UdpSocket"];

/// The only file allowed to touch the network: smart-telemetry's one TCP
/// listener, which serves both the metrics endpoint and the smart-serve
/// line protocol (DESIGN.md §6, §14). The exemption is by exact path, not
/// by crate — even the rest of that crate, and every bin, stays
/// socket-free. The self-check test fails if a listed file is missing or
/// names no socket type, so the list cannot go stale.
pub const NET_ALLOWED_FILES: &[&str] = &["crates/telemetry/src/serve.rs"];

/// Rule `side-effects`: wall-clock reads, environment access, and stderr
/// writes only in [`SIDE_EFFECT_EXEMPT_CRATES`], bins, and tests; socket
/// types only in [`NET_ALLOWED_FILES`] and tests.
fn side_effects(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    network_access(file, out);
    if in_list(SIDE_EFFECT_EXEMPT_CRATES, &file.package) || file.target == TargetKind::Bin {
        return;
    }
    let code = &file.code;
    for i in 0..code.len() {
        let Some(text) = ident_at(code, i) else {
            continue;
        };
        if file.in_test(code[i].line) {
            continue;
        }
        let line = code[i].line;
        if (text == "eprintln" || text == "eprint") && punct_at(code, i + 1, "!") {
            out.push(diag(
                file,
                line,
                "side-effects",
                format!("{text}! writes to stderr from library code; log via telemetry instead"),
            ));
        } else if CLOCK_TYPES.contains(&text)
            && path_sep(code, i + 1)
            && ident_at(code, i + 3) == Some("now")
        {
            out.push(diag(
                file,
                line,
                "side-effects",
                format!(
                    "{text}::now() makes library output depend on wall-clock; timing belongs \
                     to telemetry spans and bench targets"
                ),
            ));
        } else if text == "env"
            && path_sep(code, i + 1)
            && ident_at(code, i + 3).is_some_and(|c| ENV_CALLS.contains(&c))
        {
            out.push(diag(
                file,
                line,
                "side-effects",
                "environment access from library code makes runs irreproducible; read env in \
                 bins or telemetry and pass values down"
                    .to_string(),
            ));
        } else if text == "stderr"
            && punct_at(code, i + 1, "(")
            && (i == 0 || !punct_at(code, i - 1, "."))
        {
            out.push(diag(
                file,
                line,
                "side-effects",
                "direct stderr handle in library code; route output through telemetry".to_string(),
            ));
        }
    }
}

/// The network half of the side-effects rule, with its own narrower
/// allowlist (see [`NET_ALLOWED_FILES`]).
fn network_access(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if NET_ALLOWED_FILES.contains(&file.path.as_str()) {
        return;
    }
    for t in &file.code {
        if t.kind == TokenKind::Ident
            && NET_TYPES.contains(&t.text.as_str())
            && !file.in_test(t.line)
        {
            out.push(diag(
                file,
                t.line,
                "side-effects",
                format!(
                    "{} opens network I/O; sockets are allowed only in smart-telemetry's \
                     serve module (DESIGN.md §6, §14)",
                    t.text
                ),
            ));
        }
    }
}

/// Leaves of `std::sync` that must be imported through the crates/sync
/// shim. Everything else under `std::sync` (`Arc`, `LockResult`,
/// `PoisonError`, `OnceLock`, …) has no scheduling behaviour and stays
/// importable from std.
const SYNC_SHIMMED_LEAVES: &[&str] = &["Mutex", "Condvar", "RwLock", "Barrier", "atomic", "mpsc"];

/// The shim itself: the only files allowed to touch raw std::sync
/// primitives, because its passthrough aliases and model internals are
/// built from them.
const SYNC_SHIM_PREFIX: &str = "crates/sync/src/";

/// Rule `sync-hygiene`: `std::sync::{Mutex, Condvar, RwLock, Barrier,
/// atomic, mpsc}` — spelled as a `use` or as an inline path — is banned
/// outside `crates/sync` and tests. Routing through the shim is what lets
/// `--features model` swap in the deterministic scheduler; a raw std
/// primitive is invisible to it.
fn sync_hygiene(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.path.starts_with(SYNC_SHIM_PREFIX) {
        return;
    }
    let code = &file.code;
    for i in 0..code.len() {
        if ident_at(code, i) != Some("std")
            || !path_sep(code, i + 1)
            || ident_at(code, i + 3) != Some("sync")
            || !path_sep(code, i + 4)
            || file.in_test(code[i].line)
        {
            continue;
        }
        // `std::sync::<leaf>` or `std::sync::{group}` — flag every banned
        // leaf; depth-1 group roots cover `use std::sync::{Arc, Mutex}`.
        let leaves: Vec<(String, usize)> = match ident_at(code, i + 6) {
            Some(leaf) => vec![(leaf.to_string(), code[i + 6].line)],
            None => use_roots(code, i + 6),
        };
        for (leaf, line) in leaves {
            if SYNC_SHIMMED_LEAVES.contains(&leaf.as_str()) {
                out.push(diag(
                    file,
                    line,
                    "sync-hygiene",
                    format!(
                        "std::sync::{leaf} bypasses the crates/sync shim; import it from \
                         `sync` so model-feature builds can interpose the deterministic \
                         scheduler, or add a reasoned lint:allow"
                    ),
                ));
            }
        }
    }
}

/// How a brace block affects the condvar-loop search: a loop body
/// satisfies the rule, a function/item boundary stops the search, and
/// everything else (if/else/match arms, plain blocks) is looked through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockKind {
    Loop,
    Barrier,
    Transparent,
}

/// Rule `condvar-loop`: every `.wait(` / `.wait_timeout(` must be
/// lexically inside a `while`/`loop`/`for` body (or the loop's own head
/// expression, the `while !flag.wait_timeout(poll)` idiom) before any
/// enclosing `fn`/`impl`/`mod`/`trait` boundary. `.wait_while` carries its
/// predicate and is exempt. An `if`-guarded wait loses spurious and raced
/// wakeups; smart-sync's model checker demonstrates the failure on its
/// `IfWaitQueue` fixture.
fn condvar_loop(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let code = &file.code;
    let mut stack: Vec<BlockKind> = Vec::new();
    let mut pending: Option<BlockKind> = None;
    for i in 0..code.len() {
        let t = &code[i];
        match t.kind {
            TokenKind::Ident => match t.text.as_str() {
                "while" | "loop" | "for" => pending = Some(BlockKind::Loop),
                "fn" | "impl" | "mod" | "trait" => pending = Some(BlockKind::Barrier),
                "wait" | "wait_timeout" => {
                    let method = i > 0 && punct_at(code, i - 1, ".") && punct_at(code, i + 1, "(");
                    if !method || file.in_test(t.line) {
                        continue;
                    }
                    let in_loop_head = pending == Some(BlockKind::Loop);
                    let in_loop_body = stack.iter().rev().find(|k| **k != BlockKind::Transparent)
                        == Some(&BlockKind::Loop);
                    if !(in_loop_head || in_loop_body) {
                        out.push(diag(
                            file,
                            t.line,
                            "condvar-loop",
                            format!(
                                ".{}() outside a predicate loop: condvar wakeups are spurious \
                                 and race with the predicate, so re-check in a while/loop (or \
                                 carry a reasoned lint:allow if the caller owns the loop)",
                                t.text
                            ),
                        ));
                    }
                }
                _ => {}
            },
            TokenKind::Punct => match t.text.as_str() {
                "{" => stack.push(pending.take().unwrap_or(BlockKind::Transparent)),
                "}" => {
                    stack.pop();
                }
                ";" => pending = None,
                _ => {}
            },
            _ => {}
        }
    }
}

/// Rule `atomic-ordering`: every `Ordering::Relaxed` outside tests needs a
/// reasoned `lint:allow`. Relaxed establishes no happens-before edge, so
/// each use is a small proof obligation — the suppression reason is where
/// the proof sketch lives.
fn atomic_ordering(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let code = &file.code;
    for i in 3..code.len() {
        if ident_at(code, i) == Some("Relaxed")
            && path_sep(code, i - 2)
            && ident_at(code, i - 3) == Some("Ordering")
            && !file.in_test(code[i].line)
        {
            out.push(diag(
                file,
                code[i].line,
                "atomic-ordering",
                "Ordering::Relaxed has no happens-before edge; use SeqCst (or \
                 Acquire/Release), or state why Relaxed is sound in a lint:allow reason"
                    .to_string(),
            ));
        }
    }
}

/// `pattern` appears as a contiguous token-text run somewhere in `code`.
fn has_token_run(code: &[Token], pattern: &[&str]) -> bool {
    code.len() >= pattern.len()
        && (0..=code.len() - pattern.len()).any(|i| {
            pattern
                .iter()
                .enumerate()
                .all(|(k, want)| code[i + k].text == *want)
        })
}

/// smart-telemetry's crate root may replace the unconditional forbid with
/// this exact pair: forbid whenever the `obs-alloc` counting allocator
/// (an `unsafe impl GlobalAlloc`) is compiled out, deny when it is in.
/// Both halves are required — matching anything looser would let the
/// exemption leak.
fn conditional_forbid_pair(code: &[Token]) -> bool {
    let forbid_off = [
        "#",
        "!",
        "[",
        "cfg_attr",
        "(",
        "not",
        "(",
        "feature",
        "=",
        "\"obs-alloc\"",
        ")",
        ",",
        "forbid",
        "(",
        "unsafe_code",
        ")",
        ")",
        "]",
    ];
    let deny_on = [
        "#",
        "!",
        "[",
        "cfg_attr",
        "(",
        "feature",
        "=",
        "\"obs-alloc\"",
        ",",
        "deny",
        "(",
        "unsafe_code",
        ")",
        ")",
        "]",
    ];
    has_token_run(code, &forbid_off) && has_token_run(code, &deny_on)
}

/// Rule `forbid-unsafe`: crate roots must carry `#![forbid(unsafe_code)]`
/// — or, for smart-telemetry only, the feature-conditional pair accepted
/// by [`conditional_forbid_pair`].
fn forbid_unsafe(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !file.is_crate_root {
        return;
    }
    let code = &file.code;
    let pattern = ["#", "!", "[", "forbid", "(", "unsafe_code", ")", "]"];
    let found = has_token_run(code, &pattern)
        || (file.package == "smart-telemetry" && conditional_forbid_pair(code));
    if !found {
        out.push(diag(
            file,
            1,
            "forbid-unsafe",
            "crate root lacks #![forbid(unsafe_code)]; the no-unsafe policy must be \
             self-enforcing"
                .to_string(),
        ));
    }
}
