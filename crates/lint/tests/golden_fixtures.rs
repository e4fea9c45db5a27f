//! Golden-fixture suite: every rule is pinned by a positive fixture (with
//! the exact offending line asserted), a negative fixture that must stay
//! clean, and the suppression protocol is exercised end to end.

use std::collections::BTreeSet;
use std::path::Path;

use lint::{check_source, FileOutcome, TargetKind};

/// Workspace library names visible to the fixtures.
fn libs() -> BTreeSet<String> {
    [
        "smart_stats",
        "json",
        "rng",
        "sync",
        "telemetry",
        "wefr_core",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Run the engine over a fixture as library code of `package`.
fn check(name: &str, package: &str, is_crate_root: bool) -> FileOutcome {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let source = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {name}: {e}"));
    check_source(
        name,
        package,
        TargetKind::Lib,
        is_crate_root,
        &libs(),
        &source,
    )
}

/// The (rule, line) pairs of every surviving violation.
fn hits(outcome: &FileOutcome) -> Vec<(String, usize)> {
    outcome
        .violations
        .iter()
        .map(|d| (d.rule.clone(), d.line))
        .collect()
}

#[test]
fn float_determinism_positive_flags_exact_line() {
    let outcome = check("float_determinism_bad.rs", "smart-stats", false);
    assert!(
        hits(&outcome).contains(&("float-determinism".to_string(), 4)),
        "got {:?}",
        hits(&outcome)
    );
}

#[test]
fn float_determinism_negative_is_clean() {
    let outcome = check("float_determinism_ok.rs", "smart-stats", false);
    assert_eq!(hits(&outcome), Vec::<(String, usize)>::new());
}

#[test]
fn panic_free_positive_flags_unwrap_and_todo() {
    let outcome = check("panic_free_bad.rs", "smart-stats", false);
    let hits = hits(&outcome);
    assert!(
        hits.contains(&("panic-free".to_string(), 4)),
        "got {hits:?}"
    );
    assert!(
        hits.contains(&("panic-free".to_string(), 8)),
        "got {hits:?}"
    );
}

#[test]
fn panic_free_negative_is_clean() {
    let outcome = check("panic_free_ok.rs", "smart-stats", false);
    assert_eq!(hits(&outcome), Vec::<(String, usize)>::new());
}

#[test]
fn panic_free_does_not_apply_outside_listed_crates() {
    // smart-telemetry is not a panic-free crate; the same source is legal.
    let outcome = check("panic_free_bad.rs", "smart-telemetry", false);
    assert!(
        !hits(&outcome).iter().any(|(r, _)| r == "panic-free"),
        "got {:?}",
        hits(&outcome)
    );
}

#[test]
fn hash_iteration_positive_flags_every_mention() {
    let outcome = check("hash_iteration_bad.rs", "smart-trees", false);
    let hits = hits(&outcome);
    assert!(
        hits.contains(&("hash-iteration".to_string(), 3)),
        "got {hits:?}"
    );
    assert_eq!(
        hits.iter().filter(|(r, _)| r == "hash-iteration").count(),
        3
    );
}

#[test]
fn hash_iteration_negative_is_clean() {
    let outcome = check("hash_iteration_ok.rs", "smart-trees", false);
    assert_eq!(hits(&outcome), Vec::<(String, usize)>::new());
}

#[test]
fn hermetic_use_positive_flags_extern_and_use() {
    let outcome = check("hermetic_use_bad.rs", "smart-stats", false);
    let hits = hits(&outcome);
    assert!(
        hits.contains(&("hermetic-use".to_string(), 3)),
        "extern crate rand: got {hits:?}"
    );
    assert!(
        hits.contains(&("hermetic-use".to_string(), 5)),
        "use serde: got {hits:?}"
    );
    assert_eq!(hits.len(), 2, "std import must stay legal: got {hits:?}");
}

#[test]
fn hermetic_use_negative_accepts_workspace_and_uniform_paths() {
    let outcome = check("hermetic_use_ok.rs", "smart-stats", false);
    assert_eq!(hits(&outcome), Vec::<(String, usize)>::new());
}

#[test]
fn side_effects_positive_flags_clock_env_stderr() {
    let outcome = check("side_effects_bad.rs", "smart-pipeline", false);
    let hits = hits(&outcome);
    assert!(
        hits.contains(&("side-effects".to_string(), 4)),
        "Instant::now: got {hits:?}"
    );
    assert!(
        hits.contains(&("side-effects".to_string(), 9)),
        "env::var: got {hits:?}"
    );
    assert!(
        hits.contains(&("side-effects".to_string(), 13)),
        "eprintln!: got {hits:?}"
    );
}

#[test]
fn side_effects_negative_ignores_strings_and_tests() {
    let outcome = check("side_effects_ok.rs", "smart-pipeline", false);
    assert_eq!(hits(&outcome), Vec::<(String, usize)>::new());
}

#[test]
fn side_effects_exempts_telemetry_and_bins() {
    let outcome = check("side_effects_bad.rs", "smart-telemetry", false);
    assert_eq!(hits(&outcome), Vec::<(String, usize)>::new());
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/side_effects_bad.rs");
    let source = std::fs::read_to_string(path).unwrap();
    let as_bin = check_source(
        "side_effects_bad.rs",
        "smart-pipeline",
        TargetKind::Bin,
        false,
        &libs(),
        &source,
    );
    assert_eq!(hits(&as_bin), Vec::<(String, usize)>::new());
}

/// Load a fixture and check it under an arbitrary workspace-relative path
/// — for rules whose allowlists are path-scoped.
fn check_at_path(fixture: &str, path: &str, package: &str, target: TargetKind) -> FileOutcome {
    let file = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(fixture);
    let source =
        std::fs::read_to_string(&file).unwrap_or_else(|e| panic!("reading {fixture}: {e}"));
    check_source(path, package, target, false, &libs(), &source)
}

#[test]
fn network_access_flags_sockets_in_library_code() {
    let outcome = check("network_bad.rs", "smart-pipeline", false);
    let hits = hits(&outcome);
    assert!(
        hits.contains(&("side-effects".to_string(), 3)),
        "use of TcpListener: got {hits:?}"
    );
    assert!(
        hits.contains(&("side-effects".to_string(), 6)),
        "TcpListener::bind: got {hits:?}"
    );
}

#[test]
fn network_access_exemption_is_by_path_not_by_crate() {
    // The blanket smart-telemetry side-effects exemption must NOT cover
    // sockets: only the listener file is allowed them.
    let telemetry = check("network_bad.rs", "smart-telemetry", false);
    assert!(
        hits(&telemetry).iter().any(|(r, _)| r == "side-effects"),
        "sockets outside telemetry's serve.rs must flag even in smart-telemetry: got {:?}",
        hits(&telemetry)
    );
    // Bins are exempt from clocks/env/stderr but not from sockets.
    let bin = check_at_path(
        "network_bad.rs",
        "src/bin/check_something.rs",
        "smart-integration",
        TargetKind::Bin,
    );
    assert!(
        hits(&bin).iter().any(|(r, _)| r == "side-effects"),
        "sockets in bins must flag: got {:?}",
        hits(&bin)
    );
}

#[test]
fn network_access_allowed_only_in_the_endpoint_files() {
    let outcome = check_at_path(
        "network_bad.rs",
        "crates/telemetry/src/serve.rs",
        "smart-telemetry",
        TargetKind::Lib,
    );
    assert!(
        !hits(&outcome).iter().any(|(r, _)| r == "side-effects"),
        "crates/telemetry/src/serve.rs: got {:?}",
        hits(&outcome)
    );
    // Near-miss paths get no exemption — in either crate, including the
    // two files that used to be allowlisted.
    for (path, package) in [
        ("crates/telemetry/src/serve_extra.rs", "smart-telemetry"),
        ("crates/telemetry/src/watchdog.rs", "smart-telemetry"),
        ("crates/serve/src/listener.rs", "smart-serve"),
        ("crates/serve/src/daemon.rs", "smart-serve"),
    ] {
        let near_miss = check_at_path("network_bad.rs", path, package, TargetKind::Lib);
        assert!(
            hits(&near_miss).iter().any(|(r, _)| r == "side-effects"),
            "{path}: got {:?}",
            hits(&near_miss)
        );
    }
}

#[test]
fn forbid_unsafe_positive_flags_bare_crate_root() {
    let outcome = check("forbid_unsafe_bad.rs", "smart-stats", true);
    assert_eq!(hits(&outcome), vec![("forbid-unsafe".to_string(), 1)]);
}

#[test]
fn forbid_unsafe_negative_accepts_attribute() {
    let outcome = check("forbid_unsafe_ok.rs", "smart-stats", true);
    assert_eq!(hits(&outcome), Vec::<(String, usize)>::new());
}

#[test]
fn forbid_unsafe_skips_non_root_files() {
    let outcome = check("forbid_unsafe_bad.rs", "smart-stats", false);
    assert_eq!(hits(&outcome), Vec::<(String, usize)>::new());
}

#[test]
fn conditional_forbid_pair_accepted_for_telemetry_only() {
    let telemetry = check("forbid_unsafe_conditional.rs", "smart-telemetry", true);
    assert_eq!(hits(&telemetry), Vec::<(String, usize)>::new());
    // Any other crate using the same pair is still flagged: the allocator
    // exemption must not leak.
    let stats = check("forbid_unsafe_conditional.rs", "smart-stats", true);
    assert_eq!(hits(&stats), vec![("forbid-unsafe".to_string(), 1)]);
}

#[test]
fn conditional_forbid_requires_both_halves() {
    let outcome = check("forbid_unsafe_conditional_half.rs", "smart-telemetry", true);
    assert_eq!(hits(&outcome), vec![("forbid-unsafe".to_string(), 1)]);
}

#[test]
fn reasoned_suppression_absorbs_the_diagnostic() {
    let outcome = check("suppression_with_reason.rs", "smart-stats", false);
    assert_eq!(hits(&outcome), Vec::<(String, usize)>::new());
    assert_eq!(outcome.used_suppressions.len(), 1);
    let (suppression, diagnostic) = &outcome.used_suppressions[0];
    assert_eq!(diagnostic.rule, "panic-free");
    assert_eq!(
        suppression.reason,
        "fixture invariant: callers never pass empty"
    );
}

#[test]
fn reasonless_suppression_fails_and_silences_nothing() {
    let outcome = check("suppression_without_reason.rs", "smart-stats", false);
    let hits = hits(&outcome);
    assert!(
        hits.contains(&("suppression".to_string(), 5)),
        "got {hits:?}"
    );
    assert!(
        hits.contains(&("panic-free".to_string(), 6)),
        "the would-be suppressed violation must survive: got {hits:?}"
    );
    assert!(outcome.used_suppressions.is_empty());
}

#[test]
fn sync_hygiene_positive_flags_every_banned_leaf() {
    let outcome = check("sync_hygiene_bad.rs", "smart-telemetry", false);
    let hits = hits(&outcome);
    for line in [2, 3, 4, 7, 8] {
        assert!(
            hits.contains(&("sync-hygiene".to_string(), line)),
            "line {line} missing from {hits:?}"
        );
    }
    // Arc in the brace group on line 3 is fine; only Condvar fires there.
    assert_eq!(
        hits.iter()
            .filter(|(r, l)| r == "sync-hygiene" && *l == 3)
            .count(),
        1
    );
}

#[test]
fn sync_hygiene_negative_is_clean() {
    let outcome = check("sync_hygiene_ok.rs", "smart-telemetry", false);
    assert_eq!(hits(&outcome), Vec::<(String, usize)>::new());
}

#[test]
fn sync_hygiene_exempts_the_shim_itself() {
    // The same offending source checked under the crates/sync path is
    // clean: the shim is the one place std primitives are legitimate.
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/sync_hygiene_bad.rs");
    let source = std::fs::read_to_string(&path).expect("fixture readable");
    let outcome = check_source(
        "crates/sync/src/passthrough.rs",
        "smart-sync",
        TargetKind::Lib,
        false,
        &libs(),
        &source,
    );
    assert!(
        !hits(&outcome)
            .iter()
            .any(|(rule, _)| rule == "sync-hygiene"),
        "got {:?}",
        hits(&outcome)
    );
}

#[test]
fn condvar_loop_positive_flags_if_guarded_and_bare_waits() {
    let outcome = check("condvar_loop_bad.rs", "smart-sync", false);
    let hits = hits(&outcome);
    assert!(
        hits.contains(&("condvar-loop".to_string(), 7)),
        "if-guarded wait must fire: got {hits:?}"
    );
    assert!(
        hits.contains(&("condvar-loop".to_string(), 14)),
        "bare wait_timeout must fire: got {hits:?}"
    );
}

#[test]
fn condvar_loop_negative_is_clean() {
    let outcome = check("condvar_loop_ok.rs", "smart-sync", false);
    assert_eq!(hits(&outcome), Vec::<(String, usize)>::new());
}

#[test]
fn atomic_ordering_positive_flags_relaxed() {
    let outcome = check("atomic_ordering_bad.rs", "smart-sync", false);
    assert!(
        hits(&outcome).contains(&("atomic-ordering".to_string(), 5)),
        "got {:?}",
        hits(&outcome)
    );
}

#[test]
fn atomic_ordering_negative_allows_seqcst_and_reasoned_relaxed() {
    let outcome = check("atomic_ordering_ok.rs", "smart-sync", false);
    assert_eq!(hits(&outcome), Vec::<(String, usize)>::new());
    assert_eq!(
        outcome.used_suppressions.len(),
        1,
        "the reasoned Relaxed must be recorded as a used suppression"
    );
    assert_eq!(outcome.used_suppressions[0].1.rule, "atomic-ordering");
}

#[test]
fn unknown_rule_in_suppression_is_flagged() {
    let outcome = check("suppression_unknown_rule.rs", "smart-stats", false);
    let hits = hits(&outcome);
    assert_eq!(hits.len(), 1, "got {hits:?}");
    assert_eq!(hits[0].0, "suppression");
    assert_eq!(hits[0].1, 4);
}
