#![forbid(unsafe_code)]
//! Anchor crate for the repo-root `tests/` and `examples/` directories.
//!
//! The workspace manifest is virtual (no root package), so Cargo never
//! built the repo-root integration suites or examples on its own. This
//! crate exists to own them: its `Cargo.toml` declares every file under
//! `tests/` as a `[[test]]` target and every file under `examples/` as an
//! `[[example]]` target, which puts all of them on the `cargo test` /
//! `cargo build --examples` path.
//!
//! The crate's own `tests/` directory adds the cross-crate suites that
//! don't fit a single crate: determinism across seeds and worker counts,
//! JSON golden-file round-trips, and an in-process smoke run of the
//! `quickstart` example.
