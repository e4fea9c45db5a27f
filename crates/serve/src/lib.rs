#![forbid(unsafe_code)]
//! The continuous-selection daemon (DESIGN.md §14, ROADMAP item 1).
//!
//! Every experiment binary in this workspace rebuilds the world from
//! scratch; the paper instead runs WEFR as a *weekly cycle on a live
//! fleet* (§IV-D). This crate is that long-lived process:
//!
//! 1. **Ingest** — SMART logs arrive through the existing
//!    [`smart_dataset::stream_drive_batches`] seam, so the daemon shares
//!    the sharded reader's determinism guarantee: any worker count
//!    produces the same state.
//! 2. **Scoring** ([`daemon`]) — the daemon keeps each tracked drive's
//!    full record; `SCORE` expands the selected base features of one
//!    drive-day with [`smart_pipeline::features::expand_sample`], the
//!    function training uses, so served features equal training features
//!    bit for bit.
//! 3. **Update cycle** ([`daemon`]) — a [`wefr_core::UpdateMonitor`]
//!    schedules change-point checks on the paper's cadence; when the
//!    wear-out threshold appears, disappears, or moves past tolerance,
//!    the daemon re-runs [`wefr_core::Wefr::select`] and retrains the
//!    failure predictor, emitting one telemetry span per cycle.
//! 4. **Queries** ([`protocol`], [`listener`]) — a line protocol answers
//!    `SCORE <drive>`, `FEATURES`, and `STATUS` as a session on
//!    smart-telemetry's one TCP listener, which also serves `GET /metrics`
//!    and `GET /report` on the same port and shuts down through the
//!    [`smart_sync::shutdown::StopFlag`] handshake. The crate itself names
//!    no socket type.
//!
//! All query output is deterministic: state lives in `BTreeMap`s, scores
//! come from the deterministic forest, and responses carry no clocks or
//! request counters — two daemons fed the same logs answer byte-for-byte
//! identically, regardless of ingest worker count.
//!
//! [`smart_sync::shutdown::StopFlag`]: sync::shutdown::StopFlag
//! [`smart_dataset::stream_drive_batches`]: smart_dataset::stream_drive_batches

pub mod daemon;
pub mod error;
pub mod listener;
pub mod protocol;

pub use daemon::{CycleReport, Daemon, ServeConfig};
pub use error::ServeError;
pub use protocol::Request;
