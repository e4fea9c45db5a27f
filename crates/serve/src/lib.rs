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
//!    full record, in one id-ordered [`smart_dataset::Fleet`] that cycles
//!    and readers share; `SCORE` expands the selected base features of
//!    one drive-day with [`smart_pipeline::features::expand_sample`], the
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
//! Readers and the writer never wait on each other: after every replayed
//! day and every ingest the daemon publishes an immutable view of its
//! state into a [`smart_sync::Published`] cell, and each query is
//! answered from the view current when it arrives. A query that meets a
//! re-selection gets the state from before it, at once.
//!
//! All query output is deterministic: drives are kept in id order, scores
//! come from the deterministic forest, and responses carry no clocks or
//! request counters — two daemons fed the same logs answer byte-for-byte
//! identically, regardless of ingest worker count.
//!
//! [`smart_sync::shutdown::StopFlag`]: sync::shutdown::StopFlag
//! [`smart_sync::Published`]: sync::Published
//! [`smart_dataset::stream_drive_batches`]: smart_dataset::stream_drive_batches

pub mod daemon;
pub mod error;
pub mod listener;
pub mod protocol;
mod view;

pub use daemon::{CycleReport, Daemon, ServeConfig};
pub use error::ServeError;
pub use protocol::Request;
