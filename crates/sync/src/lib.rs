#![forbid(unsafe_code)]
//! Concurrency shim for the WEFR workspace (DESIGN.md §13).
//!
//! Every hand-rolled concurrent structure in the workspace — the ordered
//! worker [`pipeline`] both streaming sources run on, the telemetry
//! watchdog's condvar handshake, the TCP listener's shutdown wake, the
//! [`Published`] cell the daemon's readers load their view from — builds
//! on the primitives exported here instead of `std::sync` directly (the
//! `sync-hygiene` lint rule enforces this). The payoff is a single
//! compile-time switch:
//!
//! * **Default build** — everything in this crate is a transparent
//!   re-export of (or zero-cost delegation to) `std::sync`. No wrappers at
//!   runtime, no extra state: behavior, layout, and output are
//!   bit-identical to using `std::sync` directly.
//! * **`--features model`** — [`Mutex`], [`Condvar`], [`atomic`], and
//!   [`thread::scope`] route every acquire, release, wait, notify, load,
//!   store, spawn, and join through a deterministic loom-style scheduler
//!   (the `model` module). Threads still run on real OS threads, but exactly one is
//!   runnable at a time and every switch point is a recorded decision, so a
//!   test closure can be executed under *every* interleaving up to a
//!   preemption bound (DFS) plus seeded random schedules beyond it. The
//!   scheduler detects deadlock, double-lock, lost condvar wakeups, and
//!   user-asserted invariant violations, and serializes any failing run as
//!   a replayable schedule string.
//!
//! The `model` feature is test-only tooling: no production binary enables
//! it, and `scripts/ci.sh` runs the model suite as its own step
//! (`cargo test -p smart-sync --features model`).

#[cfg(feature = "model")]
pub mod fixtures;
#[cfg(feature = "model")]
pub mod model;
pub mod pipeline;
mod publish;
mod queue;
#[cfg(feature = "model")]
pub mod scenarios;
pub mod shutdown;

/// Lock results and poison errors are `std`'s own types in both modes, so
/// poison-tolerant call sites (`.unwrap_or_else(PoisonError::into_inner)`)
/// compile unchanged with and without `model`.
pub use std::sync::{Arc, LockResult, PoisonError};

pub use publish::Published;

#[cfg(not(feature = "model"))]
mod passthrough {
    /// Mutual exclusion — `std::sync::Mutex` itself in the default build.
    pub type Mutex<T> = std::sync::Mutex<T>;
    /// Guard for [`Mutex`] — `std::sync::MutexGuard` itself in the default
    /// build.
    pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;
    /// Condition variable — `std::sync::Condvar` itself in the default
    /// build.
    pub type Condvar = std::sync::Condvar;
    /// Result of a timed wait — `std::sync::WaitTimeoutResult` itself in
    /// the default build (the model build supplies its own type with the
    /// same `timed_out()` accessor).
    pub type WaitTimeoutResult = std::sync::WaitTimeoutResult;

    /// Atomics — re-exports of `std::sync::atomic` in the default build.
    pub mod atomic {
        pub use std::sync::atomic::{
            AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering,
        };
    }

    /// Scoped threads — re-exports of `std::thread`'s scope API in the
    /// default build.
    pub mod thread {
        pub use std::thread::{scope, Scope, ScopedJoinHandle};
    }
}

#[cfg(not(feature = "model"))]
pub use passthrough::{atomic, thread, Condvar, Mutex, MutexGuard, WaitTimeoutResult};

#[cfg(feature = "model")]
pub use model::{atomic, thread, Condvar, Mutex, MutexGuard, WaitTimeoutResult};
