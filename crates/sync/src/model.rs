//! Loom-style deterministic schedule exploration (the `model` feature;
//! DESIGN.md §13).
//!
//! # How it works
//!
//! [`explore`] runs a test closure many times. Each run spawns real OS
//! threads (via [`thread::scope`]) but serializes them: a token-passing
//! scheduler lets exactly one thread execute between *yield points*, and
//! every shim operation — lock acquire/release, condvar wait/notify,
//! atomic access, spawn, join — is a yield point. Whenever more than one
//! continuation is possible (several runnable threads, or a waiter that
//! could wake spuriously / by timeout), the scheduler records a numbered
//! choice. A complete run is therefore a sequence of small integers — the
//! *schedule* — and replaying the same sequence reproduces the exact
//! interleaving, which is what makes failures actionable.
//!
//! Exploration is depth-first over the choice tree with a **preemption
//! bound** (Musuvathi & Qadeer, PLDI 2007): schedules that preempt a
//! runnable thread more than `preemption_bound` times are pruned, which
//! keeps the tree tractable while still covering the interleavings that
//! expose almost all real concurrency bugs. Past the DFS budget, seeded
//! random schedules (xoshiro256++ via `crates/rng`) sample the unbounded
//! space; the seed makes the whole suite deterministic.
//!
//! # What it detects
//!
//! * **Deadlock** — no thread is runnable, no timed waiter can be rescued
//!   by a timeout, and not everyone has finished. The failure message
//!   lists each blocked thread and what it is waiting on.
//! * **Double-lock** — a thread acquiring a mutex it already holds.
//! * **Lost condvar wakeups** — a `wait` whose predicate is not re-checked
//!   in a loop is exposed by spurious-wake and timeout choices: the
//!   scheduler may wake any waiter at any choice point, so an `if`-guarded
//!   wait runs its body with the predicate false and trips its own
//!   assertions ([`crate::fixtures`] pins this).
//! * **Invariant violations** — any panic in the closure (assertion,
//!   `expect`, index error) fails the schedule that produced it.
//!
//! A failure panics with the serialized schedule string; re-running with
//! [`Config::replay`] (or `SMART_SYNC_SCHEDULE=<string>`) reproduces it.

use std::cell::RefCell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering as StdOrdering};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, PoisonError, TryLockError};
use std::time::Duration;

use rng::{Rng, SeedableRng, StdRng};

use crate::LockResult;

/// Panic payload used to tear a schedule down after its failure is
/// recorded: every parked thread wakes, panics with this sentinel, and the
/// spawn wrapper swallows it so `std::thread::scope` never double-panics.
const ABORT: &str = "smart-sync model: schedule aborted after failure";

/// Marker returned by a model thread whose closure was torn down by the
/// sentinel instead of producing its value.
struct Aborted;

/// Monotonic token distinguishing schedule runs, so `Mutex`/`Condvar`
/// instances (including ones created in an earlier run) lazily re-register
/// with the current run's scheduler on first touch.
static NEXT_RUN_TOKEN: AtomicU64 = AtomicU64::new(1);

// ---------------------------------------------------------------------------
// Scheduler state
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq, Eq)]
enum Blocked {
    /// Eligible to run (or currently running).
    Runnable,
    /// Waiting to acquire the mutex with this id.
    Lock(usize),
    /// Parked in a condvar wait.
    Wait {
        cv: usize,
        mutex: usize,
        timed: bool,
    },
    /// Waiting for the thread with this id to finish.
    Join(usize),
    /// Closure returned (or was torn down).
    Finished,
}

/// Why a condvar waiter resumed — a recorded scheduler decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WakeKind {
    Notified,
    Spurious,
    Timeout,
}

#[derive(Debug)]
struct ThreadInfo {
    state: Blocked,
    wake: Option<WakeKind>,
}

/// One recorded decision: `chosen` out of `n` possible continuations.
/// Options `>= first_preemptive` preempt a still-runnable previous thread
/// (or inject a spurious/timeout wake) and count against the bound.
#[derive(Clone, Copy, Debug)]
struct Point {
    n: usize,
    chosen: usize,
    first_preemptive: usize,
    preemptions_before: u32,
}

/// How the next choice is made.
enum Policy {
    /// Follow `prefix`, then always take option 0 (run-to-completion).
    /// Covers DFS descent and explicit replay.
    Scripted(Vec<usize>),
    /// Uniform choice at every point (the post-DFS sampling phase).
    Random(StdRng),
}

/// A schedule that violated a checked property.
#[derive(Clone, Debug)]
pub struct Failure {
    /// What went wrong (deadlock description, double-lock, panic message).
    pub message: String,
    /// The decision sequence that produced it, e.g. `"1.0.2"`. Feed it to
    /// [`Config::replay`] or `SMART_SYNC_SCHEDULE` to reproduce.
    pub schedule: String,
}

struct SchedState {
    threads: Vec<ThreadInfo>,
    /// Holder tid per registered mutex, `None` when free.
    mutexes: Vec<Option<usize>>,
    n_condvars: usize,
    current: Option<usize>,
    points: Vec<Point>,
    preemptions: u32,
    wake_budget: u32,
    ops: u64,
    policy: Policy,
    failure: Option<Failure>,
}

struct Scheduler {
    run_token: u64,
    max_ops: u64,
    state: StdMutex<SchedState>,
    cv: StdCondvar,
}

/// Thread-local binding of an OS thread to its model scheduler. Absent on
/// threads outside any model run, where every shim type falls back to
/// plain `std::sync` behavior (so non-model unit tests keep working even
/// when the crate is compiled with the feature on).
#[derive(Clone)]
struct Ctx {
    sched: Arc<Scheduler>,
    tid: usize,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

fn current_ctx() -> Option<Ctx> {
    CTX.with(|c| c.borrow().clone())
}

fn schedule_string(points: &[Point]) -> String {
    points
        .iter()
        .map(|p| p.chosen.to_string())
        .collect::<Vec<_>>()
        .join(".")
}

/// Parse a schedule string (`"1.0.2"`, or `""` for the empty schedule)
/// back into a decision sequence. `None` on malformed input.
pub fn parse_schedule(s: &str) -> Option<Vec<usize>> {
    let s = s.trim();
    if s.is_empty() {
        return Some(Vec::new());
    }
    s.split('.').map(|part| part.parse().ok()).collect()
}

impl Scheduler {
    fn new(config: &Config, policy: Policy) -> Scheduler {
        Scheduler {
            run_token: NEXT_RUN_TOKEN.fetch_add(1, StdOrdering::SeqCst),
            max_ops: config.max_ops,
            state: StdMutex::new(SchedState {
                threads: Vec::new(),
                mutexes: Vec::new(),
                n_condvars: 0,
                current: None,
                points: Vec::new(),
                preemptions: 0,
                wake_budget: config.wake_budget,
                ops: 0,
                policy,
                failure: None,
            }),
            cv: StdCondvar::new(),
        }
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn register_thread(&self) -> usize {
        let mut st = self.lock_state();
        st.threads.push(ThreadInfo {
            state: Blocked::Runnable,
            wake: None,
        });
        st.threads.len() - 1
    }

    fn new_mutex(&self) -> usize {
        let mut st = self.lock_state();
        st.mutexes.push(None);
        st.mutexes.len() - 1
    }

    fn new_condvar(&self) -> usize {
        let mut st = self.lock_state();
        st.n_condvars += 1;
        st.n_condvars - 1
    }

    /// Record a failure (first one wins) and wake every parked thread so
    /// the schedule tears down.
    fn fail(&self, st: &mut SchedState, message: String) {
        if st.failure.is_none() {
            st.failure = Some(Failure {
                message,
                schedule: schedule_string(&st.points),
            });
        }
        self.cv.notify_all();
    }

    fn fail_from_panic(&self, payload: &(dyn std::any::Any + Send)) {
        if is_abort_payload(payload) {
            return;
        }
        let mut st = self.lock_state();
        let msg = panic_message(payload);
        self.fail(&mut st, format!("panic in model thread: {msg}"));
    }

    /// Panic-with-sentinel if this schedule already failed: called at the
    /// top of every shim operation so threads drain quickly.
    fn check_abort(&self, st: &SchedState) {
        if st.failure.is_some() {
            panic::panic_any(ABORT);
        }
    }

    /// Park the calling thread until the scheduler hands it the token (or
    /// the schedule fails, in which case it panics with the sentinel).
    fn park<'a>(
        &'a self,
        mut st: std::sync::MutexGuard<'a, SchedState>,
        tid: usize,
    ) -> std::sync::MutexGuard<'a, SchedState> {
        loop {
            if st.failure.is_some() {
                drop(st);
                panic::panic_any(ABORT);
            }
            if st.current == Some(tid) && st.threads[tid].state == Blocked::Runnable {
                return st;
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Like [`Scheduler::park`] but never panics — used from guard drops,
    /// where a sentinel panic could double-panic an unwinding thread. On
    /// failure the thread simply continues; its next shim op aborts it.
    fn park_quiet<'a>(
        &'a self,
        mut st: std::sync::MutexGuard<'a, SchedState>,
        tid: usize,
    ) -> std::sync::MutexGuard<'a, SchedState> {
        loop {
            if st.failure.is_some() {
                return st;
            }
            if st.current == Some(tid) && st.threads[tid].state == Blocked::Runnable {
                return st;
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn eligible(st: &SchedState, tid: usize) -> bool {
        match st.threads[tid].state {
            Blocked::Runnable => true,
            Blocked::Lock(m) => st.mutexes[m].is_none(),
            Blocked::Join(target) => st.threads[target].state == Blocked::Finished,
            Blocked::Wait { .. } | Blocked::Finished => false,
        }
    }

    fn apply_wake(st: &mut SchedState, tid: usize, kind: WakeKind) {
        if let Blocked::Wait { mutex, .. } = st.threads[tid].state {
            st.threads[tid].state = Blocked::Lock(mutex);
            st.threads[tid].wake = Some(kind);
        }
    }

    /// The heart of the model: pick which thread owns the token next.
    /// `prev` is the thread that just yielded (bias option 0 toward it, so
    /// the default policy is run-to-completion and every *other* option is
    /// a preemption).
    fn schedule(&self, st: &mut SchedState, prev: Option<usize>) {
        st.ops += 1;
        if st.ops > self.max_ops {
            self.fail(
                st,
                format!(
                    "op budget exhausted after {} yield points (livelock, or raise Config::max_ops)",
                    self.max_ops
                ),
            );
            return;
        }
        loop {
            if st.failure.is_some() {
                self.cv.notify_all();
                return;
            }
            let mut runs: Vec<usize> = (0..st.threads.len())
                .filter(|&t| Self::eligible(st, t))
                .collect();
            if runs.is_empty() {
                // Time advance: a timed waiter's timeout firing is normal
                // behavior, not interference — rescue the lowest one and
                // re-evaluate. Unrecorded (forced, hence deterministic).
                let rescue = st
                    .threads
                    .iter()
                    .position(|t| matches!(t.state, Blocked::Wait { timed: true, .. }));
                if let Some(t) = rescue {
                    Self::apply_wake(st, t, WakeKind::Timeout);
                    continue;
                }
                if st.threads.iter().all(|t| t.state == Blocked::Finished) {
                    st.current = None;
                    self.cv.notify_all();
                    return;
                }
                let msg = describe_deadlock(st);
                self.fail(st, msg);
                return;
            }
            if let Some(p) = prev {
                if let Some(pos) = runs.iter().position(|&t| t == p) {
                    runs.remove(pos);
                    runs.insert(0, p);
                }
            }
            // Interference choices: wake a condvar waiter spuriously (or
            // by timeout) even though nobody notified it. Budgeted so
            // random schedules terminate.
            let wakes: Vec<(usize, WakeKind)> = if st.wake_budget > 0 {
                st.threads
                    .iter()
                    .enumerate()
                    .filter_map(|(t, info)| match info.state {
                        Blocked::Wait { timed: true, .. } => Some((t, WakeKind::Timeout)),
                        Blocked::Wait { timed: false, .. } => Some((t, WakeKind::Spurious)),
                        _ => None,
                    })
                    .collect()
            } else {
                Vec::new()
            };
            let n = runs.len() + wakes.len();
            let first_preemptive = if prev.is_some() && runs.first() == prev.as_ref() {
                1
            } else {
                runs.len()
            };
            let chosen = if n == 1 { 0 } else { self.pick(st, n) };
            if n > 1 {
                let point = Point {
                    n,
                    chosen,
                    first_preemptive,
                    preemptions_before: st.preemptions,
                };
                st.points.push(point);
                if chosen >= first_preemptive {
                    st.preemptions += 1;
                }
            }
            if chosen < runs.len() {
                let t = runs[chosen];
                match st.threads[t].state {
                    Blocked::Lock(m) => {
                        st.mutexes[m] = Some(t);
                        st.threads[t].state = Blocked::Runnable;
                    }
                    Blocked::Join(_) => st.threads[t].state = Blocked::Runnable,
                    Blocked::Runnable => {}
                    _ => unreachable!("ineligible thread chosen"),
                }
                st.current = Some(t);
                self.cv.notify_all();
                return;
            }
            let (t, kind) = wakes[chosen - runs.len()];
            st.wake_budget = st.wake_budget.saturating_sub(1);
            Self::apply_wake(st, t, kind);
            // A wake is not a transfer of control; choose again with the
            // woken thread now contending for its mutex.
        }
    }

    fn pick(&self, st: &mut SchedState, n: usize) -> usize {
        let idx = st.points.len();
        match &mut st.policy {
            Policy::Scripted(prefix) => {
                if idx < prefix.len() {
                    // A stale replay string can name an option that no
                    // longer exists; clamp instead of panicking so the
                    // mismatch surfaces as a diverged (passing) run.
                    prefix[idx].min(n - 1)
                } else {
                    0
                }
            }
            Policy::Random(rng) => rng.random_range(0..n as u64) as usize,
        }
    }

    // -- shim operations ---------------------------------------------------

    fn op_lock(&self, tid: usize, mid: usize) {
        let mut st = self.lock_state();
        self.check_abort(&st);
        if st.mutexes[mid] == Some(tid) {
            let msg = format!("double-lock: thread {tid} re-acquired mutex {mid} it already holds");
            self.fail(&mut st, msg);
            drop(st);
            panic::panic_any(ABORT);
        }
        st.threads[tid].state = Blocked::Lock(mid);
        self.schedule(&mut st, Some(tid));
        let st = self.park(st, tid);
        debug_assert_eq!(st.mutexes[mid], Some(tid));
    }

    /// Release never panics: it runs inside guard drops, possibly during
    /// an unwind.
    fn op_unlock(&self, tid: usize, mid: usize) {
        let mut st = self.lock_state();
        if st.mutexes[mid] == Some(tid) {
            st.mutexes[mid] = None;
        }
        if st.failure.is_some() || std::thread::panicking() {
            self.cv.notify_all();
            return;
        }
        self.schedule(&mut st, Some(tid));
        drop(self.park_quiet(st, tid));
    }

    fn op_wait(&self, tid: usize, cvid: usize, mid: usize, timed: bool) -> WakeKind {
        let mut st = self.lock_state();
        self.check_abort(&st);
        if st.mutexes[mid] == Some(tid) {
            st.mutexes[mid] = None;
        }
        st.threads[tid].state = Blocked::Wait {
            cv: cvid,
            mutex: mid,
            timed,
        };
        st.threads[tid].wake = None;
        self.schedule(&mut st, Some(tid));
        let mut st = self.park(st, tid);
        debug_assert_eq!(st.mutexes[mid], Some(tid));
        st.threads[tid].wake.take().unwrap_or(WakeKind::Notified)
    }

    fn op_notify(&self, tid: usize, cvid: usize, all: bool) {
        let mut st = self.lock_state();
        self.check_abort(&st);
        let waiters: Vec<usize> = st
            .threads
            .iter()
            .enumerate()
            .filter(|(_, info)| matches!(info.state, Blocked::Wait { cv, .. } if cv == cvid))
            .map(|(t, _)| t)
            .collect();
        // notify_one wakes the lowest-tid waiter: a deterministic stand-in
        // for std's unspecified pick (documented simplification; the
        // workspace's primitives all use notify_all).
        let targets: &[usize] = if all {
            &waiters
        } else {
            &waiters[..waiters.len().min(1)]
        };
        for &t in targets {
            Self::apply_wake(&mut st, t, WakeKind::Notified);
        }
        self.schedule(&mut st, Some(tid));
        drop(self.park(st, tid));
    }

    fn op_join(&self, tid: usize, target: usize) {
        let mut st = self.lock_state();
        self.check_abort(&st);
        st.threads[tid].state = Blocked::Join(target);
        self.schedule(&mut st, Some(tid));
        drop(self.park(st, tid));
    }

    /// Plain yield point: atomics, spawn.
    fn op_yield(&self, tid: usize) {
        let mut st = self.lock_state();
        self.check_abort(&st);
        self.schedule(&mut st, Some(tid));
        drop(self.park(st, tid));
    }

    fn op_finish(&self, tid: usize) {
        let mut st = self.lock_state();
        st.threads[tid].state = Blocked::Finished;
        if st.failure.is_some() {
            self.cv.notify_all();
            return;
        }
        self.schedule(&mut st, None);
        // No park: the OS thread exits.
    }

    /// First scheduling of a freshly spawned thread: park until the token
    /// arrives.
    fn op_start(&self, tid: usize) {
        let st = self.lock_state();
        drop(self.park(st, tid));
    }
}

fn describe_deadlock(st: &SchedState) -> String {
    let mut parts = Vec::new();
    for (t, info) in st.threads.iter().enumerate() {
        let part = match info.state {
            Blocked::Lock(m) => match st.mutexes[m] {
                Some(holder) => format!("thread {t} blocked on mutex {m} held by thread {holder}"),
                None => format!("thread {t} blocked on free mutex {m}"),
            },
            Blocked::Wait { cv, mutex, .. } => {
                format!("thread {t} waiting on condvar {cv} (mutex {mutex}) with no notifier left")
            }
            Blocked::Join(target) => format!("thread {t} joining unfinished thread {target}"),
            Blocked::Runnable | Blocked::Finished => continue,
        };
        parts.push(part);
    }
    format!("deadlock: {}", parts.join("; "))
}

fn is_abort_payload(payload: &(dyn std::any::Any + Send)) -> bool {
    payload.downcast_ref::<&str>() == Some(&ABORT)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// ---------------------------------------------------------------------------
// Exploration driver
// ---------------------------------------------------------------------------

/// Exploration parameters. The defaults fully explore small (2–4 thread)
/// closures under a preemption bound of 2 and then sample random
/// schedules, in well under a second per scenario.
#[derive(Clone, Debug)]
pub struct Config {
    /// Maximum preemptive context switches per DFS schedule (Musuvathi &
    /// Qadeer's bound). Spurious/timeout wake injections count too.
    pub preemption_bound: u32,
    /// Cap on DFS schedules before falling through to random sampling.
    pub max_schedules: u64,
    /// Seeded random schedules to run after (or instead of the tail of)
    /// DFS.
    pub random_samples: u64,
    /// Base seed for the random phase; sample `k` uses
    /// `rng::derive_seed(seed, k)`.
    pub seed: u64,
    /// Per-schedule budget of injected spurious/timeout wakes, so random
    /// schedules cannot livelock a waiter forever.
    pub wake_budget: u32,
    /// Per-schedule yield-point budget; exceeding it fails the schedule
    /// (livelock detector of last resort).
    pub max_ops: u64,
    /// Replay exactly this decision sequence (one schedule, no search).
    pub replay: Option<Vec<usize>>,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            preemption_bound: 2,
            max_schedules: 2_000,
            random_samples: 64,
            seed: 0x5EED_CAFE,
            wake_budget: 8,
            max_ops: 20_000,
            replay: None,
        }
    }
}

impl Config {
    /// Default config, honoring a `SMART_SYNC_SCHEDULE` replay string from
    /// the environment (the panic message of a failing run tells you what
    /// to export).
    pub fn from_env() -> Config {
        // lint:allow(side-effects) test-only replay knob: reading the schedule string here is what makes failing model runs reproducible from the shell
        let replay = std::env::var("SMART_SYNC_SCHEDULE")
            .ok()
            .and_then(|s| parse_schedule(&s));
        Config {
            replay,
            ..Config::default()
        }
    }
}

/// Outcome of [`explore`].
#[derive(Clone, Debug)]
pub struct Report {
    /// Total schedules executed (DFS + random).
    pub schedules: u64,
    /// Schedules executed by the bounded-DFS phase.
    pub dfs_schedules: u64,
    /// Whether DFS exhausted the bounded tree (rather than hitting
    /// `max_schedules`).
    pub dfs_complete: bool,
    /// First failing schedule, if any (exploration stops at the first).
    pub failure: Option<Failure>,
}

fn run_once<F: Fn()>(config: &Config, policy: Policy, f: &F) -> (Vec<Point>, Option<Failure>) {
    let sched = Arc::new(Scheduler::new(config, policy));
    let main_tid = sched.register_thread();
    {
        let mut st = sched.lock_state();
        st.current = Some(main_tid);
    }
    CTX.with(|c| {
        *c.borrow_mut() = Some(Ctx {
            sched: Arc::clone(&sched),
            tid: main_tid,
        });
    });
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    CTX.with(|c| *c.borrow_mut() = None);
    let mut st = sched.lock_state();
    if let Err(payload) = result {
        if st.failure.is_none() && !is_abort_payload(payload.as_ref()) {
            let message = format!("panic in model run: {}", panic_message(payload.as_ref()));
            let schedule = schedule_string(&st.points);
            st.failure = Some(Failure { message, schedule });
        }
    }
    (st.points.clone(), st.failure.clone())
}

/// Next DFS prefix: backtrack to the deepest point with an untried option
/// admissible under the preemption bound.
fn next_prefix(points: &[Point], bound: u32) -> Option<Vec<usize>> {
    for i in (0..points.len()).rev() {
        let p = &points[i];
        for j in (p.chosen + 1)..p.n {
            let cost = u32::from(j >= p.first_preemptive);
            if p.preemptions_before + cost <= bound {
                let mut prefix: Vec<usize> = points[..i].iter().map(|q| q.chosen).collect();
                prefix.push(j);
                return Some(prefix);
            }
        }
    }
    None
}

/// Run `f` under every bounded interleaving (then random samples) and
/// report. Stops at the first failing schedule.
///
/// The closure runs many times and must be restartable: create all shared
/// state inside it.
pub fn explore<F: Fn()>(config: &Config, f: F) -> Report {
    if let Some(replay) = &config.replay {
        let (_, failure) = run_once(config, Policy::Scripted(replay.clone()), &f);
        return Report {
            schedules: 1,
            dfs_schedules: 1,
            dfs_complete: false,
            failure,
        };
    }
    let mut prefix: Vec<usize> = Vec::new();
    let mut dfs_schedules = 0u64;
    let mut dfs_complete = false;
    loop {
        let (points, failure) = run_once(config, Policy::Scripted(prefix), &f);
        dfs_schedules += 1;
        if failure.is_some() {
            return Report {
                schedules: dfs_schedules,
                dfs_schedules,
                dfs_complete: false,
                failure,
            };
        }
        match next_prefix(&points, config.preemption_bound) {
            Some(next) if dfs_schedules < config.max_schedules => prefix = next,
            Some(_) => break,
            None => {
                dfs_complete = true;
                break;
            }
        }
    }
    let mut schedules = dfs_schedules;
    for k in 0..config.random_samples {
        let rng = StdRng::seed_from_u64(rng::derive_seed(config.seed, k));
        let (_, failure) = run_once(config, Policy::Random(rng), &f);
        schedules += 1;
        if failure.is_some() {
            return Report {
                schedules,
                dfs_schedules,
                dfs_complete,
                failure,
            };
        }
    }
    Report {
        schedules,
        dfs_schedules,
        dfs_complete,
        failure: None,
    }
}

/// [`explore`] and panic on any failing schedule, printing the schedule
/// string and how to replay it. Returns the report on success so tests can
/// assert coverage.
pub fn check<F: Fn()>(name: &str, config: &Config, f: F) -> Report {
    let report = explore(config, f);
    if let Some(failure) = &report.failure {
        panic!(
            "model check '{name}' failed after {} schedule(s): {}\n  \
             failing schedule: \"{}\"\n  \
             replay: SMART_SYNC_SCHEDULE=\"{}\" cargo test -p smart-sync --features model {name}",
            report.schedules, failure.message, failure.schedule, failure.schedule
        );
    }
    report
}

// ---------------------------------------------------------------------------
// Shim types (model flavor)
// ---------------------------------------------------------------------------

/// Per-object registration: which scheduler run this object belongs to and
/// the id it was assigned there. Objects created before the run (or in a
/// previous run) lazily re-register on first touch.
struct Registration {
    reg: StdMutex<(u64, usize)>,
}

impl Registration {
    const fn new() -> Registration {
        Registration {
            reg: StdMutex::new((0, 0)),
        }
    }

    fn id_for(&self, ctx: &Ctx, alloc: impl FnOnce() -> usize) -> usize {
        let mut reg = self.reg.lock().unwrap_or_else(PoisonError::into_inner);
        if reg.0 != ctx.sched.run_token {
            *reg = (ctx.sched.run_token, alloc());
        }
        reg.1
    }
}

/// Model-checked mutex: the std API, with every acquire/release a recorded
/// scheduler decision. Outside a model run it behaves exactly like
/// `std::sync::Mutex`.
pub struct Mutex<T> {
    registration: Registration,
    real: StdMutex<T>,
}

impl<T> Mutex<T> {
    /// Create an unlocked mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            registration: Registration::new(),
            real: StdMutex::new(value),
        }
    }

    fn mid(&self, ctx: &Ctx) -> usize {
        self.registration.id_for(ctx, || ctx.sched.new_mutex())
    }

    /// Acquire, blocking (in model runs: parking until scheduled). Poison
    /// semantics mirror `std`.
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        match current_ctx() {
            Some(ctx) => {
                let mid = self.mid(&ctx);
                ctx.sched.op_lock(ctx.tid, mid);
                let (inner, poisoned) = self.take_real();
                let guard = MutexGuard {
                    lock: self,
                    inner: Some(inner),
                    model: Some((ctx, mid)),
                };
                if poisoned {
                    Err(PoisonError::new(guard))
                } else {
                    Ok(guard)
                }
            }
            None => match self.real.lock() {
                Ok(inner) => Ok(MutexGuard {
                    lock: self,
                    inner: Some(inner),
                    model: None,
                }),
                Err(e) => Err(PoisonError::new(MutexGuard {
                    lock: self,
                    inner: Some(e.into_inner()),
                    model: None,
                })),
            },
        }
    }

    /// Grab the real (inner) lock after the scheduler granted it: must be
    /// free, because only one model thread runs at a time.
    fn take_real(&self) -> (std::sync::MutexGuard<'_, T>, bool) {
        match self.real.try_lock() {
            Ok(g) => (g, false),
            Err(TryLockError::Poisoned(e)) => (e.into_inner(), true),
            Err(TryLockError::WouldBlock) => {
                unreachable!("model scheduler granted a mutex that is still held")
            }
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

/// Guard for the model [`Mutex`]. Dropping it releases the lock and yields
/// to the scheduler.
pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
    model: Option<(Ctx, usize)>,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard accessed after teardown")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard accessed after teardown")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the real lock first so the next scheduled thread's
        // try_lock succeeds, then tell the scheduler.
        drop(self.inner.take());
        if let Some((ctx, mid)) = self.model.take() {
            ctx.sched.op_unlock(ctx.tid, mid);
        }
    }
}

/// A guard taken apart: its mutex, the real lock's guard, and the
/// scheduler's record of the hold.
type GuardParts<'a, T> = (
    &'a Mutex<T>,
    Option<std::sync::MutexGuard<'a, T>>,
    Option<(Ctx, usize)>,
);

/// Dismantle a guard without running its `Drop` (for `Condvar::wait`,
/// which hands the lock back to the scheduler itself).
fn guard_into_parts<T>(mut guard: MutexGuard<'_, T>) -> GuardParts<'_, T> {
    let lock = guard.lock;
    let inner = guard.inner.take();
    let model = guard.model.take();
    std::mem::forget(guard);
    (lock, inner, model)
}

/// Result of a timed wait — same `timed_out()` surface as
/// `std::sync::WaitTimeoutResult`, constructible by the model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// `true` when the wait ended because the timeout elapsed (in model
    /// runs: because the scheduler chose to fire the timeout).
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// Model-checked condition variable. Waits park in the scheduler, which
/// may resume them by notify, by an injected spurious wake, or (for timed
/// waits) by firing the timeout — each a recorded, replayable decision.
pub struct Condvar {
    registration: Registration,
    real: StdCondvar,
}

impl Default for Condvar {
    fn default() -> Condvar {
        Condvar::new()
    }
}

impl Condvar {
    /// Create a condition variable.
    pub const fn new() -> Condvar {
        Condvar {
            registration: Registration::new(),
            real: StdCondvar::new(),
        }
    }

    fn cvid(&self, ctx: &Ctx) -> usize {
        self.registration.id_for(ctx, || ctx.sched.new_condvar())
    }

    fn wait_model<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timed: bool,
    ) -> (LockResult<MutexGuard<'a, T>>, bool) {
        let (lock, inner, model) = guard_into_parts(guard);
        match model {
            Some((ctx, mid)) => {
                let cvid = self.cvid(&ctx);
                drop(inner); // release the real lock before parking
                let kind = ctx.sched.op_wait(ctx.tid, cvid, mid, timed);
                let (real, poisoned) = lock.take_real();
                let guard = MutexGuard {
                    lock,
                    inner: Some(real),
                    model: Some((ctx, mid)),
                };
                let timed_out = kind == WakeKind::Timeout;
                if poisoned {
                    (Err(PoisonError::new(guard)), timed_out)
                } else {
                    (Ok(guard), timed_out)
                }
            }
            None => {
                // Fallback: a real wait on the real condvar. Timed waits
                // use a short real timeout purely to stay responsive.
                let inner = inner.expect("guard accessed after teardown");
                let rebuild = |g| MutexGuard {
                    lock,
                    inner: Some(g),
                    model: None,
                };
                if timed {
                    // lint:allow(condvar-loop) this IS the shim's wait
                    // forwarder: the predicate loop is the caller's
                    // obligation, enforced by this same rule at their site
                    match self.real.wait_timeout(inner, Duration::from_millis(50)) {
                        Ok((g, t)) => (Ok(rebuild(g)), t.timed_out()),
                        Err(e) => {
                            let (g, t) = e.into_inner();
                            (Err(PoisonError::new(rebuild(g))), t.timed_out())
                        }
                    }
                } else {
                    // lint:allow(condvar-loop) same forwarder as above: the
                    // loop lives at the caller, where this rule checks it
                    match self.real.wait(inner) {
                        Ok(g) => (Ok(rebuild(g)), false),
                        Err(e) => (Err(PoisonError::new(rebuild(e.into_inner()))), false),
                    }
                }
            }
        }
    }

    /// Park until notified (or spuriously woken — in model runs that is an
    /// explicit scheduler choice, so `if`-guarded waits are caught).
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        let (result, _) = self.wait_model(guard, false);
        result
    }

    /// Park until notified, spuriously woken, or the timeout fires. In
    /// model runs the duration is ignored: the timeout firing is a
    /// scheduler choice (and the rescue that keeps timed waiters from
    /// deadlocking).
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        _dur: Duration,
    ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
        let (result, timed_out) = self.wait_model(guard, true);
        let wtr = WaitTimeoutResult { timed_out };
        match result {
            Ok(g) => Ok((g, wtr)),
            Err(e) => Err(PoisonError::new((e.into_inner(), wtr))),
        }
    }

    /// Wake one waiter (model: the lowest-tid waiter, deterministically).
    pub fn notify_one(&self) {
        self.real.notify_one();
        if let Some(ctx) = current_ctx() {
            let cvid = self.cvid(&ctx);
            ctx.sched.op_notify(ctx.tid, cvid, false);
        }
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        self.real.notify_all();
        if let Some(ctx) = current_ctx() {
            let cvid = self.cvid(&ctx);
            ctx.sched.op_notify(ctx.tid, cvid, true);
        }
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Condvar").finish_non_exhaustive()
    }
}

/// Model-checked atomics: every access is a yield point (the value itself
/// is held in a real std atomic).
pub mod atomic {
    use super::current_ctx;

    pub use std::sync::atomic::Ordering;

    macro_rules! model_atomic {
        ($name:ident, $real:ty, $prim:ty) => {
            /// Model-checked atomic: same API subset as the std type, with
            /// every access a scheduler yield point.
            pub struct $name {
                real: $real,
            }

            impl $name {
                /// Create with an initial value.
                pub const fn new(value: $prim) -> $name {
                    $name {
                        real: <$real>::new(value),
                    }
                }

                fn yield_point(&self) {
                    if let Some(ctx) = current_ctx() {
                        ctx.sched.op_yield(ctx.tid);
                    }
                }

                /// Atomic load (a scheduler yield point in model runs).
                pub fn load(&self, order: Ordering) -> $prim {
                    self.yield_point();
                    self.real.load(order)
                }

                /// Atomic store (a scheduler yield point in model runs).
                pub fn store(&self, value: $prim, order: Ordering) {
                    self.yield_point();
                    self.real.store(value, order);
                }

                /// Atomic swap (a scheduler yield point in model runs).
                pub fn swap(&self, value: $prim, order: Ordering) -> $prim {
                    self.yield_point();
                    self.real.swap(value, order)
                }
            }
        };
    }

    model_atomic!(AtomicBool, std::sync::atomic::AtomicBool, bool);
    model_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
    model_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);

    impl AtomicU64 {
        /// Atomic add, returning the previous value (a scheduler yield
        /// point in model runs).
        pub fn fetch_add(&self, value: u64, order: Ordering) -> u64 {
            self.yield_point();
            self.real.fetch_add(value, order)
        }
    }

    impl AtomicUsize {
        /// Atomic add, returning the previous value (a scheduler yield
        /// point in model runs).
        pub fn fetch_add(&self, value: usize, order: Ordering) -> usize {
            self.yield_point();
            self.real.fetch_add(value, order)
        }
    }
}

/// Model-checked scoped threads: `std::thread::scope` with spawn/join as
/// scheduler decisions.
pub mod thread {
    use std::cell::RefCell;
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::Arc;

    use super::{current_ctx, Aborted, Ctx, ABORT, CTX};

    /// Scope handle passed to the [`scope`] closure. Unlike
    /// `std::thread::Scope` this wrapper is not `Sync`: spawn only from
    /// the thread that owns the scope (all workspace call sites do).
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
        ctx: Option<Ctx>,
        spawned: RefCell<Vec<usize>>,
    }

    /// Handle to a scoped model thread.
    pub struct ScopedJoinHandle<'scope, T> {
        inner: std::thread::ScopedJoinHandle<'scope, Result<T, Aborted>>,
        tid: Option<usize>,
    }

    impl<T> ScopedJoinHandle<'_, T> {
        /// Wait for the thread (a scheduler decision in model runs) and
        /// return its closure's value.
        pub fn join(self) -> std::thread::Result<T> {
            if let (Some(target), Some(ctx)) = (self.tid, current_ctx()) {
                ctx.sched.op_join(ctx.tid, target);
            }
            match self.inner.join() {
                Ok(Ok(value)) => Ok(value),
                // The child was torn down by a failure elsewhere; tear the
                // joiner down too.
                Ok(Err(Aborted)) => panic::panic_any(ABORT),
                Err(payload) => Err(payload),
            }
        }
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawn a thread inside the scope. In model runs the spawn is a
        /// yield point and the child starts parked until scheduled.
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce() -> T + Send + 'scope,
            T: Send + 'scope,
        {
            match &self.ctx {
                None => ScopedJoinHandle {
                    inner: self.inner.spawn(move || Ok(f())),
                    tid: None,
                },
                Some(ctx) => {
                    let tid = ctx.sched.register_thread();
                    self.spawned.borrow_mut().push(tid);
                    let child_ctx = Ctx {
                        sched: Arc::clone(&ctx.sched),
                        tid,
                    };
                    let inner = self.inner.spawn(move || {
                        CTX.with(|c| *c.borrow_mut() = Some(child_ctx.clone()));
                        // op_start is inside the catch: if the schedule
                        // already failed it panics the sentinel, which
                        // must not escape the OS thread.
                        let result = panic::catch_unwind(AssertUnwindSafe(|| {
                            child_ctx.sched.op_start(tid);
                            f()
                        }));
                        CTX.with(|c| *c.borrow_mut() = None);
                        match result {
                            Ok(value) => {
                                child_ctx.sched.op_finish(tid);
                                Ok(value)
                            }
                            Err(payload) => {
                                // Any child panic (other than the teardown
                                // sentinel) fails the schedule; either way
                                // the thread exits cleanly so the real
                                // scope join cannot double-panic.
                                child_ctx.sched.fail_from_panic(payload.as_ref());
                                child_ctx.sched.op_finish(tid);
                                Err(Aborted)
                            }
                        }
                    });
                    // Yield so the scheduler can run the child before the
                    // spawner's next step.
                    ctx.sched.op_yield(ctx.tid);
                    ScopedJoinHandle {
                        inner,
                        tid: Some(tid),
                    }
                }
            }
        }
    }

    /// Model flavor of `std::thread::scope`: on scope exit every spawned
    /// thread is model-joined (so children get scheduled to completion),
    /// and a panic escaping the closure fails the schedule before
    /// unwinding.
    pub fn scope<'env, F, R>(f: F) -> R
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        let ctx = current_ctx();
        std::thread::scope(|inner| {
            let scope = Scope {
                inner,
                ctx: ctx.clone(),
                spawned: RefCell::new(Vec::new()),
            };
            let result = panic::catch_unwind(AssertUnwindSafe(|| f(&scope)));
            match result {
                Ok(value) => {
                    if let Some(ctx) = &scope.ctx {
                        for &tid in scope.spawned.borrow().iter() {
                            ctx.sched.op_join(ctx.tid, tid);
                        }
                    }
                    value
                }
                Err(payload) => {
                    // Record the failure (and broadcast) before unwinding:
                    // parked children wake, sentinel-panic, and exit
                    // cleanly, so the real scope join below never hangs.
                    if let Some(ctx) = &scope.ctx {
                        ctx.sched.fail_from_panic(payload.as_ref());
                    }
                    panic::resume_unwind(payload)
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_schedule_round_trips() {
        assert_eq!(parse_schedule(""), Some(vec![]));
        assert_eq!(parse_schedule("1.0.2"), Some(vec![1, 0, 2]));
        assert_eq!(parse_schedule("  3.4 "), Some(vec![3, 4]));
        assert_eq!(parse_schedule("x.1"), None);
    }

    #[test]
    fn single_threaded_closure_explores_one_schedule() {
        let report = explore(&Config::default(), || {
            let m = Mutex::new(0);
            *m.lock().unwrap() += 1;
            assert_eq!(*m.lock().unwrap(), 1);
        });
        assert!(report.failure.is_none());
        assert!(report.dfs_complete);
        // One DFS schedule (no choice points) plus the random samples.
        assert_eq!(report.dfs_schedules, 1);
    }

    #[test]
    fn double_lock_is_detected() {
        let report = explore(&Config::default(), || {
            let m = Mutex::new(0);
            let _a = m.lock().unwrap();
            let _b = m.lock().unwrap(); // deadlocks a real build; the model names it
        });
        let failure = report.failure.expect("double-lock must be caught");
        assert!(
            failure.message.contains("double-lock"),
            "unexpected message: {}",
            failure.message
        );
    }

    #[test]
    fn assertion_failures_are_schedule_failures() {
        let report = explore(&Config::default(), || {
            assert_eq!(1 + 1, 3, "deliberately false");
        });
        let failure = report.failure.expect("assert must fail the schedule");
        assert!(failure.message.contains("deliberately false"));
    }

    #[test]
    fn fallback_without_scheduler_behaves_like_std() {
        // No explore(): this very test thread has no model context, so the
        // shim must act as plain std::sync.
        let m = Mutex::new(5);
        {
            let mut g = m.lock().unwrap();
            *g += 1;
        }
        assert_eq!(*m.lock().unwrap(), 6);
        let cv = Condvar::new();
        cv.notify_all(); // no waiters, no scheduler: must not hang
        let flag = atomic::AtomicBool::new(false);
        flag.store(true, atomic::Ordering::SeqCst);
        assert!(flag.load(atomic::Ordering::SeqCst));
    }
}
