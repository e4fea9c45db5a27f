//! Shutdown handshake for monitor threads (the telemetry watchdog and
//! the TCP listener): a boolean stop flag behind a [`Mutex`] + [`Condvar`]
//! pair, so a poll loop can sleep on the condvar and still be woken
//! promptly by [`StopFlag::stop`] — no full poll interval is ever waited
//! out during teardown, and no stop can be lost (the flag is checked under
//! the same lock the wait releases).
//!
//! Under the `model` feature the timed wait's timeout becomes a scheduler
//! choice, so `scenarios::watchdog_shutdown_terminates` proves the
//! poll/stop handshake terminates on every bounded schedule.

use std::time::Duration;

use crate::{Condvar, Mutex, PoisonError};

/// One-way stop signal with a condvar wake: set once, observed by a poll
/// loop. Poison-tolerant like the queues — a stop must get through even if
/// some observer panicked with the lock held.
pub struct StopFlag {
    stopped: Mutex<bool>,
    wake: Condvar,
}

impl Default for StopFlag {
    fn default() -> StopFlag {
        StopFlag::new()
    }
}

impl StopFlag {
    /// A flag in the running (not stopped) state.
    pub fn new() -> StopFlag {
        StopFlag {
            stopped: Mutex::new(false),
            wake: Condvar::new(),
        }
    }

    /// Raise the flag and wake every sleeping observer. Idempotent.
    pub fn stop(&self) {
        *self.stopped.lock().unwrap_or_else(PoisonError::into_inner) = true;
        self.wake.notify_all();
    }

    /// Whether [`StopFlag::stop`] has been called.
    pub fn is_stopped(&self) -> bool {
        *self.stopped.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Sleep until `timeout` elapses or the flag is raised, whichever
    /// comes first; returns the flag's value. A spurious wake returns
    /// early with `false`, which callers treat as an early poll tick —
    /// that is why this is a single wait and not a predicate loop: the
    /// caller's own loop (`while !flag.wait_timeout(poll) { tick() }`) is
    /// the predicate re-check.
    pub fn wait_timeout(&self, timeout: Duration) -> bool {
        let guard = self.stopped.lock().unwrap_or_else(PoisonError::into_inner);
        if *guard {
            return true;
        }
        // lint:allow(condvar-loop) single timed wait by design: the
        // caller's poll loop is the predicate re-check, and an early
        // (spurious) return only costs one extra tick
        let (guard, _timed_out) = match self.wake.wait_timeout(guard, timeout) {
            Ok(pair) => pair,
            Err(poisoned) => poisoned.into_inner(),
        };
        *guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_running_and_stops_once() {
        let flag = StopFlag::new();
        assert!(!flag.is_stopped());
        flag.stop();
        assert!(flag.is_stopped());
        flag.stop(); // idempotent
        assert!(flag.is_stopped());
        // Already stopped: returns immediately without sleeping.
        assert!(flag.wait_timeout(Duration::from_secs(3600)));
    }

    #[test]
    fn wait_times_out_while_running() {
        let flag = StopFlag::new();
        assert!(!flag.wait_timeout(Duration::from_millis(1)));
    }

    #[test]
    fn stop_wakes_a_sleeping_waiter() {
        let flag = StopFlag::new();
        std::thread::scope(|scope| {
            let h = scope.spawn(|| {
                // Generous timeout: the stop below must cut it short.
                let mut stopped = flag.wait_timeout(Duration::from_secs(60));
                // Tolerate a spurious early return: re-wait like a real
                // poll loop would.
                while !stopped {
                    stopped = flag.wait_timeout(Duration::from_secs(60));
                }
                stopped
            });
            flag.stop();
            assert!(h.join().unwrap());
        });
    }
}
