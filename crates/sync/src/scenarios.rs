//! Model-checked scenarios pinning the guarantees the production
//! primitives claim (only built with the `model` feature).
//!
//! Each scenario is a closure exercising the *real* production code —
//! the queue primitives `BoundedQueue` and `ReorderBuffer`, the ordered
//! [`crate::pipeline::run`] built on them, [`crate::shutdown::StopFlag`],
//! the TCP listener's `StopFlag` shutdown-wake shape, and the
//! [`crate::Published`] cell the daemon's readers load from — under
//! [`crate::model::explore`]. The suite runs
//! from `tests/model_suite.rs` and from the `check_model_coverage` bin,
//! which asserts the committed schedule floors below and determinism
//! across runs.

use std::time::Duration;

use crate::model::{check, Config, Report};
use crate::pipeline;
use crate::queue::{BoundedQueue, DuplicateIndex, ReorderBuffer};
use crate::shutdown::StopFlag;
use crate::{thread, Arc, Published};

/// One named model scenario with its committed coverage floor.
pub struct Scenario {
    /// Test-suite-facing name (matches the `#[test]` wrapper).
    pub name: &'static str,
    /// The exploration must execute at least this many schedules — a
    /// committed floor so a scheduler regression that silently collapses
    /// the search space fails CI instead of passing vacuously. Floors are
    /// pinned to the counts measured at the default [`Config`] (the
    /// exploration is deterministic, so exact equality is reproducible);
    /// re-measure with the `check_model_coverage` bin after any scheduler
    /// or scenario change.
    pub min_schedules: u64,
    runner: fn(&Config) -> Report,
}

impl Scenario {
    /// Explore the scenario, panicking (with a replayable schedule) on any
    /// failing interleaving.
    pub fn run(&self, config: &Config) -> Report {
        (self.runner)(config)
    }
}

/// Every scenario, in a fixed order.
pub fn all() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "queue_fifo_prefix_delivery",
            min_schedules: 244,
            runner: queue_fifo_prefix_delivery,
        },
        Scenario {
            name: "queue_abort_wakes_all_producers",
            min_schedules: 464,
            runner: queue_abort_wakes_all_producers,
        },
        Scenario {
            name: "reorder_delivers_in_index_order",
            min_schedules: 1522,
            runner: reorder_delivers_in_index_order,
        },
        Scenario {
            name: "reorder_duplicate_detected_under_race",
            min_schedules: 150,
            runner: reorder_duplicate_detected_under_race,
        },
        Scenario {
            name: "pipeline_first_error_aborts_everyone",
            min_schedules: 2064,
            runner: pipeline_first_error_aborts_everyone,
        },
        Scenario {
            name: "watchdog_shutdown_always_terminates",
            min_schedules: 82,
            runner: watchdog_shutdown_always_terminates,
        },
        Scenario {
            name: "serve_shutdown_wake_terminates_listener",
            min_schedules: 115,
            runner: serve_shutdown_wake_terminates_listener,
        },
        Scenario {
            name: "publish_loads_are_whole_and_monotone",
            min_schedules: 100,
            runner: publish_loads_are_whole_and_monotone,
        },
    ]
}

/// FIFO-prefix delivery: whatever the interleaving, the consumer sees
/// exactly the pushed sequence, in order, then end-of-stream after close.
fn queue_fifo_prefix_delivery(config: &Config) -> Report {
    check("queue_fifo_prefix_delivery", config, || {
        let q: BoundedQueue<usize> = BoundedQueue::new(2, |_| {});
        thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..3 {
                    assert!(q.push(i), "no abort in this scenario");
                }
                q.close();
            });
            let mut got = Vec::new();
            while let Some(i) = q.pop() {
                got.push(i);
            }
            assert_eq!(got, vec![0, 1, 2], "FIFO delivery violated");
        });
    })
}

/// Abort-on-first-error wakes all workers: two producers parked on a full
/// queue must both observe the abort and return `false` — the scope
/// completing at all proves nobody stayed parked.
fn queue_abort_wakes_all_producers(config: &Config) -> Report {
    check("queue_abort_wakes_all_producers", config, || {
        let q: BoundedQueue<u8> = BoundedQueue::new(1, |_| {});
        assert!(q.push(0), "filling the queue cannot fail before abort");
        thread::scope(|scope| {
            let a = scope.spawn(|| q.push(1));
            let b = scope.spawn(|| q.push(2));
            q.abort();
            assert!(!a.join().unwrap(), "aborted producer A must give up");
            assert!(!b.join().unwrap(), "aborted producer B must give up");
        });
        assert_eq!(q.pop(), None, "aborted queue yields nothing");
    })
}

/// The reorder window blocks a far-ahead producer without deadlock and the
/// consumer always receives index order.
fn reorder_delivers_in_index_order(config: &Config) -> Report {
    check("reorder_delivers_in_index_order", config, || {
        let r: ReorderBuffer<usize> = ReorderBuffer::new(2);
        r.set_total(3);
        thread::scope(|scope| {
            // Index 2 is outside the window [0, 2) until the consumer
            // advances: this spawn order makes the far-ahead producer
            // first so schedules where it must block are explored.
            scope.spawn(|| assert_eq!(r.insert(2, 20), Ok(true)));
            scope.spawn(|| assert_eq!(r.insert(1, 10), Ok(true)));
            assert_eq!(r.insert(0, 0), Ok(true));
            assert_eq!(r.take_next(), Some(0));
            assert_eq!(r.take_next(), Some(10));
            assert_eq!(r.take_next(), Some(20));
        });
        assert_eq!(r.take_next(), None);
        assert!(
            r.peak_filed() <= 2,
            "window bound violated: peak {}",
            r.peak_filed()
        );
    })
}

/// Two workers racing to file the same shard index: exactly one filing
/// wins and the loser gets `DuplicateIndex`, on every schedule.
fn reorder_duplicate_detected_under_race(config: &Config) -> Report {
    check("reorder_duplicate_detected_under_race", config, || {
        let r: ReorderBuffer<usize> = ReorderBuffer::new(2);
        r.set_total(1);
        thread::scope(|scope| {
            let a = scope.spawn(|| r.insert(0, 1));
            let b = scope.spawn(|| r.insert(0, 2));
            let (ra, rb) = (a.join().unwrap(), b.join().unwrap());
            let oks = [ra, rb].iter().filter(|&&x| x == Ok(true)).count();
            let dups = [ra, rb]
                .iter()
                .filter(|&&x| x == Err(DuplicateIndex(0)))
                .count();
            assert_eq!(
                (oks, dups),
                (1, 1),
                "exactly one filing wins: got {ra:?} / {rb:?}"
            );
        });
        assert!(r.take_next().is_some(), "the winning filing is delivered");
        assert_eq!(r.take_next(), None);
    })
}

/// The ordered pipeline itself ([`crate::pipeline::run`], which both
/// streaming sources run on) at one worker and one queue slot: item 0
/// fails, the merge step surfaces it before any later item (input order)
/// and aborts, and every thread — producer, worker, caller — unwinds
/// without deadlock. Four items overflow the two-slot reorder window once
/// the merge step stops, so a run that skipped the abort would leave the
/// worker blocked and fail here as a deadlock.
fn pipeline_first_error_aborts_everyone(config: &Config) -> Report {
    check("pipeline_first_error_aborts_everyone", config, || {
        let finished = pipeline::run(
            1,
            1,
            |_depth| {},
            |push| (0..4).take_while(|&i| push(i)).count(),
            |_index, i: usize| if i == 0 { Err(i) } else { Ok(i) },
            |item| match item {
                Ok(i) => panic!("item {i} merged before the smaller failing index"),
                Err(i) => Err(i),
            },
        );
        assert_eq!(finished.merged, Err(0), "lowest failing index wins");
    })
}

/// The watchdog handshake ported to [`StopFlag`]: a monitor polling with
/// timed waits always observes `stop()` and terminates — under notify
/// wake, spurious wake, and timeout-fire schedules alike.
fn watchdog_shutdown_always_terminates(config: &Config) -> Report {
    check("watchdog_shutdown_always_terminates", config, || {
        let flag = StopFlag::new();
        thread::scope(|scope| {
            let monitor = scope.spawn(|| {
                let mut ticks = 0u32;
                while !flag.wait_timeout(Duration::from_millis(10)) {
                    // A tick: the real watchdog samples gauges here.
                    ticks += 1;
                    assert!(ticks <= 64, "monitor spinning without observing stop");
                }
                ticks
            });
            flag.stop();
            let _ticks = monitor.join().unwrap();
        });
        assert!(flag.is_stopped());
    })
}

/// The TCP listener's shutdown wake, modeled: the accept loop is a
/// blocking pop that checks [`StopFlag::is_stopped`] per connection, and
/// `stop()` is [`StopFlag::stop`] *then* wake-connect (the order
/// telemetry's `serve.rs` uses). The listener must exit on every schedule
/// — including the one where it is mid-accept when the flag flips.
fn serve_shutdown_wake_terminates_listener(config: &Config) -> Report {
    check("serve_shutdown_wake_terminates_listener", config, || {
        let conns: BoundedQueue<u8> = BoundedQueue::new(4, |_| {});
        let flag = StopFlag::new();
        assert!(conns.push(1), "a client connection is already pending");
        thread::scope(|scope| {
            let listener = scope.spawn(|| {
                let mut handled = 0u32;
                while let Some(_conn) = conns.pop() {
                    if flag.is_stopped() {
                        break;
                    }
                    handled += 1; // serve the request
                }
                handled
            });
            // serve.rs shutdown order: raise the flag, then the loopback
            // connect that unblocks accept().
            flag.stop();
            assert!(conns.push(0), "wake connection");
            let handled = listener.join().unwrap();
            assert!(handled <= 1, "at most the pre-stop connection is served");
        });
        assert!(flag.is_stopped());
    })
}

/// The daemon's publish cell: one writer stores two views, each a
/// consistent `(day, selection day)` pair, while a reader loads three
/// times. Every load is one of the published pairs, whole, and a later
/// load never returns an older view than an earlier one.
fn publish_loads_are_whole_and_monotone(config: &Config) -> Report {
    check("publish_loads_are_whole_and_monotone", config, || {
        let published = [(0u32, 0u32), (7, 7), (8, 7)];
        let cell = Published::new(Arc::new(published[0]));
        thread::scope(|scope| {
            scope.spawn(|| {
                cell.store(Arc::new(published[1]));
                cell.store(Arc::new(published[2]));
            });
            let mut newest = 0;
            for _ in 0..3 {
                let view = *cell.load();
                let Some(age) = published.iter().position(|&p| p == view) else {
                    panic!("load returned {view:?}, which was never published");
                };
                assert!(age >= newest, "load went back from view {newest} to {age}");
                newest = age;
            }
        });
        assert_eq!(*cell.load(), published[2], "the last store is current");
    })
}
