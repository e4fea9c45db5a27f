//! The ordered worker pipeline both streaming sources run on: sharded
//! SMART-log ingestion (`smart_dataset::ingest::stream_drive_batches`) and
//! streaming fleet generation (`smart_dataset::gen::stream_fleet_batches`).
//!
//! ```text
//! producer ──items──▶ BoundedQueue ──▶ workers ──▶ ReorderBuffer ──▶ merge
//! (1 thread)         (backpressure)   (N threads)  (input order)    (caller)
//! ```
//!
//! [`run`] numbers items in the order the producer pushes them, hands them
//! to scoped worker threads through a bounded FIFO queue, and feeds the
//! workers' outputs to the caller's merge step strictly in that order. The
//! merged sequence, and the first error it surfaces, is therefore the same
//! at every worker count and queue size.
//!
//! * **Bounded memory.** At most `queue_slots` items wait in the work queue
//!   (the producer stalls while it is full, and [`Finished::stalls`] counts
//!   it) and at most `workers + queue_slots` outputs wait in the reorder
//!   window.
//! * **No deadlock.** Items leave the queue in FIFO order, so every index
//!   below an outstanding one is merged or held by another worker. The
//!   smallest outstanding index is always inside the window, so its worker
//!   never blocks, the merge step keeps advancing, and every blocked worker
//!   is eventually admitted.
//! * **Abort.** The first merge error aborts both hand-offs: the producer's
//!   `push` returns `false`, the workers stop, and `run` returns once every
//!   thread has exited. A panic in the producer, a worker or the merge step
//!   aborts them the same way and then re-raises from `run`, so no thread is
//!   left waiting for one that is gone.
//!
//! The model checker explores this function itself, not a copy of it
//! (`scenarios::pipeline_first_error_aborts_everyone`, `model` feature).

use std::panic::{self, AssertUnwindSafe};

use crate::queue::{BoundedQueue, ReorderBuffer};
use crate::thread::{self, ScopedJoinHandle};

/// What [`run`] reports once every thread has exited.
#[derive(Debug)]
pub struct Finished<P, E> {
    /// The producer's return value.
    pub produced: P,
    /// The merge step's first error; the pipeline was aborted there.
    pub merged: Result<(), E>,
    /// Times the producer found the work queue full and had to wait.
    pub stalls: u64,
}

/// The two hand-offs, which are always aborted together.
struct Handoffs<T, U> {
    work: BoundedQueue<(usize, T)>,
    done: ReorderBuffer<U>,
}

impl<T, U> Handoffs<T, U> {
    fn abort(&self) {
        self.work.abort();
        self.done.abort();
    }

    /// Run one participant. If it panics, abort both hand-offs before the
    /// panic goes on, so nobody keeps waiting for this participant.
    fn abort_on_panic<R>(&self, participant: impl FnOnce() -> R) -> R {
        panic::catch_unwind(AssertUnwindSafe(participant)).unwrap_or_else(|payload| {
            self.abort();
            panic::resume_unwind(payload)
        })
    }
}

/// Join a scoped thread, re-raising its panic with the original payload.
fn join<R>(handle: ScopedJoinHandle<'_, R>) -> R {
    handle
        .join()
        .unwrap_or_else(|payload| panic::resume_unwind(payload))
}

/// Run `produce` on its own thread, `work` on `workers` threads and `merge`
/// on the calling thread, as the module docs describe.
///
/// `produce` receives a `push` function that enqueues one item and returns
/// `false` once the run was aborted; the producer should then stop.
/// `work(index, item)` sees each item with its position in push order, and
/// `merge` sees the outputs in that order. `depth_observer` is called with
/// the work queue's depth after every push and pop, outside its lock.
/// `workers` and `queue_slots` are clamped to at least 1.
///
/// # Panics
///
/// Re-raises a panic from the producer, a worker or `merge`, after every
/// thread has stopped.
pub fn run<T, U, P, E>(
    workers: usize,
    queue_slots: usize,
    depth_observer: fn(usize),
    produce: impl FnOnce(&mut dyn FnMut(T) -> bool) -> P + Send,
    work: impl Fn(usize, T) -> U + Sync,
    mut merge: impl FnMut(U) -> Result<(), E>,
) -> Finished<P, E>
where
    T: Send,
    U: Send,
    P: Send,
{
    let workers = workers.max(1);
    let queue_slots = queue_slots.max(1);
    let handoffs = Handoffs {
        work: BoundedQueue::new(queue_slots, depth_observer),
        done: ReorderBuffer::new(workers + queue_slots),
    };
    let h = &handoffs;
    let work = &work;
    thread::scope(|scope| {
        let producer = scope.spawn(move || {
            h.abort_on_panic(|| {
                let mut pushed = 0;
                let produced = produce(&mut |item| {
                    let accepted = h.work.push((pushed, item));
                    pushed += usize::from(accepted);
                    accepted
                });
                h.work.close();
                h.done.set_total(pushed);
                produced
            })
        });
        let worker_threads: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    h.abort_on_panic(|| {
                        while let Some((index, item)) = h.work.pop() {
                            let filed = h
                                .done
                                .insert(index, work(index, item))
                                .expect("the producer numbers each item once");
                            if !filed {
                                break; // aborted
                            }
                        }
                    })
                })
            })
            .collect();

        let merged = h.abort_on_panic(|| {
            while let Some(output) = h.done.take_next() {
                if let Err(e) = merge(output) {
                    h.abort();
                    return Err(e);
                }
            }
            Ok(())
        });
        debug_assert!(
            h.done.peak_filed() <= workers + queue_slots,
            "reorder window outgrew its bound"
        );
        let produced = join(producer);
        worker_threads.into_iter().for_each(join);
        Finished {
            produced,
            merged,
            stalls: h.work.stalls(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    fn unobserved(_depth: usize) {}

    /// Push `0..total` until the run is aborted; return how many went in.
    fn push_range(total: usize) -> impl FnOnce(&mut dyn FnMut(usize) -> bool) -> usize + Send {
        move |push| (0..total).take_while(|&i| push(i)).count()
    }

    #[test]
    fn prop_merges_in_push_order_at_any_shape() {
        rng::prop_check!(|g| {
            let total = g.usize_in(0, 40);
            let workers = g.usize_in(1, 4);
            let slots = g.usize_in(1, 4);
            let mut merged = Vec::new();
            let finished = run(
                workers,
                slots,
                unobserved,
                push_range(total),
                |index, item| {
                    assert_eq!(index, item, "items are numbered in push order");
                    item * 3
                },
                |output| {
                    merged.push(output);
                    Ok::<(), ()>(())
                },
            );
            assert_eq!(finished.produced, total);
            assert_eq!(finished.merged, Ok(()));
            assert_eq!(merged, (0..total).map(|i| i * 3).collect::<Vec<_>>());
        });
    }

    #[test]
    fn merge_error_stops_an_endless_producer() {
        let finished = run(
            2,
            1,
            unobserved,
            |push| (0..).take_while(|&i| push(i)).count(),
            |_, item: usize| item,
            |item| if item == 3 { Err(item) } else { Ok(()) },
        );
        assert_eq!(finished.merged, Err(3));
        assert!(finished.produced >= 4, "{}", finished.produced);
    }

    /// Workers that *panic* on randomly chosen items, each panic converted
    /// to an indexed error inside the worker: whatever the interleaving,
    /// the merge step must surface the smallest failing index after merging
    /// every earlier item, and the abort must unwind the whole pipeline.
    #[test]
    fn prop_worker_panics_abort_cleanly_with_first_error_wins() {
        rng::prop_check!(|g| {
            let total = g.usize_in(2, 24);
            let workers = g.usize_in(1, 4);
            let slots = g.usize_in(1, 4);
            let n_fail = g.usize_in(1, total.min(3));
            let mut fails = vec![false; total];
            for &i in g.permutation(total).iter().take(n_fail) {
                fails[i] = true;
            }
            let first_error = fails.iter().position(|&f| f).expect("n_fail >= 1");
            let fails = &fails;
            let mut merged = 0usize;
            let finished = run(
                workers,
                slots,
                unobserved,
                push_range(total),
                |_, i| {
                    panic::catch_unwind(|| {
                        if fails[i] {
                            panic!("injected worker panic on item {i}");
                        }
                        i
                    })
                    .map_err(|_| i)
                },
                |item: Result<usize, usize>| -> Result<(), usize> {
                    let i = item?;
                    assert_eq!(i, merged, "the merge step must see items in order");
                    merged += 1;
                    Ok(())
                },
            );
            assert_eq!(finished.merged, Err(first_error), "lowest index wins");
            assert_eq!(merged, first_error, "every item before the error merges");
        });
    }

    /// Run `f` on its own thread and return its panic message. Fails the
    /// test when `f` returns normally, or is still blocked after 10 s (a
    /// wedged pipeline).
    fn panic_within_timeout(f: impl FnOnce() + Send + 'static) -> String {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let outcome = panic::catch_unwind(AssertUnwindSafe(f));
            let message = outcome.err().map(|payload| {
                payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_default()
            });
            let _ = tx.send(message);
        });
        match rx.recv_timeout(Duration::from_secs(10)) {
            Ok(Some(message)) => message,
            Ok(None) => panic!("the run returned instead of panicking"),
            Err(_) => panic!("the run is still blocked after 10 s"),
        }
    }

    #[test]
    fn panicking_producer_reaches_the_caller() {
        let message = panic_within_timeout(|| {
            run(
                2,
                1,
                unobserved,
                |push: &mut dyn FnMut(usize) -> bool| {
                    push(0);
                    panic!("producer failed");
                },
                |_, item| item,
                |_| Ok::<(), ()>(()),
            );
        });
        assert_eq!(message, "producer failed");
    }

    #[test]
    fn panicking_worker_reaches_the_caller() {
        let message = panic_within_timeout(|| {
            run(
                2,
                1,
                unobserved,
                push_range(50),
                |index, item| {
                    if index == 0 {
                        panic!("worker failed");
                    }
                    item
                },
                |_| Ok::<(), ()>(()),
            );
        });
        assert_eq!(message, "worker failed");
    }

    #[test]
    fn panicking_merge_reaches_the_caller() {
        let message = panic_within_timeout(|| {
            run(
                2,
                1,
                unobserved,
                push_range(50),
                |_, item| item,
                |_| -> Result<(), ()> { panic!("merge failed") },
            );
        });
        assert_eq!(message, "merge failed");
    }
}
