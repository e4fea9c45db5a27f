//! Bounded hand-off primitives for [`crate::pipeline`]: a FIFO work queue
//! with backpressure and a windowed reorder buffer that restores input
//! order on the merge side.
//!
//! Both are built on this crate's [`Mutex`] + [`Condvar`] only, so the
//! `model` feature explores their interleavings directly — the FIFO-prefix
//! and abort-wakes-everyone guarantees claimed below are pinned as model
//! tests in `crate::scenarios` (a `model`-feature module), not just
//! argued in comments. Poisoning
//! is survived with `PoisonError::into_inner`: the state these guards
//! protect is a plain queue, valid after any unwinding writer, and the
//! pipeline's abort path needs to keep working even while a worker is
//! panicking.

use std::collections::{BTreeMap, VecDeque};

use crate::{Condvar, Mutex, MutexGuard, PoisonError};

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
    aborted: bool,
    stalls: u64,
}

/// Blocking FIFO queue with a fixed capacity. Producers stall when it is
/// full (counted), consumers stall when it is empty; `close` drains,
/// `abort` discards.
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    cond: Condvar,
    capacity: usize,
    /// Called with the depth after every push/pop, outside the lock: the
    /// pipeline points it at a telemetry gauge, whose collector takes its
    /// own lock, which must not nest under ours. A plain `fn` keeps this
    /// crate free of a telemetry dependency, which is what lets the model
    /// checker own the queues.
    observer: fn(usize),
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (clamped to at least 1)
    /// that reports its depth to `observer`.
    pub fn new(capacity: usize, observer: fn(usize)) -> BoundedQueue<T> {
        BoundedQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
                aborted: false,
                stalls: 0,
            }),
            cond: Condvar::new(),
            capacity: capacity.max(1),
            observer,
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Block until there is room, then enqueue. Returns `false` when the
    /// queue was aborted (the item is dropped).
    pub fn push(&self, item: T) -> bool {
        let mut s = self.lock();
        while s.items.len() >= self.capacity && !s.aborted {
            s.stalls += 1;
            s = self.cond.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
        if s.aborted {
            return false;
        }
        s.items.push_back(item);
        let depth = s.items.len();
        self.cond.notify_all();
        drop(s);
        (self.observer)(depth);
        true
    }

    /// Block for the next item. `None` once the queue is closed and
    /// drained, or aborted.
    pub fn pop(&self) -> Option<T> {
        let mut s = self.lock();
        loop {
            if s.aborted {
                return None;
            }
            if let Some(item) = s.items.pop_front() {
                let depth = s.items.len();
                self.cond.notify_all();
                drop(s);
                (self.observer)(depth);
                return Some(item);
            }
            if s.closed {
                return None;
            }
            s = self.cond.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// No more items will be pushed; consumers drain what remains.
    pub fn close(&self) {
        self.lock().closed = true;
        self.cond.notify_all();
    }

    /// Discard queued items and wake everyone; `push` and `pop` both give
    /// up from now on.
    pub fn abort(&self) {
        let mut s = self.lock();
        s.aborted = true;
        s.items.clear();
        self.cond.notify_all();
    }

    /// How many times a producer found the queue full and had to wait.
    pub fn stalls(&self) -> u64 {
        self.lock().stalls
    }
}

/// An index was filed twice in a [`ReorderBuffer`]: either it is still
/// sitting in the window, or it was already consumed. Both mean two
/// producers claimed the same shard — pipeline corruption that previously
/// (pre-detection) silently overwrote the first item's data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DuplicateIndex(pub usize);

struct ReorderState<T> {
    ready: BTreeMap<usize, T>,
    next: usize,
    total: Option<usize>,
    aborted: bool,
    /// High-water mark of items parked in the window at once — pinned by
    /// tests to the documented bound (`<= capacity`).
    peak_filed: usize,
}

/// Restores index order on the consume side of an out-of-order worker pool.
///
/// Producers `insert(index, item)`; the consumer `take_next` receives items
/// strictly in index order. A producer whose index is more than `capacity`
/// ahead of the consumer blocks — this bounds the number of parsed shards
/// held in memory.
///
/// Deadlock-free as long as work is dispatched in index order (see
/// [`crate::pipeline`]); the `model` feature checks that on real schedules.
pub struct ReorderBuffer<T> {
    state: Mutex<ReorderState<T>>,
    cond: Condvar,
    capacity: usize,
}

impl<T> ReorderBuffer<T> {
    /// A buffer admitting indices up to `capacity` (clamped to at least 1)
    /// ahead of the consumer.
    pub fn new(capacity: usize) -> ReorderBuffer<T> {
        ReorderBuffer {
            state: Mutex::new(ReorderState {
                ready: BTreeMap::new(),
                next: 0,
                total: None,
                aborted: false,
                peak_filed: 0,
            }),
            cond: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, ReorderState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Block until `index` fits in the window, then file the item.
    /// `Ok(false)` when the buffer was aborted (the item is dropped);
    /// `Err(DuplicateIndex)` when `index` was already filed or already
    /// consumed — the item is dropped and the buffer is unchanged, so the
    /// first filing wins.
    pub fn insert(&self, index: usize, item: T) -> Result<bool, DuplicateIndex> {
        let mut s = self.lock();
        while index >= s.next + self.capacity && !s.aborted {
            s = self.cond.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
        if s.aborted {
            return Ok(false);
        }
        if index < s.next || s.ready.contains_key(&index) {
            return Err(DuplicateIndex(index));
        }
        s.ready.insert(index, item);
        s.peak_filed = s.peak_filed.max(s.ready.len());
        self.cond.notify_all();
        Ok(true)
    }

    /// Announce how many items will be inserted in total, unblocking the
    /// consumer's end-of-stream detection.
    pub fn set_total(&self, total: usize) {
        self.lock().total = Some(total);
        self.cond.notify_all();
    }

    /// Block until the next item in index order arrives. `None` once every
    /// announced item has been taken, or on abort.
    pub fn take_next(&self) -> Option<T> {
        let mut s = self.lock();
        loop {
            if s.aborted {
                return None;
            }
            let next = s.next;
            if let Some(item) = s.ready.remove(&next) {
                s.next += 1;
                self.cond.notify_all();
                return Some(item);
            }
            if s.total.is_some_and(|t| next >= t) {
                return None;
            }
            s = self.cond.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Discard filed items and wake everyone; `insert` and `take_next`
    /// both give up from now on.
    pub fn abort(&self) {
        let mut s = self.lock();
        s.aborted = true;
        s.ready.clear();
        self.cond.notify_all();
    }

    /// High-water mark of items parked in the window at once. The window
    /// invariant says this never exceeds the construction capacity.
    pub fn peak_filed(&self) -> usize {
        self.lock().peak_filed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn queue_is_fifo_and_drains_after_close() {
        let q = BoundedQueue::new(2, |_| {});
        assert!(q.push(1));
        assert!(q.push(2));
        q.close();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn queue_backpressure_counts_stalls() {
        let q = BoundedQueue::new(1, |_| {});
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..50 {
                    assert!(q.push(i));
                }
                q.close();
            });
            let mut got = Vec::new();
            while let Some(i) = q.pop() {
                got.push(i);
            }
            assert_eq!(got, (0..50).collect::<Vec<_>>());
        });
        assert!(q.stalls() > 0, "capacity 1 with 50 items must stall");
    }

    #[test]
    fn observed_queue_reports_depth() {
        static LAST_DEPTH: AtomicUsize = AtomicUsize::new(usize::MAX);
        fn record(depth: usize) {
            LAST_DEPTH.store(depth, Ordering::SeqCst);
        }
        let q: BoundedQueue<u32> = BoundedQueue::new(4, record);
        assert!(q.push(1));
        assert!(q.push(2));
        assert_eq!(LAST_DEPTH.load(Ordering::SeqCst), 2);
        q.close();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(LAST_DEPTH.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn abort_unblocks_producer() {
        let q = BoundedQueue::new(1, |_| {});
        assert!(q.push(0));
        std::thread::scope(|scope| {
            let h = scope.spawn(|| q.push(1));
            q.abort();
            assert!(!h.join().unwrap());
        });
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn reorder_emits_in_index_order() {
        let r = ReorderBuffer::new(8);
        r.set_total(3);
        assert_eq!(r.insert(2, "c"), Ok(true));
        assert_eq!(r.insert(0, "a"), Ok(true));
        assert_eq!(r.insert(1, "b"), Ok(true));
        assert_eq!(r.take_next(), Some("a"));
        assert_eq!(r.take_next(), Some("b"));
        assert_eq!(r.take_next(), Some("c"));
        assert_eq!(r.take_next(), None);
        assert_eq!(r.peak_filed(), 3);
    }

    #[test]
    fn reorder_rejects_duplicate_and_consumed_indices() {
        let r = ReorderBuffer::new(4);
        r.set_total(3);
        assert_eq!(r.insert(1, "b"), Ok(true));
        // Still parked in the window: second filing is an error, first wins.
        assert_eq!(r.insert(1, "B"), Err(DuplicateIndex(1)));
        assert_eq!(r.insert(0, "a"), Ok(true));
        assert_eq!(r.take_next(), Some("a"));
        // Already consumed: also an error, not a silent stale overwrite.
        assert_eq!(r.insert(0, "A"), Err(DuplicateIndex(0)));
        assert_eq!(r.take_next(), Some("b"));
        assert_eq!(r.insert(2, "c"), Ok(true));
        assert_eq!(r.take_next(), Some("c"));
        assert_eq!(r.take_next(), None);
    }

    #[test]
    fn reorder_window_blocks_far_ahead_producer() {
        let r = ReorderBuffer::new(2);
        r.set_total(4);
        assert_eq!(r.insert(1, 1), Ok(true));
        std::thread::scope(|scope| {
            // Index 3 is outside the window [0, 2) until the consumer moves.
            let h = scope.spawn(|| r.insert(3, 3));
            assert_eq!(r.insert(0, 0), Ok(true));
            assert_eq!(r.take_next(), Some(0));
            assert_eq!(r.take_next(), Some(1));
            assert_eq!(r.insert(2, 2), Ok(true));
            assert_eq!(h.join().unwrap(), Ok(true));
        });
        assert_eq!(r.take_next(), Some(2));
        assert_eq!(r.take_next(), Some(3));
        assert_eq!(r.take_next(), None);
        assert!(
            r.peak_filed() <= 2,
            "window bound violated: peak {} > capacity 2",
            r.peak_filed()
        );
    }

    #[test]
    fn reorder_abort_unblocks_consumer() {
        let r = ReorderBuffer::<u32>::new(2);
        std::thread::scope(|scope| {
            let h = scope.spawn(|| r.take_next());
            r.abort();
            assert_eq!(h.join().unwrap(), None);
        });
        assert_eq!(r.insert(0, 7), Ok(false));
    }

    #[test]
    fn zero_total_means_immediately_done() {
        let r = ReorderBuffer::<u32>::new(2);
        r.set_total(0);
        assert_eq!(r.take_next(), None);
    }

    /// Fully random arrival orders for the reorder buffer, single-threaded
    /// so the window admission is simulated exactly: at every step either
    /// file a pending index that fits the window (random choice among
    /// them) or consume, with random duplicate filings injected along the
    /// way. Pins index-ordered delivery, the duplicate error path, and the
    /// window-bound accounting.
    #[test]
    fn prop_reorder_random_arrival_orders() {
        rng::prop_check!(|g| {
            let total = g.usize_in(1, 24);
            let capacity = g.usize_in(1, 5);
            let r: ReorderBuffer<usize> = ReorderBuffer::new(capacity);
            r.set_total(total);
            let mut pending = g.permutation(total);
            let mut filed: Vec<usize> = Vec::new();
            let mut taken: Vec<usize> = Vec::new();
            let mut duplicates_hit = 0usize;
            while taken.len() < total {
                let next = taken.len();
                // Indices admissible without blocking: inside [next, next+cap).
                let admissible: Vec<usize> = (0..pending.len())
                    .filter(|&p| pending[p] < next + capacity)
                    .collect();
                // Consuming blocks until index `next` is filed, so with one
                // thread it is only safe once `next` is actually resident.
                let can_take = filed.contains(&next);
                let file_one = !admissible.is_empty() && (!can_take || g.usize_in(0, 2) > 0);
                if file_one {
                    let pick = admissible[g.usize_in(0, admissible.len() - 1)];
                    let index = pending.remove(pick);
                    assert_eq!(r.insert(index, index), Ok(true));
                    filed.push(index);
                    // Re-filing a window-resident index must fail and
                    // leave the buffer unchanged.
                    if g.usize_in(0, 3) == 0 {
                        let dup = filed[g.usize_in(0, filed.len() - 1)];
                        assert_eq!(r.insert(dup, usize::MAX), Err(DuplicateIndex(dup)));
                        duplicates_hit += 1;
                    }
                } else {
                    let got = r.take_next().expect("announced items remain");
                    assert_eq!(got, next, "take_next must deliver in index order");
                    taken.push(got);
                    filed.retain(|&i| i != got);
                    // Re-filing a consumed index is the stale flavor of
                    // the same error.
                    if g.usize_in(0, 3) == 0 {
                        assert_eq!(r.insert(got, usize::MAX), Err(DuplicateIndex(got)));
                        duplicates_hit += 1;
                    }
                }
                assert!(
                    r.peak_filed() <= capacity,
                    "window bound violated: peak {} > capacity {capacity}",
                    r.peak_filed()
                );
            }
            assert_eq!(taken, (0..total).collect::<Vec<_>>());
            assert_eq!(r.take_next(), None, "exactly `total` items delivered");
            let _ = duplicates_hit; // distribution knob, not an assertion target
        });
    }

    /// Item whose `Drop` panics while armed. Clearing a queue that holds one
    /// panics *inside* the critical section, poisoning the mutex — exactly
    /// the hazard `PoisonError::into_inner` exists for.
    struct Bomb {
        armed: bool,
    }

    impl Drop for Bomb {
        fn drop(&mut self) {
            // Don't double-panic while the queue is already unwinding past
            // the sibling items: that would abort the whole process.
            if self.armed && !std::thread::panicking() {
                panic!("bomb dropped");
            }
        }
    }

    #[test]
    fn prop_queue_survives_mutex_poisoning_mid_abort() {
        rng::prop_check!(|g| {
            let capacity = g.usize_in(1, 4);
            let n = g.usize_in(1, capacity);
            let bomb_at = g.usize_in(0, n - 1);
            let q = BoundedQueue::new(capacity, |_| {});
            for i in 0..n {
                assert!(q.push(Bomb {
                    armed: i == bomb_at
                }));
            }
            // `abort` clears the deque under the lock; the armed bomb's
            // panic unwinds with the guard held and poisons the mutex.
            let aborting = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| q.abort()));
            assert!(aborting.is_err(), "armed bomb must panic during abort");
            // The queue stays usable through the poisoned lock: the abort
            // stuck (it set the flag before clearing), producers are turned
            // away, consumers give up, and telemetry remains readable.
            assert!(!q.push(Bomb { armed: false }));
            assert!(q.pop().is_none());
            let _ = q.stalls();
        });
    }

    #[test]
    fn prop_reorder_survives_mutex_poisoning_mid_abort() {
        rng::prop_check!(|g| {
            let capacity = g.usize_in(1, 4);
            let n = g.usize_in(1, capacity);
            let bomb_at = g.usize_in(0, n - 1);
            let r = ReorderBuffer::new(capacity);
            r.set_total(n + 1); // one index never arrives: consumer must rely on abort
            for i in 0..n {
                assert_eq!(
                    r.insert(
                        i,
                        Bomb {
                            armed: i == bomb_at
                        }
                    ),
                    Ok(true)
                );
            }
            let aborting = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| r.abort()));
            assert!(aborting.is_err(), "armed bomb must panic during abort");
            assert_eq!(r.insert(n, Bomb { armed: false }), Ok(false));
            assert!(r.take_next().is_none());
        });
    }
}
