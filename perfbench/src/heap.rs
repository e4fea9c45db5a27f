//! Heap accounting: the benchmark's global allocator forwards to the
//! system allocator and keeps the bytes live and their peak, so a run can
//! report the most heap its measured phase held, apart from set-up.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

/// Bytes currently allocated, less what threads still hold back.
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// Most bytes [`LIVE`] held at once since the last [`reset_peak`].
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// Each thread adds its allocations up locally and moves them into
/// [`LIVE`] once they reach this many bytes either way. A shared counter
/// bumped on every call made selection about 7% slower on 2 cores; this
/// keeps the cost to a thread-local add, and the peak within this many
/// bytes per running thread.
const FLUSH_BYTES: isize = 16 << 10;

const MIB: f64 = 1024.0 * 1024.0;

thread_local! {
    static PENDING: Cell<isize> = const { Cell::new(0) };
}

/// The system allocator plus live and peak byte counts. The counters are
/// statistics that publish no other data, so `Relaxed` suffices.
pub struct CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn account(delta: isize) {
    let flush = PENDING
        .try_with(|pending| {
            let total = pending.get() + delta;
            if total.abs() < FLUSH_BYTES {
                pending.set(total);
                0
            } else {
                pending.set(0);
                total
            }
        })
        .unwrap_or(delta);
    if flush != 0 {
        let live = LIVE.fetch_add(flush, Ordering::Relaxed) + flush;
        if live > PEAK.load(Ordering::Relaxed) {
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
    }
}

fn signed(bytes: usize) -> isize {
    isize::try_from(bytes).unwrap_or(isize::MAX)
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters only observe sizes.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` pass through.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            account(signed(layout.size()));
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` pass through.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            account(signed(layout.size()));
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        account(-signed(layout.size()));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and the caller guarantees `new_size`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            account(signed(new_size) - signed(layout.size()));
        }
        new
    }
}

/// Start a new peak from the bytes live now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// The peak since the last [`reset_peak`], in MiB.
pub fn peak_mib() -> f64 {
    PEAK.load(Ordering::Relaxed).max(0) as f64 / MIB
}

/// Tests that allocate megabytes and read the peak hold this, so that
/// their allocations do not move each other's readings.
#[cfg(test)]
pub(crate) static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_counts_a_held_allocation_and_resets() {
        let _serial = TEST_LOCK.lock().unwrap();
        reset_peak();
        let before = peak_mib();
        let block = vec![1u8; 8 << 20];
        assert!(peak_mib() - before >= 7.9, "{before} -> {}", peak_mib());
        drop(std::hint::black_box(block));
        let high = peak_mib();
        reset_peak();
        assert!(peak_mib() < high);
    }

    #[test]
    fn small_allocations_are_counted_in_batches() {
        let _serial = TEST_LOCK.lock().unwrap();
        reset_peak();
        let before = peak_mib();
        let blocks: Vec<Vec<u8>> = (0..1024).map(|_| vec![0u8; 1024]).collect();
        let grown = peak_mib() - before;
        assert!((0.9..1.2).contains(&grown), "{grown} MiB");
        drop(std::hint::black_box(blocks));
    }
}
