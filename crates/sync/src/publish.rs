//! A published value: one writer replaces it whole, any number of readers
//! take the current one without waiting for the writer's work.
//!
//! The cell is a [`Mutex`] around an [`Arc`], held only for the pointer
//! copy: [`Published::load`] clones the `Arc` under the lock and
//! [`Published::store`] swaps a new one in. A reader therefore always gets
//! a value some `store` published in full, and keeps it alive for as long
//! as it needs while later stores go on. The writer builds each value
//! before it stores it, so however long that takes, no reader waits on it.
//! A poisoned lock is used as is: the only write is one pointer swap, so
//! the cell holds a whole value at every step.
//!
//! Under the `model` feature the lock is the model checker's, so
//! `scenarios::publish_loads_are_whole_and_monotone` explores this exact
//! code.

use crate::{Arc, Mutex, PoisonError};

/// The current value of something one writer republishes whole.
#[derive(Debug)]
pub struct Published<T> {
    current: Mutex<Arc<T>>,
}

impl<T> Published<T> {
    /// A cell publishing `value`.
    pub fn new(value: Arc<T>) -> Published<T> {
        Published {
            current: Mutex::new(value),
        }
    }

    /// The value the latest [`Published::store`] put in.
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&self.current.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Publish `value`. The replaced value is dropped after the lock is
    /// released, so a store never runs a destructor while readers wait.
    pub fn store(&self, value: Arc<T>) {
        let replaced = {
            let mut current = self.current.lock().unwrap_or_else(PoisonError::into_inner);
            std::mem::replace(&mut *current, value)
        };
        drop(replaced);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_returns_the_latest_store_and_old_values_stay_alive() {
        let cell = Published::new(Arc::new(1));
        let first = cell.load();
        cell.store(Arc::new(2));
        assert_eq!(*cell.load(), 2);
        assert_eq!(
            *first, 1,
            "a loaded value outlives the store that replaced it"
        );
        assert_eq!(Arc::strong_count(&first), 1, "the cell let go of it");
    }
}
