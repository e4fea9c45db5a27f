//! Per-layer timing from outside the program: the traced run wraps each
//! call into a crate's public functions with a stopwatch.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::median;

/// The layer values of one unit of work (one op). Repeated calls into a
/// layer within the op add up.
#[derive(Debug, Default)]
pub struct OpTrace {
    values: BTreeMap<&'static str, f64>,
}

impl OpTrace {
    /// Run `f`, adding its wall time in seconds to layer `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(name, start.elapsed().as_secs_f64());
        out
    }

    /// Add `value` to layer `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.values.entry(name).or_default() += value;
    }

    /// The value accumulated for `name` (0 when never touched).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

/// Layer values collected over a run's ops; each metric reports the
/// median over the ops that touched it.
#[derive(Debug, Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    /// Record one op's layer values.
    pub fn record(&mut self, op: OpTrace) {
        for (name, value) in op.values {
            self.push(name, value);
        }
    }

    /// Record one sample of `name`.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Median of every recorded layer.
    pub fn medians(&self) -> BTreeMap<&'static str, f64> {
        self.samples
            .iter()
            .map(|(&name, values)| (name, median(values)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_accumulate_and_runs_take_medians() {
        let mut layers = Layers::default();
        for v in [1.0, 5.0, 3.0] {
            let mut op = OpTrace::default();
            op.add("a", v);
            op.add("a", 1.0);
            let out = op.time("b", || 7);
            assert_eq!(out, 7);
            assert!(op.get("b") >= 0.0);
            assert_eq!(op.get("missing"), 0.0);
            layers.record(op);
        }
        layers.push("c", 2.0);
        let medians = layers.medians();
        assert_eq!(medians["a"], 4.0);
        assert_eq!(medians["c"], 2.0);
        assert!(medians.contains_key("b"));
    }
}
