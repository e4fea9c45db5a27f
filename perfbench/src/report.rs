//! The metrics the benchmark prints, and the one-line JSON result that
//! ends its standard output.

/// A metric's name and unit, exactly as `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit of its value.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Printed by every untraced run: what a user of the system waits for and
/// the memory the work needs.
pub const END_TO_END: [Metric; 3] = [m("setup_s", "s"), m("op_s", "s"), m("peak_heap_mib", "MiB")];

/// Printed by every traced run. A workload whose unit of work never
/// enters a layer reports that layer as 0.
pub const PER_LAYER: [Metric; 52] = [
    m("setup.peak_heap_mib", "MiB"),
    m("core.rankers_s", "s"),
    m("core.rankers.pearson_s", "s"),
    m("core.rankers.spearman_s", "s"),
    m("core.rankers.jindex_s", "s"),
    m("core.rankers.forest_s", "s"),
    m("core.rankers.gboost_s", "s"),
    m("core.rankers.slowest_share", "ratio"),
    m("core.ensemble_s", "s"),
    m("complexity.threshold_scan_s", "s"),
    m("core.wearout.change_point_s", "s"),
    m("core.wearout.split_self_s", "s"),
    m("core.select.groups", "count"),
    m("core.select.rows", "count"),
    m("dataset.gen_s", "s"),
    m("dataset.gen.rows", "count"),
    m("dataset.gen.chunks", "count"),
    m("dataset.gen.queue_full_stalls", "count"),
    m("dataset.gen.peak_batch_mib", "MiB"),
    m("pipeline.gen_matrix_s", "s"),
    m("pipeline.samples", "count"),
    m("core.select_s", "s"),
    m("trees.forest_fit_s", "s"),
    m("dataset.ingest_s", "s"),
    m("dataset.ingest.rows", "count"),
    m("dataset.ingest.shards", "count"),
    m("dataset.ingest.queue_full_stalls", "count"),
    m("pipeline.streaming_matrix_s", "s"),
    m("pipeline.fold_s", "s"),
    m("serve.ingest_s", "s"),
    m("serve.warm_replay_s", "s"),
    m("serve.cycle_s", "s"),
    m("pipeline.predictor_train_s", "s"),
    m("serve.cycle_other_s", "s"),
    m("pipeline.collect_samples_s", "s"),
    m("pipeline.base_matrix_s", "s"),
    m("serve.feed_day_ms", "ms"),
    m("serve.check_cycle_ms", "ms"),
    m("serve.checks", "count"),
    m("serve.reselections", "count"),
    m("serve.lag_ms", "ms"),
    m("serve.lag_max_s", "s"),
    m("serve.respond_us", "us"),
    m("serve.query_rtt_us", "us"),
    m("serve.query_tail_ms", "ms"),
    m("serve.query_miss_ratio", "ratio"),
    m("serve.client_late_ms", "ms"),
    m("serve.client_late_max_ms", "ms"),
    m("serve.queries", "count"),
    m("serve.query_errors", "count"),
    m("traced_op_s", "s"),
    m("trace_coverage", "ratio"),
];

/// One run's result: the last line of the benchmark's standard output.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(String, f64, String)>,
}

impl Outcome {
    /// The result as one line of JSON:
    /// `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}`.
    pub fn to_json_line(&self) -> String {
        use json::{Number, Value};
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let entry = Value::Object(vec![
                    ("value".to_string(), Value::Number(Number::Float(*value))),
                    ("unit".to_string(), Value::String(unit.clone())),
                ]);
                (name.clone(), entry)
            })
            .collect();
        json::to_string_value(&Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct)),
            (
                "attempted".to_string(),
                Value::Number(Number::PosInt(self.attempted)),
            ),
            (
                "failed".to_string(),
                Value::Number(Number::PosInt(self.failed)),
            ),
            ("metrics".to_string(), Value::Object(metrics)),
        ]))
    }

    /// Parse a result line written by [`Outcome::to_json_line`].
    ///
    /// # Errors
    ///
    /// Describes the first missing, extra or mistyped key.
    pub fn parse(line: &str) -> Result<Outcome, String> {
        let value = json::parse(line).map_err(|e| e.to_string())?;
        let fields = value.as_object().ok_or("result is not an object")?;
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        if keys != ["correct", "attempted", "failed", "metrics"] {
            return Err(format!("unexpected result keys {keys:?}"));
        }
        let count = |key: &str| {
            value
                .field(key)
                .and_then(json::Value::as_u64)
                .ok_or(format!("{key} is not a whole number"))
        };
        let metrics = value
            .field("metrics")
            .and_then(json::Value::as_object)
            .ok_or("metrics is not an object")?
            .iter()
            .map(|(name, entry)| {
                let number = entry.field("value").and_then(json::Value::as_f64);
                let unit = entry.field("unit").and_then(json::Value::as_str);
                match (number, unit, entry.as_object().map(<[_]>::len)) {
                    (Some(v), Some(u), Some(2)) if v.is_finite() => {
                        Ok((name.clone(), v, u.to_string()))
                    }
                    _ => Err(format!("metric {name} is not {{value, unit}}")),
                }
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Outcome {
            correct: value
                .field("correct")
                .and_then(json::Value::as_bool)
                .ok_or("correct is not a boolean")?,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let outcome = Outcome {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                ("op_s".to_string(), 1.2034567891234, "s".to_string()),
                ("setup_s".to_string(), 0.8127, "s".to_string()),
                ("serve.queries".to_string(), 1000.0, "count".to_string()),
            ],
        };
        let line = outcome.to_json_line();
        assert!(!line.contains('\n'));
        assert!(line.starts_with(r#"{"correct":true,"attempted":1000,"failed":0,"metrics":{"#));
        assert!(line.contains("1.2034567891234"), "all digits kept: {line}");
        assert_eq!(Outcome::parse(&line), Ok(outcome));
    }

    #[test]
    fn parse_rejects_malformed_results() {
        assert!(Outcome::parse("not json").is_err());
        assert!(Outcome::parse(r#"{"correct":true,"attempted":1,"failed":0}"#).is_err());
        assert!(Outcome::parse(
            r#"{"correct":true,"attempted":1,"failed":0,"metrics":{},"extra":1}"#
        )
        .is_err());
        assert!(
            Outcome::parse(r#"{"correct":true,"attempted":1.5,"failed":0,"metrics":{}}"#).is_err()
        );
        assert!(Outcome::parse(
            r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"op_s":{"value":1.0}}}"#
        )
        .is_err());
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (i, metric) in all.iter().enumerate() {
            assert!(
                all[..i].iter().all(|other| other.name != metric.name),
                "{} listed twice",
                metric.name
            );
            assert!(metric.name.len() <= 64 && metric.unit.len() <= 16);
            assert!(metric.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(metric
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
