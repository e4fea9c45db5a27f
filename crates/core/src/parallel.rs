//! Parallel execution of the preliminary rankers.
//!
//! The paper runs the five feature-selection approaches in parallel, which
//! is why WEFR's runtime tracks the slowest single approach (Exp#4,
//! Table VIII). Each ranker runs on its own scoped thread
//! (`std::thread::scope`).

use crate::error::WefrError;
use crate::ranker::FeatureRanker;
use crate::ranking::FeatureRanking;
use smart_stats::FeatureMatrix;

/// Run every ranker over the same data, one thread per ranker, returning
/// the named rankings in input order — bit-identical to calling each
/// ranker's `rank` in turn.
///
/// # Errors
///
/// Returns [`WefrError::RankerFailed`] for the first ranker (in input
/// order) that failed, and [`WefrError::InvalidInput`] when no rankers are
/// given.
pub fn run_rankers(
    rankers: &[Box<dyn FeatureRanker>],
    data: &FeatureMatrix,
    labels: &[bool],
) -> Result<Vec<(String, FeatureRanking)>, WefrError> {
    if rankers.is_empty() {
        return Err(WefrError::InvalidInput {
            message: "no rankers configured".to_string(),
        });
    }

    let fanout = telemetry::span!("rankers", total = rankers.len(), workers = rankers.len());
    let fanout_id = fanout.id();
    let results: Vec<Result<FeatureRanking, WefrError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = rankers
            .iter()
            .map(|ranker| {
                scope.spawn(move || {
                    let span = telemetry::span_child_of(fanout_id, ranker.name());
                    let result = ranker.rank(data, labels);
                    span.record("ok", result.is_ok());
                    telemetry::counter_add("rankers.completed", 1);
                    result
                })
            })
            .collect();
        handles
            .into_iter()
            // A ranker panic is already a bug: re-raise it on the caller.
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });

    rankers
        .iter()
        .zip(results)
        .map(|(ranker, result)| {
            result
                .map(|ranking| (ranker.name().to_string(), ranking))
                .map_err(|e| {
                    telemetry::error!(
                        "rankers",
                        format!("ranker {} failed", ranker.name()),
                        ranker = ranker.name(),
                        detail = e.to_string(),
                    );
                    WefrError::RankerFailed {
                        ranker: ranker.name(),
                        message: e.to_string(),
                    }
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rankers::default_rankers;

    fn data() -> (FeatureMatrix, Vec<bool>) {
        let labels: Vec<bool> = (0..60).map(|i| i % 3 == 0).collect();
        let signal: Vec<f64> = labels
            .iter()
            .enumerate()
            .map(|(i, &l)| if l { 10.0 } else { 0.0 } + (i % 7) as f64 * 0.1)
            .collect();
        let noise: Vec<f64> = (0..60).map(|i| ((i * 31) % 17) as f64).collect();
        (
            FeatureMatrix::from_columns(vec!["signal".into(), "noise".into()], vec![signal, noise])
                .unwrap(),
            labels,
        )
    }

    #[test]
    fn runs_all_five_in_parallel() {
        let (m, l) = data();
        let rankers = default_rankers(1);
        let results = run_rankers(&rankers, &m, &l).unwrap();
        assert_eq!(results.len(), 5);
        for (name, ranking) in &results {
            assert_eq!(
                ranking.top_names(1),
                vec!["signal"],
                "ranker {name} missed the signal"
            );
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let (m, l) = data();
        let rankers = default_rankers(2);
        let parallel = run_rankers(&rankers, &m, &l).unwrap();
        for (ranker, (name, ranking)) in rankers.iter().zip(&parallel) {
            assert_eq!(ranker.name(), name);
            assert_eq!(&ranker.rank(&m, &l).unwrap(), ranking);
        }
    }

    #[test]
    fn failure_is_attributed_to_the_ranker() {
        let (m, _) = data();
        let one_class = vec![true; m.n_rows()];
        let rankers = default_rankers(3);
        let err = run_rankers(&rankers, &m, &one_class).unwrap_err();
        assert!(matches!(
            err,
            WefrError::RankerFailed {
                ranker: "pearson",
                ..
            }
        ));
    }

    #[test]
    fn empty_ranker_list_is_invalid() {
        let (m, l) = data();
        assert!(run_rankers(&[], &m, &l).is_err());
    }
}
