//! Summary statistics over measured samples: medians, quantiles, the tail
//! percentile a sample count supports, and open-loop query accounting.

/// Median of `values` (mean of the two middle values for an even count);
/// NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` (`q` in `[0, 1]`), interpolating linearly
/// between the two nearest order statistics; NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// One line describing a run's op times: count, median, quartiles and
/// range, in seconds.
pub fn describe_times(times: &[f64]) -> String {
    let max = times.iter().copied().fold(f64::NAN, f64::max);
    let min = times.iter().copied().fold(f64::NAN, f64::min);
    format!(
        "{} ops: median {:.4} s, quartiles {:.4}..{:.4} s, range {min:.4}..{max:.4} s",
        times.len(),
        median(times),
        quantile(times, 0.25),
        quantile(times, 0.75),
    )
}

/// Candidate tail percentiles, highest first.
const TAIL_QUANTILES: [f64; 4] = [0.999, 0.99, 0.9, 0.5];

/// The highest of p99.9, p99, p90 and p50 that leaves at least
/// `min_beyond` of `n` samples above it — a tail percentile the sample
/// count can actually support. `None` when even the median cannot.
pub fn supported_tail(n: usize, min_beyond: usize) -> Option<f64> {
    TAIL_QUANTILES
        .into_iter()
        .find(|&q| (n as f64 * (1.0 - q) + 1e-9).floor() >= min_beyond as f64)
}

/// One request of an open-loop client, in seconds since the load started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryRecord {
    /// When the schedule said the request should be sent.
    pub due_s: f64,
    /// When the client actually sent it (later than `due_s` when an
    /// earlier request stalled the client).
    pub sent_s: f64,
    /// When the answer arrived, or the request failed.
    pub done_s: f64,
    /// Whether the answer was well formed and correct.
    pub ok: bool,
}

/// What the users of an open-loop query stream saw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuerySummary {
    /// Requests attempted.
    pub queries: usize,
    /// Requests that failed or were answered wrongly.
    pub errors: usize,
    /// The percentile `tail_latency_s` reports (see [`supported_tail`]).
    pub tail_quantile: f64,
    /// Latency at `tail_quantile`, from each request's due time.
    pub tail_latency_s: f64,
    /// Share of attempted requests that failed or exceeded the limit.
    pub miss_ratio: f64,
    /// Median of how late the client sent each request.
    pub late_median_s: f64,
    /// Largest lateness of the client.
    pub late_max_s: f64,
}

impl QuerySummary {
    /// Summarise `records` against the latency `limit_s`. Latency runs
    /// from the due time, not the send time, so one stalled request also
    /// charges the wait it imposed on every request queued behind it. A
    /// failed request counts as a miss whatever its latency.
    pub fn new(records: &[QueryRecord], limit_s: f64) -> QuerySummary {
        let latencies: Vec<f64> = records.iter().map(|r| r.done_s - r.due_s).collect();
        let lateness: Vec<f64> = records.iter().map(|r| r.sent_s - r.due_s).collect();
        let errors = records.iter().filter(|r| !r.ok).count();
        let misses = records
            .iter()
            .filter(|r| !r.ok || r.done_s - r.due_s > limit_s)
            .count();
        let tail_quantile = supported_tail(records.len(), 10).unwrap_or(0.5);
        QuerySummary {
            queries: records.len(),
            errors,
            tail_quantile,
            tail_latency_s: quantile(&latencies, tail_quantile),
            miss_ratio: misses as f64 / records.len().max(1) as f64,
            late_median_s: median(&lateness),
            late_max_s: lateness.iter().copied().fold(0.0, f64::max),
        }
    }
}

/// How long each writer's lock hold kept readers waiting: for every
/// window `(start_s, end_s)` in which the lock was held, the longest
/// latency from due time among the requests due from one request
/// `interval_s` before the window opened until it closed. The earliest of
/// those may already have been on its way when the lock was taken. A
/// window no request fell into has none.
pub fn stalls(
    records: &[QueryRecord],
    windows: &[(f64, f64)],
    interval_s: f64,
) -> Vec<Option<f64>> {
    windows
        .iter()
        .map(|&(start_s, end_s)| {
            records
                .iter()
                .filter(|r| r.due_s >= start_s - interval_s && r.due_s <= end_s)
                .map(|r| r.done_s - r.due_s)
                .reduce(f64::max)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        let values: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&values, 0.0), 0.0);
        assert_eq!(quantile(&values, 0.9), 90.0);
        assert_eq!(quantile(&values, 1.0), 100.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.25), 1.25);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(10_000, 10), Some(0.999));
        assert_eq!(supported_tail(9_999, 10), Some(0.99));
        assert_eq!(supported_tail(1_000, 10), Some(0.99));
        assert_eq!(supported_tail(999, 10), Some(0.9));
        assert_eq!(supported_tail(100, 10), Some(0.9));
        assert_eq!(supported_tail(20, 10), Some(0.5));
        assert_eq!(supported_tail(19, 10), None);
    }

    fn ok(due_s: f64, latency_s: f64) -> QueryRecord {
        QueryRecord {
            due_s,
            sent_s: due_s,
            done_s: due_s + latency_s,
            ok: true,
        }
    }

    #[test]
    fn failures_count_as_misses() {
        let mut records: Vec<QueryRecord> = (0..20).map(|i| ok(f64::from(i), 0.001)).collect();
        records[3].ok = false;
        records[7].done_s += 0.5;
        let summary = QuerySummary::new(&records, 0.1);
        assert_eq!(summary.errors, 1);
        assert_eq!(summary.queries, 20);
        assert!((summary.miss_ratio - 2.0 / 20.0).abs() < 1e-12);
    }

    /// A sequential open-loop client: request `i` is due at `i / rate` but
    /// cannot be sent before request `i - 1` finished.
    fn simulate(rate: f64, service_s: &[f64]) -> Vec<QueryRecord> {
        let mut free_at = 0.0f64;
        service_s
            .iter()
            .enumerate()
            .map(|(i, &service)| {
                let due_s = i as f64 / rate;
                let sent_s = due_s.max(free_at);
                free_at = sent_s + service;
                QueryRecord {
                    due_s,
                    sent_s,
                    done_s: free_at,
                    ok: true,
                }
            })
            .collect()
    }

    #[test]
    fn one_stall_delays_the_requests_behind_it() {
        // 100 requests at 100/s, each served in 1 ms, except request 10,
        // which stalls for 0.5 s. From send time only request 10 is slow;
        // from due time the ~50 requests queued behind it are late too.
        let mut service = vec![0.001; 100];
        service[10] = 0.5;
        let records = simulate(100.0, &service);
        let summary = QuerySummary::new(&records, 0.1);
        let latency = |i: usize| records[i].done_s - records[i].due_s;
        assert!((latency(10) - 0.5).abs() < 1e-9);
        assert!((latency(11) - 0.491).abs() < 1e-9);
        assert!(records[11].sent_s > records[11].due_s);
        // Request k in 11..=54 finishes at 0.6 + 0.001 (k - 10) s, more
        // than 100 ms after its due time k / 100 s.
        assert!(latency(54) > 0.1 && latency(55) < 0.1);
        assert!((summary.miss_ratio - 0.45).abs() < 1e-12);
        assert!((summary.late_max_s - 0.49).abs() < 1e-9);
        assert_eq!(summary.tail_quantile, 0.9);
        assert!(summary.tail_latency_s > 0.1);
    }

    #[test]
    fn a_lock_hold_stalls_the_request_that_meets_it() {
        // 100 requests at 100/s, 1 ms each, with the lock held from
        // 0.105 s to 0.605 s: request 11, due at 0.11 s, waits for it and
        // is answered at 0.606 s; request 10 was served before it.
        let (lock_from, lock_to) = (0.105, 0.605);
        let mut free_at = 0.0f64;
        let records: Vec<QueryRecord> = (0..100)
            .map(|i| {
                let due_s = f64::from(i) / 100.0;
                let sent_s = due_s.max(free_at);
                let start = if (lock_from..lock_to).contains(&sent_s) {
                    lock_to
                } else {
                    sent_s
                };
                free_at = start + 0.001;
                QueryRecord {
                    due_s,
                    sent_s,
                    done_s: free_at,
                    ok: true,
                }
            })
            .collect();
        let waits = stalls(&records, &[(lock_from, lock_to), (2.0, 2.5)], 0.01);
        assert_eq!(waits.len(), 2, "{waits:?}");
        assert!(
            waits[0].is_some_and(|w| (w - 0.496).abs() < 1e-9),
            "{waits:?}"
        );
        assert_eq!(waits[1], None);
    }

    #[test]
    fn describes_a_run_of_times() {
        let line = describe_times(&[3.0, 1.0, 2.0]);
        assert!(line.starts_with("3 ops: median 2.0000 s"), "{line}");
        assert!(line.ends_with("range 1.0000..3.0000 s"), "{line}");
    }
}
