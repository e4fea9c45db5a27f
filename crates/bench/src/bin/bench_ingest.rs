#![forbid(unsafe_code)]
//! Paired ingestion benchmark: single-threaded CSV import versus the
//! sharded streaming reader, on an exported fleet held in memory (so the
//! comparison times parsing, not disk).
//!
//! Timings come from the telemetry span tree, the same stopwatch as
//! `exp4_runtime`. With `--out DIR` the run writes `DIR/BENCH_pr5.json`;
//! the committed `results/BENCH_pr5.json` records the machine's core count
//! alongside the speedups, since the parallel win is bounded by it.
//!
//! Every timed variant is first checked to produce a drive list
//! bit-identical to the single-threaded reference. Each row records the
//! mean and the fastest of its timing rounds; the CI gate compares the
//! fastest, which a loaded host disturbs least.

use smart_dataset::csv::{export_smart_csv, import_smart_csv};
use smart_dataset::{import_smart_csv_sharded, tickets_from_summaries, IngestConfig};
use wefr_bench::{print_header, RunOptions};

struct IngestRow {
    method: String,
    mean_seconds: f64,
    min_seconds: f64,
    rounds: usize,
}

json::impl_to_json!(IngestRow {
    method,
    mean_seconds,
    min_seconds,
    rounds
});

struct IngestBenchReport {
    n_rows: usize,
    n_drives: usize,
    csv_bytes: usize,
    shard_rows: usize,
    cores: usize,
    rows: Vec<IngestRow>,
    /// Single-threaded mean divided by sharded mean at 1 worker
    /// (> 1 means the sharded parser is faster even without parallelism).
    speedup_w1: f64,
    /// Single-threaded mean divided by sharded mean at 4 workers.
    speedup_w4: f64,
}

json::impl_to_json!(IngestBenchReport {
    n_rows,
    n_drives,
    csv_bytes,
    shard_rows,
    cores,
    rows,
    speedup_w1,
    speedup_w4
});

fn main() {
    let opts = RunOptions::from_args();
    let fleet = opts.fleet();
    // The span tree is the stopwatch — collect regardless of WEFR_LOG.
    telemetry::set_collect(true);

    let tickets = tickets_from_summaries(&fleet.summaries());
    let mut buf = Vec::new();
    export_smart_csv(&fleet, &mut buf).expect("in-memory export");
    let csv = String::from_utf8(buf).expect("CSV is UTF-8");
    let n_rows = csv.lines().count() - 1;
    let rounds = 5;
    // The default shard size is cache-sized, not file-sized; WEFR_INGEST_SHARD_ROWS
    // overrides it here exactly as it does in production.
    let shard_rows = IngestConfig::from_env().shard_rows;
    let cores = std::thread::available_parallelism().map_or(1, usize::from);

    print_header("Ingestion benchmark: single-threaded vs sharded CSV import");
    println!(
        "{} data rows, {} drives, {:.1} MiB CSV; shard_rows {}, {} timing rounds, {} cores\n",
        n_rows,
        fleet.drives().len(),
        csv.len() as f64 / (1024.0 * 1024.0),
        shard_rows,
        rounds,
        cores
    );

    // The reference is the single-threaded *import*, not the generated
    // fleet: importers cannot recover `initial_age_days`, so only the two
    // readers are comparable bit-for-bit.
    let reference = import_smart_csv(csv.as_bytes(), &tickets, fleet.config().clone())
        .expect("reference import");

    let sharded_config = |workers: usize| IngestConfig {
        shard_rows,
        workers,
        max_queued_shards: 8,
        ..IngestConfig::default()
    };
    enum Method {
        Single,
        Sharded(usize),
    }
    let variants = [
        ("ingest/single", Method::Single),
        ("ingest/sharded_w1", Method::Sharded(1)),
        ("ingest/sharded_w4", Method::Sharded(4)),
    ];

    let mut rows = Vec::new();
    let mut means = [0.0f64; 3];
    for (slot, (label, method)) in variants.into_iter().enumerate() {
        // Warm-up round, also the bit-identity check for this variant.
        let warm = match &method {
            Method::Single => import_smart_csv(csv.as_bytes(), &tickets, fleet.config().clone()),
            Method::Sharded(workers) => import_smart_csv_sharded(
                csv.as_bytes(),
                &tickets,
                fleet.config().clone(),
                &sharded_config(*workers),
            ),
        }
        .expect("well-formed CSV");
        assert!(
            warm.drives() == reference.drives(),
            "{label} diverged from the single-threaded reader"
        );
        telemetry::reset();
        for _ in 0..rounds {
            let round = telemetry::span!(label);
            match &method {
                Method::Single => {
                    import_smart_csv(csv.as_bytes(), &tickets, fleet.config().clone())
                        .expect("well-formed CSV");
                }
                Method::Sharded(workers) => {
                    import_smart_csv_sharded(
                        csv.as_bytes(),
                        &tickets,
                        fleet.config().clone(),
                        &sharded_config(*workers),
                    )
                    .expect("well-formed CSV");
                }
            }
            drop(round);
        }
        let snapshot = telemetry::snapshot("bench_ingest");
        let mean = snapshot.total_seconds(label) / rounds as f64;
        let min = snapshot
            .spans_named(label)
            .iter()
            .map(|s| s.duration_us as f64 / 1e6)
            .fold(f64::INFINITY, f64::min);
        means[slot] = mean;
        let mib_s = csv.len() as f64 / (1024.0 * 1024.0) / mean;
        println!("{label:<22} {mean:>9.3} s  ({mib_s:>7.1} MiB/s)  min {min:.3} s");
        rows.push(IngestRow {
            method: label.to_string(),
            mean_seconds: mean,
            min_seconds: min,
            rounds,
        });
    }

    let speedup_w1 = means[0] / means[1];
    let speedup_w4 = means[0] / means[2];
    println!("\nsingle / sharded_w1 = {speedup_w1:.2}x");
    println!("single / sharded_w4 = {speedup_w4:.2}x (on {cores} core(s))");
    let report = IngestBenchReport {
        n_rows,
        n_drives: fleet.drives().len(),
        csv_bytes: csv.len(),
        shard_rows,
        cores,
        rows,
        speedup_w1,
        speedup_w4,
    };
    opts.write_json("BENCH_pr5", &report);
}
