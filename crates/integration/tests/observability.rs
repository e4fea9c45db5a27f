//! Live observability plane, end to end: the /metrics endpoint must show
//! ingest progress *while a run is in flight*, /report must return a
//! parseable smart-json snapshot, cross-thread span parenting must hold at
//! any ingest worker count, and the committed count-weighted flamegraph
//! must regenerate byte-identically from the same seed (DESIGN.md §6).
//!
//! The telemetry collector is process-global, so every test touching it
//! serializes on one lock; the flamegraph test runs quickstart as a
//! subprocess and needs no lock.

mod common;

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use common::run_quickstart;
use smart_dataset::csv::export_smart_csv;
use smart_dataset::{
    import_smart_csv_sharded, stream_drive_batches, tickets_from_summaries, DatasetError,
    DriveBatch, DriveModel, Fleet, FleetConfig, IngestConfig,
};
use telemetry::RunReport;

/// Serializes every test that reads or resets the global collector.
static COLLECTOR: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    COLLECTOR.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A small fleet whose CSV export splits into many shards at tiny
/// `shard_rows` (shards cut at drive-run boundaries, so the shard count
/// tracks the drive count), keeping ingest in flight long enough to
/// observe.
fn small_fleet() -> Fleet {
    let config = FleetConfig::builder()
        .days(120)
        .seed(11)
        .drives(DriveModel::Mc1, 40)
        .build()
        .expect("valid fleet config");
    Fleet::generate(&config)
}

/// Minimal HTTP/1.0-style GET against the metrics endpoint; returns
/// (status line, headers, body).
fn http_get(addr: SocketAddr, path: &str) -> (String, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to metrics endpoint");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: wefr\r\nConnection: close\r\n\r\n"
    )
    .expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    let (status, headers) = head.split_once("\r\n").unwrap_or((head, ""));
    (status.to_string(), headers.to_string(), body.to_string())
}

/// The value of a counter line in Prometheus text exposition.
fn metric_value(metrics: &str, name: &str) -> Option<f64> {
    metrics.lines().find_map(|line| {
        line.strip_prefix(name)
            .and_then(|rest| rest.strip_prefix(' '))
            .and_then(|v| v.trim().parse().ok())
    })
}

#[test]
fn metrics_endpoint_serves_live_ingest_progress_mid_run() {
    let _guard = lock();
    telemetry::set_collect(true);
    telemetry::reset();
    let server = telemetry::serve::start("127.0.0.1:0", "obs-live").expect("bind ephemeral port");
    let addr = server.addr();

    let fleet = small_fleet();
    let tickets = tickets_from_summaries(&fleet.summaries());
    let mut csv = Vec::new();
    export_smart_csv(&fleet, &mut csv).expect("in-memory export");
    // One worker, one queue slot, tiny shards: the reader can only run a
    // few shards ahead of the consumer, so a scrape at consumed shard 1 is
    // guaranteed to see strictly fewer counted rows than one at shard 12.
    let config = IngestConfig {
        shard_rows: 32,
        workers: 1,
        max_queued_shards: 1,
        ..IngestConfig::default()
    };
    let mut scrapes: Vec<(String, String, String)> = Vec::new();
    let stats = stream_drive_batches(csv.as_slice(), &tickets, &config, |batch: DriveBatch| {
        if batch.shard_index == 1 || batch.shard_index == 12 {
            scrapes.push(http_get(addr, "/metrics"));
        }
        Ok::<(), DatasetError>(())
    })
    .expect("sharded ingest succeeds");
    assert!(
        stats.shards >= 14,
        "fleet too small to scrape mid-run ({} shards)",
        stats.shards
    );
    server.stop();

    assert_eq!(scrapes.len(), 2, "both mid-run scrapes must have fired");
    for (status, headers, body) in &scrapes {
        assert!(status.contains("200"), "bad status: {status}");
        assert!(
            headers.to_ascii_lowercase().contains("text/plain"),
            "bad content type: {headers}"
        );
        assert!(
            body.contains("wefr_ingest_shards"),
            "shards counter missing:\n{body}"
        );
    }
    let early = metric_value(&scrapes[0].2, "wefr_ingest_rows").expect("rows counter in scrape 1");
    let late = metric_value(&scrapes[1].2, "wefr_ingest_rows").expect("rows counter in scrape 2");
    assert!(early > 0.0, "first scrape saw no ingested rows");
    assert!(
        late > early,
        "ingest.rows must advance between mid-run scrapes (saw {early} then {late})"
    );
    assert!(
        late <= stats.rows as f64,
        "scraped rows ({late}) exceed the run total ({})",
        stats.rows
    );
}

#[test]
fn report_endpoint_returns_a_parseable_snapshot() {
    let _guard = lock();
    telemetry::set_collect(true);
    telemetry::reset();
    {
        let outer = telemetry::span!("obs_outer");
        let _inner = telemetry::span_child_of(outer.id(), "obs_inner");
    }
    telemetry::counter_add("obs.demo", 3);
    let server = telemetry::serve::start("127.0.0.1:0", "obs-report").expect("bind ephemeral port");
    let (status, _headers, body) = http_get(server.addr(), "/report");
    server.stop();

    assert!(status.contains("200"), "bad status: {status}");
    let report: RunReport = json::from_str(&body).expect("/report parses through smart-json");
    assert_eq!(report.run, "obs-report");
    assert_eq!(report.schema, telemetry::SCHEMA);
    report.validate_tree().expect("consistent span tree");
    let outer = report.spans_named("obs_outer");
    assert_eq!(outer.len(), 1);
    assert_eq!(
        report.children_of(outer[0].id).len(),
        1,
        "child span missing from the live snapshot"
    );
}

#[test]
fn sharded_ingest_spans_parent_across_threads_at_any_worker_count() {
    let _guard = lock();
    telemetry::set_collect(true);
    let fleet = small_fleet();
    let tickets = tickets_from_summaries(&fleet.summaries());
    let mut csv = Vec::new();
    export_smart_csv(&fleet, &mut csv).expect("in-memory export");

    for workers in [1usize, 4, 8] {
        telemetry::reset();
        let config = IngestConfig {
            shard_rows: 64,
            workers,
            max_queued_shards: 4,
            ..IngestConfig::default()
        };
        import_smart_csv_sharded(csv.as_slice(), &tickets, fleet.config().clone(), &config)
            .expect("sharded import succeeds");
        let report = telemetry::snapshot("obs-parenting");
        report
            .validate_tree()
            .unwrap_or_else(|e| panic!("span tree invalid at {workers} workers: {e}"));
        let roots = report.spans_named("ingest");
        assert_eq!(roots.len(), 1, "one ingest root span at {workers} workers");
        let root_id = roots[0].id;
        let reads = report.spans_named("ingest_read");
        assert_eq!(reads.len(), 1, "one reader span at {workers} workers");
        assert_eq!(reads[0].parent, Some(root_id));
        let parses = report.spans_named("ingest_parse");
        assert!(
            parses.len() >= 2,
            "expected several parse spans at {workers} workers, got {}",
            parses.len()
        );
        // Worker threads open their spans on their own stacks; each must
        // still attach to the ingest root from the spawning thread.
        for parse in &parses {
            assert_eq!(
                parse.parent,
                Some(root_id),
                "parse span {} detached from the ingest root at {workers} workers",
                parse.id
            );
        }
    }
}

#[test]
fn committed_flamegraph_regenerates_byte_identically() {
    let dir = std::env::temp_dir().join(format!("wefr_obs_flame_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    run_quickstart(&[("WEFR_TELEMETRY_OUT", dir.to_str().expect("UTF-8 temp dir"))]);
    let generated = std::fs::read(dir.join("flame_quickstart.svg"))
        .expect("quickstart wrote a flamegraph next to its run report");
    let committed_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/flame_quickstart.svg");
    let committed = std::fs::read(&committed_path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", committed_path.display()));
    assert!(
        generated == committed,
        "results/flame_quickstart.svg is stale: the count-weighted flamegraph from seed 42 \
         no longer matches ({} vs {} bytes) — regenerate it with \
         WEFR_TELEMETRY_OUT=results cargo run --release --example quickstart",
        generated.len(),
        committed.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
