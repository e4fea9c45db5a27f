//! The daemon's state gauges (DESIGN.md §14): each publish point sets
//! `serve.day`, `serve.selection_day`, `serve.selected_features` and
//! `serve.threshold_mwi`, and `GET /metrics` serves them as `wefr_serve_*`
//! beside what `STATUS` reports. This is a test binary of its own because
//! gauges are process-wide: no other daemon may publish while this one's
//! are read back.

use std::io::Cursor;

use serve::daemon::{Daemon, ServeConfig};
use serve::listener;
use smart_dataset::csv::export_smart_csv;
use smart_dataset::{tickets_from_summaries, DriveModel, Fleet, FleetConfig, IngestConfig};
use smart_pipeline::{PredictorConfig, SamplingConfig};
use sync::{Arc, Mutex};
use telemetry::serve::http_get;

/// A fleet whose wear-out change point the daemon finds, so the threshold
/// gauge carries a number.
fn fleet() -> Fleet {
    let config = FleetConfig::builder()
        .days(160)
        .seed(5)
        .drives(DriveModel::Mc1, 300)
        .failure_scale(16.0)
        .build()
        .expect("valid fleet config");
    Fleet::generate(&config)
}

fn serve_config() -> ServeConfig {
    let defaults = ServeConfig::default();
    ServeConfig {
        period_days: 14,
        tolerance: 0,
        sampling: SamplingConfig {
            horizon: 3,
            downsample_ratio: Some(1.0),
            ..defaults.sampling
        },
        predictor: PredictorConfig {
            n_trees: 10,
            max_depth: 6,
            seed: 2,
            n_threads: Some(1),
            ..defaults.predictor
        },
        ..defaults
    }
}

/// The value of the exposition line `name <value>`.
fn gauge(metrics: &str, name: &str) -> f64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no gauge {name} in\n{metrics}"))
}

/// `STATUS`'s `key=value` field of the selection line, as a gauge reads it.
fn status_field(status: &[String], key: &str) -> f64 {
    let line = status
        .iter()
        .find(|l| l.starts_with("selection day="))
        .expect("a selection line");
    let value = line
        .split_whitespace()
        .find_map(|w| w.strip_prefix(key)?.strip_prefix('='))
        .expect("the field");
    if value == "none" {
        f64::NAN
    } else {
        value.parse().expect("a number")
    }
}

fn same(a: f64, b: f64) -> bool {
    a == b || (a.is_nan() && b.is_nan())
}

#[test]
fn metrics_serve_the_published_state() {
    telemetry::set_collect(true);
    let fleet = fleet();
    let shared = Arc::new(Mutex::new(Daemon::new(serve_config())));
    let server = listener::start("127.0.0.1:0", Arc::clone(&shared), "serve-gauges").expect("bind");
    let scrape = || {
        let (status, body) = http_get(server.addr(), "/metrics").expect("GET /metrics");
        assert!(status.contains("200 OK"), "{status}");
        body
    };

    let mut csv = Vec::new();
    export_smart_csv(&fleet, &mut csv).expect("export CSV");
    let tickets = tickets_from_summaries(&fleet.summaries());
    let mut daemon = shared.lock().expect("daemon lock");
    daemon
        .ingest_csv(Cursor::new(csv), &tickets, &IngestConfig::default())
        .expect("ingest CSV");
    let metrics = scrape();
    assert!(gauge(&metrics, "wefr_serve_day").is_nan(), "{metrics}");
    assert!(gauge(&metrics, "wefr_serve_selection_day").is_nan());
    assert_eq!(gauge(&metrics, "wefr_serve_selected_features"), 0.0);
    assert!(gauge(&metrics, "wefr_serve_threshold_mwi").is_nan());

    let last = daemon.last_observed_day().expect("nonempty fleet");
    daemon.advance_to(last).expect("replay to the last day");
    let status = daemon.status_lines();
    drop(daemon);
    let metrics = scrape();
    server.stop();
    assert_eq!(gauge(&metrics, "wefr_serve_day"), f64::from(last));
    for (name, key) in [
        ("wefr_serve_selection_day", "day"),
        ("wefr_serve_selected_features", "features"),
        ("wefr_serve_threshold_mwi", "threshold"),
    ] {
        let (served, reported) = (gauge(&metrics, name), status_field(&status, key));
        assert!(
            same(served, reported),
            "{name} {served} vs STATUS {status:?}"
        );
    }
    assert!(
        !gauge(&metrics, "wefr_serve_threshold_mwi").is_nan(),
        "this fleet has a wear-out threshold: {status:?}"
    );
}
