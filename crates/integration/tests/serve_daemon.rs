//! End-to-end test of the continuous-selection daemon over a real socket
//! (DESIGN.md §14): the same SMART-log CSV replayed through two daemon
//! instances — at different ingest worker counts — must produce
//! byte-identical query transcripts, run to run and worker count to
//! worker count, and a session must get the same transcript while a
//! writer holds the daemon's lock.

use std::io::Cursor;

use serve::daemon::{Daemon, ServeConfig};
use serve::listener;
use smart_dataset::csv::export_smart_csv;
use smart_dataset::{
    tickets_from_summaries, DriveModel, DriveRecord, Fleet, FleetConfig, IngestConfig,
    TroubleTicket,
};
use smart_pipeline::PredictorConfig;
use sync::{Arc, Mutex};
use telemetry::serve::http_get;

/// The fixed-seed fleet every daemon in this suite replays.
fn fleet() -> Fleet {
    let config = FleetConfig::builder()
        .days(160)
        .seed(23)
        .drives(DriveModel::Mc1, 24)
        .failure_scale(8.0)
        .build()
        .expect("valid fleet config");
    Fleet::generate(&config)
}

fn serve_config() -> ServeConfig {
    let defaults = ServeConfig::default();
    ServeConfig {
        period_days: 21,
        predictor: PredictorConfig {
            n_trees: 15,
            max_depth: 6,
            seed: 3,
            n_threads: Some(1),
            ..defaults.predictor
        },
        ..defaults
    }
}

/// Ingest `fleet`'s CSV with `workers` parser threads, replay to the last
/// observed day, and return the ready daemon.
fn daemon_over(fleet: &Fleet, workers: usize) -> Daemon {
    let mut csv = Vec::new();
    export_smart_csv(fleet, &mut csv).expect("export CSV");
    let summaries: Vec<_> = fleet.drives().iter().map(DriveRecord::summary).collect();
    let tickets: Vec<TroubleTicket> = tickets_from_summaries(&summaries);
    let ingest = IngestConfig {
        workers,
        ..IngestConfig::default()
    };
    let mut daemon = Daemon::new(serve_config());
    daemon
        .ingest_csv(Cursor::new(csv), &tickets, &ingest)
        .expect("ingest CSV");
    let last = daemon.last_observed_day().expect("nonempty fleet");
    daemon.advance_to(last).expect("replay to last day");
    daemon
}

/// The scripted session: STATUS, FEATURES, and a SCORE for every drive
/// in the fleet.
fn script(fleet: &Fleet) -> Vec<String> {
    let mut commands: Vec<String> = vec!["STATUS".to_string(), "FEATURES".to_string()];
    commands.extend(fleet.drives().iter().map(|d| format!("SCORE {}", d.id)));
    commands.push("QUIT".to_string());
    commands
}

/// Run `commands` as one socket session against `addr`.
fn session(addr: std::net::SocketAddr, commands: &[String]) -> std::io::Result<Vec<String>> {
    let refs: Vec<&str> = commands.iter().map(String::as_str).collect();
    listener::query_session(addr, &refs)
}

/// The full scripted transcript of one socket session against `daemon`.
fn transcript(fleet: &Fleet, daemon: Daemon) -> Vec<String> {
    let shared = Arc::new(Mutex::new(daemon));
    let server =
        listener::start("127.0.0.1:0", Arc::clone(&shared), "serve-e2e").expect("bind listener");
    let responses = session(server.addr(), &script(fleet)).expect("query session");
    server.stop();
    responses
}

#[test]
fn transcripts_identical_across_runs_and_worker_counts() {
    let fleet = fleet();
    let one_a = transcript(&fleet, daemon_over(&fleet, 1));
    let one_b = transcript(&fleet, daemon_over(&fleet, 1));
    assert_eq!(one_a, one_b, "same worker count, two runs");
    let four = transcript(&fleet, daemon_over(&fleet, 4));
    assert_eq!(one_a, four, "1 worker vs 4 workers");
    // The transcript must actually contain scores, not a wall of ERRs:
    // the daemon selected features and answered for live drives.
    assert!(one_a[0].starts_with("ok status\n"), "{}", one_a[0]);
    assert!(one_a[1].starts_with("ok features "), "{}", one_a[1]);
    let scored = one_a.iter().filter(|r| r.starts_with("ok score ")).count();
    assert!(scored > 0, "no drive produced a score: {one_a:?}");
}

#[test]
fn queries_never_wait_for_the_daemon_lock() {
    let fleet = fleet();
    let shared = Arc::new(Mutex::new(daemon_over(&fleet, 1)));
    let server =
        listener::start("127.0.0.1:0", Arc::clone(&shared), "serve-e2e-locked").expect("bind");
    let free = session(server.addr(), &script(&fleet)).expect("session without the lock");
    // A writer holds the lock for the whole second session. The client
    // gives up on a block after 5 s, so a listener that waited for this
    // lock would fail the test instead of hanging it.
    let held = shared.lock().expect("daemon lock");
    let locked = session(server.addr(), &script(&fleet));
    drop(held);
    server.stop();
    assert_eq!(locked.expect("session while the lock is held"), free);
}

#[test]
fn report_route_serves_valid_json_over_http() {
    let fleet = fleet();
    let daemon = daemon_over(&fleet, 2);
    let shared = Arc::new(Mutex::new(daemon));
    let server =
        listener::start("127.0.0.1:0", Arc::clone(&shared), "serve-e2e-http").expect("bind");
    let (status, body) = http_get(server.addr(), "/report").expect("GET /report");
    assert!(status.contains("200 OK"), "{status}");
    let report: telemetry::RunReport = json::from_str(&body).expect("parse /report body");
    report.validate_tree().expect("consistent span tree");
    let (status, body) = http_get(server.addr(), "/metrics").expect("GET /metrics");
    assert!(status.contains("200 OK"), "{status}");
    assert!(
        body.lines()
            .any(|l| l.starts_with("wefr_telemetry_events_dropped ")),
        "{body}"
    );
    server.stop();
}
