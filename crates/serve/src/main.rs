#![forbid(unsafe_code)]
//! The `smart-serve` daemon binary.
//!
//! ```text
//! smart-serve --smoke
//! smart-serve <smart.csv> [tickets.csv]
//! ```
//!
//! `--smoke` runs the deterministic CI transcript: generate a fixed-seed
//! fleet in memory, replay it through the daemon, open the listener on an
//! ephemeral port, drive a scripted query session, and print every
//! request and response to stdout. CI diffs the output against
//! `results/serve_smoke.txt`, so the transcript must not contain clocks,
//! ports, or machine-dependent values.
//!
//! The file mode ingests a SMART-log CSV (plus an optional trouble-ticket
//! CSV as written by `export_tickets_csv`), replays it to the end, and
//! serves queries on `WEFR_SERVE_ADDR` (default `127.0.0.1:9185`) until
//! stdin reaches EOF. `WEFR_SERVE_PERIOD_DAYS` overrides the update
//! cadence; `WEFR_SERVE_MODEL` picks the model (default MC1).

use std::io::{BufRead, BufReader, Cursor};
use std::process::ExitCode;

use serve::daemon::{CycleReport, Daemon, ServeConfig, ENV_SERVE_ADDR};
use serve::listener;
use smart_dataset::csv::{export_smart_csv, import_tickets_csv};
use smart_dataset::{
    tickets_from_summaries, DriveModel, DriveRecord, Fleet, FleetConfig, IngestConfig,
    TroubleTicket,
};
use sync::{Arc, Mutex};
use telemetry::serve::http_get;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("--smoke") => smoke(),
        Some(csv_path) => file_mode(csv_path, args.get(1).map(String::as_str)),
        None => {
            eprintln!("usage: smart-serve --smoke | smart-serve <smart.csv> [tickets.csv]");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("ERROR: {message}");
            ExitCode::FAILURE
        }
    }
}

/// The fixed-seed fleet the smoke transcript replays.
fn smoke_fleet() -> Result<Fleet, String> {
    let config = FleetConfig::builder()
        .days(160)
        .seed(11)
        .drives(DriveModel::Mc1, 32)
        .failure_scale(8.0)
        .build()
        .map_err(|e| e.to_string())?;
    Ok(Fleet::generate(&config))
}

/// The smoke daemon configuration: short cadence, small forest, one
/// training thread — determinism over speed, speed over realism.
fn smoke_config() -> ServeConfig {
    let mut config = ServeConfig::from_env();
    config.period_days = 14;
    config.predictor.n_trees = 20;
    config.predictor.max_depth = 6;
    config.predictor.seed = 1;
    config.predictor.n_threads = Some(1);
    config
}

fn print_cycles(reports: &[CycleReport]) {
    for r in reports {
        match (&r.skipped, r.decision) {
            (Some(reason), _) => println!("cycle day={} skipped ({reason})", r.day),
            (None, decision) => println!(
                "cycle day={} decision={:?} threshold={} reselected={}",
                r.day,
                decision,
                r.threshold
                    .map_or_else(|| "none".to_string(), |t| t.to_string()),
                r.reselected
            ),
        }
    }
}

fn smoke() -> Result<(), String> {
    let fleet = smoke_fleet()?;
    let mut csv = Vec::new();
    export_smart_csv(&fleet, &mut csv).map_err(|e| e.to_string())?;
    let summaries: Vec<_> = fleet.drives().iter().map(DriveRecord::summary).collect();
    let tickets = tickets_from_summaries(&summaries);
    let last = fleet
        .drives()
        .iter()
        .map(DriveRecord::last_day)
        .max()
        .ok_or("empty smoke fleet")?;

    let mut daemon = Daemon::new(smoke_config());
    let stats = daemon
        .ingest_csv(Cursor::new(csv), &tickets, &IngestConfig::from_env())
        .map_err(|e| e.to_string())?;
    println!("ingested drives={} rows={}", stats.drives, stats.rows);
    let reports = daemon.advance_to(last).map_err(|e| e.to_string())?;
    print_cycles(&reports);

    let daemon = Arc::new(Mutex::new(daemon));
    let server = listener::start("127.0.0.1:0", Arc::clone(&daemon), "serve-smoke")
        .map_err(|e| format!("binding smoke listener: {e}"))?;
    let script = [
        "STATUS",
        "FEATURES",
        "SCORE drive-000000",
        "SCORE drive-999999",
        "BOGUS",
        "QUIT",
    ];
    let responses = listener::query_session(server.addr(), &script).map_err(|e| e.to_string())?;
    for (command, response) in script.iter().zip(&responses) {
        println!("> {command}");
        println!("{response}");
    }
    let (status, body) = http_get(server.addr(), "/report").map_err(|e| e.to_string())?;
    if !status.contains("200") {
        return Err(format!("GET /report answered {status}"));
    }
    let report: telemetry::RunReport =
        json::from_str(&body).map_err(|e| format!("parsing /report body: {e}"))?;
    report
        .validate_tree()
        .map_err(|e| format!("inconsistent /report span tree: {e}"))?;
    // Durations and counters are machine-dependent; only the verdict is
    // part of the transcript.
    println!("report ok");
    server.stop();
    Ok(())
}

fn file_mode(csv_path: &str, tickets_path: Option<&str>) -> Result<(), String> {
    let mut config = ServeConfig::from_env();
    if let Ok(name) = std::env::var("WEFR_SERVE_MODEL") {
        config.model = DriveModel::from_name(&name)
            .ok_or_else(|| format!("unknown model {name:?} in WEFR_SERVE_MODEL"))?;
    }
    let tickets: Vec<TroubleTicket> = match tickets_path {
        Some(path) => {
            let file = std::fs::File::open(path).map_err(|e| format!("opening {path}: {e}"))?;
            import_tickets_csv(BufReader::new(file)).map_err(|e| e.to_string())?
        }
        None => Vec::new(),
    };
    let file = std::fs::File::open(csv_path).map_err(|e| format!("opening {csv_path}: {e}"))?;
    let mut daemon = Daemon::new(config);
    let stats = daemon
        .ingest_csv(BufReader::new(file), &tickets, &IngestConfig::from_env())
        .map_err(|e| e.to_string())?;
    eprintln!(
        "ingested drives={} rows={} (model {})",
        stats.drives,
        stats.rows,
        daemon.config().model
    );
    let last = daemon.last_observed_day().unwrap_or(0);
    let reports = daemon.advance_to(last).map_err(|e| e.to_string())?;
    print_cycles(&reports);

    let addr = std::env::var(ENV_SERVE_ADDR).unwrap_or_else(|_| "127.0.0.1:9185".to_string());
    let daemon = Arc::new(Mutex::new(daemon));
    let server = listener::start(&addr, daemon, "serve")
        .map_err(|e| format!("binding listener on {addr}: {e}"))?;
    eprintln!("serving on {} — EOF on stdin stops", server.addr());
    // Block until the operator closes stdin; the listener thread answers
    // queries in the background.
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    server.stop();
    Ok(())
}
