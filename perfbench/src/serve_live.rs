//! `serve-live`: the daemon's live phase. A replay thread feeds one day
//! at a time at a fixed speed, and the weekly cycle re-selects and
//! retrains under the daemon lock, while an open-loop client scores
//! drives over one kept-open connection. Writes run beside reads on one
//! `Arc<Mutex<Daemon>>`; the end-to-end timing is how long a re-selecting
//! cycle keeps a query waiting, as the client sees it.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::RangeInclusive;
use std::time::{Duration, Instant};

use rng::rngs::StdRng;
use rng::seq::SliceRandom;
use rng::SeedableRng;
use serve::daemon::{Daemon, ServeConfig};
use serve::listener;
use serve::protocol::{respond, Request};
use smart_dataset::csv::export_smart_csv;
use smart_dataset::{tickets_from_summaries, DriveId, DriveModel, Fleet, FleetConfig};
use smart_pipeline::{
    base_matrix, collect_samples, survival_pairs, PredictorConfig, SamplingConfig,
};
use smart_trees::SplitStrategy;
use sync::atomic::{AtomicBool, Ordering};
use sync::{Arc, Mutex};
use telemetry::RunReport;
use wefr_core::{SelectionInput, Wefr};

use crate::layers::{Layers, OpTrace};
use crate::stats::{median, stalls, QueryRecord, QuerySummary};
use crate::{digest, err, heap, ingest_config, sampling, set_up, wefr_config, Measured, Options};

/// Input sizes and load.
struct Sizes {
    /// MC1 drives in the fleet.
    drives: u32,
    /// Days of telemetry per drive.
    days: u32,
    /// Set-up replays days `0..=warm_day`; the live phase the rest.
    warm_day: u32,
    /// Simulated days replayed per second of the live phase.
    days_per_s: f64,
    /// Trees of the daemon's failure predictor.
    trees: usize,
}

/// Seven days a second puts one weekly cycle in each second: about ten
/// re-selecting cycles in a 10 s run, each (about 0.5 s on 2 cores) over
/// before the next is due. The speed is fixed, so the share of time the
/// lock is held does not depend on the run length.
const FULL: Sizes = Sizes {
    drives: 1_600,
    days: 201,
    warm_day: 130,
    days_per_s: 7.0,
    trees: 50,
};

const SMOKE: Sizes = Sizes {
    drives: 400,
    days: 160,
    warm_day: 100,
    days_per_s: 60.0,
    trees: 10,
};

/// Open-loop `SCORE` requests per second. A probe rate, not a deployment
/// figure: far below what the read path serves (the traced closed-loop
/// round trip is tens of microseconds), so a query waits only while a
/// write holds the daemon lock, and one query every 10 ms resolves each
/// such stall to within 10 ms.
const QUERY_RATE: f64 = 100.0;

/// Failure-rate boost: enough failures that every weekly check finds the
/// wear-out change point and the cycles' training sets vary little from
/// seed to seed.
const FAILURE_SCALE: f64 = 16.0;

/// Days before a failure whose samples are positive. Short, so that the
/// many failures still make small training sets.
const HORIZON_DAYS: u32 = 3;

/// Healthy samples kept per failing one in each cycle's training set.
const DOWNSAMPLE_RATIO: f64 = 1.0;

/// Any move of the wear-out threshold re-selects, so nearly every weekly
/// check of the live phase is a re-selecting cycle.
const TOLERANCE: u32 = 0;

/// A query answered later than this after its due time is a miss.
const LATENCY_LIMIT_S: f64 = 0.1;

/// How long the client waits for one answer before counting a failure.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

/// `protocol::respond` calls timed directly, in traced runs.
const RESPOND_CALLS: usize = 2_000;

/// Closed-loop socket round trips timed after the live phase, in traced
/// runs.
const RTT_QUERIES: usize = 3_000;

fn fleet_config(sizes: &Sizes, opts: &Options) -> Result<FleetConfig, String> {
    FleetConfig::builder()
        .days(sizes.days)
        .seed(opts.seed)
        .drives(DriveModel::Mc1, sizes.drives)
        .failure_scale(FAILURE_SCALE)
        .build()
        .map_err(err)
}

fn serve_config(sizes: &Sizes, opts: &Options) -> ServeConfig {
    ServeConfig {
        model: DriveModel::Mc1,
        period_days: 7,
        tolerance: TOLERANCE,
        sampling: SamplingConfig {
            horizon: HORIZON_DAYS,
            downsample_ratio: Some(DOWNSAMPLE_RATIO),
            ..sampling(opts.seed)
        },
        predictor: PredictorConfig {
            n_trees: sizes.trees,
            max_depth: 13,
            seed: opts.seed,
            n_threads: Some(opts.cores),
            strategy: SplitStrategy::Histogram,
        },
        wefr: wefr_config(opts.seed),
    }
}

/// A daemon that has ingested the fleet's CSV and replayed the warm days,
/// plus the drives observed on every live day (so every SCORE for them
/// must succeed), shuffled. The fleet itself is dropped.
struct Setup {
    daemon: Daemon,
    drives: Vec<DriveId>,
    ingest_s: f64,
    warm_replay_s: f64,
}

impl Setup {
    fn build(sizes: &Sizes, opts: &Options) -> Result<Setup, String> {
        let fleet = Fleet::generate(&fleet_config(sizes, opts)?);
        let mut csv = Vec::new();
        export_smart_csv(&fleet, &mut csv).map_err(err)?;
        let tickets = tickets_from_summaries(&fleet.summaries());
        let mut drives: Vec<DriveId> = fleet
            .drives()
            .iter()
            .filter(|d| d.deploy_day <= sizes.warm_day + 1 && d.last_day() >= sizes.days - 1)
            .map(|d| d.id)
            .collect();
        drives.shuffle(&mut StdRng::seed_from_u64(opts.seed));
        drop(fleet);
        if drives.is_empty() {
            return Err("no drive lives through the whole live phase".to_string());
        }
        let mut daemon = Daemon::new(serve_config(sizes, opts));
        let start = Instant::now();
        daemon
            .ingest_csv(&csv[..], &tickets, &ingest_config(opts.cores))
            .map_err(err)?;
        let ingest_s = start.elapsed().as_secs_f64();
        drop(csv);
        let start = Instant::now();
        daemon.advance_to(sizes.warm_day).map_err(err)?;
        let warm_replay_s = start.elapsed().as_secs_f64();
        daemon
            .features()
            .map_err(|e| format!("no selection after the warm replay: {e}"))?;
        Ok(Setup {
            daemon,
            drives,
            ingest_s,
            warm_replay_s,
        })
    }

    fn fingerprint(&self) -> u64 {
        digest(&(
            self.daemon.status_lines(),
            self.daemon.features().ok(),
            &self.drives,
        ))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DayKind {
    /// Windows fed, no cycle due.
    Feed,
    /// A cycle ran its change-point check and kept the features.
    Check,
    /// A cycle re-selected features and retrained the predictor.
    Reselect,
}

/// One replayed day of the live phase, in seconds since the phase began.
#[derive(Debug, Clone, Copy)]
struct DayRecord {
    day: u32,
    /// How late the replay thread started the day.
    lag_s: f64,
    /// When `advance_to` took the daemon lock.
    start_s: f64,
    /// When it released the lock.
    end_s: f64,
    kind: DayKind,
    ok: bool,
}

impl DayRecord {
    fn busy_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

fn sleep_until(t0: Instant, due_s: f64) {
    let now = t0.elapsed().as_secs_f64();
    if due_s > now {
        std::thread::sleep(Duration::from_secs_f64(due_s - now));
    }
}

/// Replay `days` at `days_per_s`, one `advance_to` per day under the lock.
fn replay(
    daemon: &Mutex<Daemon>,
    days: RangeInclusive<u32>,
    days_per_s: f64,
    t0: Instant,
) -> Vec<DayRecord> {
    let first = *days.start();
    days.map(|day| {
        let due_s = f64::from(day - first) / days_per_s;
        sleep_until(t0, due_s);
        let lag_s = t0.elapsed().as_secs_f64() - due_s;
        let (result, start_s, end_s) = match daemon.lock() {
            Ok(mut guard) => {
                let start_s = t0.elapsed().as_secs_f64();
                let result = guard.advance_to(day).ok();
                (result, start_s, t0.elapsed().as_secs_f64())
            }
            Err(_) => (None, lag_s, lag_s),
        };
        let kind = match &result {
            Some(reports) if reports.iter().any(|r| r.reselected) => DayKind::Reselect,
            Some(reports) if !reports.is_empty() => DayKind::Check,
            _ => DayKind::Feed,
        };
        DayRecord {
            day,
            lag_s,
            start_s,
            end_s,
            kind,
            ok: result.is_some(),
        }
    })
    .collect()
}

/// Whether `lines` is the one line `ok score <id> <p>`, 0 ≤ p ≤ 1.
fn valid_score(lines: &[String], id: DriveId) -> bool {
    let [line] = lines else {
        return false;
    };
    match line.split_whitespace().collect::<Vec<_>>().as_slice() {
        ["ok", "score", drive, p] => {
            *drive == id.to_string() && p.parse::<f64>().is_ok_and(|p| (0.0..=1.0).contains(&p))
        }
        _ => false,
    }
}

/// A line-protocol client on one kept-open connection, as a monitoring
/// tool polling the daemon would hold. Each request goes out in a single
/// write; after a failed request the next one reconnects.
struct Client {
    addr: SocketAddr,
    session: Option<BufReader<TcpStream>>,
}

impl Client {
    fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            session: None,
        }
    }

    /// Send `command` and return its answer block without the blank line
    /// that ends it.
    fn request(&mut self, command: &str) -> std::io::Result<Vec<String>> {
        let result = self.exchange(command);
        if result.is_err() {
            self.session = None;
        }
        result
    }

    fn exchange(&mut self, command: &str) -> std::io::Result<Vec<String>> {
        let session = match &mut self.session {
            Some(session) => session,
            None => {
                let stream = TcpStream::connect(self.addr)?;
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
                stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
                self.session.insert(BufReader::new(stream))
            }
        };
        session
            .get_mut()
            .write_all(format!("{command}\n").as_bytes())?;
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            if session.read_line(&mut line)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            let line = line.trim_end_matches(['\r', '\n']);
            if line.is_empty() {
                return Ok(lines);
            }
            lines.push(line.to_string());
        }
    }

    /// One `SCORE`, checked.
    fn score(&mut self, id: DriveId) -> bool {
        self.request(&format!("SCORE {id}"))
            .is_ok_and(|lines| valid_score(&lines, id))
    }

    /// The `FEATURES` answer: `ok features <n>`, then the n names.
    fn features(&mut self) -> Result<Vec<String>, String> {
        let lines = self.request("FEATURES").map_err(err)?;
        let (header, names) = lines.split_first().ok_or("empty FEATURES answer")?;
        let count: usize = header
            .strip_prefix("ok features ")
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| format!("malformed FEATURES answer {header:?}"))?;
        if names.len() == count {
            Ok(names.to_vec())
        } else {
            Err(format!(
                "FEATURES announced {count} names, sent {}",
                names.len()
            ))
        }
    }
}

/// Open-loop `SCORE` requests at [`QUERY_RATE`], cycling through `drives`,
/// until `count` were due and the replay is `done`. A stalled answer
/// delays the requests behind it; their latency still runs from their due
/// time.
fn query_load(
    client: &mut Client,
    drives: &[DriveId],
    count: usize,
    done: &AtomicBool,
    t0: Instant,
) -> Vec<QueryRecord> {
    let mut records = Vec::with_capacity(count);
    while records.len() < count || !done.load(Ordering::Acquire) {
        let i = records.len();
        let due_s = i as f64 / QUERY_RATE;
        sleep_until(t0, due_s);
        let sent_s = t0.elapsed().as_secs_f64();
        let ok = client.score(drives[i % drives.len()]);
        records.push(QueryRecord {
            due_s,
            sent_s,
            done_s: t0.elapsed().as_secs_f64(),
            ok,
        });
    }
    records
}

/// The update cycle of `day` re-run in batch on the benchmark's own copy
/// of the fleet: sample, matrix, select. Returns the selected feature
/// names, which `FEATURES` must match.
fn batch_selection(
    fleet: &Fleet,
    config: &ServeConfig,
    day: u32,
    op: &mut OpTrace,
) -> Result<Vec<String>, String> {
    let label_to = day.saturating_sub(config.sampling.horizon);
    let samples = op
        .time("pipeline.collect_samples_s", || {
            collect_samples(fleet, config.model, 0, label_to, &config.sampling)
        })
        .map_err(err)?;
    let (matrix, labels, mwi) = op
        .time("pipeline.base_matrix_s", || {
            base_matrix(fleet, config.model, &samples)
        })
        .map_err(err)?;
    let survival = survival_pairs(fleet, config.model, day);
    let selection = Wefr::new(config.wefr)
        .select(&SelectionInput {
            data: &matrix,
            labels: &labels,
            mwi_per_sample: Some(&mwi),
            survival: Some(&survival),
        })
        .map_err(err)?;
    Ok(selection.global.selected_names)
}

/// The re-selecting cycles' spans: per cycle, its selection and training
/// time and the rest, and the share of the cycle those two cover.
fn cycle_layers(report: &RunReport, layers: &mut Layers) {
    let reselecting = report.spans_named("serve.cycle").into_iter().filter(|c| {
        c.fields
            .iter()
            .any(|(k, v)| k == "reselected" && *v == telemetry::FieldValue::U64(1))
    });
    for cycle in reselecting {
        let children = report.children_of(cycle.id);
        let child_s = |name: &str| -> f64 {
            children
                .iter()
                .filter(|c| c.name == name)
                .map(|c| c.duration_us as f64 / 1e6)
                .sum()
        };
        let cycle_s = cycle.duration_us as f64 / 1e6;
        let (select, train) = (child_s("select"), child_s("train"));
        layers.push("core.select_s", select);
        layers.push("pipeline.predictor_train_s", train);
        layers.push("serve.cycle_other_s", cycle_s - select - train);
        layers.push("trace_coverage", (select + train) / cycle_s);
    }
}

fn busy_median(days: &[DayRecord], kind: DayKind) -> f64 {
    let busy: Vec<f64> = days
        .iter()
        .filter(|d| d.kind == kind)
        .map(DayRecord::busy_s)
        .collect();
    median(&busy)
}

/// Run the `serve-live` workload.
///
/// # Errors
///
/// When set-up fails or the listener cannot start.
pub fn run(opts: &Options) -> Result<Measured, String> {
    let sizes = if opts.smoke { SMOKE } else { FULL };
    let config = serve_config(&sizes, opts);
    let mut layers = Layers::default();
    let mut measured = Measured::default();
    let setup = set_up(
        || {
            let setup = Setup::build(&sizes, opts)?;
            layers.push("serve.ingest_s", setup.ingest_s);
            layers.push("serve.warm_replay_s", setup.warm_replay_s);
            Ok(setup)
        },
        Setup::fingerprint,
    )?
    .into_product(&mut measured);
    let Setup { daemon, drives, .. } = setup;

    let first_live = sizes.warm_day + 1;
    let live_days =
        ((sizes.days_per_s * opts.seconds).ceil() as u32).clamp(1, sizes.days - first_live);
    let live = first_live..=first_live + live_days - 1;
    let queries = ((QUERY_RATE * opts.seconds).round() as usize).max(1);

    let shared = Arc::new(Mutex::new(daemon));
    let server = listener::start("127.0.0.1:0", Arc::clone(&shared), "perfbench").map_err(err)?;
    let addr = server.addr();
    telemetry::set_collect(opts.trace);
    telemetry::reset();
    heap::reset_peak();
    let done = AtomicBool::new(false);
    let t0 = Instant::now();
    let (days, records) = std::thread::scope(|scope| {
        let replayer = scope.spawn(|| {
            let days = replay(&shared, live.clone(), sizes.days_per_s, t0);
            done.store(true, Ordering::Release);
            days
        });
        let records = query_load(&mut Client::new(addr), &drives, queries, &done, t0);
        (replayer.join(), records)
    });
    let days = days.map_err(|_| "the replay thread panicked")?;
    measured.values.insert("peak_heap_mib", heap::peak_mib());
    let report = telemetry::snapshot("serve-live");
    telemetry::set_collect(false);

    for day in &days {
        measured.check(day.ok, "advance_to failed during the live phase");
    }
    for record in &records {
        measured.check(
            record.ok,
            "a SCORE answer was not `ok score <drive> p` with 0 <= p <= 1",
        );
    }
    let reselects: Vec<&DayRecord> = days
        .iter()
        .filter(|d| d.kind == DayKind::Reselect)
        .collect();
    measured.check(!reselects.is_empty(), "no live cycle re-selected features");
    let windows: Vec<(f64, f64)> = reselects.iter().map(|d| (d.start_s, d.end_s)).collect();
    let stall = stalls(&records, &windows, 1.0 / QUERY_RATE);
    let stall_s = median(&stall.iter().flatten().copied().collect::<Vec<_>>());
    measured.values.insert("op_s", stall_s);

    // FEATURES must report the last cycle's selection: the one a batch
    // re-run on a fresh copy of the fleet computes.
    let mut op = OpTrace::default();
    let batch = match reselects.last() {
        Some(last) => {
            let fleet = Fleet::generate(&fleet_config(&sizes, opts)?);
            batch_selection(&fleet, &config, last.day, &mut op).ok()
        }
        None => None,
    };
    let mut client = Client::new(addr);
    let served = client.features().ok();
    measured.check(
        served.is_some() && served == batch,
        "FEATURES differs from a batch re-run of the last re-selecting cycle",
    );

    let checks = days.iter().filter(|d| d.kind != DayKind::Feed).count();
    let summary = QuerySummary::new(&records, LATENCY_LIMIT_S);
    measured.notes.push(format!(
        "{} drives x {} days, live days {}..={} at {} days/s, {} SCORE/s over {} drives: \
         {} checks, {} re-selections",
        sizes.drives,
        sizes.days,
        live.start(),
        live.end(),
        sizes.days_per_s,
        QUERY_RATE,
        drives.len(),
        checks,
        reselects.len()
    ));
    measured.notes.push(format!(
        "re-selecting cycles (day: lock held s / longest query wait s): {}",
        reselects
            .iter()
            .zip(&stall)
            .map(|(d, s)| match s {
                Some(s) => format!("{}: {:.3}/{s:.3}", d.day, d.busy_s()),
                None => format!("{}: {:.3}/-", d.day, d.busy_s()),
            })
            .collect::<Vec<_>>()
            .join(", ")
    ));
    measured.notes.push(format!(
        "{} queries: p{} {:.1} ms from due time, {:.1}% missed {} ms",
        summary.queries,
        summary.tail_quantile * 100.0,
        summary.tail_latency_s * 1e3,
        summary.miss_ratio * 100.0,
        LATENCY_LIMIT_S * 1e3
    ));

    if opts.trace {
        measured.check(
            report.validate_tree().is_ok(),
            "the live phase's span tree is malformed",
        );
        cycle_layers(&report, &mut layers);
        layers.record(op);
        let lags: Vec<f64> = days.iter().map(|d| d.lag_s).collect();
        for (name, value) in [
            ("serve.cycle_s", busy_median(&days, DayKind::Reselect)),
            ("serve.feed_day_ms", busy_median(&days, DayKind::Feed) * 1e3),
            (
                "serve.check_cycle_ms",
                busy_median(&days, DayKind::Check) * 1e3,
            ),
            ("serve.checks", checks as f64),
            ("serve.reselections", reselects.len() as f64),
            ("serve.lag_ms", median(&lags) * 1e3),
            ("serve.lag_max_s", lags.iter().copied().fold(0.0, f64::max)),
            ("serve.query_tail_ms", summary.tail_latency_s * 1e3),
            ("serve.query_miss_ratio", summary.miss_ratio),
            ("serve.client_late_ms", summary.late_median_s * 1e3),
            ("serve.client_late_max_ms", summary.late_max_s * 1e3),
            ("serve.queries", summary.queries as f64),
            ("serve.query_errors", summary.errors as f64),
            ("traced_op_s", stall_s),
        ] {
            layers.push(name, value);
        }
        {
            let guard = shared.lock().map_err(|_| "daemon lock poisoned")?;
            for i in 0..RESPOND_CALLS {
                let id = drives[i % drives.len()];
                let start = Instant::now();
                let lines = respond(&guard, Request::Score(id));
                layers.push("serve.respond_us", start.elapsed().as_secs_f64() * 1e6);
                measured.check(
                    valid_score(&lines, id),
                    "protocol::respond answered SCORE wrongly",
                );
            }
        }
        for i in 0..RTT_QUERIES {
            let start = Instant::now();
            let ok = client.score(drives[i % drives.len()]);
            layers.push("serve.query_rtt_us", start.elapsed().as_secs_f64() * 1e6);
            measured.check(ok, "a closed-loop SCORE failed");
        }
        measured.add_layers(layers.medians());
    }
    // The listener serves one connection at a time: close ours first.
    drop(client);
    server.stop();
    Ok(measured)
}
