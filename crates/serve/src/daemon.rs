//! The daemon's writer side: replay cursor, update cycle, ingest, and
//! the publish points that hand readers a new view of its state.
//!
//! The daemon is deliberately socket-free — [`crate::listener`] owns the
//! TCP side. Readers never call in here: they load the view the daemon
//! last published from its `Published` cell, so only writers (ingest and
//! replay) take whatever lock wraps the daemon.
//! Everything below is pure state machine, which is what makes the
//! golden-transcript CI smoke and the worker-count determinism test
//! possible.

use std::collections::BTreeMap;
use std::io::BufRead;

use smart_dataset::{
    stream_drive_batches, DriveId, DriveModel, DriveRecord, Fleet, FleetConfig, IngestConfig,
    IngestStats, TroubleTicket,
};
use smart_pipeline::{
    base_features_at, base_matrix, collect_samples, survival_pairs, FailurePredictor,
    PredictorConfig, SamplingConfig,
};
use sync::{Arc, Published};
use wefr_core::wearout::detect_wearout_threshold;
use wefr_core::{SelectionInput, UpdateDecision, UpdateMonitor, Wefr, WefrConfig, WefrError};

use crate::error::ServeError;
use crate::view::{Selection, View};

/// Environment knob overriding the update-cycle cadence in days.
pub const ENV_SERVE_PERIOD_DAYS: &str = "WEFR_SERVE_PERIOD_DAYS";

/// Environment knob naming the listen address (used by the binary; the
/// library never reads it).
pub const ENV_SERVE_ADDR: &str = "WEFR_SERVE_ADDR";

/// Daemon configuration: which model to serve and how the update cycle,
/// sampling, selection, and predictor behave.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The drive model this daemon tracks (one daemon per model, as the
    /// paper trains per-model predictors).
    pub model: DriveModel,
    /// Days between scheduled change-point checks (paper: 7).
    pub period_days: u32,
    /// Threshold moves of at most this many MWI points are noise.
    pub tolerance: u32,
    /// Sampling policy for cycle training sets.
    pub sampling: SamplingConfig,
    /// Failure-predictor training configuration.
    pub predictor: PredictorConfig,
    /// WEFR selection configuration.
    pub wefr: WefrConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            model: DriveModel::Mc1,
            period_days: 7,
            tolerance: 1,
            sampling: SamplingConfig::default(),
            predictor: PredictorConfig::default(),
            wefr: WefrConfig::default(),
        }
    }
}

impl ServeConfig {
    /// Default configuration with [`ENV_SERVE_PERIOD_DAYS`] applied from
    /// `get` (mirrors [`IngestConfig::from_lookup`]).
    pub fn from_lookup(get: impl Fn(&str) -> Option<String>) -> ServeConfig {
        let mut config = ServeConfig::default();
        if let Some(days) = get(ENV_SERVE_PERIOD_DAYS)
            .and_then(|v| v.trim().parse::<u32>().ok())
            .filter(|&v| v > 0)
        {
            config.period_days = days;
        }
        config
    }

    /// [`ServeConfig::from_lookup`] over the process environment.
    pub fn from_env() -> ServeConfig {
        // lint:allow(side-effects) the documented contract of this
        // constructor is reading the WEFR_SERVE_PERIOD_DAYS knob;
        // everything else must take the config as a parameter
        ServeConfig::from_lookup(|name| std::env::var(name).ok())
    }
}

/// What one scheduled update cycle did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleReport {
    /// The day the cycle ran on.
    pub day: u32,
    /// The change-point check's outcome, when the cycle had enough data
    /// to run one (`None` = skipped, see `skipped`).
    pub decision: Option<UpdateDecision>,
    /// The wear-out threshold detected this cycle, if any.
    pub threshold: Option<u32>,
    /// Whether feature selection and predictor training re-ran.
    pub reselected: bool,
    /// Why the cycle was skipped without recording a check (insufficient
    /// labeled data). A skipped cycle leaves the monitor due, so the
    /// daemon retries on the next day.
    pub skipped: Option<String>,
}

/// The continuous-selection daemon: tracked drives, replay cursor, update
/// monitor, and the active selection.
#[derive(Debug)]
pub struct Daemon {
    config: ServeConfig,
    monitor: UpdateMonitor,
    /// Last day a cycle was *attempted* (recorded or skipped). Skipped
    /// checks never reach the monitor, so without this a data-starved
    /// daemon would retry daily instead of on the configured cadence.
    last_attempt_day: Option<u32>,
    /// Cursor, drives and selection as the writer moves them; equal to
    /// what `published` holds whenever no `&mut self` call is running.
    view: View,
    /// What readers load.
    published: Arc<Published<View>>,
}

impl Daemon {
    /// A daemon with no drives and no selection.
    pub fn new(config: ServeConfig) -> Self {
        let monitor = UpdateMonitor::new(config.period_days, config.tolerance);
        let view = View {
            model: config.model,
            period_days: config.period_days,
            day: None,
            fleet: None,
            selection: None,
        };
        let published = Arc::new(Published::new(Arc::new(view.clone())));
        Daemon {
            config,
            monitor,
            last_attempt_day: None,
            view,
            published,
        }
    }

    /// The readers' handle: the cell each publish point stores a copy of
    /// the daemon's view into. Loading from it never waits for a cycle or
    /// an ingest.
    pub(crate) fn reader(&self) -> Arc<Published<View>> {
        Arc::clone(&self.published)
    }

    /// The daemon's state, as last published.
    pub(crate) fn view(&self) -> &View {
        &self.view
    }

    /// The active configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The replay cursor: the last day advanced to.
    pub fn day(&self) -> Option<u32> {
        self.view.day
    }

    /// Number of tracked drives.
    pub fn n_drives(&self) -> usize {
        self.view.drives().len()
    }

    /// The last observed day across all tracked drives — how far
    /// [`Daemon::advance_to`] can usefully replay.
    pub fn last_observed_day(&self) -> Option<u32> {
        self.view.drives().iter().map(DriveRecord::last_day).max()
    }

    /// Ingest a SMART-log CSV through the sharded reader, registering
    /// every drive of the daemon's model, and publish the result. A
    /// re-ingested drive replaces its record; scores read the record
    /// directly, so late registration and replay order commute.
    ///
    /// # Errors
    ///
    /// Propagates CSV parse errors; the daemon's records are then
    /// unchanged.
    pub fn ingest_csv<R: BufRead + Send>(
        &mut self,
        input: R,
        tickets: &[TroubleTicket],
        config: &IngestConfig,
    ) -> Result<IngestStats, ServeError> {
        let span = telemetry::span!("serve.ingest");
        let model = self.config.model;
        let mut records = BTreeMap::new();
        let stats = stream_drive_batches(input, tickets, config, |batch| {
            let of_model = batch.drives.into_iter().filter(|r| r.model == model);
            records.extend(of_model.map(|r| (r.id, r)));
            Ok::<_, ServeError>(())
        })?;
        for kept in self.view.drives() {
            records.entry(kept.id).or_insert_with(|| kept.clone());
        }
        self.view.fleet = Some(Arc::new(fleet_of(model, records.into_values().collect())?));
        self.publish();
        span.record("drives", stats.drives);
        telemetry::counter_add("serve.ingest.drives", stats.drives);
        Ok(stats)
    }

    /// Advance the replay cursor to `target` (inclusive) day by day,
    /// running the update cycle whenever the monitor says one is due.
    /// Returns one report per cycle attempted.
    ///
    /// Each day ends in a publish point: readers see day `d` once its
    /// cycle, if one ran, is over, and until then see day `d - 1`.
    ///
    /// # Errors
    ///
    /// Propagates selection and training failures; the cursor stops on
    /// the failing day, and that is what readers see.
    pub fn advance_to(&mut self, target: u32) -> Result<Vec<CycleReport>, ServeError> {
        let start = match self.view.day {
            Some(d) if d >= target => return Ok(Vec::new()),
            Some(d) => d + 1,
            None => 0,
        };
        let mut reports = Vec::new();
        for d in start..=target {
            self.view.day = Some(d);
            let attempt_due = self
                .last_attempt_day
                .is_none_or(|l| d.saturating_sub(l) >= self.config.period_days);
            let cycle = (self.monitor.due(d) && attempt_due).then(|| {
                self.last_attempt_day = Some(d);
                self.run_cycle(d)
            });
            self.publish();
            if let Some(report) = cycle {
                reports.push(report?);
            }
        }
        Ok(reports)
    }

    /// One scheduled update cycle on day `d`: survival analysis,
    /// change-point check, and (when the decision calls for it) feature
    /// re-selection plus predictor retraining.
    fn run_cycle(&mut self, d: u32) -> Result<CycleReport, ServeError> {
        let span = telemetry::span!("serve.cycle", day = d);
        telemetry::counter_add("serve.cycles", 1);

        // Labels are only knowable once the horizon has fully elapsed:
        // sampling past `d - horizon` would peek at future failures.
        let label_to = d.saturating_sub(self.config.sampling.horizon);
        let Some(fleet) = self.view.fleet.clone() else {
            return Ok(self.skipped_cycle(d, "no labeled samples yet"));
        };
        let samples = match collect_samples(
            &fleet,
            self.config.model,
            0,
            label_to,
            &self.config.sampling,
        ) {
            Ok(s) if !s.is_empty() => s,
            _ => {
                return Ok(self.skipped_cycle(d, "no labeled samples yet"));
            }
        };
        let (matrix, labels, mwi) = base_matrix(&fleet, self.config.model, &samples)?;
        if !labels.iter().any(|&l| l) || labels.iter().all(|&l| l) {
            return Ok(self.skipped_cycle(d, "training set has a single class"));
        }

        let survival = survival_pairs(&fleet, self.config.model, d);
        let threshold = detect_wearout_threshold(&survival)
            .map_err(WefrError::from)?
            .map(|cp| cp.mwi_threshold);

        let decision = self.monitor.record_check(d, threshold);
        span.record("reselected", u64::from(decision.requires_reselection()));
        let mut reselected = false;
        if decision.requires_reselection() {
            let input = SelectionInput {
                data: &matrix,
                labels: &labels,
                mwi_per_sample: Some(&mwi),
                survival: Some(&survival),
            };
            let selection = Wefr::new(self.config.wefr).select(&input)?;
            let selected = base_features_at(self.config.model, &selection.global.selected)?;
            let predictor =
                FailurePredictor::train(&fleet, &samples, &selected, &self.config.predictor)?;
            self.view.selection = Some(Arc::new(Selection {
                names: selection.global.selected_names,
                predictor,
                day: d,
                threshold,
            }));
            telemetry::counter_add("serve.reselections", 1);
            reselected = true;
        }
        Ok(CycleReport {
            day: d,
            decision: Some(decision),
            threshold,
            reselected,
            skipped: None,
        })
    }

    fn skipped_cycle(&self, d: u32, reason: &str) -> CycleReport {
        telemetry::counter_add("serve.cycles_skipped", 1);
        CycleReport {
            day: d,
            decision: None,
            threshold: None,
            reselected: false,
            skipped: Some(reason.to_string()),
        }
    }

    /// Publish the writer's state whole, and set the gauges that describe
    /// it.
    fn publish(&self) {
        let view = &self.view;
        let sel = view.selection.as_deref();
        let gauge = |value: Option<u32>| value.map_or(f64::NAN, f64::from);
        telemetry::gauge_set("serve.day", gauge(view.day));
        telemetry::gauge_set("serve.selection_day", gauge(sel.map(|s| s.day)));
        telemetry::gauge_set(
            "serve.selected_features",
            sel.map_or(0.0, |s| s.names.len() as f64),
        );
        telemetry::gauge_set("serve.threshold_mwi", gauge(sel.and_then(|s| s.threshold)));
        self.published.store(Arc::new(view.clone()));
    }

    /// Score `id` on the current day with the active selection: the
    /// failure probability of the drive-day expanded exactly as training
    /// expanded it ([`FailurePredictor::score_drive_day`]).
    ///
    /// # Errors
    ///
    /// [`ServeError::NotReady`] when no selection is trained yet, the
    /// drive is unknown, or it is not observed on the current day.
    pub fn score(&self, id: DriveId) -> Result<f64, ServeError> {
        self.view.score(id)
    }

    /// The selected base-feature names, best first.
    ///
    /// # Errors
    ///
    /// [`ServeError::NotReady`] before the first selection.
    pub fn features(&self) -> Result<&[String], ServeError> {
        self.view.features()
    }

    /// Deterministic status lines: model, cursor, drive count, and the
    /// active selection's provenance. Deliberately free of clocks and
    /// request counters so two daemons fed the same logs agree.
    pub fn status_lines(&self) -> Vec<String> {
        self.view.status_lines()
    }
}

/// `records`, in id order, as a [`Fleet`] for the batch-path sampling and
/// training entry points. `from_records` keeps the records verbatim; the
/// config is only carried for provenance, so any valid one will do.
fn fleet_of(model: DriveModel, records: Vec<DriveRecord>) -> Result<Fleet, ServeError> {
    let days = records
        .iter()
        .map(|r| r.last_day().saturating_add(1))
        .max()
        .unwrap_or(0);
    let count = u32::try_from(records.len().max(1)).unwrap_or(u32::MAX);
    let config = FleetConfig::builder()
        .days(days.max(120))
        .seed(0)
        .drives(model, count)
        .build()?;
    Ok(Fleet::from_records(config, records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{respond, Request};
    use smart_dataset::csv::export_smart_csv;
    use smart_dataset::{tickets_from_summaries, DriveRecord};
    use std::io::Cursor;

    fn smoke_fleet() -> Fleet {
        let config = FleetConfig::builder()
            .days(160)
            .seed(11)
            .drives(DriveModel::Mc1, 32)
            .failure_scale(8.0)
            .build()
            .unwrap();
        Fleet::generate(&config)
    }

    fn smoke_config() -> ServeConfig {
        ServeConfig {
            period_days: 14,
            predictor: PredictorConfig {
                n_trees: 20,
                max_depth: 6,
                seed: 1,
                n_threads: Some(1),
                ..PredictorConfig::default()
            },
            ..ServeConfig::default()
        }
    }

    fn ingest(daemon: &mut Daemon, fleet: &Fleet, workers: usize) {
        let mut csv = Vec::new();
        export_smart_csv(fleet, &mut csv).unwrap();
        let summaries: Vec<_> = fleet.drives().iter().map(DriveRecord::summary).collect();
        let tickets = tickets_from_summaries(&summaries);
        let config = IngestConfig {
            workers,
            ..IngestConfig::default()
        };
        daemon
            .ingest_csv(Cursor::new(csv), &tickets, &config)
            .unwrap();
    }

    #[test]
    fn replay_reaches_a_selection_and_scores() {
        let fleet = smoke_fleet();
        let mut daemon = Daemon::new(smoke_config());
        ingest(&mut daemon, &fleet, 2);
        assert_eq!(daemon.n_drives(), 32);
        let last = fleet.drives().iter().map(|d| d.last_day()).max().unwrap();
        let reports = daemon.advance_to(last).unwrap();
        assert!(!reports.is_empty());
        assert!(
            reports.iter().any(|r| r.reselected),
            "no cycle reselected: {reports:?}"
        );
        daemon.features().unwrap();
        // Some drive observed on the final day must be scorable.
        let scored = fleet
            .drives()
            .iter()
            .filter(|d| d.observed_on(last))
            .any(|d| daemon.score(d.id).is_ok());
        assert!(scored);
        assert!(daemon.score(DriveId(9_999_999)).is_err());
    }

    #[test]
    fn worker_count_does_not_change_answers() {
        let fleet = smoke_fleet();
        let last = fleet.drives().iter().map(|d| d.last_day()).max().unwrap();
        let run = |workers: usize| {
            let mut daemon = Daemon::new(smoke_config());
            ingest(&mut daemon, &fleet, workers);
            daemon.advance_to(last).unwrap();
            let scores: Vec<String> = fleet
                .drives()
                .iter()
                .map(|d| format!("{:?}", daemon.score(d.id).map_err(|e| e.to_string())))
                .collect();
            (daemon.status_lines(), scores)
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn reingest_catch_up_matches_continuous_feeding() {
        // Re-ingesting mid-replay replaces every record; scores must be
        // bit-identical to a daemon that replayed continuously.
        let fleet = smoke_fleet();
        let last = fleet.drives().iter().map(|d| d.last_day()).max().unwrap();
        let mut continuous = Daemon::new(smoke_config());
        ingest(&mut continuous, &fleet, 1);
        continuous.advance_to(last).unwrap();
        let mut reingested = Daemon::new(smoke_config());
        ingest(&mut reingested, &fleet, 1);
        reingested.advance_to(last / 2).unwrap();
        ingest(&mut reingested, &fleet, 1);
        reingested.advance_to(last).unwrap();
        for d in fleet.drives() {
            let a = continuous.score(d.id).map_err(|e| e.to_string());
            let b = reingested.score(d.id).map_err(|e| e.to_string());
            match (a, b) {
                (Ok(x), Ok(y)) => assert_eq!(x.to_bits(), y.to_bits(), "drive {}", d.id),
                (a, b) => assert_eq!(a, b, "drive {}", d.id),
            }
        }
        assert_eq!(continuous.status_lines(), reingested.status_lines());
    }

    #[test]
    fn unobserved_day_is_not_ready() {
        let fleet = smoke_fleet();
        let last = fleet.drives().iter().map(|d| d.last_day()).max().unwrap();
        let mut daemon = Daemon::new(smoke_config());
        ingest(&mut daemon, &fleet, 1);
        daemon.advance_to(last).unwrap();
        daemon.features().unwrap();
        let gone = fleet
            .drives()
            .iter()
            .find(|d| d.last_day() < last)
            .expect("a drive that stopped reporting before the cursor");
        match daemon.score(gone.id) {
            Err(ServeError::NotReady { message }) => {
                assert!(message.contains("is not observed on day"), "{message}");
            }
            other => panic!("expected NotReady, got {other:?}"),
        }
    }

    #[test]
    fn a_failed_cycle_is_published_where_the_cursor_stopped() {
        let fleet = smoke_fleet();
        let last = fleet.drives().iter().map(|d| d.last_day()).max().unwrap();
        let mut healthy = Daemon::new(smoke_config());
        ingest(&mut healthy, &fleet, 1);
        let failing_day = healthy
            .advance_to(last)
            .unwrap()
            .iter()
            .find(|r| r.reselected)
            .expect("a re-selecting cycle")
            .day;
        // A forest of no trees refuses to fit, so the first re-selecting
        // cycle fails in training.
        let mut config = smoke_config();
        config.predictor.n_trees = 0;
        let mut daemon = Daemon::new(config);
        ingest(&mut daemon, &fleet, 1);
        let err = daemon.advance_to(last).unwrap_err();
        assert!(matches!(err, ServeError::Pipeline(_)), "{err}");
        assert_eq!(daemon.day(), Some(failing_day), "the cursor stops there");
        let view = daemon.reader().load();
        let status = view.respond(Request::Status);
        assert!(
            status.contains(&format!("day {failing_day}")),
            "readers must see the failing day: {status:?}"
        );
        assert_eq!(status, respond(&daemon, Request::Status));
        for d in fleet.drives() {
            let request = Request::Score(d.id);
            assert_eq!(view.respond(request), respond(&daemon, request));
        }
    }

    #[test]
    fn config_lookup_overrides_period() {
        let c = ServeConfig::from_lookup(|name| {
            (name == ENV_SERVE_PERIOD_DAYS).then(|| "3".to_string())
        });
        assert_eq!(c.period_days, 3);
        let d = ServeConfig::from_lookup(|_| None);
        assert_eq!(d.period_days, 7);
    }
}
