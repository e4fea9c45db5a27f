//! The daemon core: replay cursor, update cycle, and query handlers.
//!
//! The daemon is deliberately socket-free — [`crate::listener`] owns the
//! TCP side and calls in here under a lock. Everything below is pure
//! state machine, which is what makes the golden-transcript CI smoke and
//! the worker-count determinism test possible.

use std::collections::BTreeMap;
use std::io::BufRead;

use smart_dataset::{
    stream_drive_batches, DriveBatch, DriveId, DriveModel, DriveRecord, Fleet, FleetConfig,
    IngestConfig, IngestStats, TroubleTicket,
};
use smart_pipeline::{
    base_features, base_matrix, collect_samples, survival_pairs, FailurePredictor, PredictorConfig,
    SamplingConfig,
};
use wefr_core::wearout::detect_wearout_threshold;
use wefr_core::{SelectionInput, UpdateDecision, UpdateMonitor, Wefr, WefrConfig, WefrError};

use crate::error::ServeError;

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

/// The product of a re-selection: what to score with until the next one.
#[derive(Debug)]
struct SelectionState {
    /// Names of the selected base features, best first.
    selected_names: Vec<String>,
    /// Predictor trained on the selected features.
    predictor: FailurePredictor,
    /// The day the selection ran.
    selected_at_day: u32,
    /// The wear-out threshold the selection acted upon.
    threshold: Option<u32>,
}

/// The continuous-selection daemon: tracked drives, replay cursor, update
/// monitor, and the active selection.
#[derive(Debug)]
pub struct Daemon {
    config: ServeConfig,
    base: Vec<smart_dataset::FeatureId>,
    drives: BTreeMap<DriveId, DriveRecord>,
    day: Option<u32>,
    monitor: UpdateMonitor,
    /// Last day a cycle was *attempted* (recorded or skipped). Skipped
    /// checks never reach the monitor, so without this a data-starved
    /// daemon would retry daily instead of on the configured cadence.
    last_attempt_day: Option<u32>,
    selection: Option<SelectionState>,
}

impl Daemon {
    /// A daemon with no drives and no selection.
    pub fn new(config: ServeConfig) -> Self {
        let base = base_features(config.model);
        let monitor = UpdateMonitor::new(config.period_days, config.tolerance);
        Daemon {
            config,
            base,
            drives: BTreeMap::new(),
            day: None,
            monitor,
            last_attempt_day: None,
            selection: None,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The replay cursor: the last day advanced to.
    pub fn day(&self) -> Option<u32> {
        self.day
    }

    /// Number of tracked drives.
    pub fn n_drives(&self) -> usize {
        self.drives.len()
    }

    /// The last observed day across all tracked drives — how far
    /// [`Daemon::advance_to`] can usefully replay.
    pub fn last_observed_day(&self) -> Option<u32> {
        self.drives.values().map(DriveRecord::last_day).max()
    }

    /// Ingest a SMART-log CSV through the sharded reader, registering
    /// every drive of the daemon's model.
    ///
    /// # Errors
    ///
    /// Propagates CSV parse errors.
    pub fn ingest_csv<R: BufRead + Send>(
        &mut self,
        input: R,
        tickets: &[TroubleTicket],
        config: &IngestConfig,
    ) -> Result<IngestStats, ServeError> {
        let span = telemetry::span!("serve.ingest");
        let stats = stream_drive_batches(input, tickets, config, |batch| {
            self.ingest_batch(batch);
            Ok::<_, ServeError>(())
        })?;
        span.record("drives", stats.drives);
        telemetry::counter_add("serve.ingest.drives", stats.drives);
        Ok(stats)
    }

    /// Register one batch of drive records (the `stream_drive_batches`
    /// consumer). Re-ingesting a drive replaces its record; scores read
    /// the record directly, so late registration and replay order commute.
    pub fn ingest_batch(&mut self, batch: DriveBatch) {
        for record in batch.drives {
            if record.model == self.config.model {
                self.drives.insert(record.id, record);
            }
        }
    }

    /// Advance the replay cursor to `target` (inclusive) day by day,
    /// running the update cycle whenever the monitor says one is due.
    /// Returns one report per cycle attempted.
    ///
    /// # Errors
    ///
    /// Propagates selection and training failures; the cursor stops on
    /// the failing day.
    pub fn advance_to(&mut self, target: u32) -> Result<Vec<CycleReport>, ServeError> {
        let start = match self.day {
            Some(d) if d >= target => return Ok(Vec::new()),
            Some(d) => d + 1,
            None => 0,
        };
        let mut reports = Vec::new();
        for d in start..=target {
            self.day = Some(d);
            let attempt_due = self
                .last_attempt_day
                .is_none_or(|l| d.saturating_sub(l) >= self.config.period_days);
            if self.monitor.due(d) && attempt_due {
                self.last_attempt_day = Some(d);
                reports.push(self.run_cycle(d)?);
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
        let fleet = self.snapshot_fleet()?;
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
        let threshold = detect_wearout_threshold(
            &survival,
            &self.config.wefr.bocpd,
            self.config.wefr.z_threshold,
            self.config.wefr.survival_min_bucket,
        )
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
            let selected: Vec<_> = selection
                .global
                .selected
                .iter()
                .filter_map(|&i| self.base.get(i).copied())
                .collect();
            let predictor =
                FailurePredictor::train(&fleet, &samples, &selected, &self.config.predictor)?;
            self.selection = Some(SelectionState {
                selected_names: selection.global.selected_names.clone(),
                predictor,
                selected_at_day: d,
                threshold,
            });
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

    /// A [`Fleet`] view over the tracked records, for the batch-path
    /// sampling and training entry points.
    fn snapshot_fleet(&self) -> Result<Fleet, ServeError> {
        let records: Vec<_> = self.drives.values().cloned().collect();
        let count = u32::try_from(records.len().max(1)).unwrap_or(u32::MAX);
        // `from_records` keeps the records verbatim; the config is only
        // carried for provenance, so any valid one will do.
        let config = FleetConfig::builder()
            .days(self.day.unwrap_or(0).saturating_add(1).max(120))
            .seed(0)
            .drives(self.config.model, count)
            .build()?;
        Ok(Fleet::from_records(config, records))
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
        let day = self
            .day
            .ok_or_else(|| ServeError::not_ready("no days ingested yet"))?;
        let sel = self
            .selection
            .as_ref()
            .ok_or_else(|| ServeError::not_ready("no feature selection trained yet"))?;
        let record = self
            .drives
            .get(&id)
            .ok_or_else(|| ServeError::not_ready(format!("unknown drive {id}")))?;
        if !record.observed_on(day) {
            return Err(ServeError::not_ready(format!(
                "drive {id} is not observed on day {day} (last day {})",
                record.last_day()
            )));
        }
        let score = sel.predictor.score_drive_day(record, day)?;
        telemetry::counter_add("serve.scores", 1);
        Ok(score)
    }

    /// The selected base-feature names, best first.
    ///
    /// # Errors
    ///
    /// [`ServeError::NotReady`] before the first selection.
    pub fn features(&self) -> Result<&[String], ServeError> {
        self.selection
            .as_ref()
            .map(|s| s.selected_names.as_slice())
            .ok_or_else(|| ServeError::not_ready("no feature selection trained yet"))
    }

    /// Deterministic status lines: model, cursor, drive count, and the
    /// active selection's provenance. Deliberately free of clocks and
    /// request counters so two daemons fed the same logs agree.
    pub fn status_lines(&self) -> Vec<String> {
        let mut lines = vec![
            format!("model {}", self.config.model),
            format!(
                "day {}",
                self.day
                    .map_or_else(|| "none".to_string(), |d| d.to_string())
            ),
            format!("drives {}", self.drives.len()),
            format!("period_days {}", self.config.period_days),
        ];
        match &self.selection {
            None => lines.push("selection none".to_string()),
            Some(s) => {
                lines.push(format!(
                    "selection day={} features={} threshold={}",
                    s.selected_at_day,
                    s.selected_names.len(),
                    s.threshold
                        .map_or_else(|| "none".to_string(), |t| t.to_string()),
                ));
            }
        }
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn config_lookup_overrides_period() {
        let c = ServeConfig::from_lookup(|name| {
            (name == ENV_SERVE_PERIOD_DAYS).then(|| "3".to_string())
        });
        assert_eq!(c.period_days, 3);
        let d = ServeConfig::from_lookup(|_| None);
        assert_eq!(d.period_days, 7);
    }
}
