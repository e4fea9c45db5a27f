//! The daemon's state as readers see it — a [`View`] — and the one
//! function that answers a protocol request from it.
//!
//! The daemon ([`crate::daemon`]) keeps its own view, moves it day by day,
//! and at each publish point — after every replayed day and every ingest
//! — stores a copy in its [`sync::Published`] cell. The listener loads the
//! current copy for each request and never takes the daemon's lock, so a
//! re-selection running on the writer side never keeps a reader waiting.
//! A published copy never changes, so every answer is a pure function of
//! it.

use smart_dataset::{DriveId, DriveModel, DriveRecord, Fleet};
use smart_pipeline::FailurePredictor;
use sync::Arc;

use crate::error::ServeError;
use crate::protocol::Request;

/// The product of a re-selection: what to score with until the next one.
#[derive(Debug)]
pub(crate) struct Selection {
    /// Names of the selected base features, best first.
    pub(crate) names: Vec<String>,
    /// Predictor trained on the selected features.
    pub(crate) predictor: FailurePredictor,
    /// The day the selection ran.
    pub(crate) day: u32,
    /// The wear-out threshold the selection acted upon.
    pub(crate) threshold: Option<u32>,
}

/// One published state of the daemon: its cursor day, its drive records
/// and its active selection, as of the end of a replayed day or an
/// ingest. A clone shares the records and the selection; it copies
/// neither.
#[derive(Debug, Clone)]
pub(crate) struct View {
    pub(crate) model: DriveModel,
    pub(crate) period_days: u32,
    pub(crate) day: Option<u32>,
    /// The tracked drives in id order; `None` before the first ingest.
    pub(crate) fleet: Option<Arc<Fleet>>,
    pub(crate) selection: Option<Arc<Selection>>,
}

impl View {
    /// The tracked drive records, in id order.
    pub(crate) fn drives(&self) -> &[DriveRecord] {
        self.fleet.as_deref().map_or(&[], Fleet::drives)
    }

    /// [`crate::Daemon::score`]; the record is found by binary search on
    /// the drive id.
    pub(crate) fn score(&self, id: DriveId) -> Result<f64, ServeError> {
        let day = self
            .day
            .ok_or_else(|| ServeError::not_ready("no days ingested yet"))?;
        let sel = self
            .selection
            .as_deref()
            .ok_or_else(|| ServeError::not_ready("no feature selection trained yet"))?;
        let drives = self.drives();
        let record = drives
            .binary_search_by_key(&id, |d| d.id)
            .ok()
            .and_then(|i| drives.get(i))
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

    /// [`crate::Daemon::features`].
    pub(crate) fn features(&self) -> Result<&[String], ServeError> {
        self.selection
            .as_deref()
            .map(|s| s.names.as_slice())
            .ok_or_else(|| ServeError::not_ready("no feature selection trained yet"))
    }

    /// [`crate::Daemon::status_lines`].
    pub(crate) fn status_lines(&self) -> Vec<String> {
        let mut lines = vec![
            format!("model {}", self.model),
            format!("day {}", or_none(self.day)),
            format!("drives {}", self.drives().len()),
            format!("period_days {}", self.period_days),
        ];
        match self.selection.as_deref() {
            None => lines.push("selection none".to_string()),
            Some(s) => lines.push(format!(
                "selection day={} features={} threshold={}",
                s.day,
                s.names.len(),
                or_none(s.threshold),
            )),
        }
        lines
    }

    /// Answer a protocol request. Every response is a list of lines; the
    /// listener adds the terminating blank line.
    pub(crate) fn respond(&self, request: Request) -> Vec<String> {
        match request {
            Request::Score(id) => match self.score(id) {
                Ok(score) => vec![format!("ok score {id} {score:.9}")],
                Err(e) => vec![format!("ERR {e}")],
            },
            Request::Features => match self.features() {
                Ok(names) => {
                    let mut lines = vec![format!("ok features {}", names.len())];
                    lines.extend(names.iter().cloned());
                    lines
                }
                Err(e) => vec![format!("ERR {e}")],
            },
            Request::Status => {
                let mut lines = vec!["ok status".to_string()];
                lines.extend(self.status_lines());
                lines
            }
            Request::Quit => vec!["ok bye".to_string()],
        }
    }
}

/// `value`, or `none` when there is none.
fn or_none(value: Option<u32>) -> String {
    value.map_or_else(|| "none".to_string(), |v| v.to_string())
}
