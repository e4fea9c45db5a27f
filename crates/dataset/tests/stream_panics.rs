//! A panic in a streaming source's `consume` callback must reach the
//! caller, not wedge the worker pipeline behind it. Each case runs on its
//! own thread under a timeout: a wedged pipeline fails the test instead of
//! hanging the suite.

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

use smart_dataset::csv::export_smart_csv;
use smart_dataset::gen::stream::{stream_fleet_batches, GenConfig};
use smart_dataset::{
    stream_drive_batches, tickets_from_summaries, DatasetError, DriveBatch, DriveModel, Fleet,
    FleetConfig, IngestConfig,
};

fn config() -> FleetConfig {
    FleetConfig::builder()
        .days(120)
        .seed(3)
        .drives(DriveModel::Ma1, 12)
        .build()
        .expect("valid config")
}

/// A `consume` callback that panics on the first batch it is handed.
fn panicking_consume(_batch: DriveBatch) -> Result<(), DatasetError> {
    panic!("consume rejected the first batch");
}

/// Run `f` on its own thread and return its panic message. Fails when `f`
/// returns normally, or is still blocked after 10 s.
fn panic_within_timeout(f: impl FnOnce() + Send + 'static) -> String {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let outcome = panic::catch_unwind(AssertUnwindSafe(f));
        let message = outcome.err().map(|payload| {
            payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default()
        });
        let _ = tx.send(message);
    });
    match rx.recv_timeout(Duration::from_secs(10)) {
        Ok(Some(message)) => message,
        Ok(None) => panic!("the stream returned instead of panicking"),
        Err(_) => panic!("the stream is still blocked 10 s after consume panicked"),
    }
}

#[test]
fn ingest_consume_panic_reaches_the_caller() {
    let fleet = Fleet::generate(&config());
    let tickets = tickets_from_summaries(&fleet.summaries());
    let mut csv = Vec::new();
    export_smart_csv(&fleet, &mut csv).expect("in-memory export");
    let ingest = IngestConfig {
        shard_rows: 1,
        workers: 2,
        max_queued_shards: 1,
        ..IngestConfig::default()
    };
    let message = panic_within_timeout(move || {
        let _ = stream_drive_batches(csv.as_slice(), &tickets, &ingest, panicking_consume);
    });
    assert_eq!(message, "consume rejected the first batch");
}

#[test]
fn generation_consume_panic_reaches_the_caller() {
    let gen = GenConfig {
        chunk_drives: 1,
        workers: 2,
        max_queued_chunks: 1,
        scenario: None,
    };
    let message = panic_within_timeout(move || {
        let _ = stream_fleet_batches(&config(), &gen, panicking_consume);
    });
    assert_eq!(message, "consume rejected the first batch");
}
