//! Golden test for the Fig. 1 survival census (`results/census_fig1.json`):
//! the measured, streamed population at the pinned paper-mix seed must
//! regenerate byte-identically — like `flame_quickstart.svg` — and it must
//! do so under a chunking/worker setting *different* from the one that
//! wrote the file, exercising the streaming generator's bit-identity
//! guarantee end to end.
//!
//! Regenerate into a temporary directory and copy the census over; `--out
//! results` would also replace the committed 500K-drive `BENCH_pr8.json`
//! with a quick run:
//! `cargo run --release -p wefr-bench --bin bench_gen_stream -- --quick --out DIR`
//! then `cp DIR/census_fig1.json results/`.

use smart_dataset::gen::stream::GenConfig;
use smart_pipeline::report::to_json;
use smart_pipeline::{fig1_pinned_config, fig1_report, Fig1Report, FIG1_MIN_BUCKET};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/census_fig1.json"
);

fn recompute(gen: &GenConfig) -> Fig1Report {
    let config = fig1_pinned_config().expect("pinned config");
    fig1_report(&config, gen, FIG1_MIN_BUCKET).expect("fig1 report")
}

#[test]
fn fig1_census_regenerates_byte_identically() {
    let committed = std::fs::read_to_string(GOLDEN_PATH).expect("committed census_fig1.json");
    // Deliberately NOT the GenConfig that wrote the file: single worker,
    // odd chunk size. Bit-identity means the chunking cannot show through.
    let report = recompute(&GenConfig {
        chunk_drives: 61,
        workers: 1,
        max_queued_chunks: 2,
        scenario: None,
    });
    assert_eq!(
        to_json(&report),
        committed,
        "results/census_fig1.json drifted from the pinned generator output; \
         regenerate it as this file's docs describe and inspect the diff"
    );
}

#[test]
fn fig1_census_is_structurally_sane() {
    let committed = std::fs::read_to_string(GOLDEN_PATH).expect("committed census_fig1.json");
    let value = json::parse(&committed).expect("valid JSON");
    let models = value
        .field("models")
        .and_then(json::Value::as_array)
        .expect("models array");
    assert_eq!(models.len(), 6, "one curve per paper model");
    for curve in models {
        let points = curve
            .field("points")
            .and_then(json::Value::as_array)
            .expect("points array");
        assert!(
            !points.is_empty(),
            "model {:?} has an empty survival curve",
            curve.field("model")
        );
    }
}
