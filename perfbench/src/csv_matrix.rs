//! `csv-matrix`: a SMART-log CSV held in memory, streamed through the
//! sharded reader into the MC1 base matrix again and again. Parser plus
//! sample fold, no selection at all: the control for ranker changes.

use std::time::Instant;

use smart_dataset::csv::export_smart_csv;
use smart_dataset::{
    stream_drive_batches, tickets_from_summaries, DatasetError, DriveModel, Fleet, FleetConfig,
    TroubleTicket,
};
use smart_pipeline::{base_matrix, collect_samples, streaming_base_matrix, StreamedMatrix};

use crate::layers::{Layers, OpTrace};
use crate::{
    digest, err, heap, ingest_config, matrix_digest, sampling, set_up, Deadline, Measured, Options,
};

/// Input sizes.
struct Sizes {
    /// MC1 drives exported to the CSV.
    drives: u32,
    /// Days of telemetry per drive.
    days: u32,
}

const FULL: Sizes = Sizes {
    drives: 500,
    days: 730,
};

const SMOKE: Sizes = Sizes {
    drives: 40,
    days: 200,
};

/// The CSV text, its trouble tickets, and the digest of the matrix the
/// materialised path (`collect_samples` + `base_matrix`) builds from the
/// fleet the CSV was exported from. The fleet itself is dropped.
struct Input {
    csv: Vec<u8>,
    tickets: Vec<TroubleTicket>,
    reference: u64,
    rows: usize,
}

impl Input {
    fn build(sizes: &Sizes, opts: &Options) -> Result<Input, String> {
        let config = FleetConfig::builder()
            .days(sizes.days)
            .seed(opts.seed)
            .drives(DriveModel::Mc1, sizes.drives)
            .build()
            .map_err(err)?;
        let fleet = Fleet::generate(&config);
        let mut csv = Vec::new();
        export_smart_csv(&fleet, &mut csv).map_err(err)?;
        let tickets = tickets_from_summaries(&fleet.summaries());
        let samples = collect_samples(
            &fleet,
            DriveModel::Mc1,
            0,
            sizes.days - 1,
            &sampling(opts.seed),
        )
        .map_err(err)?;
        let (matrix, labels, mwi) = base_matrix(&fleet, DriveModel::Mc1, &samples).map_err(err)?;
        Ok(Input {
            csv,
            tickets,
            reference: matrix_digest(&matrix, &labels, &mwi),
            rows: matrix.n_rows(),
        })
    }

    fn fingerprint(&self) -> (u64, u64) {
        (digest(&self.csv), self.reference)
    }
}

fn streamed_digest(streamed: &StreamedMatrix) -> u64 {
    matrix_digest(&streamed.matrix, &streamed.labels, &streamed.mwi)
}

/// Run the `csv-matrix` workload.
///
/// # Errors
///
/// When the input cannot be built.
pub fn run(opts: &Options) -> Result<Measured, String> {
    let sizes = if opts.smoke { SMOKE } else { FULL };
    let mut measured = Measured::default();
    let input =
        set_up(|| Input::build(&sizes, opts), Input::fingerprint)?.into_product(&mut measured);
    let sampling = sampling(opts.seed);
    let ingest = ingest_config(opts.cores);
    let stream = || {
        streaming_base_matrix(
            &input.csv[..],
            &input.tickets,
            DriveModel::Mc1,
            0,
            sizes.days - 1,
            &sampling,
            &ingest,
        )
    };

    let mut times = Vec::new();
    let mut layers = Layers::default();
    let mut csv_rows = 0;
    let mut deadline = Deadline::new(opts.seconds, 3);
    heap::reset_peak();
    while deadline.next_round() {
        let mut op = OpTrace::default();
        let start = Instant::now();
        let streamed = op.time("pipeline.streaming_matrix_s", stream);
        let wall = start.elapsed().as_secs_f64();
        times.push(wall);
        if let Ok(s) = &streamed {
            csv_rows = s.stats.rows;
        }
        // Every streamed pass must reproduce the materialised matrix bit
        // for bit.
        measured.check(
            streamed.is_ok_and(|s| streamed_digest(&s) == input.reference),
            "streamed matrix differs from collect_samples + base_matrix",
        );
        if opts.trace {
            op.add("traced_op_s", wall);
            op.add(
                "trace_coverage",
                op.get("pipeline.streaming_matrix_s") / wall,
            );
            // The reader alone, with a consumer that drops every batch.
            let stats = op
                .time("dataset.ingest_s", || {
                    stream_drive_batches(&input.csv[..], &input.tickets, &ingest, |_batch| {
                        Ok::<(), DatasetError>(())
                    })
                })
                .map_err(err)?;
            op.add("dataset.ingest.rows", stats.rows as f64);
            op.add("dataset.ingest.shards", stats.shards as f64);
            op.add(
                "dataset.ingest.queue_full_stalls",
                stats.queue_full_stalls as f64,
            );
        }
        layers.record(op);
    }
    measured.values.insert("peak_heap_mib", heap::peak_mib());
    measured.values.insert("op_s", crate::stats::median(&times));
    measured.notes.push(format!(
        "{} drives x {} days: {:.1} MiB CSV, {csv_rows} rows, matrix {} rows",
        sizes.drives,
        sizes.days,
        input.csv.len() as f64 / (1024.0 * 1024.0),
        input.rows,
    ));
    measured.notes.push(crate::stats::describe_times(&times));

    if opts.trace {
        let mut medians = layers.medians();
        let fold = medians["pipeline.streaming_matrix_s"] - medians["dataset.ingest_s"];
        medians.insert("pipeline.fold_s", fold);
        measured.add_layers(medians);
    }
    Ok(measured)
}
