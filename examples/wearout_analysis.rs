//! Wear-out analysis: survival-rate curves over `MWI_N` for all six drive
//! models, with Bayesian change points — the Fig. 1 story on a census.
//!
//! ```text
//! cargo run --example wearout_analysis
//! ```

use smart_changepoint::survival::SurvivalCurve;
use smart_dataset::{Census, DriveModel, FleetConfig};
use wefr_core::wearout::SURVIVAL_MIN_BUCKET;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let census = Census::generate(&FleetConfig::proportional(20_000, 7)?);
    println!(
        "census: {} drives, {} failures\n",
        census.summaries().len(),
        census.n_failures()
    );

    for model in DriveModel::ALL {
        let curve = SurvivalCurve::from_drives(
            census
                .summaries_of_model(model)
                .map(|s| (s.final_mwi_n, s.is_failed())),
            SURVIVAL_MIN_BUCKET,
        );
        print!("{model}: ");
        match curve.mwi_range() {
            None => {
                println!("no populated buckets");
                continue;
            }
            Some((lo, hi)) => print!("MWI_N spans {lo}..{hi}; "),
        }
        match curve.detect_change_point_default()? {
            Some(cp) => println!(
                "survival changes significantly at MWI_N = {} (z = {:.1})",
                cp.mwi_threshold, cp.z_score
            ),
            None => println!("no significant change (narrow wear range or flat survival)"),
        }

        // Sketch the curve: mean survival in coarse MWI bands.
        let points = curve.points();
        print!("  survival by band:");
        for chunk in points.chunks(20) {
            let mean: f64 = chunk.iter().map(|p| p.rate).sum::<f64>() / chunk.len() as f64;
            let lo = chunk.last().expect("non-empty chunk").mwi;
            let hi = chunk.first().expect("non-empty chunk").mwi;
            print!("  [{lo:>2}-{hi:>3}] {:.2}", mean);
        }
        println!("\n");
    }
    println!("paper shape: MA1/MA2/MC1 drop below a knee in 20..45; MC2 dips at high MWI\n(early-firmware failures) and again at low MWI; MB1/MB2 stay flat.");
    Ok(())
}
