#![forbid(unsafe_code)]
//! Figure 1 — survival rate versus `MWI_N` per drive model, with the
//! Bayesian change points marked.
//!
//! Prints each model's curve as an ASCII strip plus the detected change
//! point; `--out` writes the full series for replotting.

use smart_changepoint::survival::SurvivalCurve;
use wefr_bench::{print_header, RunOptions};
use wefr_core::wearout::SURVIVAL_MIN_BUCKET;

struct ModelCurve {
    model: String,
    points: Vec<(u32, f64, usize)>,
    change_point: Option<(u32, f64)>,
}

json::impl_to_json!(ModelCurve {
    model,
    points,
    change_point
});

fn main() {
    let opts = RunOptions::from_args();
    let census = opts.census();
    print_header("Figure 1: survival rate vs MWI_N (change points via BOCPD, z >= 2.5)");

    let mut curves = Vec::new();
    for model in opts.models() {
        let drives = census
            .summaries_of_model(model)
            .map(|s| (s.final_mwi_n, s.is_failed()));
        let curve = SurvivalCurve::from_drives(drives, SURVIVAL_MIN_BUCKET);
        let cp = curve
            .detect_change_point_default()
            .expect("valid BOCPD config");

        println!("--- {model} ---");
        match curve.mwi_range() {
            Some((lo, hi)) => println!("observed MWI_N range: {lo}..{hi}"),
            None => println!("no populated MWI buckets"),
        }
        match &cp {
            Some(c) => println!(
                "change point: MWI_N = {} (z = {:.2}, p = {:.3})  [paper: MA1/MA2/MC1 in 20..45, MC2 at 72, MB1/MB2 none]",
                c.mwi_threshold, c.z_score, c.probability
            ),
            None => println!("no significant change point (expected for MB1/MB2)"),
        }
        render_strip(&curve, cp.as_ref().map(|c| c.mwi_threshold));
        println!();

        curves.push(ModelCurve {
            model: model.name().to_string(),
            points: curve
                .points()
                .iter()
                .map(|p| (p.mwi, p.rate, p.total))
                .collect(),
            change_point: cp.map(|c| (c.mwi_threshold, c.z_score)),
        });
    }
    opts.write_json("figure1_survival", &curves);
}

/// A coarse ASCII rendition: survival rate bucketed over MWI_N, descending.
fn render_strip(curve: &SurvivalCurve, change_point: Option<u32>) {
    const GLYPHS: [char; 5] = [' ', '.', ':', '+', '#'];
    let mut strip = String::new();
    let mut axis = String::new();
    for p in curve.points() {
        let level = (p.rate * (GLYPHS.len() - 1) as f64).round() as usize;
        strip.push(GLYPHS[level.min(GLYPHS.len() - 1)]);
        axis.push(if Some(p.mwi) == change_point {
            '^'
        } else {
            ' '
        });
    }
    println!(
        "rate (MWI_N {} -> {}):",
        curve.points().first().map_or(0, |p| p.mwi),
        curve.points().last().map_or(0, |p| p.mwi)
    );
    println!("  [{strip}]");
    if change_point.is_some() {
        println!("   {axis} (^ = change point)");
    }
}
