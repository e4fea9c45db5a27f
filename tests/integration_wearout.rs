//! Wear-out behaviour across crates: survival curves from simulated fleets
//! show the paper's change-point structure (knee for MC1, none for MB1).

use smart_changepoint::survival::SurvivalCurve;
use smart_dataset::{Census, DriveModel, FleetConfig};

fn census_for(model: DriveModel, drives: u32, seed: u64) -> Census {
    let config = FleetConfig::builder()
        .days(730)
        .seed(seed)
        .drives(model, drives)
        .failure_scale(4.0)
        .build()
        .expect("valid config");
    Census::generate(&config)
}

fn curve(census: &Census, model: DriveModel) -> SurvivalCurve {
    SurvivalCurve::from_drives(
        census
            .summaries_of_model(model)
            .map(|s| (s.final_mwi_n, s.is_failed())),
        3,
    )
}

#[test]
fn mc1_has_a_low_mwi_change_point() {
    let census = census_for(DriveModel::Mc1, 6000, 1);
    let c = curve(&census, DriveModel::Mc1);
    let cp = c
        .detect_change_point()
        .expect("valid config")
        .expect("MC1 must show a wear-out knee");
    // The simulator's MC1 hazard knee is at MWI 30; the paper reports
    // change points between 20 and 45.
    assert!(
        (15..=50).contains(&cp.mwi_threshold),
        "threshold = {}",
        cp.mwi_threshold
    );
}

#[test]
fn mb1_has_no_change_point() {
    let census = census_for(DriveModel::Mb1, 4000, 2);
    let c = curve(&census, DriveModel::Mb1);
    // MB1 wears too slowly for a meaningful MWI range (paper: "no change
    // points due to a small range of MWI_N").
    let (min, max) = c.mwi_range().expect("buckets exist");
    assert!(max - min < 12, "range {min}..{max}");
    assert!(c.detect_change_point().unwrap().is_none());
}

#[test]
fn mc2_survival_is_non_monotone() {
    // MC2's early-firmware failures kill young (high final-MWI) drives, so
    // survival near the top of the MWI range dips below the mid-range — the
    // distinctive Fig. 1 shape.
    let census = census_for(DriveModel::Mc2, 8000, 3);
    let c = curve(&census, DriveModel::Mc2);
    let band = |lo: u32, hi: u32| -> f64 {
        let pts: Vec<f64> = c
            .points()
            .iter()
            .filter(|p| (lo..=hi).contains(&p.mwi))
            .map(|p| p.rate)
            .collect();
        assert!(!pts.is_empty(), "no points in {lo}..{hi}");
        pts.iter().sum::<f64>() / pts.len() as f64
    };
    let high_band = band(80, 98); // firmware-era casualties end up here
    let mid_band = band(45, 70);
    let low_band = band(5, 30); // wear-out casualties
    assert!(
        mid_band > high_band,
        "mid {mid_band:.3} must exceed high {high_band:.3}"
    );
    assert!(
        mid_band > low_band,
        "mid {mid_band:.3} must exceed low {low_band:.3}"
    );
}

#[test]
fn worn_drives_fail_more_for_wear_kneed_models() {
    let census = census_for(DriveModel::Mc1, 6000, 4);
    let summaries: Vec<_> = census.summaries_of_model(DriveModel::Mc1).collect();
    let rate = |pred: &dyn Fn(f64) -> bool| {
        let group: Vec<_> = summaries.iter().filter(|s| pred(s.final_mwi_n)).collect();
        group.iter().filter(|s| s.is_failed()).count() as f64 / group.len().max(1) as f64
    };
    let worn = rate(&|m| m < 25.0);
    let fresh = rate(&|m| m > 60.0);
    assert!(worn > 1.5 * fresh, "worn {worn:.3} vs fresh {fresh:.3}");
}
