//! Bit pins for `Wefr::select`'s whole output.
//!
//! WEFR's settings are fixed: the paper's constants (1.96σ outlier
//! removal, α = 0.75, change points at z ≥ 2.5 on buckets of at least 3
//! drives) and the wear-out groups' minimum size. These digests pin what
//! they produce, over everything a selection reports: the global and group
//! selections, each ensemble's mean positions, order and per-ranker
//! diagnostics, each automated-count scan trace, and the change point. One
//! input makes the wear-out split fire and one makes it fall back to the
//! global selection. A change meant to move no selection bit keeps both.

use rng::rngs::StdRng;
use rng::{RngExt, SeedableRng};
use smart_stats::FeatureMatrix;
use wefr_core::{GroupSelection, SelectionInput, Wefr, WefrConfig, WefrSelection};

/// Matrix, labels, per-sample `MWI_N` and per-drive survival pairs.
type Population = (FeatureMatrix, Vec<bool>, Vec<f64>, Vec<(f64, bool)>);

/// Drives with wear-dependent failure signal: at `MWI_N` ≤ 40 failures
/// follow `EFC_R`, above it `UCE_R`. `OCE_R` carries a weak signal with a
/// tenth of its cells missing, `TMP_N` takes seven levels and `PSC_N` is
/// noise. Every 97th sample has no `MWI_N` reading (NaN).
fn population(n: usize) -> Population {
    let mut rng = StdRng::seed_from_u64(0x0057_EF12);
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); 5];
    let (mut labels, mut mwi, mut survival) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..n {
        let m: f64 = 5.0 + rng.random::<f64>() * 90.0;
        let low = m <= 40.0;
        let failed = rng.random::<f64>() < if low { 0.5 } else { 0.08 };
        let wear = if failed && low { 30.0 } else { 0.0 } + rng.random::<f64>() * 5.0;
        let errors = if failed && !low { 30.0 } else { 0.0 } + rng.random::<f64>() * 5.0;
        let oce = if rng.random_bool(0.1) {
            f64::NAN
        } else {
            f64::from(u8::from(failed)) * 3.0 + rng.random::<f64>() * 10.0
        };
        let temp = f64::from(rng.random_range(0u32..7));
        let noise = rng.random::<f64>() * 10.0;
        for (column, value) in columns.iter_mut().zip([wear, errors, oce, temp, noise]) {
            column.push(value);
        }
        labels.push(failed);
        mwi.push(if i % 97 == 0 { f64::NAN } else { m });
        survival.push((m, failed));
    }
    let names = ["EFC_R", "UCE_R", "OCE_R", "TMP_N", "PSC_N"]
        .map(String::from)
        .to_vec();
    let data = FeatureMatrix::from_columns_with_missing(names, columns).unwrap();
    (data, labels, mwi, survival)
}

/// FNV-1a over a byte stream.
struct Digest(u64);

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn count(&mut self, value: usize) {
        self.bytes(&(value as u64).to_le_bytes());
    }

    fn float(&mut self, value: f64) {
        self.bytes(&value.to_bits().to_le_bytes());
    }

    fn text(&mut self, value: &str) {
        self.count(value.len());
        self.bytes(value.as_bytes());
    }

    fn group(&mut self, group: &GroupSelection) {
        let ensemble = &group.ensemble;
        self.count(ensemble.names.len());
        ensemble.names.iter().for_each(|name| self.text(name));
        ensemble.mean_positions.iter().for_each(|&p| self.float(p));
        ensemble.order.iter().for_each(|&c| self.count(c));
        self.count(ensemble.outcomes.len());
        for outcome in &ensemble.outcomes {
            self.text(&outcome.ranker);
            self.float(outcome.mean_distance);
            self.count(usize::from(outcome.kept));
        }
        self.count(group.selected.len());
        group.selected.iter().for_each(|&c| self.count(c));
        group.selected_names.iter().for_each(|name| self.text(name));
        self.count(group.scan.chosen);
        self.count(group.scan.trace.len());
        for point in &group.scan.trace {
            self.count(point.count);
            self.float(point.complexity);
            self.float(point.xi);
            self.float(point.e);
        }
    }
}

fn digest(selection: &WefrSelection) -> u64 {
    let mut d = Digest(0xcbf2_9ce4_8422_2325);
    d.group(&selection.global);
    match &selection.wearout {
        Some(w) => {
            d.count(1);
            d.count(w.change_point.mwi_threshold as usize);
            d.float(w.change_point.probability);
            d.float(w.change_point.z_score);
            d.group(&w.low);
            d.group(&w.high);
        }
        None => d.count(0),
    }
    d.0
}

fn select(
    data: &FeatureMatrix,
    labels: &[bool],
    mwi: &[f64],
    survival: &[(f64, bool)],
) -> WefrSelection {
    let wefr = Wefr::new(WefrConfig { seed: 29 });
    wefr.select(&SelectionInput {
        data,
        labels,
        mwi_per_sample: Some(mwi),
        survival: Some(survival),
    })
    .unwrap()
}

#[test]
fn a_firing_split_matches_its_pinned_bits() {
    let (data, labels, mwi, survival) = population(2_400);
    let selection = select(&data, &labels, &mwi, &survival);
    assert!(selection.wearout.is_some(), "the split must fire");
    assert_eq!(digest(&selection), 0xd5af_4098_7989_a1cc);
}

#[test]
fn a_fallback_matches_its_pinned_bits() {
    // The same survival pairs, so the same change point, over the first
    // 400 samples: the high-wear group then holds too few failures and
    // WEFR falls back to the global selection.
    let (data, labels, mwi, survival) = population(2_400);
    let rows: Vec<usize> = (0..400).collect();
    let data = data.select_rows(&rows).unwrap();
    let selection = select(&data, &labels[..400], &mwi[..400], &survival);
    assert!(selection.wearout.is_none(), "the split must fall back");
    assert_eq!(digest(&selection), 0x3bc6_74b6_f554_07d7);
}
