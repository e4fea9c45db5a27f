//! Histogram-binned feature matrix and O(n) split search.
//!
//! The exact engine re-sorts a freshly allocated `(value, target)` pair vec
//! for every candidate feature at every node — O(nodes × features ×
//! n log n) with per-node allocation. Binning quantizes each feature
//! **once per dataset** into at most [`DEFAULT_MAX_BINS`] ordered bins
//! (`u8` codes), after which a node's split search is one O(n) pass
//! accumulating per-bin target sums/counts plus an O(bins) boundary scan —
//! the LightGBM-style trick. The one [`BinnedMatrix`] is shared, read-only,
//! across all trees of a forest or booster.
//!
//! Two binning paths per feature:
//!
//! * **Exact** (≤ `max_bins` distinct values): every distinct value gets its
//!   own bin, so histogram split search returns *identical* gains,
//!   thresholds, and partitions to the exact engine.
//! * **Quantile** (more distinct values than bins): bin edges are placed at
//!   equally spaced ranks of the sorted column. Thresholds are the largest
//!   *observed* value of each bin, so `value <= threshold` routing matches
//!   the exact engine's left-boundary semantics on every training row.
//!
//! Bins are per-dataset, so training stays deterministic and independent of
//! worker count: every tree reads the same codes and the same thresholds.
//!
//! **Missing values** (NaN cells, from missing-attribute fleets — DESIGN.md
//! §11): each feature with missing cells gets one *reserved NaN bin* with
//! code `uppers.len()`, past every finite bin. For such a feature the
//! boundary scan evaluates every finite boundary twice — missing rows
//! routed left, missing rows routed right — and keeps whichever side gains
//! more ("missing goes to the gain-better side"), ties resolving to left.
//! A feature without a missing bin has one candidate per boundary.
//!
//! **Repeated rows** (a bootstrap draws some rows several times): the
//! histograms take each distinct row once, weighted by its multiplicity —
//! sums add `w·t`, counts add `w` — so a row drawn `w` times counts
//! exactly as its `w` copies would (DESIGN.md §8).

use crate::error::TreesError;
use crate::split::Split;
use smart_stats::FeatureMatrix;

/// Default (and maximum) number of bins per feature. 255 keeps codes in a
/// `u8` and matches the LightGBM default.
pub const DEFAULT_MAX_BINS: usize = 255;

/// A feature matrix quantized to per-feature `u8` bin codes, built once per
/// dataset and shared by every tree trained under
/// [`SplitStrategy::Histogram`](crate::SplitStrategy::Histogram).
#[derive(Debug, Clone, PartialEq)]
pub struct BinnedMatrix {
    names: Vec<String>,
    /// `codes[feature][row]` — bin id of the row's value, `0..n_bins`.
    codes: Vec<Vec<u8>>,
    /// `uppers[feature][bin]` — the largest observed value in the bin
    /// (strictly increasing per feature). Doubles as the split threshold
    /// for the boundary after the bin.
    uppers: Vec<Vec<f64>>,
    /// Per-feature flag: true when every distinct value got its own bin
    /// (histogram splits are then exactly the exact engine's splits).
    exact: Vec<bool>,
    /// Per-feature flag: true when the column holds NaN cells, which all
    /// carry the reserved bin code `uppers[feature].len()`.
    missing: Vec<bool>,
    n_rows: usize,
}

impl BinnedMatrix {
    /// Bin every column of `data` into at most [`DEFAULT_MAX_BINS`] bins.
    ///
    /// NaN cells (missing measurements) are accepted and assigned the
    /// feature's reserved NaN bin.
    ///
    /// # Errors
    ///
    /// Returns [`TreesError::NonFinite`] if a column contains an infinite
    /// value (defense in depth — [`FeatureMatrix`] construction already
    /// rejects them).
    pub fn from_matrix(data: &FeatureMatrix) -> Result<Self, TreesError> {
        BinnedMatrix::with_max_bins(data, DEFAULT_MAX_BINS)
    }

    /// Bin every column of `data` into at most `max_bins` bins
    /// (clamped to `2..=255` so codes fit a `u8`).
    ///
    /// # Errors
    ///
    /// Returns [`TreesError::NonFinite`] for infinite cells (NaN marks a
    /// missing measurement and gets the reserved NaN bin instead).
    pub fn with_max_bins(data: &FeatureMatrix, max_bins: usize) -> Result<Self, TreesError> {
        let max_bins = max_bins.clamp(2, DEFAULT_MAX_BINS);
        let span = telemetry::span!(
            "trees/bin",
            rows = data.n_rows(),
            features = data.n_features(),
            max_bins = max_bins,
        );
        let mut codes = Vec::with_capacity(data.n_features());
        let mut uppers = Vec::with_capacity(data.n_features());
        let mut exact = Vec::with_capacity(data.n_features());
        let mut missing = Vec::with_capacity(data.n_features());
        for feature in 0..data.n_features() {
            let col = bin_column(data.column(feature), max_bins)
                .map_err(|_| TreesError::NonFinite { feature })?;
            codes.push(col.codes);
            uppers.push(col.uppers);
            exact.push(col.exact);
            missing.push(col.missing);
        }
        let n_exact = exact.iter().filter(|&&e| e).count();
        span.record("exact_features", n_exact);
        span.record("quantized_features", exact.len() - n_exact);
        telemetry::counter_add("trees.bin.matrices", 1);
        telemetry::counter_add("trees.bin.features_exact", n_exact as u64);
        telemetry::counter_add(
            "trees.bin.features_quantized",
            (exact.len() - n_exact) as u64,
        );
        Ok(BinnedMatrix {
            names: data.feature_names().to_vec(),
            codes,
            uppers,
            exact,
            missing,
            n_rows: data.n_rows(),
        })
    }

    /// Number of samples (rows).
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of learning features (columns).
    pub fn n_features(&self) -> usize {
        self.codes.len()
    }

    /// Feature names, in column order.
    pub fn feature_names(&self) -> &[String] {
        &self.names
    }

    /// Bin codes of feature `feature` across all rows.
    ///
    /// # Panics
    ///
    /// Panics if `feature` is out of bounds.
    pub fn codes(&self, feature: usize) -> &[u8] {
        &self.codes[feature]
    }

    /// Per-bin upper values (split thresholds) of feature `feature`.
    ///
    /// # Panics
    ///
    /// Panics if `feature` is out of bounds.
    pub fn bin_uppers(&self, feature: usize) -> &[f64] {
        &self.uppers[feature]
    }

    /// Number of histogram bins of feature `feature`, including the
    /// reserved NaN bin when the feature has missing cells.
    ///
    /// # Panics
    ///
    /// Panics if `feature` is out of bounds.
    pub fn n_bins(&self, feature: usize) -> usize {
        self.uppers[feature].len() + usize::from(self.missing[feature])
    }

    /// Whether feature `feature` was binned losslessly (one bin per
    /// distinct value, no missing cells).
    ///
    /// # Panics
    ///
    /// Panics if `feature` is out of bounds.
    pub fn is_exact(&self, feature: usize) -> bool {
        self.exact[feature]
    }

    /// Whether feature `feature` has missing (NaN) cells and therefore a
    /// reserved NaN bin.
    ///
    /// # Panics
    ///
    /// Panics if `feature` is out of bounds.
    pub fn has_missing(&self, feature: usize) -> bool {
        self.missing[feature]
    }

    /// The reserved NaN bin code of feature `feature`: one past the last
    /// finite bin. Only carried by rows when
    /// [`has_missing`](Self::has_missing) is true.
    ///
    /// # Panics
    ///
    /// Panics if `feature` is out of bounds.
    pub fn nan_code(&self, feature: usize) -> u8 {
        // uppers.len() <= DEFAULT_MAX_BINS = 255.
        self.uppers[feature].len() as u8
    }

    /// The quantized matrix: every value replaced by its bin's upper value.
    ///
    /// Routing any quantized row through a histogram-trained tree is
    /// identical to routing the original row (thresholds are bin uppers),
    /// and permuting a quantized column is exactly a permutation of bin
    /// ids — the form the binned permutation importance uses.
    pub fn quantized_matrix(&self) -> FeatureMatrix {
        let columns: Vec<Vec<f64>> = (0..self.n_features())
            .map(|f| (0..self.n_rows).map(|r| self.quantized(r, f)).collect())
            .collect();
        FeatureMatrix::from_columns_with_missing(self.names.clone(), columns)
            // lint:allow(panic-free) bin uppers are copies of values the
            // FeatureMatrix constructor already validated as non-infinite
            .expect("binned values are never infinite by construction")
    }

    /// The quantized value of cell (`row`, `feature`): its bin's upper
    /// value, or NaN for the reserved NaN bin, so missing cells stay
    /// missing after quantization.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `feature` is out of bounds.
    pub(crate) fn quantized(&self, row: usize, feature: usize) -> f64 {
        let code = usize::from(self.codes[feature][row]);
        self.uppers[feature].get(code).copied().unwrap_or(f64::NAN)
    }

    /// Histogram best split of one feature over `rows` — the O(n) + O(bins)
    /// counterpart of [`best_split`](crate::split::best_split). A row listed
    /// `w` times counts `w` times.
    ///
    /// Equivalent to running the exact search on the quantized column: on a
    /// losslessly binned feature ([`is_exact`](Self::is_exact)) the result
    /// is identical to the exact engine's; on a quantile-binned feature the
    /// candidate boundaries are a subset of the exact engine's, so the
    /// returned gain never exceeds the exact gain.
    ///
    /// # Panics
    ///
    /// Panics if `feature` or any row index is out of bounds.
    pub fn best_split(
        &self,
        feature: usize,
        rows: &[usize],
        targets: &[f64],
        min_samples_leaf: usize,
    ) -> Option<Split> {
        let (distinct, weights) = fold_rows(rows, self.n_rows);
        let mut scratch = HistScratch::new();
        let hist = scratch.accumulate(self, feature, &distinct, targets, &weights);
        scan_boundaries(
            hist.sum,
            hist.cnt,
            &self.uppers[feature],
            rows.len(),
            min_samples_leaf,
        )
        .map(|(split, _)| split)
    }
}

/// One column's quantization: codes, finite-bin uppers, and flags.
pub(crate) struct BinnedColumn {
    pub codes: Vec<u8>,
    pub uppers: Vec<f64>,
    pub exact: bool,
    pub missing: bool,
}

/// Quantize one column.
///
/// Split out of [`BinnedMatrix::with_max_bins`] so the NaN/infinity policy
/// is unit-testable: a `FeatureMatrix` built with
/// [`FeatureMatrix::from_columns_with_missing`] *can* hold NaN cells
/// (missing measurements), which land in the reserved bin `uppers.len()`;
/// infinities are still rejected here as defense in depth.
pub(crate) fn bin_column(values: &[f64], max_bins: usize) -> Result<BinnedColumn, TreesError> {
    if values.iter().any(|v| v.is_infinite()) {
        return Err(TreesError::NonFinite { feature: 0 });
    }
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
    let missing = sorted.len() < values.len();
    sorted.sort_by(f64::total_cmp);

    let mut distinct = sorted.clone();
    distinct.dedup();
    let n_distinct = distinct.len();

    let n = sorted.len();
    let uppers: Vec<f64> = if n_distinct <= max_bins {
        distinct
    } else {
        // Quantile edges: the value at rank ceil(i·n/max_bins) − 1 for
        // i = 1..=max_bins, deduplicated. Equal values always share a bin.
        let mut edges: Vec<f64> = (1..=max_bins)
            .map(|i| sorted[i * n / max_bins - 1])
            .collect();
        edges.dedup();
        // The last edge is sorted[n-1], the column maximum, so every value
        // lands in a bin.
        edges
    };

    // A feature with missing cells is never "exact": the exact engine has
    // no ordering for NaN, so histogram splits have no exact counterpart.
    let exact = uppers.len() == n_distinct && !missing;
    // uppers.len() <= max_bins <= 255, so the reserved
    // NaN code uppers.len() fits a u8 too.
    let nan_code = uppers.len() as u8;
    let codes: Vec<u8> = values
        .iter()
        .map(|&v| {
            if v.is_nan() {
                nan_code
            } else {
                uppers.partition_point(|&u| u < v) as u8
            }
        })
        .collect();
    Ok(BinnedColumn {
        codes,
        uppers,
        exact,
        missing,
    })
}

/// Reusable per-feature histogram scratch (sums and counts per bin), sized
/// for the maximum bin count so one allocation serves a whole tree.
#[derive(Debug)]
pub(crate) struct HistScratch {
    sum: Vec<f64>,
    cnt: Vec<u32>,
}

/// One feature's histogram over a node's rows, borrowed from the scratch.
pub(crate) struct Histogram<'a> {
    pub sum: &'a [f64],
    pub cnt: &'a [u32],
}

impl HistScratch {
    pub(crate) fn new() -> Self {
        // One extra slot for the reserved NaN bin of missing-value features.
        HistScratch {
            sum: vec![0.0; DEFAULT_MAX_BINS + 1],
            cnt: vec![0; DEFAULT_MAX_BINS + 1],
        }
    }

    /// Accumulate per-bin weighted target sums and counts of `feature`
    /// over `rows` (see [`accumulate_into`]).
    ///
    /// The scratch is zeroed up to the feature's bin count on entry, so it
    /// can be reused across features and nodes without re-allocation.
    pub(crate) fn accumulate<'a>(
        &'a mut self,
        binned: &BinnedMatrix,
        feature: usize,
        rows: &[usize],
        targets: &[f64],
        weights: &[u32],
    ) -> Histogram<'a> {
        let n_bins = binned.n_bins(feature);
        let (sum, cnt) = (&mut self.sum[..n_bins], &mut self.cnt[..n_bins]);
        sum.fill(0.0);
        cnt.fill(0);
        accumulate_into(sum, cnt, binned.codes(feature), rows, targets, weights);
        Histogram { sum, cnt }
    }
}

/// Add each row of `rows` to its bin (`codes[row]`): `weights[row] ·
/// targets[row]` to the sum, `weights[row]` to the count. A weight of 1
/// adds the target itself (`1.0 · t == t`), in row order.
pub(crate) fn accumulate_into(
    sum: &mut [f64],
    cnt: &mut [u32],
    codes: &[u8],
    rows: &[usize],
    targets: &[f64],
    weights: &[u32],
) {
    for &r in rows {
        let (b, w) = (usize::from(codes[r]), weights[r]);
        sum[b] += f64::from(w) * targets[r];
        cnt[b] += w;
    }
}

/// Fold repeated entries of `rows` (row ids below `n_rows`) into one each:
/// the distinct rows in first-occurrence order, and every row id's
/// multiplicity (`weights[row]`, 0 for rows not listed).
///
/// # Panics
///
/// Panics if a row id is `n_rows` or more.
pub(crate) fn fold_rows(rows: &[usize], n_rows: usize) -> (Vec<usize>, Vec<u32>) {
    let mut weights = vec![0u32; n_rows];
    let mut distinct = Vec::with_capacity(rows.len());
    for &r in rows {
        if weights[r] == 0 {
            distinct.push(r);
        }
        weights[r] += 1;
    }
    (distinct, weights)
}

/// Scan the bin boundaries of one histogram for the best variance-reduction
/// split. Returns the split and the boundary bin index (rows with
/// `code <= bin` go left, missing rows go to the split's `nan_left` side).
/// `n` and `cnt` are weighted counts: a row drawn `w` times counts `w`.
///
/// When `sum`/`cnt` carry one slot past `uppers.len()`, that slot is the
/// feature's reserved NaN bin: every finite boundary is then evaluated with
/// the missing rows on the left *and* on the right, and the better-gaining
/// variant wins (ties go left). Without a NaN bin the two variants are one
/// candidate (`nan_left` set), scored once, and the scan mirrors the
/// exact engine's exactly: boundaries in ascending value order, only after
/// non-empty bins (the histogram analogue of "can't split between equal
/// values"), under the same `min_samples_leaf` and strictly-greater gain
/// rules — so ties resolve to the same boundary the exact engine picks.
pub(crate) fn scan_boundaries(
    sum: &[f64],
    cnt: &[u32],
    uppers: &[f64],
    n: usize,
    min_samples_leaf: usize,
) -> Option<(Split, usize)> {
    if n < 2 * min_samples_leaf || sum.len() < 2 {
        return None;
    }
    let missing_bin = sum.len() > uppers.len();
    let (nan_sum, nan_cnt) = if missing_bin {
        (sum[uppers.len()], cnt[uppers.len()] as usize)
    } else {
        (0.0, 0)
    };
    let total_sum: f64 = sum.iter().sum();
    let base = total_sum * total_sum / n as f64;

    // With missing rows the boundary after the last finite bin is a real
    // candidate too (all finite left, NaN right); without them it would
    // leave the right side empty, so it is excluded as before.
    let last_boundary = if nan_cnt > 0 {
        uppers.len()
    } else {
        uppers.len().saturating_sub(1)
    };
    let mut best: Option<(Split, usize)> = None;
    let mut consider = |b: usize, nl: usize, sl: f64, nan_left: bool| {
        if nl < min_samples_leaf || n - nl < min_samples_leaf {
            return;
        }
        let sr = total_sum - sl;
        let gain = sl * sl / nl as f64 + sr * sr / (n - nl) as f64 - base;
        if gain > best.as_ref().map_or(1e-12, |(s, _)| s.gain) {
            let threshold = uppers[b];
            let split = Split {
                threshold,
                gain,
                n_left: nl,
                nan_left,
            };
            best = Some((split, b));
        }
    };
    let mut left_sum = 0.0;
    let mut left_cnt = 0usize;
    for b in 0..last_boundary {
        left_sum += sum[b];
        left_cnt += cnt[b] as usize;
        if cnt[b] == 0 {
            continue;
        }
        if missing_bin {
            // Missing-left first: on equal gains the strictly-greater rule
            // keeps the first variant, so ties route missing rows left. The
            // test is the bin, not `nan_cnt > 0`: a bin derived by sibling
            // subtraction can hold a rounding residue with no rows in it,
            // and then the two variants differ.
            consider(b, left_cnt + nan_cnt, left_sum + nan_sum, true);
            consider(b, left_cnt, left_sum, false);
        } else {
            // Without a missing bin both variants are this candidate, and
            // the missing-left one always won the tie.
            consider(b, left_cnt, left_sum, true);
        }
        if left_cnt == n - nan_cnt {
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(columns: Vec<Vec<f64>>) -> FeatureMatrix {
        let names = (0..columns.len()).map(|i| format!("f{i}")).collect();
        FeatureMatrix::from_columns(names, columns).unwrap()
    }

    #[test]
    fn low_cardinality_column_bins_exactly() {
        let m = matrix(vec![vec![5.0, 1.0, 3.0, 1.0, 5.0]]);
        let b = BinnedMatrix::from_matrix(&m).unwrap();
        assert!(b.is_exact(0));
        assert_eq!(b.n_bins(0), 3);
        assert_eq!(b.bin_uppers(0), &[1.0, 3.0, 5.0]);
        assert_eq!(b.codes(0), &[2, 0, 1, 0, 2]);
    }

    #[test]
    fn high_cardinality_column_is_quantized() {
        let values: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let m = matrix(vec![values.clone()]);
        let b = BinnedMatrix::from_matrix(&m).unwrap();
        assert!(!b.is_exact(0));
        assert_eq!(b.n_bins(0), DEFAULT_MAX_BINS);
        // Uppers are strictly increasing observed values ending at the max.
        let uppers = b.bin_uppers(0);
        assert!(uppers.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*uppers.last().unwrap(), 999.0);
        // Codes are consistent with the threshold semantics: value <=
        // uppers[code], and value > uppers[code - 1].
        for (i, &v) in values.iter().enumerate() {
            let c = b.codes(0)[i] as usize;
            assert!(v <= uppers[c]);
            if c > 0 {
                assert!(v > uppers[c - 1]);
            }
        }
    }

    #[test]
    fn equal_values_share_a_bin_after_quantization() {
        // 400 distinct values (forcing the quantile path), each repeated
        // twice, with a heavy tie group at zero.
        let mut values = vec![0.0; 100];
        for i in 0..400 {
            values.push(i as f64);
            values.push(i as f64);
        }
        let m = matrix(vec![values.clone()]);
        let b = BinnedMatrix::from_matrix(&m).unwrap();
        assert!(!b.is_exact(0));
        let codes = b.codes(0);
        for i in 0..values.len() {
            for j in 0..values.len() {
                if values[i] == values[j] {
                    assert_eq!(codes[i], codes[j]);
                }
            }
        }
    }

    #[test]
    fn bin_column_reserves_nan_bin_and_rejects_infinite() {
        // NaN marks a missing measurement: accepted, coded one past the
        // last finite bin, and the column loses its "exact" status.
        let col = bin_column(&[1.0, f64::NAN, 2.0], 255).unwrap();
        assert!(col.missing);
        assert!(!col.exact);
        assert_eq!(col.uppers, vec![1.0, 2.0]);
        assert_eq!(col.codes, vec![0, 2, 1]);
        // Infinities are still arithmetic accidents, never telemetry.
        assert!(matches!(
            bin_column(&[1.0, f64::INFINITY], 255),
            Err(TreesError::NonFinite { .. })
        ));
        assert!(matches!(
            bin_column(&[1.0, f64::NEG_INFINITY], 255),
            Err(TreesError::NonFinite { .. })
        ));
    }

    fn matrix_with_missing(columns: Vec<Vec<f64>>) -> FeatureMatrix {
        let names = (0..columns.len()).map(|i| format!("f{i}")).collect();
        FeatureMatrix::from_columns_with_missing(names, columns).unwrap()
    }

    #[test]
    fn missing_cells_do_not_disturb_finite_binning() {
        // The finite bins and codes must be exactly those of the same
        // column with its NaN rows deleted.
        let m = matrix_with_missing(vec![vec![5.0, f64::NAN, 1.0, 3.0, f64::NAN, 5.0]]);
        let b = BinnedMatrix::from_matrix(&m).unwrap();
        assert!(b.has_missing(0));
        assert!(!b.is_exact(0));
        assert_eq!(b.bin_uppers(0), &[1.0, 3.0, 5.0]);
        assert_eq!(b.nan_code(0), 3);
        assert_eq!(b.n_bins(0), 4);
        assert_eq!(b.codes(0), &[2, 3, 0, 1, 3, 2]);
    }

    #[test]
    fn missing_routes_to_the_gain_better_side() {
        // Finite values separate targets at 2.0; the NaN rows all carry
        // target 1.0, so grouping them with the high (right) side gains
        // more than the left side. The scan must pick nan_left = false.
        let m = matrix_with_missing(vec![vec![1.0, 2.0, 10.0, 11.0, f64::NAN, f64::NAN]]);
        let targets = [0.0, 0.0, 1.0, 1.0, 1.0, 1.0];
        let b = BinnedMatrix::from_matrix(&m).unwrap();
        let s = b.best_split(0, &[0, 1, 2, 3, 4, 5], &targets, 1).unwrap();
        assert_eq!(s.threshold, 2.0);
        assert!(!s.nan_left);
        assert_eq!(s.n_left, 2);
        assert!((s.gain - 1.333_333_333_333_333_4).abs() < 1e-9);

        // Mirror image: NaN rows carry target 0.0 — now missing-left wins.
        let targets = [0.0, 0.0, 1.0, 1.0, 0.0, 0.0];
        let s = b.best_split(0, &[0, 1, 2, 3, 4, 5], &targets, 1).unwrap();
        assert_eq!(s.threshold, 2.0);
        assert!(s.nan_left);
        assert_eq!(s.n_left, 4);
    }

    #[test]
    fn all_finite_left_nan_right_boundary_is_considered() {
        // The only signal is missingness itself: finite rows are target 0,
        // missing rows target 1. The winning split must put every finite
        // row left of the last finite upper and the NaN rows right.
        let m = matrix_with_missing(vec![vec![1.0, 2.0, 3.0, f64::NAN, f64::NAN]]);
        let targets = [0.0, 0.0, 0.0, 1.0, 1.0];
        let b = BinnedMatrix::from_matrix(&m).unwrap();
        let s = b.best_split(0, &[0, 1, 2, 3, 4], &targets, 1).unwrap();
        assert_eq!(s.threshold, 3.0);
        assert!(!s.nan_left);
        assert_eq!(s.n_left, 3);
        // Perfect separation of [0,0,0,1,1]: total SSE 1.2 fully removed.
        assert!((s.gain - 1.2).abs() < 1e-12);
    }

    #[test]
    fn missing_tie_routes_left() {
        // NaN rows split their targets evenly, so both routings gain the
        // same; the deterministic tie rule keeps them left.
        let m = matrix_with_missing(vec![vec![1.0, 2.0, 10.0, 11.0, f64::NAN, f64::NAN]]);
        let targets = [0.0, 0.0, 1.0, 1.0, 0.5, 0.5];
        let b = BinnedMatrix::from_matrix(&m).unwrap();
        let s = b.best_split(0, &[0, 1, 2, 3, 4, 5], &targets, 1).unwrap();
        assert!(s.nan_left);
    }

    #[test]
    fn residue_in_an_empty_missing_bin_still_scores_both_routings() {
        // Sibling subtraction can leave a rounding residue in a missing bin
        // that holds no rows. Both routings are still scored there, and
        // this residue makes routing it right gain more.
        let residue = 2f64.powi(-40);
        let sum = [0.0, 3.0, residue];
        let (split, bin) = scan_boundaries(&sum, &[3, 3, 0], &[1.0, 2.0], 6, 1).unwrap();
        assert_eq!(bin, 0);
        assert!(!split.nan_left);
        // Without a missing bin the one candidate routes missing rows left.
        let (split, _) = scan_boundaries(&[0.0, 3.0], &[3, 3], &[1.0, 2.0], 6, 1).unwrap();
        assert!(split.nan_left);
    }

    #[test]
    fn quantized_matrix_round_trips_missing_cells() {
        let m = matrix_with_missing(vec![vec![5.0, f64::NAN, 3.0]]);
        let q = BinnedMatrix::from_matrix(&m).unwrap().quantized_matrix();
        assert_eq!(q.value(0, 0), 5.0);
        assert!(q.value(1, 0).is_nan());
        assert_eq!(q.value(2, 0), 3.0);
    }

    #[test]
    fn all_missing_column_is_unsplittable() {
        let m = matrix_with_missing(vec![vec![f64::NAN, f64::NAN, f64::NAN]]);
        let b = BinnedMatrix::from_matrix(&m).unwrap();
        assert_eq!(b.n_bins(0), 1);
        assert!(b.best_split(0, &[0, 1, 2], &[0.0, 1.0, 0.0], 1).is_none());
    }

    #[test]
    fn quantized_matrix_preserves_exact_columns() {
        let m = matrix(vec![vec![5.0, 1.0, 3.0], vec![0.5, 0.25, 0.75]]);
        let b = BinnedMatrix::from_matrix(&m).unwrap();
        assert_eq!(b.quantized_matrix(), m);
    }

    #[test]
    fn histogram_split_matches_exact_on_low_cardinality() {
        let m = matrix(vec![vec![1.0, 2.0, 10.0, 11.0]]);
        let targets = [0.0, 0.0, 1.0, 1.0];
        let b = BinnedMatrix::from_matrix(&m).unwrap();
        let s = b.best_split(0, &[0, 1, 2, 3], &targets, 1).unwrap();
        assert_eq!(s.threshold, 2.0);
        assert_eq!(s.n_left, 2);
        assert!((s.gain - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_split_respects_subset_rows() {
        let m = matrix(vec![vec![1.0, 2.0, 10.0, 11.0]]);
        let targets = [0.0, 1.0, 1.0, 0.0];
        let b = BinnedMatrix::from_matrix(&m).unwrap();
        // Only rows {0, 2}: a clean 0-vs-1 split at threshold 1.
        let s = b.best_split(0, &[0, 2], &targets, 1).unwrap();
        assert_eq!(s.threshold, 1.0);
        assert_eq!(s.n_left, 1);
    }

    #[test]
    fn constant_feature_has_no_split() {
        let m = matrix(vec![vec![7.0, 7.0, 7.0]]);
        let b = BinnedMatrix::from_matrix(&m).unwrap();
        assert!(b.best_split(0, &[0, 1, 2], &[0.0, 1.0, 0.0], 1).is_none());
    }

    #[test]
    fn min_samples_leaf_respected() {
        let m = matrix(vec![vec![1.0, 2.0, 3.0, 4.0]]);
        let targets = [0.0, 1.0, 1.0, 1.0];
        let b = BinnedMatrix::from_matrix(&m).unwrap();
        if let Some(s) = b.best_split(0, &[0, 1, 2, 3], &targets, 2) {
            assert!(s.n_left >= 2 && 4 - s.n_left >= 2);
        }
        assert!(b.best_split(0, &[0, 1], &targets, 2).is_none());
    }
}
