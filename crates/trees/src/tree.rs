//! CART regression tree with per-node feature subsampling.
//!
//! One tree type serves all three learners in this crate: trained on 0/1
//! targets its leaf means are class probabilities (classification /
//! Random Forest); trained on gradients it is a boosting stage whose leaf
//! values the booster re-labels with Newton steps.

use crate::binned::{accumulate_into, fold_rows, scan_boundaries, BinnedMatrix, HistScratch};
use crate::config::TreeConfig;
use crate::error::TreesError;
use crate::split::{best_split, Split};
use rng::Rng;
use smart_stats::sampling::sample_without_replacement;
use smart_stats::FeatureMatrix;

/// A node of the tree.
#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf {
        value: f64,
        n_samples: usize,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
        /// Where rows with a missing (NaN) feature value are routed — the
        /// gain-better side chosen by the histogram boundary scan.
        nan_left: bool,
    },
}

/// A trained CART regression tree.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionTree {
    nodes: Vec<Node>,
    n_features: usize,
    gain_by_feature: Vec<f64>,
    splits_by_feature: Vec<u32>,
}

impl RegressionTree {
    /// Fit a tree on the rows `rows` of `data` against `targets` (indexed by
    /// row id, so `targets.len() == data.n_rows()`). A row may be listed
    /// more than once (a bootstrap draw); each copy counts.
    ///
    /// # Errors
    ///
    /// Returns [`TreesError::EmptyTraining`] when `rows` is empty,
    /// [`TreesError::LengthMismatch`] when targets don't cover the matrix,
    /// and [`TreesError::InvalidParameter`] from config validation or for
    /// a row index at or past the matrix height.
    pub fn fit<R: Rng + ?Sized>(
        data: &FeatureMatrix,
        targets: &[f64],
        rows: &[usize],
        config: &TreeConfig,
        rng: &mut R,
    ) -> Result<Self, TreesError> {
        check_fit(config, targets, rows, data.n_rows())?;
        let mut tree = RegressionTree {
            nodes: Vec::new(),
            n_features: data.n_features(),
            gain_by_feature: vec![0.0; data.n_features()],
            splits_by_feature: vec![0; data.n_features()],
        };
        let mut rows = rows.to_vec();
        tree.build(data, targets, &mut rows, 0, config, rng)?;
        Ok(tree)
    }

    /// Fit a tree on the rows `rows` of the binned matrix `binned` against
    /// `targets` — the histogram engine ([`SplitStrategy::Histogram`]).
    ///
    /// Split thresholds are bin-upper values, so the trained tree predicts
    /// on ordinary [`FeatureMatrix`] inputs exactly like an exact-trained
    /// tree. A row listed `w` times is visited once and weighs `w` in every
    /// sum, count and size rule, so the tree equals the one grown from the
    /// `w` copies. When the candidate set covers every feature
    /// ([`MaxFeatures::All`](crate::MaxFeatures::All), as gradient boosting
    /// uses), child histograms are derived from the parent's by the
    /// subtraction trick: only the smaller child is re-accumulated, the
    /// sibling is `parent − smaller`.
    ///
    /// [`SplitStrategy::Histogram`]: crate::SplitStrategy::Histogram
    ///
    /// # Errors
    ///
    /// Same conditions as [`RegressionTree::fit`].
    pub fn fit_binned<R: Rng + ?Sized>(
        binned: &BinnedMatrix,
        targets: &[f64],
        rows: &[usize],
        config: &TreeConfig,
        rng: &mut R,
    ) -> Result<Self, TreesError> {
        RegressionTree::fit_binned_with_leaves(binned, targets, rows, config, rng, None)
    }

    /// [`Self::fit_binned`] that, given `leaves` (indexed by row id,
    /// `binned.n_rows()` long), also files every fitted row under its leaf:
    /// `leaves[row]` becomes the leaf index [`Self::apply`] would return
    /// for each row of `rows`; the other entries are left as they were.
    pub(crate) fn fit_binned_with_leaves<R: Rng + ?Sized>(
        binned: &BinnedMatrix,
        targets: &[f64],
        rows: &[usize],
        config: &TreeConfig,
        rng: &mut R,
        leaves: Option<&mut [usize]>,
    ) -> Result<Self, TreesError> {
        check_fit(config, targets, rows, binned.n_rows())?;
        let mut tree = RegressionTree {
            nodes: Vec::new(),
            n_features: binned.n_features(),
            gain_by_feature: vec![0.0; binned.n_features()],
            splits_by_feature: vec![0; binned.n_features()],
        };
        let (mut rows, weights) = fold_rows(rows, binned.n_rows());
        let mut hist_offsets = Vec::with_capacity(binned.n_features() + 1);
        hist_offsets.push(0);
        for f in 0..binned.n_features() {
            hist_offsets.push(hist_offsets[f] + binned.n_bins(f));
        }
        let mut ctx = BinnedCtx {
            binned,
            targets,
            weights: &weights,
            config,
            hist_offsets,
            scratch: HistScratch::new(),
            part_buf: Vec::with_capacity(rows.len()),
            hists_built: 0,
            leaves,
        };
        tree.build_binned(&mut ctx, &mut rows, 0, None, rng)?;
        telemetry::counter_add("trees.histograms_built", ctx.hists_built);
        Ok(tree)
    }

    /// Recursively build the subtree for `rows`; returns the node index.
    fn build<R: Rng + ?Sized>(
        &mut self,
        data: &FeatureMatrix,
        targets: &[f64],
        rows: &mut [usize],
        depth: usize,
        config: &TreeConfig,
        rng: &mut R,
    ) -> Result<usize, TreesError> {
        let n = rows.len();
        let mean = rows.iter().map(|&r| targets[r]).sum::<f64>() / n as f64;
        let constant = rows.iter().all(|&r| (targets[r] - mean).abs() < 1e-12);

        if depth >= config.max_depth || n < config.min_samples_split || constant {
            return Ok(self.push_leaf(mean, n));
        }

        // Per-node feature subsampling (the Random Forest ingredient).
        let k = config.max_features.resolve(data.n_features());
        let candidates = sample_without_replacement(rng, data.n_features(), k)?;

        let mut best: Option<(usize, crate::split::Split)> = None;
        let mut pairs: Vec<(f64, f64)> = Vec::with_capacity(n);
        for &feature in &candidates {
            let col = data.column(feature);
            pairs.clear();
            pairs.extend(rows.iter().map(|&r| (col[r], targets[r])));
            if let Some(split) = best_split(&mut pairs, config.min_samples_leaf) {
                if best.as_ref().is_none_or(|(_, b)| split.gain > b.gain) {
                    best = Some((feature, split));
                }
            }
        }

        let Some((feature, split)) = best else {
            return Ok(self.push_leaf(mean, n));
        };

        self.gain_by_feature[feature] += split.gain;
        self.splits_by_feature[feature] += 1;

        // Partition rows in place around the threshold.
        let col = data.column(feature);
        rows.sort_by(|&a, &b| col[a].total_cmp(&col[b]));
        let n_left = rows
            .iter()
            .take_while(|&&r| col[r] <= split.threshold)
            .count();
        debug_assert_eq!(n_left, split.n_left);

        // Reserve this node's slot before recursing so children line up.
        let node_idx = self.nodes.len();
        self.nodes.push(Node::Leaf {
            value: mean,
            n_samples: n,
        });
        let (left_rows, right_rows) = rows.split_at_mut(n_left);
        let left = self.build(data, targets, left_rows, depth + 1, config, rng)?;
        let right = self.build(data, targets, right_rows, depth + 1, config, rng)?;
        self.nodes[node_idx] = Node::Split {
            feature,
            threshold: split.threshold,
            left,
            right,
            nan_left: split.nan_left,
        };
        Ok(node_idx)
    }

    /// Recursively build the subtree for `rows` (distinct row ids, each
    /// weighing `ctx.weights[row]`) from per-bin histograms; returns the
    /// node index.
    ///
    /// Mirrors [`Self::build`] decision for decision (leaf conditions,
    /// candidate sampling, tie-breaking), so on data where every feature
    /// bins exactly and target sums carry no rounding (e.g. 0/1 labels) the
    /// two engines grow bit-identical trees from the same RNG.
    fn build_binned<R: Rng + ?Sized>(
        &mut self,
        ctx: &mut BinnedCtx<'_>,
        rows: &mut [usize],
        depth: usize,
        inherited: Option<NodeHists>,
        rng: &mut R,
    ) -> Result<usize, TreesError> {
        let (targets, weights) = (ctx.targets, ctx.weights);
        // Node size and sums count a row once per copy drawn.
        let n = weighted_len(rows, weights);
        let mean = rows
            .iter()
            .map(|&r| f64::from(weights[r]) * targets[r])
            .sum::<f64>()
            / n as f64;
        let constant = rows.iter().all(|&r| (targets[r] - mean).abs() < 1e-12);

        if depth >= ctx.config.max_depth || n < ctx.config.min_samples_split || constant {
            return Ok(self.push_binned_leaf(ctx, rows, mean, n));
        }

        let f_total = ctx.binned.n_features();
        let k = ctx.config.max_features.resolve(f_total);
        let candidates = sample_without_replacement(rng, f_total, k)?;
        // With the full feature set in play (gradient boosting's default)
        // node histograms are reusable across levels; under subsampling the
        // candidate set changes per node, so accumulate fresh per feature.
        let full_set = k == f_total;

        let mut best: Option<(usize, Split, usize)> = None;
        let mut consider = |feature: usize, found: Option<(Split, usize)>| {
            if let Some((split, bin)) = found {
                if best.as_ref().is_none_or(|(_, b, _)| split.gain > b.gain) {
                    best = Some((feature, split, bin));
                }
            }
        };

        let mut node_hists: Option<NodeHists> = None;
        if full_set {
            let hists = inherited.unwrap_or_else(|| ctx.build_all_hists(rows));
            for &feature in &candidates {
                let (sum, cnt) = hists.feature(&ctx.hist_offsets, feature);
                consider(
                    feature,
                    scan_boundaries(
                        sum,
                        cnt,
                        ctx.binned.bin_uppers(feature),
                        n,
                        ctx.config.min_samples_leaf,
                    ),
                );
            }
            node_hists = Some(hists);
        } else {
            for &feature in &candidates {
                ctx.hists_built += 1;
                let hist = ctx
                    .scratch
                    .accumulate(ctx.binned, feature, rows, targets, weights);
                consider(
                    feature,
                    scan_boundaries(
                        hist.sum,
                        hist.cnt,
                        ctx.binned.bin_uppers(feature),
                        n,
                        ctx.config.min_samples_leaf,
                    ),
                );
            }
        }

        let Some((feature, split, bin)) = best else {
            return Ok(self.push_binned_leaf(ctx, rows, mean, n));
        };

        self.gain_by_feature[feature] += split.gain;
        self.splits_by_feature[feature] += 1;

        // Stable in-place partition around the boundary bin: left rows keep
        // their order at the front, right rows are staged in the shared
        // scratch and copied back — O(n), no sort, no per-node allocation.
        let codes = ctx.binned.codes(feature);
        let bin_code = bin as u8;
        // The reserved NaN code is greater than every boundary bin, so it
        // only goes left when the scan routed missing rows left.
        let nan_code = ctx.binned.nan_code(feature);
        let mut n_left_rows = 0usize;
        ctx.part_buf.clear();
        for i in 0..rows.len() {
            let r = rows[i];
            if codes[r] <= bin_code || (split.nan_left && codes[r] == nan_code) {
                rows[n_left_rows] = r;
                n_left_rows += 1;
            } else {
                ctx.part_buf.push(r);
            }
        }
        rows[n_left_rows..].copy_from_slice(&ctx.part_buf);
        let (left_rows, right_rows) = rows.split_at_mut(n_left_rows);
        // The split's sizes are weighted, like `n`.
        let (n_left, n_right) = (split.n_left, n - split.n_left);
        debug_assert_eq!(weighted_len(left_rows, weights), n_left);

        let node_idx = self.nodes.len();
        self.nodes.push(Node::Leaf {
            value: mean,
            n_samples: n,
        });

        // Subtraction trick: re-accumulate only the smaller child's
        // histograms; the parent's buffers become the sibling's, parent −
        // smaller, bin by bin.
        let (left_inherit, right_inherit) = match node_hists {
            Some(mut parent) if ctx.child_may_split(depth, n_left, n_right) => {
                if n_left <= n_right {
                    let small = ctx.build_all_hists(left_rows);
                    parent.subtract(&small);
                    (Some(small), Some(parent))
                } else {
                    let small = ctx.build_all_hists(right_rows);
                    parent.subtract(&small);
                    (Some(parent), Some(small))
                }
            }
            _ => (None, None),
        };

        let left = self.build_binned(ctx, left_rows, depth + 1, left_inherit, rng)?;
        let right = self.build_binned(ctx, right_rows, depth + 1, right_inherit, rng)?;
        self.nodes[node_idx] = Node::Split {
            feature,
            threshold: split.threshold,
            left,
            right,
            nan_left: split.nan_left,
        };
        Ok(node_idx)
    }

    /// Push a leaf for the binned node holding `rows`, filing each row
    /// under it when the fit collects leaves.
    fn push_binned_leaf(
        &mut self,
        ctx: &mut BinnedCtx<'_>,
        rows: &[usize],
        value: f64,
        n_samples: usize,
    ) -> usize {
        let leaf = self.push_leaf(value, n_samples);
        if let Some(leaves) = ctx.leaves.as_deref_mut() {
            for &r in rows {
                leaves[r] = leaf;
            }
        }
        leaf
    }

    fn push_leaf(&mut self, value: f64, n_samples: usize) -> usize {
        self.nodes.push(Node::Leaf { value, n_samples });
        self.nodes.len() - 1
    }

    /// Index of the leaf that row `row` of `data` falls into.
    ///
    /// # Panics
    ///
    /// Panics if `data` has a different feature count than the training
    /// matrix or `row` is out of bounds.
    pub fn apply(&self, data: &FeatureMatrix, row: usize) -> usize {
        assert_eq!(
            data.n_features(),
            self.n_features,
            "feature count mismatch at prediction"
        );
        self.descend(0, |feature| data.value(row, feature), |_, _| {})
    }

    /// Index of the leaf reached from node `start`, reading each split's
    /// feature value through `value`; `visit(node, feature)` sees every
    /// split node passed on the way down.
    pub(crate) fn descend(
        &self,
        start: usize,
        value: impl Fn(usize) -> f64,
        mut visit: impl FnMut(usize, usize),
    ) -> usize {
        let mut idx = start;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { .. } => return idx,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    nan_left,
                } => {
                    visit(idx, *feature);
                    let v = value(*feature);
                    idx = if v.is_nan() {
                        // Missing measurement: follow the routing the
                        // boundary scan decided at training time.
                        if *nan_left {
                            *left
                        } else {
                            *right
                        }
                    } else if v <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Predicted value for row `row` of `data`.
    pub fn predict_row(&self, data: &FeatureMatrix, row: usize) -> f64 {
        self.leaf_value(self.apply(data, row))
    }

    /// Value of leaf `leaf`, an index returned by [`Self::apply`] or
    /// [`Self::descend`].
    pub(crate) fn leaf_value(&self, leaf: usize) -> f64 {
        match &self.nodes[leaf] {
            Node::Leaf { value, .. } => *value,
            // lint:allow(panic-free) apply() and descend() only ever return
            // a leaf index; a Split here means the tree itself is corrupt
            Node::Split { .. } => unreachable!("apply returns a leaf"),
        }
    }

    /// Predicted values for every row of `data`.
    ///
    /// # Errors
    ///
    /// Returns [`TreesError::SchemaMismatch`] if the feature count differs
    /// from training.
    pub fn predict(&self, data: &FeatureMatrix) -> Result<Vec<f64>, TreesError> {
        if data.n_features() != self.n_features {
            return Err(TreesError::SchemaMismatch {
                trained: self.n_features,
                given: data.n_features(),
            });
        }
        Ok((0..data.n_rows())
            .map(|r| self.predict_row(data, r))
            .collect())
    }

    /// Overwrite the value of leaf `leaf_idx` (the boosting Newton step).
    ///
    /// # Panics
    ///
    /// Panics if `leaf_idx` is not a leaf.
    pub fn set_leaf_value(&mut self, leaf_idx: usize, value: f64) {
        match &mut self.nodes[leaf_idx] {
            Node::Leaf { value: v, .. } => *v = value,
            // lint:allow(panic-free) documented # Panics contract: callers
            // pass indices straight from apply(), which yields only leaves
            Node::Split { .. } => panic!("node {leaf_idx} is not a leaf"),
        }
    }

    /// Total variance-reduction gain contributed by each feature.
    pub fn gain_importances(&self) -> &[f64] {
        &self.gain_by_feature
    }

    /// Number of splits on each feature.
    pub fn split_counts(&self) -> &[u32] {
        &self.splits_by_feature
    }

    /// Number of features the tree was trained on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Total number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }

    /// Maximum depth of the tree (root = 0; a single leaf has depth 0).
    pub fn depth(&self) -> usize {
        fn walk(nodes: &[Node], idx: usize) -> usize {
            match &nodes[idx] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + walk(nodes, *left).max(walk(nodes, *right)),
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            walk(&self.nodes, 0)
        }
    }
}

/// The number of rows `rows` stands for: each row counts its weight.
fn weighted_len(rows: &[usize], weights: &[u32]) -> usize {
    rows.iter().map(|&r| weights[r] as usize).sum()
}

/// The input checks both engines share, made once per fit: `rows` indexes
/// `targets` and the matrix throughout the build.
fn check_fit(
    config: &TreeConfig,
    targets: &[f64],
    rows: &[usize],
    n_rows: usize,
) -> Result<(), TreesError> {
    config.validate()?;
    if rows.is_empty() {
        return Err(TreesError::EmptyTraining);
    }
    if targets.len() != n_rows {
        return Err(TreesError::LengthMismatch {
            features: n_rows,
            targets: targets.len(),
        });
    }
    if let Some(&row) = rows.iter().find(|&&r| r >= n_rows) {
        return Err(TreesError::InvalidParameter {
            message: format!("row index {row} is out of range for a matrix of {n_rows} rows"),
        });
    }
    Ok(())
}

/// Shared state of one binned tree build: the read-only binned matrix plus
/// reusable scratch, so recursion allocates nothing per node beyond the
/// histograms the subtraction trick hands down.
struct BinnedCtx<'a> {
    binned: &'a BinnedMatrix,
    targets: &'a [f64],
    /// Multiplicity of each row id in the fit's row list (0 when absent).
    weights: &'a [u32],
    config: &'a TreeConfig,
    /// Feature `f`'s bins occupy `hist_offsets[f]..hist_offsets[f + 1]` of
    /// a [`NodeHists`].
    hist_offsets: Vec<usize>,
    scratch: HistScratch,
    /// Staging area for right-child rows during the stable partition.
    part_buf: Vec<usize>,
    /// Histograms accumulated from rows (subtraction-derived ones excluded).
    hists_built: u64,
    /// Leaf of each fitted row, by row id, when the caller asked for it.
    leaves: Option<&'a mut [usize]>,
}

/// One node's histograms for every feature, all features' bins end to end
/// — the unit children inherit under the subtraction trick.
struct NodeHists {
    sum: Vec<f64>,
    cnt: Vec<u32>,
}

impl NodeHists {
    /// Feature `feature`'s `(sums, counts)` per bin.
    fn feature(&self, offsets: &[usize], feature: usize) -> (&[f64], &[u32]) {
        let bins = offsets[feature]..offsets[feature + 1];
        (&self.sum[bins.clone()], &self.cnt[bins])
    }

    /// Turn a parent's histograms into its other child's: `self − child`,
    /// bin by bin, in place.
    fn subtract(&mut self, child: &NodeHists) {
        for (a, b) in self.sum.iter_mut().zip(&child.sum) {
            *a -= b;
        }
        for (a, b) in self.cnt.iter_mut().zip(&child.cnt) {
            *a -= b;
        }
    }
}

impl BinnedCtx<'_> {
    /// Accumulate fresh histograms of every feature over `rows`, straight
    /// into the node's own buffers.
    fn build_all_hists(&mut self, rows: &[usize]) -> NodeHists {
        let n_features = self.binned.n_features();
        self.hists_built += n_features as u64;
        let total_bins = self.hist_offsets[n_features];
        let mut hists = NodeHists {
            sum: vec![0.0; total_bins],
            cnt: vec![0; total_bins],
        };
        for f in 0..n_features {
            let bins = self.hist_offsets[f]..self.hist_offsets[f + 1];
            accumulate_into(
                &mut hists.sum[bins.clone()],
                &mut hists.cnt[bins],
                self.binned.codes(f),
                rows,
                self.targets,
                self.weights,
            );
        }
        hists
    }

    /// Whether a child of a node at `depth` could still be split — i.e.
    /// whether handing down inherited histograms can pay off. Sizes are
    /// weighted.
    fn child_may_split(&self, depth: usize, n_left: usize, n_right: usize) -> bool {
        depth + 1 < self.config.max_depth && n_left.max(n_right) >= self.config.min_samples_split
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MaxFeatures;
    use rng::rngs::StdRng;
    use rng::SeedableRng;

    fn xor_data() -> (FeatureMatrix, Vec<f64>) {
        // XOR of two binary features: needs depth 2. Combo counts are
        // deliberately unbalanced — a perfectly balanced XOR has zero gain
        // for every single split and greedy CART cannot enter it.
        let combos = [
            (0.0, 0.0, 14usize),
            (1.0, 0.0, 6),
            (0.0, 1.0, 12),
            (1.0, 1.0, 8),
        ];
        let mut rows = Vec::new();
        let mut targets = Vec::new();
        let mut i = 0u64;
        for (a, b, count) in combos {
            for _ in 0..count {
                // Hash-scrambled noise, decorrelated from the label blocks.
                let noise = (i.wrapping_mul(2_654_435_761) % 97) as f64 * 0.01;
                rows.push(vec![a, b, noise]);
                targets.push(if (a == 1.0) != (b == 1.0) { 1.0 } else { 0.0 });
                i += 1;
            }
        }
        (
            FeatureMatrix::from_rows(vec!["a".into(), "b".into(), "noise".into()], &rows).unwrap(),
            targets,
        )
    }

    fn all_rows(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    #[test]
    fn learns_xor_exactly() {
        let (data, targets) = xor_data();
        let mut rng = StdRng::seed_from_u64(1);
        let tree = RegressionTree::fit(
            &data,
            &targets,
            &all_rows(data.n_rows()),
            &TreeConfig::default(),
            &mut rng,
        )
        .unwrap();
        let preds = tree.predict(&data).unwrap();
        for (p, t) in preds.iter().zip(&targets) {
            assert!((p - t).abs() < 1e-9, "pred {p} target {t}");
        }
    }

    #[test]
    fn max_depth_zero_is_single_leaf() {
        let (data, targets) = xor_data();
        let mut rng = StdRng::seed_from_u64(1);
        let config = TreeConfig {
            max_depth: 0,
            ..TreeConfig::default()
        };
        let tree =
            RegressionTree::fit(&data, &targets, &all_rows(data.n_rows()), &config, &mut rng)
                .unwrap();
        assert_eq!(tree.n_nodes(), 1);
        assert_eq!(tree.depth(), 0);
        // The single leaf predicts the global positive rate (18/40).
        let positives = targets.iter().sum::<f64>();
        let p = tree.predict_row(&data, 0);
        assert!((p - positives / targets.len() as f64).abs() < 1e-9);
    }

    #[test]
    fn depth_limit_is_respected() {
        let (data, targets) = xor_data();
        for max_depth in [1, 2, 3] {
            let mut rng = StdRng::seed_from_u64(2);
            let config = TreeConfig {
                max_depth,
                ..TreeConfig::default()
            };
            let tree =
                RegressionTree::fit(&data, &targets, &all_rows(data.n_rows()), &config, &mut rng)
                    .unwrap();
            assert!(tree.depth() <= max_depth);
        }
    }

    #[test]
    fn importances_ignore_noise_feature() {
        let (data, targets) = xor_data();
        let mut rng = StdRng::seed_from_u64(3);
        let tree = RegressionTree::fit(
            &data,
            &targets,
            &all_rows(data.n_rows()),
            &TreeConfig::default(),
            &mut rng,
        )
        .unwrap();
        let gains = tree.gain_importances();
        assert!(gains[0] > 0.0 && gains[1] > 0.0);
        // All informative splits should land on a and b; noise may appear but
        // with negligible gain.
        assert!(gains[2] < 0.05 * (gains[0] + gains[1]));
    }

    #[test]
    fn empty_rows_is_error() {
        let (data, targets) = xor_data();
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(
            RegressionTree::fit(&data, &targets, &[], &TreeConfig::default(), &mut rng),
            Err(TreesError::EmptyTraining)
        );
    }

    #[test]
    fn target_length_mismatch_is_error() {
        let (data, _) = xor_data();
        let mut rng = StdRng::seed_from_u64(4);
        let short = vec![0.0; 3];
        assert!(matches!(
            RegressionTree::fit(&data, &short, &[0, 1], &TreeConfig::default(), &mut rng),
            Err(TreesError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn out_of_range_row_is_an_error_for_the_exact_engine() {
        let (data, targets) = xor_data();
        let mut rng = StdRng::seed_from_u64(4);
        let rows = [0, data.n_rows(), 1];
        let err = RegressionTree::fit(&data, &targets, &rows, &TreeConfig::default(), &mut rng)
            .unwrap_err();
        assert_eq!(
            err,
            TreesError::InvalidParameter {
                message: "row index 40 is out of range for a matrix of 40 rows".to_string()
            }
        );
    }

    #[test]
    fn out_of_range_row_is_an_error_for_the_histogram_engine() {
        let (data, targets) = xor_data();
        let binned = BinnedMatrix::from_matrix(&data).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let rows = [3, 1, data.n_rows() + 7];
        let err =
            RegressionTree::fit_binned(&binned, &targets, &rows, &TreeConfig::default(), &mut rng)
                .unwrap_err();
        assert_eq!(
            err,
            TreesError::InvalidParameter {
                message: "row index 47 is out of range for a matrix of 40 rows".to_string()
            }
        );
    }

    #[test]
    fn predict_rejects_schema_mismatch() {
        let (data, targets) = xor_data();
        let mut rng = StdRng::seed_from_u64(5);
        let tree = RegressionTree::fit(
            &data,
            &targets,
            &all_rows(data.n_rows()),
            &TreeConfig::default(),
            &mut rng,
        )
        .unwrap();
        let narrow = FeatureMatrix::from_columns(vec!["a".into()], vec![vec![0.0, 1.0]]).unwrap();
        assert!(matches!(
            tree.predict(&narrow),
            Err(TreesError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn leaf_relabeling_changes_predictions() {
        let (data, targets) = xor_data();
        let mut rng = StdRng::seed_from_u64(6);
        let mut tree = RegressionTree::fit(
            &data,
            &targets,
            &all_rows(data.n_rows()),
            &TreeConfig::default(),
            &mut rng,
        )
        .unwrap();
        let leaf = tree.apply(&data, 0);
        tree.set_leaf_value(leaf, 42.0);
        assert_eq!(tree.predict_row(&data, 0), 42.0);
    }

    #[test]
    fn constant_target_yields_single_leaf() {
        let data =
            FeatureMatrix::from_columns(vec!["x".into()], vec![vec![1.0, 2.0, 3.0, 4.0]]).unwrap();
        let targets = vec![7.0; 4];
        let mut rng = StdRng::seed_from_u64(7);
        let tree = RegressionTree::fit(
            &data,
            &targets,
            &[0, 1, 2, 3],
            &TreeConfig::default(),
            &mut rng,
        )
        .unwrap();
        assert_eq!(tree.n_nodes(), 1);
        assert_eq!(tree.predict_row(&data, 2), 7.0);
    }

    #[test]
    fn subset_rows_are_respected() {
        // Train only on rows where target == 0; prediction must be 0.
        let (data, targets) = xor_data();
        let zero_rows: Vec<usize> = (0..data.n_rows()).filter(|&r| targets[r] == 0.0).collect();
        let mut rng = StdRng::seed_from_u64(8);
        let tree = RegressionTree::fit(
            &data,
            &targets,
            &zero_rows,
            &TreeConfig::default(),
            &mut rng,
        )
        .unwrap();
        assert_eq!(tree.n_nodes(), 1);
        assert_eq!(tree.predict_row(&data, 0), 0.0);
    }

    #[test]
    fn feature_subsampling_still_learns() {
        let (data, targets) = xor_data();
        let config = TreeConfig {
            max_features: MaxFeatures::Count(2),
            ..TreeConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(9);
        let tree =
            RegressionTree::fit(&data, &targets, &all_rows(data.n_rows()), &config, &mut rng)
                .unwrap();
        // With 2 of 3 features per node it may need more depth, but the fit
        // must still reduce error well below the 0.25 variance baseline.
        let preds = tree.predict(&data).unwrap();
        let mse: f64 = preds
            .iter()
            .zip(&targets)
            .map(|(p, t)| (p - t) * (p - t))
            .sum::<f64>()
            / targets.len() as f64;
        assert!(mse < 0.1, "mse = {mse}");
    }

    #[test]
    fn n_leaves_counts() {
        let (data, targets) = xor_data();
        let mut rng = StdRng::seed_from_u64(10);
        let tree = RegressionTree::fit(
            &data,
            &targets,
            &all_rows(data.n_rows()),
            &TreeConfig::default(),
            &mut rng,
        )
        .unwrap();
        assert_eq!(tree.n_leaves() + tree.n_leaves() - 1, tree.n_nodes());
    }
}
