//! CART decision trees (regression and binary classification).
//!
//! The implementation is histogram-based: candidate thresholds for each
//! feature come from its globally observed distinct values (capped at
//! [`MAX_THRESHOLDS`], beyond which quantiles are used). TEVoT's feature
//! space — 128 bit-features plus the small discrete voltage/temperature
//! axes — makes this both exact and fast: a bit feature has one candidate
//! threshold, voltage twenty.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::dataset::Dataset;

/// Maximum number of candidate thresholds kept per feature.
pub const MAX_THRESHOLDS: usize = 256;

/// Hyper-parameters shared by single trees and forests.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeParams {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum number of samples required to split a node.
    pub min_samples_split: usize,
    /// Minimum number of samples in each child.
    pub min_samples_leaf: usize,
    /// Number of features examined per split; `None` means all (the
    /// paper's scikit-learn default for its random forest).
    pub max_features: Option<usize>,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams { max_depth: 24, min_samples_split: 2, min_samples_leaf: 1, max_features: None }
    }
}

/// What the tree optimizes at each split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// Variance reduction; leaves predict the mean label.
    Regression,
    /// Gini impurity on binary labels (0.0 / 1.0); leaves predict the
    /// class-1 fraction.
    Classification,
}

/// One inference node, 16 bytes. Nodes are stored in preorder, so an
/// internal node's left child is always the next node and only the right
/// child needs an index.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Node {
    /// Split threshold (`x <= value` goes left), or the leaf's prediction.
    value: f64,
    /// Split feature, or [`LEAF`] for a leaf.
    feature: u32,
    /// Index of the right child (0 for a leaf).
    right: u32,
}

const LEAF: u32 = u32::MAX;

/// A fitted CART decision tree.
///
/// # Examples
///
/// ```
/// use tevot_ml::{Dataset, DecisionTree, Task, TreeParams};
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// let mut data = Dataset::new(1);
/// for i in 0..100 {
///     let x = i as f64 / 100.0;
///     data.push(&[x], if x < 0.5 { 1.0 } else { 9.0 });
/// }
/// let mut rng = SmallRng::seed_from_u64(0);
/// let tree = DecisionTree::fit(&data, Task::Regression, &TreeParams::default(), &mut rng);
/// assert_eq!(tree.predict(&[0.2]), 1.0);
/// assert_eq!(tree.predict(&[0.9]), 9.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    /// Sample-weighted impurity decrease of each node's split (0 for
    /// leaves) — training-only, read by [`Self::accumulate_importances`].
    gains: Vec<f64>,
    num_features: usize,
    task: Task,
}

/// Per-feature candidate thresholds, shared across the trees of a forest.
#[derive(Debug, Clone)]
pub struct ThresholdTable {
    /// Sorted candidate thresholds per feature (midpoints between adjacent
    /// observed distinct values).
    cuts: Vec<Vec<f64>>,
}

impl ThresholdTable {
    /// Scans `data` once and derives the candidate thresholds of every
    /// feature.
    pub fn build(data: &Dataset) -> Self {
        let d = data.num_features();
        let n = data.len();
        let mut cuts = Vec::with_capacity(d);
        let mut values: Vec<f64> = Vec::with_capacity(n);
        for f in 0..d {
            values.clear();
            values.extend((0..n).map(|i| data.row(i)[f]));
            values.sort_by(f64::total_cmp);
            values.dedup();
            let distinct = &values[..];
            let mut c: Vec<f64> = if distinct.len() <= MAX_THRESHOLDS + 1 {
                distinct.windows(2).map(|w| 0.5 * (w[0] + w[1])).collect()
            } else {
                // Quantile subsample.
                (1..=MAX_THRESHOLDS)
                    .map(|k| {
                        let idx = k * (distinct.len() - 1) / (MAX_THRESHOLDS + 1);
                        0.5 * (distinct[idx] + distinct[idx + 1])
                    })
                    .collect()
            };
            c.dedup();
            cuts.push(c);
        }
        ThresholdTable { cuts }
    }

    /// Candidate thresholds for feature `f`.
    pub fn cuts(&self, f: usize) -> &[f64] {
        &self.cuts[f]
    }
}

/// Running label statistics sufficient for both impurity criteria.
#[derive(Debug, Clone, Copy, Default)]
struct Stats {
    n: f64,
    sum: f64,
    sum_sq: f64,
}

impl Stats {
    #[inline]
    fn add(&mut self, label: f64) {
        self.n += 1.0;
        self.sum += label;
        self.sum_sq += label * label;
    }

    #[inline]
    fn merge(&mut self, other: &Stats) {
        self.n += other.n;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
    }

    /// Weighted impurity: SSE for regression, `n * gini` for binary
    /// classification (labels in {0, 1} make `sum` the class-1 count).
    #[inline]
    fn impurity(&self, task: Task) -> f64 {
        if self.n == 0.0 {
            return 0.0;
        }
        match task {
            Task::Regression => self.sum_sq - self.sum * self.sum / self.n,
            Task::Classification => {
                let p = self.sum / self.n;
                2.0 * self.n * p * (1.0 - p)
            }
        }
    }

    #[inline]
    fn prediction(&self, task: Task) -> f64 {
        let _ = task;
        if self.n == 0.0 {
            0.0
        } else {
            self.sum / self.n
        }
    }
}

impl DecisionTree {
    /// Fits a tree on `data`.
    ///
    /// `rng` is only consulted when `params.max_features` restricts the
    /// per-split feature subset.
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset.
    pub fn fit(data: &Dataset, task: Task, params: &TreeParams, rng: &mut impl Rng) -> Self {
        let table = ThresholdTable::build(data);
        let indices: Vec<u32> = (0..data.len() as u32).collect();
        Self::fit_with_table(data, &indices, task, params, &table, rng)
    }

    /// Fits a tree on the rows of `data` selected (with multiplicity) by
    /// `indices`, reusing a prebuilt [`ThresholdTable`] — the forest
    /// training path.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty.
    pub fn fit_with_table(
        data: &Dataset,
        indices: &[u32],
        task: Task,
        params: &TreeParams,
        table: &ThresholdTable,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(!indices.is_empty(), "cannot fit a tree on zero samples");
        let mut builder = TreeBuilder {
            data,
            task,
            params,
            table,
            nodes: Vec::new(),
            gains: Vec::new(),
            all_features: (0..data.num_features() as u32).collect(),
        };
        let mut idx = indices.to_vec();
        let root_stats = stats_of(data, &idx, task);
        builder.grow(&mut idx, root_stats, 0, rng);
        DecisionTree {
            nodes: builder.nodes,
            gains: builder.gains,
            num_features: data.num_features(),
            task,
        }
    }

    /// Predicts the target for one feature row (mean label for regression,
    /// class-1 probability for classification).
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the training data.
    pub fn predict(&self, row: &[f64]) -> f64 {
        assert_eq!(row.len(), self.num_features, "feature width mismatch");
        self.predict_by(|f| row[f as usize])
    }

    /// Predicts from a feature reader: `x(f)` must return the value of
    /// feature `f` of the row being predicted. Callers that hold their
    /// features in a packed form read them in place instead of building
    /// an `f64` row; the walk (and so the result) is the one
    /// [`Self::predict`] takes.
    #[inline]
    pub fn predict_by(&self, x: impl Fn(u32) -> f64) -> f64 {
        let mut at = 0;
        loop {
            let node = self.nodes[at];
            if node.feature == LEAF {
                return node.value;
            }
            at = if x(node.feature) <= node.value { at + 1 } else { node.right as usize };
        }
    }

    /// Number of nodes (internal + leaves).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Maximum depth actually reached.
    pub fn depth(&self) -> usize {
        // Iterative, so a deep loaded tree cannot overflow the stack.
        let mut deepest = 0;
        let mut stack = vec![(0, 0)];
        while let Some((at, depth)) = stack.pop() {
            let node = self.nodes[at];
            if node.feature == LEAF {
                deepest = deepest.max(depth);
            } else {
                stack.push((at + 1, depth + 1));
                stack.push((node.right as usize, depth + 1));
            }
        }
        deepest
    }

    /// The task this tree was trained for.
    pub fn task(&self) -> Task {
        self.task
    }

    /// Accumulates this tree's impurity-decrease feature importances into
    /// `acc` (length = feature count).
    ///
    /// Importance of a feature is the total impurity decrease achieved by
    /// the splits that use it, weighted by the number of training samples
    /// that reached each split. Stored per node at fit time.
    ///
    /// # Panics
    ///
    /// Panics if `acc.len()` differs from the training feature count.
    pub fn accumulate_importances(&self, acc: &mut [f64]) {
        assert_eq!(acc.len(), self.num_features, "importance buffer width mismatch");
        for (node, gain) in self.nodes.iter().zip(&self.gains) {
            if node.feature != LEAF {
                acc[node.feature as usize] += gain;
            }
        }
    }

    /// Number of features the tree was trained on.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// The nodes in their persisted form `(feature, value, left, right,
    /// gain)`, in preorder: an internal node has `left = index + 1`, a
    /// leaf has `feature == u32::MAX` and `left = right = 0`.
    pub fn nodes_raw(&self) -> impl Iterator<Item = (u32, f64, u32, u32, f64)> + '_ {
        self.nodes.iter().zip(&self.gains).enumerate().map(|(i, (n, &gain))| {
            let left = if n.feature == LEAF { 0 } else { i as u32 + 1 };
            (n.feature, n.value, left, n.right, gain)
        })
    }

    /// Builds a tree from persisted nodes, laying them out in preorder
    /// (the identity for nodes [`Self::nodes_raw`] produced). The caller
    /// guarantees a tree rooted at node 0: every child index is in range,
    /// greater than its parent's, and referenced by one parent only.
    /// Nodes the root does not reach are dropped.
    pub(crate) fn from_raw(
        raw: &[(u32, f64, u32, u32, f64)],
        num_features: usize,
        task: Task,
    ) -> Self {
        let mut nodes: Vec<Node> = Vec::with_capacity(raw.len());
        let mut gains = Vec::with_capacity(raw.len());
        // (raw index, new index of the parent whose right child this is).
        let mut stack = vec![(0u32, None::<usize>)];
        while let Some((old, parent)) = stack.pop() {
            let id = nodes.len();
            if let Some(p) = parent {
                nodes[p].right = id as u32;
            }
            let (feature, value, left, right, gain) = raw[old as usize];
            nodes.push(Node { value, feature, right: 0 });
            gains.push(gain);
            if feature != LEAF {
                // Left is popped first, so it lands at `id + 1`.
                stack.push((right, Some(id)));
                stack.push((left, None));
            }
        }
        DecisionTree { nodes, gains, num_features, task }
    }
}

fn stats_of(data: &Dataset, indices: &[u32], _task: Task) -> Stats {
    let mut s = Stats::default();
    for &i in indices {
        s.add(data.label(i as usize));
    }
    s
}

struct TreeBuilder<'a, 'p> {
    data: &'a Dataset,
    task: Task,
    params: &'p TreeParams,
    table: &'a ThresholdTable,
    nodes: Vec<Node>,
    gains: Vec<f64>,
    all_features: Vec<u32>,
}

impl TreeBuilder<'_, '_> {
    /// Grows a subtree over `indices` (mutated in place by partitioning)
    /// and returns its root node index.
    fn grow(&mut self, indices: &mut [u32], stats: Stats, depth: usize, rng: &mut impl Rng) -> u32 {
        let node_impurity = stats.impurity(self.task);
        let make_leaf = indices.len() < self.params.min_samples_split
            || depth >= self.params.max_depth
            || node_impurity <= 1e-12;

        let split = if make_leaf { None } else { self.best_split(indices, &stats, rng) };
        let Some((gain, feature, threshold, left_stats)) = split else {
            let id = self.nodes.len() as u32;
            self.nodes.push(Node { value: stats.prediction(self.task), feature: LEAF, right: 0 });
            self.gains.push(0.0);
            return id;
        };

        // Partition in place: `x <= threshold` first.
        let mut lo = 0;
        let mut hi = indices.len();
        while lo < hi {
            if self.data.row(indices[lo] as usize)[feature as usize] <= threshold {
                lo += 1;
            } else {
                hi -= 1;
                indices.swap(lo, hi);
            }
        }
        debug_assert!(lo > 0 && lo < indices.len(), "degenerate split");

        let mut right_stats = stats;
        right_stats.n -= left_stats.n;
        right_stats.sum -= left_stats.sum;
        right_stats.sum_sq -= left_stats.sum_sq;

        let id = self.nodes.len() as u32;
        self.nodes.push(Node { value: threshold, feature, right: 0 });
        self.gains.push(gain);
        tevot_obs::metrics::ML_NODE_SPLITS.incr();
        let (left_idx, right_idx) = indices.split_at_mut(lo);
        // Preorder: the left subtree starts right after this node.
        let left = self.grow(left_idx, left_stats, depth + 1, rng);
        debug_assert_eq!(left, id + 1);
        self.nodes[id as usize].right = self.grow(right_idx, right_stats, depth + 1, rng);
        id
    }

    /// Finds the impurity-minimizing split, returning
    /// `(feature, threshold, left_stats)`.
    fn best_split(
        &mut self,
        indices: &[u32],
        stats: &Stats,
        rng: &mut impl Rng,
    ) -> Option<(f64, u32, f64, Stats)> {
        let parent_impurity = stats.impurity(self.task);
        let min_leaf = self.params.min_samples_leaf as f64;
        let mut best: Option<(f64, u32, f64, Stats)> = None;

        let feature_count = self
            .params
            .max_features
            .map(|m| m.min(self.all_features.len()))
            .unwrap_or(self.all_features.len());
        if feature_count < self.all_features.len() {
            self.all_features.partial_shuffle(rng, feature_count);
        }

        // Scratch histogram over candidate thresholds.
        let mut bucket: Vec<Stats> = Vec::new();
        for fi in 0..feature_count {
            let f = self.all_features[fi] as usize;
            let cuts = self.table.cuts(f);
            if cuts.is_empty() {
                continue;
            }
            bucket.clear();
            bucket.resize(cuts.len() + 1, Stats::default());
            for &i in indices {
                let x = self.data.row(i as usize)[f];
                // First cut > x  ==  number of cuts <= x.
                let b = cuts.partition_point(|&c| c < x);
                bucket[b].add(self.data.label(i as usize));
            }
            // Prefix-scan: left side of cut j = buckets 0..=j.
            let mut left = Stats::default();
            for (j, b) in bucket[..cuts.len()].iter().enumerate() {
                left.merge(b);
                let right_n = stats.n - left.n;
                if left.n < min_leaf || right_n < min_leaf || left.n == 0.0 || right_n == 0.0 {
                    continue;
                }
                let mut right = *stats;
                right.n -= left.n;
                right.sum -= left.sum;
                right.sum_sq -= left.sum_sq;
                // A zero-gain split is still accepted (mirroring CART as
                // implemented in scikit-learn): concepts like XOR have no
                // first-level gain yet are perfectly separable below.
                let gain = parent_impurity - left.impurity(self.task) - right.impurity(self.task);
                if best.map_or(gain > -1e-12, |(g, ..)| gain > g) {
                    best = Some((gain, f as u32, cuts[j], left));
                }
            }
        }
        best.map(|(g, f, t, l)| (g.max(0.0), f, t, l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn nodes_are_16_bytes() {
        assert_eq!(std::mem::size_of::<Node>(), 16);
    }

    #[test]
    fn threshold_table_binary_feature() {
        let mut d = Dataset::new(2);
        d.push(&[0.0, 5.0], 1.0);
        d.push(&[1.0, 7.0], 2.0);
        d.push(&[0.0, 9.0], 3.0);
        let t = ThresholdTable::build(&d);
        assert_eq!(t.cuts(0), &[0.5]);
        assert_eq!(t.cuts(1), &[6.0, 8.0]);
    }

    #[test]
    fn fits_xor_exactly() {
        // XOR is the classic interaction no linear model captures.
        let mut d = Dataset::new(2);
        for a in [0.0, 1.0] {
            for b in [0.0, 1.0] {
                for _ in 0..10 {
                    d.push(&[a, b], if a != b { 1.0 } else { 0.0 });
                }
            }
        }
        let tree = DecisionTree::fit(&d, Task::Classification, &TreeParams::default(), &mut rng());
        for a in [0.0, 1.0] {
            for b in [0.0, 1.0] {
                let expect = if a != b { 1.0 } else { 0.0 };
                assert_eq!(tree.predict(&[a, b]), expect, "xor({a},{b})");
            }
        }
    }

    #[test]
    fn regression_piecewise_constant() {
        let mut d = Dataset::new(1);
        for i in 0..300 {
            let x = i as f64 / 300.0;
            let y = if x < 0.3 {
                10.0
            } else if x < 0.7 {
                20.0
            } else {
                5.0
            };
            d.push(&[x], y);
        }
        let tree = DecisionTree::fit(&d, Task::Regression, &TreeParams::default(), &mut rng());
        assert_eq!(tree.predict(&[0.1]), 10.0);
        assert_eq!(tree.predict(&[0.5]), 20.0);
        assert_eq!(tree.predict(&[0.9]), 5.0);
    }

    #[test]
    fn max_depth_limits_tree() {
        let mut d = Dataset::new(1);
        for i in 0..128 {
            d.push(&[i as f64], i as f64);
        }
        let params = TreeParams { max_depth: 2, ..TreeParams::default() };
        let tree = DecisionTree::fit(&d, Task::Regression, &params, &mut rng());
        assert!(tree.depth() <= 2);
        assert!(tree.num_nodes() <= 7);
    }

    #[test]
    fn min_samples_leaf_is_respected() {
        let mut d = Dataset::new(1);
        for i in 0..20 {
            d.push(&[i as f64], (i % 2) as f64);
        }
        let params = TreeParams { min_samples_leaf: 8, ..TreeParams::default() };
        let tree = DecisionTree::fit(&d, Task::Classification, &params, &mut rng());
        // With min leaf 8 on 20 alternating samples the tree stays tiny.
        assert!(tree.num_nodes() <= 5, "got {} nodes", tree.num_nodes());
    }

    #[test]
    fn pure_node_becomes_leaf() {
        let mut d = Dataset::new(3);
        for i in 0..50 {
            d.push(&[i as f64, (i * 7 % 13) as f64, 0.0], 3.5);
        }
        let tree = DecisionTree::fit(&d, Task::Regression, &TreeParams::default(), &mut rng());
        assert_eq!(tree.num_nodes(), 1);
        assert_eq!(tree.predict(&[99.0, 99.0, 99.0]), 3.5);
    }

    #[test]
    fn classification_prediction_is_probability() {
        let mut d = Dataset::new(1);
        for i in 0..10 {
            // x = 0 -> 30% positive; x = 1 -> all positive.
            d.push(&[0.0], if i < 3 { 1.0 } else { 0.0 });
            d.push(&[1.0], 1.0);
        }
        let params = TreeParams { max_depth: 1, ..TreeParams::default() };
        let tree = DecisionTree::fit(&d, Task::Classification, &params, &mut rng());
        assert!((tree.predict(&[0.0]) - 0.3).abs() < 1e-9);
        assert_eq!(tree.predict(&[1.0]), 1.0);
    }

    #[test]
    fn max_features_subsampling_still_learns() {
        let mut d = Dataset::new(4);
        let mut r = rng();
        for _ in 0..400 {
            let row: Vec<f64> = (0..4).map(|_| r.gen_range(0..2) as f64).collect();
            let label = row[2];
            d.push(&row, label);
        }
        let params = TreeParams { max_features: Some(2), ..TreeParams::default() };
        let tree = DecisionTree::fit(&d, Task::Classification, &params, &mut r);
        let mut correct = 0;
        for i in 0..d.len() {
            if (tree.predict(d.row(i)) >= 0.5) as u8 as f64 == d.label(i) {
                correct += 1;
            }
        }
        assert!(correct as f64 / d.len() as f64 > 0.95);
    }
}
