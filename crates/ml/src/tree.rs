//! CART decision trees (regression and binary classification).
//!
//! The implementation is histogram-based: candidate thresholds for each
//! feature come from its globally observed distinct values (capped at
//! [`MAX_THRESHOLDS`], beyond which quantiles are used), and trees grow on
//! a matrix of bin codes built once per forest. TEVoT's feature space —
//! 128 bit-features plus the small discrete voltage/temperature axes —
//! makes this both exact and fast: a bit feature has one candidate
//! threshold and is stored as one bit of a per-row mask, voltage twenty.

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

/// Where a feature's bins live in a [`BinnedMatrix`].
#[derive(Debug, Clone, Copy)]
enum Column {
    /// No candidate threshold (a constant or all-NaN feature): never split on.
    Constant,
    /// One threshold: bit `slot` of every row's mask, set when the row is
    /// in bin 0 (at or below the cut).
    Bit(u32),
    /// Several thresholds: column `index` of the `u16` bin codes.
    Codes(u32),
}

/// The training form of a dataset's features: every value replaced by its
/// bin, the number of candidate thresholds below it. Built once per fit
/// and shared read-only by the trees of a forest and the rounds of
/// boosting.
///
/// Candidate thresholds for each feature are the midpoints between its
/// adjacent distinct non-NaN values (quantiles of them beyond
/// [`MAX_THRESHOLDS`]). A value goes left of cut `j` when its bin is at
/// most `j`, which for a number is `x <= cut` — the test
/// [`DecisionTree::predict`] applies. A NaN is in the last bin, so it goes
/// right of every cut, as it does in prediction.
///
/// A feature with one cut (every TEVoT bit feature) is stored as one bit
/// of a per-row mask; features with more cuts (`V`, `T`, continuous data)
/// as a column of `u16` codes.
#[derive(Debug, Clone)]
pub(crate) struct BinnedMatrix {
    rows: usize,
    /// Sorted candidate thresholds per feature.
    cuts: Vec<Vec<f64>>,
    columns: Vec<Column>,
    /// Mask words per row.
    words: usize,
    /// Row `i`'s mask is `masks[i * words..][..words]`.
    masks: Vec<u64>,
    /// Column `c`'s code for row `i` is `codes[c * rows + i]`.
    codes: Vec<u16>,
}

impl BinnedMatrix {
    /// Derives every feature's thresholds column by column, then bins the
    /// rows.
    pub(crate) fn build(data: &Dataset) -> Self {
        let (rows, d) = (data.len(), data.num_features());
        let _span = tevot_obs::span!("ml.bin", "{rows} rows x {d} features");
        let mut values: Vec<f64> = Vec::with_capacity(rows);
        let cuts: Vec<Vec<f64>> = (0..d)
            .map(|f| {
                values.clear();
                values.extend((0..rows).map(|i| data.row(i)[f]).filter(|x| !x.is_nan()));
                cuts_of(&mut values)
            })
            .collect();
        let (mut slots, mut code_columns) = (0u32, 0u32);
        let columns: Vec<Column> = cuts
            .iter()
            .map(|c| match c.len() {
                0 => Column::Constant,
                1 => {
                    slots += 1;
                    Column::Bit(slots - 1)
                }
                _ => {
                    code_columns += 1;
                    Column::Codes(code_columns - 1)
                }
            })
            .collect();
        let words = (slots as usize).div_ceil(64);
        let mut masks = vec![0u64; rows * words];
        let mut codes = vec![0u16; code_columns as usize * rows];
        for i in 0..rows {
            for ((&x, c), column) in data.row(i).iter().zip(&cuts).zip(&columns) {
                match *column {
                    Column::Constant => {}
                    Column::Bit(s) => {
                        if x <= c[0] {
                            masks[i * words + s as usize / 64] |= 1 << (s % 64);
                        }
                    }
                    Column::Codes(k) => {
                        let bin = if x.is_nan() { c.len() } else { c.partition_point(|&t| t < x) };
                        codes[k as usize * rows + i] = bin as u16;
                    }
                }
            }
        }
        BinnedMatrix { rows, cuts, columns, words, masks, codes }
    }

    /// Candidate thresholds for feature `f`.
    fn cuts(&self, f: usize) -> &[f64] {
        &self.cuts[f]
    }

    /// Row `i`'s mask: bit `s` is set when the feature in slot `s` is at
    /// or below its single cut.
    #[inline]
    fn mask(&self, i: usize) -> &[u64] {
        &self.masks[i * self.words..][..self.words]
    }

    /// Feature `c`'s codes, one per row.
    #[inline]
    fn codes(&self, c: u32) -> &[u16] {
        &self.codes[c as usize * self.rows..][..self.rows]
    }

    /// Whether row `i` goes left of cut `cut` of feature `f`.
    #[inline]
    fn goes_left(&self, i: usize, f: u32, cut: usize) -> bool {
        match self.columns[f as usize] {
            Column::Constant => unreachable!("split on a feature without cuts"),
            Column::Bit(s) => self.mask(i)[s as usize / 64] >> (s % 64) & 1 == 1,
            Column::Codes(c) => self.codes(c)[i] as usize <= cut,
        }
    }
}

/// The candidate thresholds of a feature with the non-NaN `values`
/// (reordered in place).
fn cuts_of(values: &mut Vec<f64>) -> Vec<f64> {
    // `total_cmp`-equal values are bit-identical, so an unstable sort
    // gives the stable sort's order.
    values.sort_unstable_by(f64::total_cmp);
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
    c
}

/// Running label statistics sufficient for both impurity criteria.
#[derive(Debug, Clone, Copy, Default)]
struct Stats {
    n: f64,
    sum: f64,
    sum_sq: f64,
}

impl Stats {
    /// The statistics of one label; merging them in is adding the label.
    #[inline]
    fn of(label: f64) -> Stats {
        Stats { n: 1.0, sum: label, sum_sq: label * label }
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
    /// per-split feature subset. A NaN feature value goes right of every
    /// split, in the fit as in [`Self::predict`].
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset.
    pub fn fit(data: &Dataset, task: Task, params: &TreeParams, rng: &mut impl Rng) -> Self {
        let bins = BinnedMatrix::build(data);
        let indices: Vec<u32> = (0..data.len() as u32).collect();
        Self::fit_binned(&bins, data.labels(), &indices, task, params, rng)
    }

    /// Fits a tree on the rows of `bins` selected (with multiplicity) by
    /// `indices`, labelled by `labels` (one per row of `bins`) — the path
    /// of forests and boosting, which bin once and fit many trees.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty.
    pub(crate) fn fit_binned(
        bins: &BinnedMatrix,
        labels: &[f64],
        indices: &[u32],
        task: Task,
        params: &TreeParams,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(!indices.is_empty(), "cannot fit a tree on zero samples");
        assert_eq!(labels.len(), bins.rows, "one label per binned row");
        let mut builder = TreeBuilder {
            bins,
            labels,
            task,
            params,
            nodes: Vec::new(),
            gains: Vec::new(),
            all_features: (0..bins.columns.len() as u32).collect(),
            selected: vec![u64::MAX; bins.words],
            bit_left: vec![Stats::default(); bins.words * 64],
            bucket: Vec::new(),
        };
        let mut idx = indices.to_vec();
        let root_stats = stats_of(labels, &idx);
        builder.grow(&mut idx, root_stats, 0, rng);
        DecisionTree {
            nodes: builder.nodes,
            gains: builder.gains,
            num_features: bins.columns.len(),
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

fn stats_of(labels: &[f64], indices: &[u32]) -> Stats {
    let mut s = Stats::default();
    for &i in indices {
        s.merge(&Stats::of(labels[i as usize]));
    }
    s
}

/// A chosen split: `feature` at its cut number `cut`.
#[derive(Debug, Clone, Copy)]
struct Split {
    gain: f64,
    feature: u32,
    cut: usize,
    left: Stats,
}

struct TreeBuilder<'a, 'p> {
    bins: &'a BinnedMatrix,
    labels: &'a [f64],
    task: Task,
    params: &'p TreeParams,
    nodes: Vec<Node>,
    gains: Vec<f64>,
    all_features: Vec<u32>,
    /// Mask words selecting the single-cut features examined at a node.
    selected: Vec<u64>,
    /// Left-side stats per single-cut slot, for the node being split.
    bit_left: Vec<Stats>,
    /// Histogram over the bins of one multi-cut feature.
    bucket: Vec<Stats>,
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
        let Some(Split { gain, feature, cut, left: left_stats }) = split else {
            let id = self.nodes.len() as u32;
            self.nodes.push(Node { value: stats.prediction(self.task), feature: LEAF, right: 0 });
            self.gains.push(0.0);
            return id;
        };

        // Partition in place by the bins the split was scored on: left
        // side first.
        let mut lo = 0;
        let mut hi = indices.len();
        while lo < hi {
            if self.bins.goes_left(indices[lo] as usize, feature, cut) {
                lo += 1;
            } else {
                hi -= 1;
                indices.swap(lo, hi);
            }
        }
        debug_assert!(lo > 0 && lo < indices.len(), "degenerate split");
        debug_assert_eq!(lo as f64, left_stats.n, "partition disagrees with the histogram");

        let mut right_stats = stats;
        right_stats.n -= left_stats.n;
        right_stats.sum -= left_stats.sum;
        right_stats.sum_sq -= left_stats.sum_sq;

        let id = self.nodes.len() as u32;
        let threshold = self.bins.cuts(feature as usize)[cut];
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

    /// Finds the impurity-minimizing split.
    ///
    /// Features are scored in `all_features` order and a later candidate
    /// wins only with a strictly larger gain. Each candidate's left stats
    /// are summed over the node's rows in index order, whatever the
    /// feature's storage, so the choice does not depend on it.
    fn best_split(&mut self, indices: &[u32], stats: &Stats, rng: &mut impl Rng) -> Option<Split> {
        let TreeBuilder {
            bins,
            labels,
            task,
            params,
            all_features,
            selected,
            bit_left,
            bucket,
            ..
        } = self;
        let parent_impurity = stats.impurity(*task);
        let min_leaf = params.min_samples_leaf as f64;

        let feature_count =
            params.max_features.map(|m| m.min(all_features.len())).unwrap_or(all_features.len());
        if feature_count < all_features.len() {
            all_features.partial_shuffle(rng, feature_count);
            selected.fill(0);
            for &f in &all_features[..feature_count] {
                if let Column::Bit(s) = bins.columns[f as usize] {
                    selected[s as usize / 64] |= 1 << (s % 64);
                }
            }
        }

        // Single-cut features: one pass over the rows adds each label to
        // the left stats of every selected feature the row is in bin 0 of.
        bit_left.fill(Stats::default());
        for &i in indices.iter() {
            let y = Stats::of(labels[i as usize]);
            for (k, (&word, &sel)) in bins.mask(i as usize).iter().zip(selected.iter()).enumerate()
            {
                let mut w = word & sel;
                while w != 0 {
                    bit_left[k * 64 + w.trailing_zeros() as usize].merge(&y);
                    w &= w - 1;
                }
            }
        }

        let mut best: Option<Split> = None;
        let mut consider = |feature: u32, cut: usize, left: Stats| {
            let right_n = stats.n - left.n;
            if left.n < min_leaf || right_n < min_leaf || left.n == 0.0 || right_n == 0.0 {
                return;
            }
            let mut right = *stats;
            right.n -= left.n;
            right.sum -= left.sum;
            right.sum_sq -= left.sum_sq;
            // A zero-gain split is still accepted (mirroring CART as
            // implemented in scikit-learn): concepts like XOR have no
            // first-level gain yet are perfectly separable below.
            let gain = parent_impurity - left.impurity(*task) - right.impurity(*task);
            if best.map_or(gain > -1e-12, |b| gain > b.gain) {
                best = Some(Split { gain, feature, cut, left });
            }
        };
        for &f in &all_features[..feature_count] {
            match bins.columns[f as usize] {
                Column::Constant => {}
                // Bin 0's sums are the left side of the one cut. A prefix
                // scan would merge them into zeroed stats, which changes
                // no bit: a sum that starts at +0.0 never becomes -0.0.
                Column::Bit(s) => consider(f, 0, bit_left[s as usize]),
                Column::Codes(c) => {
                    let cuts = bins.cuts(f as usize).len();
                    let codes = bins.codes(c);
                    bucket.clear();
                    bucket.resize(cuts + 1, Stats::default());
                    for &i in indices.iter() {
                        bucket[codes[i as usize] as usize].merge(&Stats::of(labels[i as usize]));
                    }
                    // Prefix-scan: left side of cut j = buckets 0..=j.
                    let mut left = Stats::default();
                    for (j, b) in bucket[..cuts].iter().enumerate() {
                        left.merge(b);
                        consider(f, j, left);
                    }
                }
            }
        }
        best.map(|b| Split { gain: b.gain.max(0.0), ..b })
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
    fn binned_matrix_binary_feature() {
        let mut d = Dataset::new(2);
        d.push(&[0.0, 5.0], 1.0);
        d.push(&[1.0, 7.0], 2.0);
        d.push(&[0.0, 9.0], 3.0);
        let t = BinnedMatrix::build(&d);
        assert_eq!(t.cuts(0), &[0.5]);
        assert_eq!(t.cuts(1), &[6.0, 8.0]);
        assert_eq!(t.masks, [0b1, 0b0, 0b1]);
        assert_eq!(t.codes, [0, 1, 2]);
    }

    /// The leaf node row `row` reaches.
    fn leaf_of(tree: &DecisionTree, row: &[f64]) -> usize {
        let mut at = 0;
        while tree.nodes[at].feature != LEAF {
            let node = tree.nodes[at];
            at =
                if row[node.feature as usize] <= node.value { at + 1 } else { node.right as usize };
        }
        at
    }

    #[test]
    fn nan_features_fit_consistently_with_prediction() {
        // Feature 0 is a bit (one cut), feature 1 takes ten values (codes),
        // feature 2 is NaN throughout; features 0 and 1 are NaN in every
        // 4th row. Integer labels keep the leaf sums exact.
        let mut d = Dataset::new(3);
        for i in 0..40 {
            let nan = i % 4 == 0;
            let bit = if nan { f64::NAN } else { (i % 3 % 2) as f64 };
            let level = if nan { f64::NAN } else { (i % 10) as f64 };
            d.push(&[bit, level, f64::NAN], ((i * 7) % 11) as f64);
        }
        let bins = BinnedMatrix::build(&d);
        assert_eq!(bins.cuts(0), &[0.5]);
        assert_eq!(bins.cuts(1).len(), 9);
        assert!(bins.cuts(2).is_empty());
        for task in [Task::Regression, Task::Classification] {
            let labels: Vec<f64> = match task {
                Task::Regression => d.labels().to_vec(),
                Task::Classification => {
                    d.labels().iter().map(|&y| (y > 5.0) as u8 as f64).collect()
                }
            };
            let mut data = Dataset::new(3);
            for (i, &y) in labels.iter().enumerate() {
                data.push(d.row(i), y);
            }
            for max_depth in [1, 2, 3, 24] {
                let params = TreeParams { max_depth, ..TreeParams::default() };
                let tree = DecisionTree::fit(&data, task, &params, &mut rng());
                assert!(tree.num_nodes() > 1, "depth {max_depth}: no split");
                // Every row's prediction is the mean label of the rows
                // that reach its leaf.
                let mut sums = vec![(0.0, 0.0); tree.num_nodes()];
                for i in 0..data.len() {
                    let leaf = &mut sums[leaf_of(&tree, data.row(i))];
                    leaf.0 += 1.0;
                    leaf.1 += data.label(i);
                }
                for i in 0..data.len() {
                    let (n, sum) = sums[leaf_of(&tree, data.row(i))];
                    assert_eq!(tree.predict(data.row(i)), sum / n, "{task:?} depth {max_depth}");
                }
            }
        }
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
