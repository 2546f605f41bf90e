//! Differential oracle for the forest fit.
//!
//! The fit bins every feature once and scores single-cut features from
//! per-row bit masks. This file keeps the plain search it replaced —
//! read `row[f]` from the row-major matrix, find its bin with
//! `partition_point` over the feature's cuts, histogram, prefix-scan — as
//! a test-only reference builder, and requires the two to grow the same
//! trees bit for bit: every feature, threshold, child index and gain, for
//! single trees, both forests and gradient boosting.
//!
//! The reference predates the NaN rule, so the generated data holds no
//! NaN; `tree.rs` tests NaN-bearing fits on their own.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use tevot_ml::{
    BoostParams, Dataset, DecisionTree, ForestParams, GradientBoostedRegressor,
    RandomForestClassifier, RandomForestRegressor, Task, TreeParams, MAX_THRESHOLDS,
};

/// A node as `DecisionTree::nodes_raw` reports it, with the floats as bits
/// so that `-0.0` and `0.0` differ.
type RawNode = (u32, u64, u32, u32, u64);

fn raw(tree: &DecisionTree) -> Vec<RawNode> {
    tree.nodes_raw().map(|(f, v, l, r, g)| (f, v.to_bits(), l, r, g.to_bits())).collect()
}

/// The row-major reference fit.
mod reference {
    use super::*;

    const LEAF: u32 = u32::MAX;

    pub fn cuts(data: &Dataset) -> Vec<Vec<f64>> {
        (0..data.num_features())
            .map(|f| {
                let mut values: Vec<f64> = (0..data.len()).map(|i| data.row(i)[f]).collect();
                values.sort_by(f64::total_cmp);
                values.dedup();
                let mut c: Vec<f64> = if values.len() <= MAX_THRESHOLDS + 1 {
                    values.windows(2).map(|w| 0.5 * (w[0] + w[1])).collect()
                } else {
                    (1..=MAX_THRESHOLDS)
                        .map(|k| {
                            let idx = k * (values.len() - 1) / (MAX_THRESHOLDS + 1);
                            0.5 * (values[idx] + values[idx + 1])
                        })
                        .collect()
                };
                c.dedup();
                c
            })
            .collect()
    }

    #[derive(Clone, Copy, Default)]
    struct Stats {
        n: f64,
        sum: f64,
        sum_sq: f64,
    }

    impl Stats {
        fn add(&mut self, y: f64) {
            self.n += 1.0;
            self.sum += y;
            self.sum_sq += y * y;
        }

        fn merge(&mut self, o: &Stats) {
            self.n += o.n;
            self.sum += o.sum;
            self.sum_sq += o.sum_sq;
        }

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
    }

    struct Builder<'a> {
        data: &'a Dataset,
        labels: &'a [f64],
        cuts: &'a [Vec<f64>],
        task: Task,
        params: &'a TreeParams,
        nodes: Vec<RawNode>,
        all_features: Vec<u32>,
    }

    impl Builder<'_> {
        fn grow(
            &mut self,
            idx: &mut [u32],
            stats: Stats,
            depth: usize,
            rng: &mut impl Rng,
        ) -> usize {
            let leaf = idx.len() < self.params.min_samples_split
                || depth >= self.params.max_depth
                || stats.impurity(self.task) <= 1e-12;
            let split = if leaf { None } else { self.best_split(idx, &stats, rng) };
            let Some((gain, f, t, left_stats)) = split else {
                let mean = if stats.n == 0.0 { 0.0 } else { stats.sum / stats.n };
                self.nodes.push((LEAF, mean.to_bits(), 0, 0, 0f64.to_bits()));
                return self.nodes.len() - 1;
            };
            let (mut lo, mut hi) = (0, idx.len());
            while lo < hi {
                if self.data.row(idx[lo] as usize)[f as usize] <= t {
                    lo += 1;
                } else {
                    hi -= 1;
                    idx.swap(lo, hi);
                }
            }
            let mut right_stats = stats;
            right_stats.n -= left_stats.n;
            right_stats.sum -= left_stats.sum;
            right_stats.sum_sq -= left_stats.sum_sq;
            let id = self.nodes.len();
            self.nodes.push((f, t.to_bits(), id as u32 + 1, 0, gain.to_bits()));
            let (l, r) = idx.split_at_mut(lo);
            self.grow(l, left_stats, depth + 1, rng);
            self.nodes[id].3 = self.grow(r, right_stats, depth + 1, rng) as u32;
            id
        }

        fn best_split(
            &mut self,
            idx: &[u32],
            stats: &Stats,
            rng: &mut impl Rng,
        ) -> Option<(f64, u32, f64, Stats)> {
            let parent = stats.impurity(self.task);
            let min_leaf = self.params.min_samples_leaf as f64;
            let mut best: Option<(f64, u32, f64, Stats)> = None;
            let count = self
                .params
                .max_features
                .map(|m| m.min(self.all_features.len()))
                .unwrap_or(self.all_features.len());
            if count < self.all_features.len() {
                self.all_features.partial_shuffle(rng, count);
            }
            let mut bucket: Vec<Stats> = Vec::new();
            for fi in 0..count {
                let f = self.all_features[fi] as usize;
                let cuts = &self.cuts[f];
                if cuts.is_empty() {
                    continue;
                }
                bucket.clear();
                bucket.resize(cuts.len() + 1, Stats::default());
                for &i in idx {
                    let x = self.data.row(i as usize)[f];
                    bucket[cuts.partition_point(|&c| c < x)].add(self.labels[i as usize]);
                }
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
                    let gain = parent - left.impurity(self.task) - right.impurity(self.task);
                    if best.map_or(gain > -1e-12, |(g, ..)| gain > g) {
                        best = Some((gain, f as u32, cuts[j], left));
                    }
                }
            }
            best.map(|(g, f, t, l)| (g.max(0.0), f, t, l))
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub fn tree(
        data: &Dataset,
        labels: &[f64],
        cuts: &[Vec<f64>],
        indices: &[u32],
        task: Task,
        params: &TreeParams,
        rng: &mut impl Rng,
    ) -> Vec<RawNode> {
        let mut b = Builder {
            data,
            labels,
            cuts,
            task,
            params,
            nodes: Vec::new(),
            all_features: (0..data.num_features() as u32).collect(),
        };
        let mut idx = indices.to_vec();
        let mut root = Stats::default();
        for &i in &idx {
            root.add(labels[i as usize]);
        }
        b.grow(&mut idx, root, 0, rng);
        b.nodes
    }

    pub fn forest(
        data: &Dataset,
        task: Task,
        params: &ForestParams,
        rng: &mut impl Rng,
    ) -> Vec<Vec<RawNode>> {
        let cuts = cuts(data);
        let n = data.len();
        let seeds: Vec<u64> = (0..params.num_trees).map(|_| rng.gen()).collect();
        seeds
            .iter()
            .map(|&seed| {
                let mut tree_rng = SmallRng::seed_from_u64(seed);
                let mut indices: Vec<u32> = (0..n as u32).collect();
                if params.bootstrap {
                    for slot in indices.iter_mut() {
                        *slot = tree_rng.gen_range(0..n) as u32;
                    }
                }
                tree(data, data.labels(), &cuts, &indices, task, &params.tree, &mut tree_rng)
            })
            .collect()
    }

    /// Gradient boosting's predictions on `probes`, with each round's tree
    /// fitted by the reference builder.
    pub fn boost(
        data: &Dataset,
        params: &BoostParams,
        rng: &mut impl Rng,
        probes: &[Vec<f64>],
    ) -> Vec<u64> {
        let n = data.len();
        let cuts = cuts(data);
        let base = data.labels().iter().sum::<f64>() / n as f64;
        let mut prediction = vec![base; n];
        let sample_len = ((n as f64 * params.subsample).round() as usize).clamp(1, n);
        let mut indices: Vec<u32> = (0..n as u32).collect();
        let mut trees = Vec::new();
        for _ in 0..params.num_rounds {
            let residual: Vec<f64> = (0..n).map(|i| data.label(i) - prediction[i]).collect();
            if params.subsample < 1.0 {
                for i in 0..sample_len {
                    let j = rng.gen_range(i..n);
                    indices.swap(i, j);
                }
            }
            let t = tree(
                data,
                &residual,
                &cuts,
                &indices[..sample_len],
                Task::Regression,
                &params.tree,
                rng,
            );
            for (i, p) in prediction.iter_mut().enumerate() {
                *p += params.learning_rate * walk(&t, data.row(i));
            }
            trees.push(t);
        }
        probes
            .iter()
            .map(|row| {
                let sum = trees.iter().map(|t| walk(t, row)).sum::<f64>();
                (base + params.learning_rate * sum).to_bits()
            })
            .collect()
    }

    fn walk(nodes: &[RawNode], row: &[f64]) -> f64 {
        let mut at = 0;
        loop {
            let (f, v, l, r, _) = nodes[at];
            if f == LEAF {
                return f64::from_bits(v);
            }
            at = if row[f as usize] <= f64::from_bits(v) { l } else { r } as usize;
        }
    }
}

/// The shape of a generated dataset. Columns of every kind are shuffled
/// together, so the split search meets them in mixed order.
#[derive(Debug, Clone)]
struct Shape {
    rows: usize,
    /// Single-cut columns: two values, drawn with signed zeros and values
    /// whose midpoint rounds onto one of them (a value exactly on its cut).
    bits: usize,
    /// Few-valued columns, like the voltage and temperature axes.
    discrete: usize,
    /// Continuous columns: with enough rows, more than `MAX_THRESHOLDS + 1`
    /// distinct values, so their cuts are quantiles.
    continuous: usize,
    /// Columns without a cut (one value, possibly as both signed zeros).
    constant: usize,
    seed: u64,
}

fn shape() -> impl Strategy<Value = Shape> {
    (
        prop_oneof![2usize..40, 280usize..420],
        prop_oneof![0usize..6, 60usize..70, 126usize..140],
        0usize..4,
        0usize..3,
        0usize..3,
        any::<u64>(),
    )
        .prop_map(|(rows, bits, discrete, continuous, constant, seed)| Shape {
            rows,
            bits,
            discrete,
            continuous,
            constant,
            seed,
        })
        .prop_filter("at least one column", |s| s.bits + s.discrete + s.continuous + s.constant > 0)
}

/// Two-valued columns whose values sit on float edges: `{-0.0, 0.0}` vs a
/// positive value, and adjacent floats whose midpoint rounds onto one of
/// them, so rows lie exactly on the cut.
const BIT_PAIRS: [(f64, f64); 4] =
    [(0.0, 1.0), (-0.0, 1.0), (1.0, 1.0 + f64::EPSILON), (0.0, f64::from_bits(1))];

fn dataset(s: &Shape, classification: bool) -> Dataset {
    let mut rng = SmallRng::seed_from_u64(s.seed);
    #[derive(Clone, Copy)]
    enum Kind {
        Bit(f64, f64),
        Discrete(u32),
        Continuous,
        Constant(f64),
    }
    let mut kinds: Vec<Kind> = Vec::new();
    kinds.extend((0..s.bits).map(|_| {
        let (lo, hi) = BIT_PAIRS[rng.gen_range(0..BIT_PAIRS.len())];
        Kind::Bit(lo, hi)
    }));
    kinds.extend((0..s.discrete).map(|_| Kind::Discrete(rng.gen_range(2..25))));
    kinds.extend((0..s.continuous).map(|_| Kind::Continuous));
    kinds.extend((0..s.constant).map(|_| Kind::Constant(rng.gen_range(-2.0..2.0))));
    kinds.shuffle(&mut rng);

    let mut d = Dataset::new(kinds.len());
    let mut row = vec![0.0; kinds.len()];
    for _ in 0..s.rows {
        for (x, kind) in row.iter_mut().zip(&kinds) {
            *x = match *kind {
                Kind::Bit(lo, hi) => {
                    if rng.gen_bool(0.5) {
                        hi
                    } else if lo == 0.0 && rng.gen_bool(0.5) {
                        -lo
                    } else {
                        lo
                    }
                }
                Kind::Discrete(k) => 0.8 + 0.01 * rng.gen_range(0..k) as f64,
                Kind::Continuous => rng.gen_range(-1e3..1e3),
                Kind::Constant(c) if c < 0.0 => [0.0, -0.0][rng.gen_range(0..2usize)],
                Kind::Constant(c) => c,
            };
        }
        // A label that depends on the features (so splits have real
        // gains) plus noise (so trees grow deep).
        let signal: f64 = row.iter().take(8).enumerate().map(|(j, x)| x * (j + 1) as f64).sum();
        let label = if classification {
            (signal + rng.gen_range(-2.0..2.0) > 4.0) as u8 as f64
        } else {
            signal + rng.gen_range(-3.0..3.0)
        };
        d.push(&row, label);
    }
    d
}

fn tree_params() -> impl Strategy<Value = TreeParams> {
    (
        prop_oneof![Just(3usize), Just(8), Just(24)],
        prop_oneof![Just(2usize), Just(5)],
        prop_oneof![Just(1usize), Just(3)],
        prop_oneof![Just(None), (1usize..20).prop_map(Some)],
    )
        .prop_map(|(max_depth, min_samples_split, min_samples_leaf, max_features)| {
            TreeParams { max_depth, min_samples_split, min_samples_leaf, max_features }
        })
}

fn task(classification: bool) -> Task {
    if classification {
        Task::Classification
    } else {
        Task::Regression
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn tree_fit_matches_reference(
        s in shape(),
        params in tree_params(),
        classification: bool,
        seed: u64,
    ) {
        let d = dataset(&s, classification);
        let task = task(classification);
        let all: Vec<u32> = (0..d.len() as u32).collect();
        let want = reference::tree(
            &d,
            d.labels(),
            &reference::cuts(&d),
            &all,
            task,
            &params,
            &mut SmallRng::seed_from_u64(seed),
        );
        let got = DecisionTree::fit(&d, task, &params, &mut SmallRng::seed_from_u64(seed));
        prop_assert_eq!(raw(&got), want);
        prop_assert_eq!(got.num_features(), d.num_features());
        prop_assert_eq!(got.task(), task);
    }

    #[test]
    fn forests_match_reference(
        s in shape(),
        tree in tree_params(),
        classification: bool,
        bootstrap: bool,
        num_trees in 1usize..4,
        seed: u64,
    ) {
        let d = dataset(&s, classification);
        let params = ForestParams { num_trees, tree, bootstrap };
        let want = reference::forest(
            &d,
            task(classification),
            &params,
            &mut SmallRng::seed_from_u64(seed),
        );
        let mut rng = SmallRng::seed_from_u64(seed);
        let got: Vec<Vec<RawNode>> = if classification {
            RandomForestClassifier::fit(&d, &params, &mut rng).trees().iter().map(raw).collect()
        } else {
            RandomForestRegressor::fit(&d, &params, &mut rng).trees().iter().map(raw).collect()
        };
        prop_assert_eq!(got, want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Boosting fits each round's residuals over the bins it built once;
    /// the reference rebuilds nothing and reads the row-major matrix.
    #[test]
    fn boosting_matches_reference(
        s in shape(),
        tree in tree_params(),
        num_rounds in 1usize..6,
        full: bool,
        seed: u64,
    ) {
        let d = dataset(&s, false);
        let params = BoostParams {
            num_rounds,
            learning_rate: 0.3,
            tree,
            subsample: if full { 1.0 } else { 0.7 },
        };
        let probes: Vec<Vec<f64>> = (0..d.len()).map(|i| d.row(i).to_vec()).collect();
        let want = reference::boost(&d, &params, &mut SmallRng::seed_from_u64(seed), &probes);
        let gbt = GradientBoostedRegressor::fit(&d, &params, &mut SmallRng::seed_from_u64(seed));
        let got: Vec<u64> = probes.iter().map(|row| gbt.predict(row).to_bits()).collect();
        prop_assert_eq!(got, want);
    }
}
