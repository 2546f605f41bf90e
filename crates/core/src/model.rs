//! The TEVoT model: a random-forest dynamic-delay regressor.
//!
//! Per Sec. III of the paper, TEVoT does not learn the error function
//! `f_e(V, T, t_clk, I)` directly; it learns the dynamic-delay function
//! `D = f_d(V, T, I)` (Eq. 2) and classifies a cycle as erroneous when the
//! predicted delay exceeds the clock period. One trained model therefore
//! serves every clock speed.

use std::io::{Read, Write};

use rand::Rng;
use tevot_ml::persist::{self, LoadModelError};
use tevot_ml::{Dataset, ForestParams, RandomForestRegressor};
use tevot_timing::OperatingCondition;

use crate::dta::Characterization;
use crate::features::FeatureEncoding;
use crate::reference::ReferenceStats;
use crate::workload::Workload;

/// Builds the Eq. 3 feature/label matrices from characterization runs.
///
/// Each `(workload, characterization)` pair contributes one row per cycle
/// `t >= 1` (the cold-start cycle has no history input): features
/// `{x[t], x[t-1], V, T}` under `encoding`, label `D[t]` in picoseconds.
///
/// Runs featurize independently (one `tevot-par` task each) and the
/// per-run blocks concatenate in `runs` order, so the matrix is
/// bit-identical to a serial build at any `--jobs` level.
///
/// # Panics
///
/// Panics if a workload's length differs from its characterization's cycle
/// count, or if `runs` produces no rows.
pub fn build_delay_dataset(
    encoding: FeatureEncoding,
    runs: &[(&Workload, &Characterization)],
) -> Dataset {
    let blocks = tevot_par::map(runs, |&(workload, ch)| {
        assert_eq!(workload.len(), ch.num_cycles(), "workload/characterization cycle mismatch");
        let ops = workload.operands();
        let mut block =
            Dataset::with_capacity(encoding.num_features(), ops.len().saturating_sub(1));
        let mut row = Vec::with_capacity(encoding.num_features());
        for t in 1..ops.len() {
            encoding.encode_into(ch.condition(), ops[t], ops[t - 1], &mut row);
            block.push(&row, ch.delays_ps()[t] as f64);
        }
        block
    });
    let capacity: usize = runs.iter().map(|(w, _)| w.len().saturating_sub(1)).sum();
    let mut data = Dataset::with_capacity(encoding.num_features(), capacity);
    for block in &blocks {
        data.append(block);
    }
    assert!(!data.is_empty(), "no training rows produced");
    data
}

/// Offset of the forest's feature-count field (after its magic, version
/// and task tag), counted like every forest load error from the start of
/// the forest block, which follows the 3-byte model header.
const FOREST_WIDTH_OFFSET: u64 = 8 + 4 + 4;

/// TEVoT hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TevotParams {
    /// The random-forest configuration (paper default: 10 trees, all
    /// features considered at each split).
    pub forest: ForestParams,
    /// The feature layout; [`FeatureEncoding::without_history`] yields the
    /// TEVoT-NH ablation.
    pub encoding: FeatureEncoding,
}

impl Default for TevotParams {
    fn default() -> Self {
        TevotParams { forest: ForestParams::default(), encoding: FeatureEncoding::with_history() }
    }
}

/// A trained TEVoT model.
///
/// # Examples
///
/// See the crate-level documentation for the full train-and-evaluate
/// pipeline; the unit tests below exercise a miniature version.
#[derive(Debug, Clone, PartialEq)]
pub struct TevotModel {
    forest: RandomForestRegressor,
    encoding: FeatureEncoding,
    reference: Option<ReferenceStats>,
}

impl TevotModel {
    /// Trains on a delay dataset produced by [`build_delay_dataset`].
    ///
    /// # Panics
    ///
    /// Panics if the dataset width does not match `params.encoding`.
    pub fn train(data: &Dataset, params: &TevotParams, rng: &mut impl Rng) -> Self {
        assert_eq!(
            data.num_features(),
            params.encoding.num_features(),
            "dataset width does not match the feature encoding"
        );
        let _span =
            tevot_obs::span!("fit", "{} rows x {} features", data.len(), data.num_features());
        TevotModel {
            forest: RandomForestRegressor::fit(data, &params.forest, rng),
            encoding: params.encoding,
            reference: None,
        }
    }

    /// The train-time reference statistics, when the model carries them
    /// (models saved before the reference block, or trained without one,
    /// return `None`).
    pub fn reference(&self) -> Option<&ReferenceStats> {
        self.reference.as_ref()
    }

    /// Attaches train-time reference statistics; they persist through
    /// [`Self::save`] and feed serve-side drift monitoring.
    pub fn set_reference(&mut self, reference: ReferenceStats) {
        self.reference = Some(reference);
    }

    /// The feature encoding this model was trained with.
    pub fn encoding(&self) -> FeatureEncoding {
        self.encoding
    }

    /// The underlying forest.
    pub fn forest(&self) -> &RandomForestRegressor {
        &self.forest
    }

    /// Normalized feature importances paired with human-readable feature
    /// names (`a[t] bit 31`, `b[t-1] bit 0`, `V`, `T`, ...) — the
    /// interpretability that made the paper pick the random forest: "it
    /// can interpret the significance disparity between different
    /// features" (Sec. IV-B2).
    pub fn feature_importances(&self) -> Vec<(String, f64)> {
        let imp = self.forest.feature_importances();
        imp.into_iter().enumerate().map(|(i, v)| (self.feature_name(i), v)).collect()
    }

    fn feature_name(&self, index: usize) -> String {
        let history = self.encoding.has_history();
        let words: &[&str] =
            if history { &["a[t]", "b[t]", "a[t-1]", "b[t-1]"] } else { &["a[t]", "b[t]"] };
        let bits = words.len() * 32;
        match index {
            i if i < bits => format!("{} bit {}", words[i / 32], i % 32),
            i if i == bits => "V".into(),
            i if i == bits + 1 => "T".into(),
            i => format!("feature {i}"),
        }
    }

    /// Predicts the dynamic delay (ps) of the transition
    /// `previous -> current` at `cond`.
    ///
    /// Allocation-free: the forest reads each feature it tests straight
    /// from the operand bits packed into one `u128` instead of an encoded
    /// `f64` row. Those reads return the values
    /// [`FeatureEncoding::encode`] would write, so the result is
    /// bit-identical to `forest().predict(&encoding().encode(..))`.
    pub fn predict_delay_ps(
        &self,
        cond: OperatingCondition,
        current: (u32, u32),
        previous: (u32, u32),
    ) -> f64 {
        tevot_obs::metrics::CORE_PREDICTIONS.incr();
        let row = self.encoding.pack(cond, current, previous);
        self.forest.predict_by(|f| row.feature(f))
    }

    /// Classifies the cycle: timing-erroneous iff the predicted delay
    /// exceeds `clock_ps`.
    pub fn predict_error(
        &self,
        cond: OperatingCondition,
        clock_ps: u64,
        current: (u32, u32),
        previous: (u32, u32),
    ) -> bool {
        self.predict_delay_ps(cond, current, previous) > clock_ps as f64
    }

    /// Serializes the model (see `tevot_ml::persist` for the forest
    /// format). The header tag is a bitfield: bit 0 = history features,
    /// bit 1 = a [`ReferenceStats`] block follows the forest.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, mut writer: impl Write) -> std::io::Result<()> {
        let mut tag: u8 = if self.encoding.has_history() { 1 } else { 0 };
        if self.reference.is_some() {
            tag |= 2;
        }
        writer.write_all(&[b'T', b'V', tag])?;
        persist::save_regressor(&self.forest, &mut writer)?;
        match &self.reference {
            Some(reference) => reference.write_to(writer),
            None => Ok(()),
        }
    }

    /// Deserializes a model written by [`Self::save`].
    ///
    /// # Errors
    ///
    /// Returns [`LoadModelError`] on I/O failure or malformed data,
    /// naming the byte offset where decoding stopped.
    pub fn load(mut reader: impl Read) -> Result<TevotModel, LoadModelError> {
        let mut header = [0u8; 3];
        reader.read_exact(&mut header).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                LoadModelError::format(0, "truncated: shorter than the 3-byte header")
            } else {
                e.into()
            }
        })?;
        if &header[..2] != b"TV" || header[2] > 3 {
            return Err(LoadModelError::format(0, "not a TEVoT model"));
        }
        let encoding = if header[2] & 1 == 1 {
            FeatureEncoding::with_history()
        } else {
            FeatureEncoding::without_history()
        };
        let forest = persist::load_regressor(&mut reader)?;
        let width = forest.trees()[0].num_features();
        if width != encoding.num_features() {
            return Err(LoadModelError::format(
                FOREST_WIDTH_OFFSET,
                format!(
                    "forest is {width} features wide but the header's encoding has {}",
                    encoding.num_features()
                ),
            ));
        }
        // Pre-reference files (tags 0/1) end at the forest and load with
        // reference = None; bit 1 promises a trailing TVRS block.
        let reference =
            if header[2] & 2 == 2 { Some(ReferenceStats::read_from(reader)?) } else { None };
        Ok(TevotModel { forest, encoding, reference })
    }

    /// Saves the model to `path` (failpoint: `model.save`).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors, including injected ones.
    pub fn save_path(&self, path: &std::path::Path) -> std::io::Result<()> {
        tevot_resil::fail::eval("model.save")?;
        let mut writer = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.save(&mut writer)?;
        writer.flush()
    }

    /// Loads a model from `path`; a truncated or corrupt file yields a
    /// typed error naming the path and byte offset (failpoint:
    /// `model.load`).
    ///
    /// # Errors
    ///
    /// [`LoadModelError::AtPath`] wrapping the underlying failure.
    pub fn load_path(path: &std::path::Path) -> Result<TevotModel, LoadModelError> {
        persist::open_model(path)
            .and_then(|f| Self::load(std::io::BufReader::new(f)))
            .map_err(|e| e.at_path(path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dta::Characterizer;
    use crate::workload::random_workload;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use tevot_netlist::fu::FunctionalUnit;
    use tevot_timing::ClockSpeedup;

    fn tiny_setup() -> (Workload, Characterization) {
        let fu = FunctionalUnit::IntAdd;
        let ch = Characterizer::new(fu);
        let w = random_workload(fu, 800, 5);
        let c = ch.characterize(OperatingCondition::new(0.9, 25.0), &w, &ClockSpeedup::PAPER);
        (w, c)
    }

    #[test]
    fn dataset_shape_matches_eq3() {
        let (w, c) = tiny_setup();
        let data = build_delay_dataset(FeatureEncoding::with_history(), &[(&w, &c)]);
        assert_eq!(data.num_features(), 130);
        assert_eq!(data.len(), 799, "one row per cycle t >= 1");
        // Labels are the measured dynamic delays.
        assert_eq!(data.label(0), c.delays_ps()[1] as f64);
    }

    #[test]
    fn trained_model_tracks_delay_scale() {
        let (w, c) = tiny_setup();
        let data = build_delay_dataset(FeatureEncoding::with_history(), &[(&w, &c)]);
        let mut rng = SmallRng::seed_from_u64(1);
        let model = TevotModel::train(&data, &TevotParams::default(), &mut rng);
        // In-sample delay predictions should correlate strongly.
        let ops = w.operands();
        let mut pred = Vec::new();
        let mut actual = Vec::new();
        for t in 1..ops.len() {
            pred.push(model.predict_delay_ps(c.condition(), ops[t], ops[t - 1]));
            actual.push(c.delays_ps()[t] as f64);
        }
        // Bootstrapped trees see ~63% of rows each, so even in-sample
        // predictions carry out-of-bag error; 0.7 is a robust floor.
        let r2 = tevot_ml::metrics::r_squared(&pred, &actual);
        assert!(r2 > 0.7, "in-sample R^2 {r2}");
    }

    #[test]
    fn error_classification_uses_clock_period() {
        let (w, c) = tiny_setup();
        let data = build_delay_dataset(FeatureEncoding::with_history(), &[(&w, &c)]);
        let mut rng = SmallRng::seed_from_u64(1);
        let model = TevotModel::train(&data, &TevotParams::default(), &mut rng);
        let ops = w.operands();
        // A clock far above the critical path can never be erroneous; a
        // 1 ps clock always is.
        let huge = c.critical_delay_ps() * 10;
        assert!(!model.predict_error(c.condition(), huge, ops[5], ops[4]));
        assert!(model.predict_error(c.condition(), 1, ops[5], ops[4]));
    }

    #[test]
    fn save_load_roundtrip() {
        let (w, c) = tiny_setup();
        let data = build_delay_dataset(FeatureEncoding::with_history(), &[(&w, &c)]);
        let mut rng = SmallRng::seed_from_u64(1);
        let model = TevotModel::train(&data, &TevotParams::default(), &mut rng);
        let mut buf = Vec::new();
        model.save(&mut buf).unwrap();
        let loaded = TevotModel::load(buf.as_slice()).unwrap();
        let ops = w.operands();
        assert_eq!(
            model.predict_delay_ps(c.condition(), ops[2], ops[1]),
            loaded.predict_delay_ps(c.condition(), ops[2], ops[1])
        );
        assert!(loaded.encoding().has_history());
    }

    #[test]
    fn reference_block_round_trips_and_is_optional() {
        let (w, c) = tiny_setup();
        let data = build_delay_dataset(FeatureEncoding::with_history(), &[(&w, &c)]);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut model = TevotModel::train(&data, &TevotParams::default(), &mut rng);

        // Without a reference, the pre-reference byte stream is emitted:
        // old loaders keep working and reference() stays None.
        let mut plain = Vec::new();
        model.save(&mut plain).unwrap();
        assert_eq!(plain[2], 1, "history-only tag for reference-free models");
        assert!(TevotModel::load(plain.as_slice()).unwrap().reference().is_none());

        let delays: Vec<f64> = c.delays_ps().iter().map(|&d| d as f64).collect();
        model.set_reference(ReferenceStats::collect(&[c.condition()], &delays));
        let mut buf = Vec::new();
        model.save(&mut buf).unwrap();
        assert_eq!(buf[2], 3, "history + reference bits");
        let loaded = TevotModel::load(buf.as_slice()).unwrap();
        assert_eq!(loaded, model);
        let reference = loaded.reference().expect("reference block survives the round-trip");
        assert_eq!(reference.voltage.total(), 1);
        assert_eq!(reference.delay_ps.total() as usize, c.delays_ps().len());

        // A truncated reference block is a load error, not a silent None.
        assert!(TevotModel::load(&buf[..buf.len() - 5]).is_err());
        // Unknown future tags are rejected.
        let mut future = plain;
        future[2] = 4;
        assert!(TevotModel::load(future.as_slice()).is_err());
    }

    #[test]
    fn forest_width_must_match_the_header_encoding() {
        let (w, c) = tiny_setup();
        for (encoding, wrong_tag) in
            [(FeatureEncoding::without_history(), 1), (FeatureEncoding::with_history(), 0)]
        {
            let data = build_delay_dataset(encoding, &[(&w, &c)]);
            let params = TevotParams {
                forest: ForestParams { num_trees: 2, ..ForestParams::default() },
                encoding,
            };
            let model = TevotModel::train(&data, &params, &mut SmallRng::seed_from_u64(1));
            let mut buf = Vec::new();
            model.save(&mut buf).unwrap();
            assert_eq!(TevotModel::load(buf.as_slice()).unwrap(), model);
            buf[2] = wrong_tag;
            match TevotModel::load(buf.as_slice()).unwrap_err() {
                LoadModelError::Format { offset, message } => {
                    assert_eq!(offset, FOREST_WIDTH_OFFSET);
                    assert_eq!(
                        u64::from_le_bytes(buf[3 + offset as usize..][..8].try_into().unwrap()),
                        encoding.num_features() as u64,
                        "the offset names the width field"
                    );
                    assert!(message.contains("features wide"), "{message}");
                }
                other => panic!("expected a format error, got {other}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not match the feature encoding")]
    fn encoding_mismatch_is_rejected() {
        let (w, c) = tiny_setup();
        let data = build_delay_dataset(FeatureEncoding::without_history(), &[(&w, &c)]);
        let mut rng = SmallRng::seed_from_u64(1);
        let _ = TevotModel::train(&data, &TevotParams::default(), &mut rng);
    }
}
