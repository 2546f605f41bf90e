//! Property tests for the TEVoT core: feature-encoding invertibility,
//! packed-inference bit-identity, workload trace round-trips and
//! characterization invariants.

use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tevot::dta::Characterizer;
use tevot::workload::{characterization_workload, random_workload};
use tevot::{build_delay_dataset, FeatureEncoding, TevotModel, TevotParams, Workload};
use tevot_ml::ForestParams;
use tevot_netlist::fu::FunctionalUnit;
use tevot_timing::{ClockSpeedup, OperatingCondition};

/// Small INT ADD models, with and without history, trained once on three
/// corners so their trees split on V and T as well as on operand bits.
fn models() -> &'static [TevotModel; 2] {
    static MODELS: OnceLock<[TevotModel; 2]> = OnceLock::new();
    MODELS.get_or_init(|| {
        let fu = FunctionalUnit::IntAdd;
        let characterizer = Characterizer::new(fu);
        let work = random_workload(fu, 300, 11);
        let chars: Vec<_> = [(0.81, 0.0), (0.9, 50.0), (1.0, 100.0)]
            .into_iter()
            .map(|(v, t)| {
                let cond = OperatingCondition::new(v, t);
                characterizer.characterize(cond, &work, &ClockSpeedup::PAPER)
            })
            .collect();
        let runs: Vec<_> = chars.iter().map(|c| (&work, c)).collect();
        [FeatureEncoding::with_history(), FeatureEncoding::without_history()].map(|encoding| {
            let params = TevotParams {
                forest: ForestParams { num_trees: 4, ..ForestParams::default() },
                encoding,
            };
            let data = build_delay_dataset(encoding, &runs);
            TevotModel::train(&data, &params, &mut SmallRng::seed_from_u64(3))
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The Eq. 3 encoding is lossless: every operand bit and the condition
    /// are recoverable from the feature vector.
    #[test]
    fn encoding_is_invertible(
        a: u32, b: u32, pa: u32, pb: u32,
        v in 0.81f64..=1.0, t in 0.0f64..=100.0,
    ) {
        let cond = OperatingCondition::new(v, t);
        let f = FeatureEncoding::with_history().encode(cond, (a, b), (pa, pb));
        let word = |off: usize| -> u32 {
            (0..32).fold(0u32, |acc, i| acc | ((f[off + i] != 0.0) as u32) << i)
        };
        prop_assert_eq!(word(0), a);
        prop_assert_eq!(word(32), b);
        prop_assert_eq!(word(64), pa);
        prop_assert_eq!(word(96), pb);
        prop_assert_eq!(f[128], v);
        prop_assert_eq!(f[129], t);
        // Bit features are strictly 0/1.
        prop_assert!(f[..128].iter().all(|&x| x == 0.0 || x == 1.0));
    }

    /// Workload text traces round-trip arbitrary operand streams.
    #[test]
    fn trace_roundtrip(pairs in prop::collection::vec((any::<u32>(), any::<u32>()), 1..50)) {
        let w = Workload::new("prop", pairs);
        prop_assert_eq!(Workload::from_text(&w.to_text()).unwrap(), w);
    }

    /// Characterization invariants on arbitrary small workloads: delays
    /// bounded by STA, error flags consistent with the clock ordering.
    #[test]
    fn characterization_invariants(seed: u64, n in 4usize..24) {
        let fu = FunctionalUnit::IntAdd;
        let characterizer = Characterizer::new(fu);
        let cond = OperatingCondition::new(0.9, 25.0);
        let work = random_workload(fu, n, seed);
        let crit = characterizer.critical_delay_ps(cond);
        let slow = crit + 10;
        let fast = crit / 2;
        let c = characterizer.characterize_with_periods(cond, &work, &[slow, fast]);
        prop_assert_eq!(c.num_cycles(), n);
        for (cycle, &d) in c.delays_ps().iter().enumerate() {
            prop_assert!(d <= crit, "delay {d} beyond critical {crit}");
            // Above the critical path nothing is erroneous.
            prop_assert!(!c.erroneous(0)[cycle]);
            // A cycle erroneous at the fast clock must actually have late
            // toggles.
            if c.erroneous(1)[cycle] {
                prop_assert!(d > fast);
            }
        }
        prop_assert!(c.timing_error_rate(0) <= c.timing_error_rate(1) + 1e-12);
    }

    /// The Fmax characterization suite always embeds its directed corners,
    /// for every FU and length.
    #[test]
    fn characterization_suite_has_corners(n in 40usize..200, seed: u64) {
        for fu in [FunctionalUnit::IntAdd, FunctionalUnit::FpAdd] {
            let w = characterization_workload(fu, n, seed);
            prop_assert_eq!(w.len(), n);
            // Roughly a third of the slots are directed patterns; the
            // all-zero pair is the first corner and must appear.
            let corner = if fu.is_float() {
                (1.0f32.to_bits(), (-1.000_000_1f32).to_bits())
            } else {
                (0, 0)
            };
            prop_assert!(w.operands().contains(&corner), "{fu}");
        }
    }

    /// `predict_delay_ps` (packed operand bits, no row) is bit-identical
    /// to the forest walked over the encoded `f64` row, for both
    /// encodings, any operands and any (V, T), on the grid or off it.
    #[test]
    fn packed_prediction_is_bit_identical_to_the_encoded_row(
        a: u32, b: u32, pa: u32, pb: u32,
        v in prop_oneof![Just(0.81), Just(0.9), Just(1.0), 0.6f64..1.2],
        t in prop_oneof![Just(0.0), Just(50.0), Just(100.0), -40.0f64..150.0],
    ) {
        let cond = OperatingCondition::new(v, t);
        // Random words rarely hit the trained operand structure; their
        // low bits and the all-zero word do.
        let low = |x: u32| x & 0xff;
        let transitions = [((a, b), (pa, pb)), ((low(a), low(b)), (low(pa), 0)), ((0, 0), (a, b))];
        for (cur, prev) in transitions {
            for model in models() {
                let row = model.encoding().encode(cond, cur, prev);
                prop_assert_eq!(
                    model.predict_delay_ps(cond, cur, prev).to_bits(),
                    model.forest().predict(&row).to_bits()
                );
            }
        }
    }
}
