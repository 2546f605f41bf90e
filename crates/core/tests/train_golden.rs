//! Golden model bytes: a fixed-seed TEVoT fit on a small INT ADD sweep
//! must save to exactly the bytes recorded when the value was pinned.
//!
//! Changes to how the forest is fitted (binning, split search, summation
//! order, parallel tree fitting) must not move one byte of a trained
//! model; this test fails on any that do. Re-pin `GOLDEN` only with a
//! change that means to alter trained models, and say why in it.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tevot::dta::Characterizer;
use tevot::workload::random_workload;
use tevot::{build_delay_dataset, FeatureEncoding, TevotModel, TevotParams};
use tevot_ml::ForestParams;
use tevot_netlist::fu::FunctionalUnit;
use tevot_timing::{ClockSpeedup, OperatingCondition};

/// FNV-1a (64-bit) of the saved `(TEVoT, TEVoT-NH)` models, recorded
/// with the row-major split search that the binned fit replaced.
const GOLDEN: [u64; 2] = [0xc23a_6d8b_9921_0b3f, 0xfb54_3b6d_f8e5_0247];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

#[test]
fn fixed_seed_models_save_to_the_golden_bytes() {
    let fu = FunctionalUnit::IntAdd;
    let characterizer = Characterizer::new(fu);
    let work = random_workload(fu, 200, 5);
    let chars: Vec<_> = [(0.81, 0.0), (0.81, 100.0), (0.9, 25.0), (1.0, 0.0), (1.0, 100.0)]
        .into_iter()
        .map(|(v, t)| {
            characterizer.characterize(OperatingCondition::new(v, t), &work, &ClockSpeedup::PAPER)
        })
        .collect();
    let runs: Vec<_> = chars.iter().map(|c| (&work, c)).collect();
    let hashes =
        [FeatureEncoding::with_history(), FeatureEncoding::without_history()].map(|encoding| {
            let params = TevotParams { forest: ForestParams::default(), encoding };
            let data = build_delay_dataset(encoding, &runs);
            let model = TevotModel::train(&data, &params, &mut SmallRng::seed_from_u64(2020));
            let mut bytes = Vec::new();
            model.save(&mut bytes).expect("save to memory");
            fnv1a(&bytes)
        });
    assert_eq!(hashes, GOLDEN, "trained model bytes moved: {hashes:#018x?}");
}
