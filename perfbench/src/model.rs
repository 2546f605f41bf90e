//! The model-building path every workload runs: characterization sweep
//! (`tevot` core over `tevot-sim` and `tevot-timing`), featurization and
//! forest fit (`tevot-ml`), then held-out evaluation — and the probes
//! that time its layers one call at a time in the traced run.

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tevot::dta::{Characterization, Characterizer};
use tevot::eval::{evaluate_predictor, mean_accuracy};
use tevot::workload::Workload;
use tevot::{build_delay_dataset, TevotModel, TevotParams};
use tevot_netlist::fu::FunctionalUnit;
use tevot_obs::metrics::{ML_NODE_SPLITS, SIM_LEV_REPLAY_EVALS, SIM_LEV_WORD_EVALS};
use tevot_sim::LevelizedSimulator;
use tevot_timing::{sta, ClockSpeedup, OperatingCondition};

use crate::spans::span;
use crate::stats::{median, Metrics};

/// The unit every workload characterizes: INT MUL, the deepest netlist.
pub const FU: FunctionalUnit = FunctionalUnit::IntMul;

/// Trees in every trained forest (the paper's default).
pub const TREES: usize = 10;

/// A held-out evaluation case: a workload and its gate-level truth at
/// one condition, at the training clock periods of that condition.
pub type EvalCase = (Workload, Characterization);

/// One model build: its inputs and the seed of the forest's bootstrap.
pub struct Pipeline<'a> {
    /// The characterizer (netlist plus delay model).
    pub characterizer: &'a Characterizer,
    /// The sweep's conditions.
    pub grid: &'a [OperatingCondition],
    /// The training workload, simulated at every condition.
    pub train: &'a Workload,
    /// Seed of the forest fit.
    pub seed: u64,
}

/// What a build produced.
pub struct Built {
    /// The trained model.
    pub model: TevotModel,
    /// The sweep's characterizations, in grid order.
    pub chars: Vec<Characterization>,
    /// Wall time from the first simulation call to the trained model, s.
    pub model_s: f64,
    /// Of which the sweep, s.
    pub sweep_s: f64,
    /// Of which featurization, s.
    pub featurize_s: f64,
    /// Of which the forest fit, s.
    pub fit_s: f64,
    /// Training rows.
    pub rows: usize,
}

impl Pipeline<'_> {
    /// Sweep, featurize and fit.
    pub fn run(&self) -> Built {
        let t0 = Instant::now();
        let chars = {
            let _s = span("core.sweep");
            self.characterizer.characterize_sweep(self.grid, self.train, &ClockSpeedup::PAPER)
        };
        let t1 = Instant::now();
        let mut params = TevotParams::default();
        params.forest.num_trees = TREES;
        let data = {
            let _s = span("core.featurize");
            let runs: Vec<_> = chars.iter().map(|c| (self.train, c)).collect();
            build_delay_dataset(params.encoding, &runs)
        };
        let t2 = Instant::now();
        let model = {
            let _s = span("ml.fit");
            TevotModel::train(&data, &params, &mut SmallRng::seed_from_u64(self.seed))
        };
        let t3 = Instant::now();
        Built {
            model,
            chars,
            model_s: (t3 - t0).as_secs_f64(),
            sweep_s: (t1 - t0).as_secs_f64(),
            featurize_s: (t2 - t1).as_secs_f64(),
            fit_s: (t3 - t2).as_secs_f64(),
            rows: data.len(),
        }
    }

    /// [`Self::run`] under spans, plus a serial probe of the sweep's
    /// per-condition layers on `sample` (indices into the grid), and the
    /// held-out evaluation. Pushes the model-side per-layer metrics.
    /// `eval` derives the held-out cases from the build.
    pub fn run_traced(
        &self,
        sample: &[usize],
        eval: impl FnOnce(&Built) -> Vec<EvalCase>,
        out: &mut Metrics,
    ) -> Built {
        let (words0, replays0, splits0) =
            (SIM_LEV_WORD_EVALS.get(), SIM_LEV_REPLAY_EVALS.get(), ML_NODE_SPLITS.get());
        let built = self.run();
        let words = SIM_LEV_WORD_EVALS.get() - words0;
        let replays = SIM_LEV_REPLAY_EVALS.get() - replays0;
        let splits = ML_NODE_SPLITS.get() - splits0;
        let eval = eval(&built);
        let t0 = Instant::now();
        evaluate(&built.model, &eval);
        let eval_s = t0.elapsed().as_secs_f64();

        let (annotate_s, lev_s) =
            probe_conditions(self.characterizer, self.grid, self.train, sample);
        let sweep_s = built.sweep_s;
        let serial_s = (annotate_s + lev_s) * self.grid.len() as f64;
        let cycles = self.train.len() as f64;
        out.push("timing.annotate_ms", annotate_s * 1e3, "ms");
        out.push("sim.lev_ms", lev_s * 1e3, "ms");
        out.push("sim.lev_cycles_per_s", cycles / lev_s, "1/s");
        out.push("sim.word_evals", words as f64, "count");
        out.push("sim.replay_evals", replays as f64, "count");
        out.push("core.sweep_ms", sweep_s * 1e3, "ms");
        out.push("par.sweep_efficiency", serial_s / (sweep_s * tevot_par::jobs() as f64), "ratio");
        out.push("core.featurize_ms", built.featurize_s * 1e3, "ms");
        out.push("core.rows", built.rows as f64, "count");
        out.push("ml.fit_ms", built.fit_s * 1e3, "ms");
        out.push("ml.node_splits", splits as f64, "count");
        out.push("core.eval_ms", eval_s * 1e3, "ms");
        built
    }
}

/// Mean Eq. 4 accuracy of `model` over the held-out cases.
pub fn evaluate(model: &TevotModel, eval: &[EvalCase]) -> f64 {
    let _s = span("core.eval");
    let mut predictor = model.clone();
    let points: Vec<_> = eval
        .iter()
        .flat_map(|(workload, truth)| evaluate_predictor(&mut predictor, workload, truth))
        .collect();
    mean_accuracy(&points)
}

/// Times `DelayModel::annotate` + `sta::run` and `LevelizedSimulator::run`
/// one condition at a time on one thread; returns the median seconds per
/// condition of each.
fn probe_conditions(
    characterizer: &Characterizer,
    grid: &[OperatingCondition],
    workload: &Workload,
    sample: &[usize],
) -> (f64, f64) {
    let netlist = characterizer.netlist();
    let vectors: Vec<Vec<bool>> =
        workload.operands().iter().map(|&(a, b)| FU.encode_operands(a, b)).collect();
    let mut annotate = Vec::new();
    let mut lev = Vec::new();
    for &i in sample {
        let t0 = Instant::now();
        let ann = {
            let _s = span("timing.annotate");
            let ann = characterizer.delay_model().annotate(netlist, grid[i]);
            std::hint::black_box(sta::run(netlist, &ann).critical_delay_ps());
            ann
        };
        annotate.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        {
            let _s = span("sim.lev");
            std::hint::black_box(LevelizedSimulator::new(netlist, &ann).run(&vectors));
        }
        lev.push(t0.elapsed().as_secs_f64());
    }
    (median(&annotate), median(&lev))
}
