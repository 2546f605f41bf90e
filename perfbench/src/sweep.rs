//! `sweep_train`: the paper's offline job. INT MUL over the Table I grid
//! (100 (V, T) points): `Characterizer::characterize_sweep` →
//! `build_delay_dataset` → `TevotModel::train` (10 trees) → held-out
//! `evaluate_predictor`.

use tevot::dta::{Characterization, Characterizer};
use tevot::workload::{random_workload, Workload};
use tevot::TevotModel;
use tevot_sim::Engine;
use tevot_timing::{ClockSpeedup, ConditionGrid, OperatingCondition};

use crate::client::Source;
use crate::infer::Stream;
use crate::model::{evaluate, EvalCase, Pipeline, FU};
use crate::stats::{median, quantile, Metrics, Tally};
use crate::{end_to_end, mix, spread_setups, Opts, Outcome, FAST_QUANTILE};

/// Training vectors per condition.
pub const TRAIN_VECTORS: usize = 64;
/// Held-out vectors per evaluated condition.
pub const TEST_VECTORS: usize = 400;

/// The evaluated grid points (indices into `ConditionGrid::paper()`,
/// voltage-major): every other voltage, each temperature twice.
const EVAL: [usize; 10] = [0, 11, 22, 33, 44, 50, 61, 72, 83, 94];
/// Of those, the points whose levelized traces are checked against the
/// event engine in setup.
const EVENT_CHECKED: [usize; 3] = [0, 4, 9];

/// The generated inputs: training and held-out operand streams.
pub fn inputs(seed: u64) -> (Workload, Workload) {
    (
        random_workload(FU, TRAIN_VECTORS, mix(seed, 1)),
        random_workload(FU, TEST_VECTORS, mix(seed, 2)),
    )
}

struct State {
    characterizer: Characterizer,
    grid: Vec<OperatingCondition>,
    train: Workload,
    /// Held-out truth at each `EVAL` point.
    eval: Vec<EvalCase>,
    /// The sweep's expected characterization at each `EVAL` point.
    expected: Vec<Characterization>,
    /// Whether the levelized traces matched the event engine.
    oracle_ok: bool,
    seed: u64,
}

fn setup(opts: &Opts) -> State {
    let (train, test) = inputs(opts.seed);
    let characterizer = Characterizer::new(FU);
    let grid: Vec<OperatingCondition> = ConditionGrid::paper().iter().collect();
    let traces = tevot_par::map(&EVAL, |&i| characterizer.trace(grid[i], &train));
    let event = Characterizer::new(FU).with_engine(Engine::Event);
    let event_traces = tevot_par::map(&EVENT_CHECKED, |&k| event.trace(grid[EVAL[k]], &train));
    let oracle_ok = EVENT_CHECKED.iter().zip(&event_traces).all(|(&k, e)| traces[k] == *e);
    let mut expected: Vec<Characterization> = traces
        .iter()
        .map(|trace| {
            let base = trace.fastest_error_free_period_ps();
            let periods: Vec<u64> =
                ClockSpeedup::PAPER.iter().map(|s| s.apply_to_period(base)).collect();
            trace.characterization(&periods)
        })
        .collect();
    let eval = tevot_par::map(&expected, |c| {
        (
            test.clone(),
            characterizer.characterize_with_periods(c.condition(), &test, c.clock_periods_ps()),
        )
    });
    if opts.corrupt {
        expected.swap(0, 1);
    }
    State { characterizer, grid, train, eval, expected, oracle_ok, seed: opts.seed }
}

impl State {
    fn pipeline(&self) -> Pipeline<'_> {
        Pipeline {
            characterizer: &self.characterizer,
            grid: &self.grid,
            train: &self.train,
            seed: mix(self.seed, 3),
        }
    }

    /// Whether a sweep reproduced the expected characterizations.
    fn sweep_ok(&self, chars: &[Characterization]) -> bool {
        self.oracle_ok && EVAL.iter().zip(&self.expected).all(|(&i, e)| chars[i] == *e)
    }

    /// The held-out streams with their true delays and clock periods.
    fn sources(&self) -> Vec<Source> {
        self.eval
            .iter()
            .map(|(w, truth)| Source {
                stream: Stream {
                    cond: truth.condition(),
                    ops: w.operands().to_vec(),
                    actual: truth.delays_ps().to_vec(),
                },
                periods: truth.clock_periods_ps().to_vec(),
            })
            .collect()
    }
}

/// The untraced run: whole jobs back to back for `opts.seconds`, spread
/// between the set-ups.
pub fn run(opts: &Opts) -> Outcome {
    let mut tally = Tally::default();
    let mut times = Vec::new();
    let mut reference: Option<(TevotModel, f64)> = None;
    let (_, setup_s, reproduced) = spread_setups(
        || setup(opts),
        |a, b| a.oracle_ok == b.oracle_ok && a.expected == b.expected && a.eval == b.eval,
        opts.seconds,
        |state, secs| {
            let start = std::time::Instant::now();
            while times.len() < 2 || start.elapsed().as_secs_f64() < secs {
                let built = state.pipeline().run();
                let accuracy = evaluate(&built.model, &state.eval);
                let mut ok = state.sweep_ok(&built.chars);
                match &reference {
                    None => reference = Some((built.model, accuracy)),
                    Some((model, acc)) => {
                        ok &= *model == built.model && acc.to_bits() == accuracy.to_bits()
                    }
                }
                tally.record(ok);
                times.push(built.model_s);
            }
        },
    );
    tally.record(reproduced);
    let accuracy = reference.map_or(f64::NAN, |(_, a)| a);
    let model_s = quantile(&times, FAST_QUANTILE);
    eprintln!(
        "sweep_train: {} jobs, sweep-to-model p2 {:.3} s, median {:.3} s",
        times.len(),
        model_s,
        median(&times)
    );
    Outcome { tally, metrics: end_to_end(setup_s, tally, model_s * 1e3, accuracy) }
}

/// The traced run: one untraced and one traced job (their ratio is the
/// tracing overhead), the traced job's layer breakdown, then the shared
/// inference and serving probes on the trained model.
pub fn traced(opts: &Opts) -> Outcome {
    let state = setup(opts);
    let mut out = Metrics::default();
    let mut tally = Tally::default();
    tevot_obs::trace::disable();
    let plain = state.pipeline().run();
    tally.record(state.sweep_ok(&plain.chars));
    tevot_obs::trace::enable();
    let sample: Vec<usize> = EVAL.iter().copied().take(3).collect();
    let built = state.pipeline().run_traced(&sample, |_| state.eval.clone(), &mut out);
    tally.record(state.sweep_ok(&built.chars) && built.model == plain.model);
    tally.merge(crate::layer_probes(&built.model, &state.sources(), opts.seed, &mut out));
    out.push("trace_overhead_ratio", built.model_s / plain.model_s, "ratio");
    Outcome { tally, metrics: out }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_points_are_distinct_grid_points() {
        let n = ConditionGrid::paper().len();
        assert!(EVAL.iter().all(|&i| i < n));
        assert!(EVAL.windows(2).all(|w| w[0] < w[1]));
        assert!(EVENT_CHECKED.iter().all(|&k| k < EVAL.len()));
    }
}
