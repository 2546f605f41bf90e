//! `dfs_replay`: `tevot_dfs::replay` of a calibrated closed-loop
//! `ClockController` over Sobel and Gaussian SIMT operand traces for INT
//! MUL at three corners — 0.9 V/25 °C, 0.81 V/100 °C and the
//! ITD-inverted 0.81 V/0 °C. The gate-level delays are simulated once in
//! setup; only the replay is timed, and every replay must reproduce the
//! offline closed loop's outcome exactly.

use std::time::Instant;

use tevot::dta::Characterizer;
use tevot::workload::{random_workload, Workload};
use tevot::TevotModel;
use tevot_imgproc::profile::profile_application;
use tevot_imgproc::synth::synthetic_corpus;
use tevot_imgproc::Application;
use tevot_timing::{ConditionGrid, OperatingCondition};

use crate::client::Source;
use crate::infer::{self, Case, Stream};
use crate::model::{EvalCase, Pipeline, FU};
use crate::stats::{median, quantile, Metrics, Tally};
use crate::{end_to_end, mix, spread_setups, Opts, Outcome, FAST_QUANTILE};

/// Synthetic images the applications run over, and their side.
const IMAGES: usize = 4;
const IMAGE_SIDE: usize = 32;
/// Application operations per stream used for training / replayed.
pub const TRAIN_APP_OPS: usize = 120;
pub const REPLAY_OPS: usize = 1500;
/// Random training vectors per condition.
const TRAIN_RANDOM: usize = 160;

/// The corners the controller is replayed at.
pub fn corners() -> [OperatingCondition; 3] {
    [
        OperatingCondition::new(0.9, 25.0),
        OperatingCondition::new(0.81, 100.0),
        OperatingCondition::new(0.81, 0.0),
    ]
}

/// The training grid, which holds every corner.
fn grid() -> Vec<OperatingCondition> {
    ConditionGrid::new(vec![0.81, 0.9, 1.0], vec![0.0, 25.0, 100.0]).iter().collect()
}

/// The generated inputs: the training stream, then the replayed Sobel
/// and Gaussian streams (held out by image from the training prefix).
pub fn inputs(seed: u64) -> (Workload, [Workload; 2]) {
    let corpus = synthetic_corpus(IMAGES, IMAGE_SIDE, IMAGE_SIDE, mix(seed, 1));
    let app = |a| profile_application(a, &corpus, TRAIN_APP_OPS + REPLAY_OPS).workload(FU).clone();
    let (sobel, gauss) = (app(Application::Sobel), app(Application::Gaussian));
    let train = random_workload(FU, TRAIN_RANDOM, mix(seed, 2))
        .concat(&sobel.truncated(TRAIN_APP_OPS), "train_mix")
        .concat(&gauss.truncated(TRAIN_APP_OPS), "train_mix");
    let held_out = |w: &Workload, name: &str| {
        let ops = w.operands();
        Workload::new(
            name,
            ops[TRAIN_APP_OPS..(TRAIN_APP_OPS + REPLAY_OPS).min(ops.len())].to_vec(),
        )
    };
    (train, [held_out(&sobel, "sobel_data"), held_out(&gauss, "gauss_data")])
}

struct State {
    model: TevotModel,
    /// The replayed streams with the clock periods the model was trained at.
    sources: Vec<Source>,
    cases: Vec<Case>,
}

/// Builds the model, simulates the streams at the corners and calibrates
/// one controller per (corner, application); with `out`, times the
/// model's layers too.
fn setup(opts: &Opts, out: Option<&mut Metrics>) -> State {
    let (train, apps) = inputs(opts.seed);
    let characterizer = Characterizer::new(FU);
    let grid = grid();
    let pipeline = Pipeline {
        characterizer: &characterizer,
        grid: &grid,
        train: &train,
        seed: mix(opts.seed, 3),
    };
    let pairs: Vec<(OperatingCondition, &Workload)> =
        corners().into_iter().flat_map(|c| apps.iter().map(move |w| (c, w))).collect();
    let traces = tevot_par::map(&pairs, |&(c, w)| characterizer.trace(c, w));
    let periods = |built: &crate::model::Built, c: OperatingCondition| {
        built
            .chars
            .iter()
            .find(|ch| ch.condition() == c)
            .expect("corners are grid points")
            .clock_periods_ps()
            .to_vec()
    };
    let built = match out {
        None => pipeline.run(),
        Some(out) => pipeline.run_traced(
            &[0, 4, 8],
            |built| -> Vec<EvalCase> {
                pairs
                    .iter()
                    .zip(&traces)
                    .map(|(&(c, w), t)| (w.clone(), t.characterization(&periods(built, c))))
                    .collect()
            },
            out,
        ),
    };
    let sources: Vec<Source> = pairs
        .iter()
        .zip(&traces)
        .map(|(&(c, w), t)| Source {
            stream: Stream {
                cond: c,
                ops: w.operands().to_vec(),
                actual: t.cycles().iter().map(|cy| cy.dynamic_delay_ps()).collect(),
            },
            periods: periods(&built, c),
        })
        .collect();
    let mut cases: Vec<Case> = tevot_par::map(&sources, |s| infer::case(&built.model, &s.stream));
    if opts.corrupt {
        cases[0].expected.errors += 1;
    }
    State { model: built.model, sources, cases }
}

/// One replay of every case — the user's operation: its outcome and
/// wall time, s. Each case must match its expected outcome, and the pass
/// must hold the loop near its target error rate.
fn pass(state: &State, tally: &mut Tally) -> (tevot_dfs::ReplayOutcome, f64) {
    let t0 = Instant::now();
    let outcome = infer::total(state.cases.iter().map(|case| {
        let (outcome, ok) = infer::run_case(&state.model, case);
        tally.record(ok);
        outcome
    }));
    let elapsed = t0.elapsed().as_secs_f64();
    tally.record(infer::holds_target(&outcome));
    (outcome, elapsed)
}

/// Pass times, s, of passes run back to back for `secs` (at least one).
fn passes(state: &State, tally: &mut Tally, secs: f64) -> Vec<f64> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.is_empty() || start.elapsed().as_secs_f64() < secs {
        times.push(pass(state, tally).1);
    }
    times
}

/// The untraced run: replay passes back to back for `opts.seconds`,
/// spread between the set-ups.
pub fn run(opts: &Opts) -> Outcome {
    let mut tally = Tally::default();
    let mut times = Vec::new();
    let (state, setup_s, reproduced) = spread_setups(
        || setup(opts, None),
        |a, b| a.model == b.model && a.cases == b.cases,
        opts.seconds,
        |state, secs| times.extend(passes(state, &mut tally, secs)),
    );
    tally.record(reproduced);
    let (outcome, _) = pass(&state, &mut tally);
    let fast = quantile(&times, FAST_QUANTILE);
    let rates: Vec<String> =
        state.cases.iter().map(|c| format!("{:.4}", c.expected.error_rate())).collect();
    eprintln!(
        "dfs_replay: {} passes, p2 {:.3} ms, p10 {:.3} ms, median {:.3} ms; \
         error rate {:.4} (by case {})",
        times.len(),
        fast * 1e3,
        quantile(&times, 0.1) * 1e3,
        median(&times) * 1e3,
        outcome.error_rate(),
        rates.join(" ")
    );
    Outcome { tally, metrics: end_to_end(setup_s, tally, fast * 1e3, 1.0 - outcome.error_rate()) }
}

/// The traced run: the model's layers from setup, replay passes untraced
/// and traced (the ratio of their median times is the tracing overhead),
/// then the shared inference and serving probes.
pub fn traced(opts: &Opts) -> Outcome {
    let mut out = Metrics::default();
    let state = setup(opts, Some(&mut out));
    let mut tally = Tally::default();
    tevot_obs::trace::disable();
    let plain = median(&passes(&state, &mut tally, 1.0));
    tevot_obs::trace::enable();
    let traced = median(&passes(&state, &mut tally, 1.0));
    tally.merge(crate::layer_probes(&state.model, &state.sources, opts.seed, &mut out));
    out.push("trace_overhead_ratio", traced / plain, "ratio");
    Outcome { tally, metrics: out }
}
