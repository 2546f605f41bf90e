//! The inference path: closed-loop clock control (`tevot-dfs`) over one
//! forest prediction per cycle (`tevot` core featurization plus the
//! `tevot-ml` forest), with gate-level delays as the error oracle.

use std::time::Instant;

use tevot::{FeatureEncoding, TevotModel};
use tevot_dfs::{
    calibration_residuals_ps, quantile_margin_ps, replay, ClockController, FeedbackConfig,
    GuardbandPolicy, ReplayOutcome,
};
use tevot_timing::OperatingCondition;

use crate::spans::span;
use crate::stats::{Metrics, Tally};

/// An operand stream at one condition with its gate-level per-cycle
/// delays (`actual[t]` is the delay of the transition into cycle `t`).
#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    /// The operating condition.
    pub cond: OperatingCondition,
    /// Operand pairs, one per cycle.
    pub ops: Vec<(u32, u32)>,
    /// Gate-level dynamic delay of each cycle, ps.
    pub actual: Vec<u64>,
}

impl Stream {
    /// Splits off the leading `len` cycles (the calibration slice) from
    /// the rest (the replayed slice).
    pub fn split(&self, len: usize) -> (Stream, Stream) {
        let part = |r: std::ops::Range<usize>| Stream {
            cond: self.cond,
            ops: self.ops[r.clone()].to_vec(),
            actual: self.actual[r].to_vec(),
        };
        (part(0..len), part(len..self.ops.len()))
    }
}

/// One replay case: the controller's policy, calibrated on a leading
/// slice, and the slice it replays with the outcome it must produce.
#[derive(Debug, Clone, PartialEq)]
pub struct Case {
    /// The calibrated policy.
    pub policy: GuardbandPolicy,
    /// The replayed stream.
    pub eval: Stream,
    /// The outcome of the same closed loop driven by offline
    /// `predict_delay_ps` calls.
    pub expected: ReplayOutcome,
}

/// Error rate the calibrated feedback loop steers toward.
pub const TARGET_ERROR_RATE: f64 = 0.02;

/// A pass over every case must keep the loop's error rate within this
/// factor of [`TARGET_ERROR_RATE`], either way.
const TARGET_BAND: f64 = 3.0;

/// Whether a whole pass held the loop near its target error rate. The
/// expected outcomes come from the same controller, so this is the check
/// that catches a controller or policy that never errs or runs away.
pub fn holds_target(outcome: &ReplayOutcome) -> bool {
    let rate = outcome.error_rate();
    (TARGET_ERROR_RATE / TARGET_BAND..=TARGET_ERROR_RATE * TARGET_BAND).contains(&rate)
}

/// A PI feedback policy calibrated on `cal`: it starts from the
/// residual quantile that would meet the target there, and may range up
/// to twice the largest residual. (The default PI configuration saw no
/// errors on these streams, so a controller that never errs could not be
/// told from a broken one.)
pub fn calibrated_policy(model: &TevotModel, cal: &Stream) -> GuardbandPolicy {
    let mut residuals = calibration_residuals_ps(model, cal.cond, &cal.ops, &cal.actual);
    residuals.sort_by(f64::total_cmp);
    let max = residuals.last().copied().unwrap_or(0.0).max(1.0);
    GuardbandPolicy::Feedback(FeedbackConfig {
        target_error_rate: TARGET_ERROR_RATE,
        initial_margin_ps: quantile_margin_ps(&residuals, 1.0 - TARGET_ERROR_RATE),
        max_margin_ps: 2.0 * max,
        ..FeedbackConfig::default()
    })
}

/// Calibrates on the leading third of `stream` and computes the expected
/// outcome of replaying the rest.
pub fn case(model: &TevotModel, stream: &Stream) -> Case {
    let (cal, eval) = stream.split(stream.ops.len() / 3);
    let policy = calibrated_policy(model, &cal);
    let expected = offline_outcome(model, policy, &eval);
    Case { policy, eval, expected }
}

/// The closed loop written out with offline `predict_delay_ps`: the
/// oracle `tevot_dfs::replay` must match bit for bit.
pub fn offline_outcome(model: &TevotModel, policy: GuardbandPolicy, s: &Stream) -> ReplayOutcome {
    let mut controller = ClockController::new(policy);
    let mut outcome = ReplayOutcome { cycles: 0, errors: 0, total_t_clk_ps: 0 };
    for t in 1..s.ops.len() {
        let predicted = model.predict_delay_ps(s.cond, s.ops[t], s.ops[t - 1]);
        let t_clk = controller.recommend_for_delay(predicted).t_clk_ps;
        let erroneous = s.actual[t] > t_clk;
        controller.observe(erroneous);
        outcome.cycles += 1;
        outcome.errors += usize::from(erroneous);
        outcome.total_t_clk_ps += t_clk;
    }
    outcome
}

/// Replays one case through `tevot_dfs::replay` with a fresh controller;
/// returns the outcome and whether it matches the expected one (and the
/// controller's own counts agree with it).
pub fn run_case(model: &TevotModel, case: &Case) -> (ReplayOutcome, bool) {
    let mut controller = ClockController::new(case.policy);
    let e = &case.eval;
    let outcome = replay(&mut controller, model, e.cond, &e.ops, &e.actual);
    let ok = outcome == case.expected
        && controller.decisions() == outcome.cycles as u64
        && controller.errors_observed() == outcome.errors as u64;
    (outcome, ok)
}

/// Sums outcomes.
pub fn total(outcomes: impl IntoIterator<Item = ReplayOutcome>) -> ReplayOutcome {
    outcomes.into_iter().fold(ReplayOutcome { cycles: 0, errors: 0, total_t_clk_ps: 0 }, |a, o| {
        ReplayOutcome {
            cycles: a.cycles + o.cycles,
            errors: a.errors + o.errors,
            total_t_clk_ps: a.total_t_clk_ps + o.total_t_clk_ps,
        }
    })
}

/// Rows in the forest probe's working set: 64 rows of 130 features
/// (66 KiB) stay cache-resident, so the probe times traversal, not
/// memory.
const FOREST_ROWS: usize = 64;

/// Calls per timed inference probe.
const PROBE_CALLS: usize = 200_000;

/// Times the inference layers one at a time on `cases` and pushes their
/// per-layer metrics: `FeatureEncoding::encode_into` into a reused
/// buffer, `RandomForestRegressor::predict` on pre-encoded rows,
/// `ClockController::recommend`, and one closed-loop replay pass with
/// its exact counts and simulated outcome. Returns the replay's checks.
pub fn probe(model: &TevotModel, cases: &[Case], out: &mut Metrics) -> Tally {
    /// One prediction's inputs: condition, current and previous operands.
    type Step = (OperatingCondition, (u32, u32), (u32, u32));
    let transitions: Vec<Step> = cases
        .iter()
        .flat_map(|c| {
            (1..c.eval.ops.len()).map(|t| (c.eval.cond, c.eval.ops[t], c.eval.ops[t - 1]))
        })
        .collect();
    let encoding: FeatureEncoding = model.encoding();

    let mut row = Vec::with_capacity(encoding.num_features());
    let t0 = Instant::now();
    {
        let _s = span("core.encode");
        for i in 0..PROBE_CALLS {
            let (cond, cur, prev) = transitions[i % transitions.len()];
            encoding.encode_into(cond, cur, prev, &mut row);
            std::hint::black_box(&row);
        }
    }
    out.push("core.encode_ns", t0.elapsed().as_secs_f64() * 1e9 / PROBE_CALLS as f64, "ns");

    let rows: Vec<Vec<f64>> = transitions
        .iter()
        .take(FOREST_ROWS)
        .map(|&(cond, cur, prev)| encoding.encode(cond, cur, prev))
        .collect();
    let forest = model.forest();
    let t0 = Instant::now();
    {
        let _s = span("ml.forest");
        for i in 0..PROBE_CALLS {
            std::hint::black_box(forest.predict(&rows[i % rows.len()]));
        }
    }
    out.push("ml.forest_ns", t0.elapsed().as_secs_f64() * 1e9 / PROBE_CALLS as f64, "ns");

    let mut controller = ClockController::new(GuardbandPolicy::fixed(0.0));
    let t0 = Instant::now();
    {
        let _s = span("dfs.recommend");
        for &(cond, cur, prev) in &transitions {
            std::hint::black_box(controller.recommend(model, cond, cur, prev));
        }
    }
    out.push("dfs.recommend_ns", t0.elapsed().as_secs_f64() * 1e9 / transitions.len() as f64, "ns");

    let mut tally = Tally::default();
    let outcome = {
        let _s = span("dfs.replay");
        total(cases.iter().map(|c| {
            let (outcome, ok) = run_case(model, c);
            tally.record(ok);
            outcome
        }))
    };
    tally.record(holds_target(&outcome));
    out.push("dfs.decisions", outcome.cycles as f64, "count");
    out.push("dfs.errors_observed", outcome.errors as f64, "count");
    out.push("dfs.ops_per_us", outcome.throughput_ops_per_us(), "ops/us");
    out.push("dfs.error_rate", outcome.error_rate(), "ratio");
    tally
}
