//! **Extension** (paper Sec. II / V-E): closed-loop adaptive clocking.
//!
//! The paper motivates TEVoT as the model that lets a system "model the
//! timing errors in advance and then adaptively change the clock speed to
//! improve efficiency". This binary closes that loop: a
//! [`tevot_dfs::ClockController`] wraps the trained model and picks a
//! per-cycle clock period (predicted dynamic delay + guardband), and the
//! gate-level simulator replays application operand traces (Sobel and
//! Gaussian, the paper's workloads) as the ground-truth error oracle.
//!
//! For each (V, T) corner — including the ITD-inverted 0.81 V points —
//! the binary sweeps guardband policies (fixed margins, calibration
//! quantiles, a PI feedback loop) and prints a throughput-vs-error-rate
//! Pareto table against three fixed-clock baselines:
//!
//! * `sta-worst-case` — the corner's static critical delay (TerBased/STA
//!   style worst-case guardband, zero errors by construction);
//! * `delay-based`    — the maximum *observed* dynamic delay on the
//!   calibration trace (the DelayBased baseline's period);
//! * `oracle-fixed`   — the safest fixed clock in hindsight: the maximum
//!   dynamic delay of the evaluation trace itself.
//!
//! `--check` exits non-zero unless, at one or more corners, some adaptive
//! policy *dominates* a fixed-clock baseline — strictly higher throughput
//! at an equal-or-lower observed error rate (used by the CI `dfs-smoke`
//! job).
//!
//! Usage: `cargo run --release -p tevot-bench --bin dfs_pareto [--tiny]
//! [--check]`

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tevot::dta::Characterizer;
use tevot::workload::{random_workload, Workload};
use tevot::{build_delay_dataset, FeatureEncoding, TevotModel, TevotParams};
use tevot_bench::config::StudyConfig;
use tevot_bench::table::{pct, TextTable};
use tevot_dfs::{
    calibration_residuals_ps, fixed_clock_outcome, quantile_margin_ps, replay, ClockController,
    FeedbackConfig, GuardbandPolicy, ReplayOutcome,
};
use tevot_imgproc::profile::profile_application;
use tevot_imgproc::synth::synthetic_corpus;
use tevot_imgproc::Application;
use tevot_netlist::fu::FunctionalUnit;
use tevot_timing::{ClockSpeedup, ConditionGrid, OperatingCondition};

/// One evaluated clocking scheme at one corner.
struct Point {
    label: String,
    adaptive: bool,
    outcome: ReplayOutcome,
}

impl Point {
    fn throughput(&self) -> f64 {
        self.outcome.throughput_ops_per_us()
    }
}

/// True when some adaptive point strictly dominates some fixed-clock
/// baseline: higher throughput at an equal-or-lower observed error rate.
fn adaptive_dominates(points: &[Point]) -> bool {
    points.iter().filter(|p| p.adaptive).any(|a| {
        points.iter().filter(|b| !b.adaptive).any(|b| {
            a.throughput() > b.throughput() && a.outcome.error_rate() <= b.outcome.error_rate()
        })
    })
}

fn main() {
    let config = StudyConfig::from_env();
    let _obs = config.observability();
    let check = std::env::args().any(|a| a == "--check");
    let fu = FunctionalUnit::IntAdd;
    let characterizer = Characterizer::new(fu);

    // Training sweep: a 3x3 grid spanning the ITD-inverted low-voltage
    // region and the nominal point, characterized on a mixed
    // random + application workload (the paper's training recipe).
    let grid = ConditionGrid::new(vec![0.81, 0.9, 1.0], vec![0.0, 25.0, 100.0]);
    let corpus =
        synthetic_corpus(config.corpus_images.max(2), config.image_size, config.image_size, 11);
    let app_ops = config.train_app.clamp(100, 300);
    let sobel = profile_application(Application::Sobel, &corpus, app_ops + config.test_len);
    let gauss = profile_application(Application::Gaussian, &corpus, app_ops + config.test_len);
    let train = random_workload(fu, config.train_random.min(700), config.seed)
        .concat(&sobel.workload(fu).truncated(app_ops), "train_mix")
        .concat(&gauss.workload(fu).truncated(app_ops), "train_mix");

    tevot_obs::info!(
        "characterizing {fu} ({} vectors) across {} conditions...",
        train.len(),
        grid.len()
    );
    let chars: Vec<_> =
        grid.iter().map(|c| characterizer.characterize(c, &train, &ClockSpeedup::PAPER)).collect();
    let runs: Vec<_> = chars.iter().map(|c| (&train, c)).collect();
    let data = build_delay_dataset(FeatureEncoding::with_history(), &runs);
    let mut params = TevotParams::default();
    params.forest.num_trees = config.num_trees.min(8);
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let model = TevotModel::train(&data, &params, &mut rng);

    // Evaluation corners: nominal, hot low-voltage, and the cold 0.81 V
    // point where inverted temperature dependence bites hardest.
    let corners = [
        OperatingCondition::new(0.9, 25.0),
        OperatingCondition::new(0.81, 100.0),
        OperatingCondition::new(0.81, 0.0),
    ];
    let workloads: [(&str, &Workload); 2] =
        [("sobel", sobel.workload(fu)), ("gauss", gauss.workload(fu))];

    println!(
        "Adaptive-clocking Pareto study for {fu}: ClockController policies vs \
         fixed clocks, gate-level simulation as the error oracle.\n"
    );

    let mut dominated_corners = 0usize;
    for cond in corners {
        let sta_period = characterizer.critical_delay_ps(cond);
        let mut points: Vec<Point> = Vec::new();
        let mut cycles_total = 0usize;

        for (name, workload) in workloads {
            // One gate-level trace per corner per workload; the leading
            // slice calibrates margins, the suffix is the held-out
            // evaluation stream. `replay` skips the slice's first cycle,
            // so the split boundary costs nothing.
            let trace = characterizer.trace(cond, workload);
            let actual: Vec<u64> = trace.cycles().iter().map(|c| c.dynamic_delay_ps()).collect();
            let ops = workload.operands();
            let cal_len = (ops.len() / 3).max(2).min(ops.len() - 2);
            let (cal_ops, eval_ops) = ops.split_at(cal_len);
            let (cal_actual, eval_actual) = actual.split_at(cal_len);
            cycles_total += eval_ops.len() - 1;

            let mut residuals = calibration_residuals_ps(&model, cond, cal_ops, cal_actual);
            residuals.sort_by(f64::total_cmp);
            let max_residual = residuals.last().copied().unwrap_or(0.0).max(0.0);
            let q99 = quantile_margin_ps(&residuals, 0.99);

            let mut policies = vec![
                ("fixed q0.99-cal", GuardbandPolicy::fixed(q99)),
                ("fixed max-cal", GuardbandPolicy::fixed(max_residual)),
                ("fixed 1.5x max-cal", GuardbandPolicy::fixed(1.5 * max_residual)),
                ("fixed 2x max-cal", GuardbandPolicy::fixed(2.0 * max_residual)),
                ("quantile 0.90", GuardbandPolicy::quantile_of(0.90, &residuals)),
                ("quantile 0.95", GuardbandPolicy::quantile_of(0.95, &residuals)),
                ("quantile 0.97", GuardbandPolicy::quantile_of(0.97, &residuals)),
                ("quantile 1.00", GuardbandPolicy::quantile_of(1.0, &residuals)),
                (
                    "pi feedback",
                    GuardbandPolicy::Feedback(FeedbackConfig {
                        initial_margin_ps: max_residual,
                        max_margin_ps: (2.0 * max_residual).max(400.0),
                        ..FeedbackConfig::default()
                    }),
                ),
            ];
            // Fixed-clock baselines replayed over the same eval stream:
            // the STA and calibrated worst cases, plus the *best possible*
            // fixed clock at several error budgets — the period at each
            // quantile of the eval delay distribution itself (chosen in
            // hindsight, i.e. maximally favorable to the fixed clock).
            // An adaptive point above this frontier wins on per-cycle
            // tracking alone.
            let delay_based = cal_actual.iter().copied().max().unwrap_or(sta_period);
            let oracle_fixed = eval_actual.iter().copied().max().unwrap_or(sta_period);
            let mut sorted_eval: Vec<u64> = eval_actual[1..].to_vec();
            sorted_eval.sort_unstable();
            let frontier = |q: f64| -> u64 {
                sorted_eval[(((sorted_eval.len() - 1) as f64) * q).round() as usize]
            };
            for (label, period) in [
                ("sta-worst-case", sta_period),
                ("delay-based", delay_based),
                ("oracle-fixed", oracle_fixed),
                ("best-fixed p90", frontier(0.90)),
                ("best-fixed p95", frontier(0.95)),
                ("best-fixed p99", frontier(0.99)),
            ] {
                merge(
                    &mut points,
                    label.to_string(),
                    false,
                    fixed_clock_outcome(period, eval_actual),
                );
            }
            for (label, policy) in policies.drain(..) {
                let mut controller = ClockController::new(policy);
                let outcome = replay(&mut controller, &model, cond, eval_ops, eval_actual);
                merge(&mut points, label.to_string(), true, outcome);
            }
            tevot_obs::debug!(
                "{cond} {name}: cal {} cycles, eval {} cycles, max residual {max_residual:.0} ps",
                cal_ops.len(),
                eval_ops.len()
            );
        }

        let mut table = TextTable::new(&[
            "policy",
            "kind",
            "mean t_clk",
            "throughput",
            "errors",
            "error rate",
            "vs oracle-fixed",
        ]);
        points.sort_by(|a, b| b.throughput().total_cmp(&a.throughput()));
        let oracle_tp = points
            .iter()
            .find(|p| p.label == "oracle-fixed")
            .map(|p| p.throughput())
            .unwrap_or(f64::NAN);
        for p in &points {
            table.row_owned(vec![
                p.label.clone(),
                if p.adaptive { "adaptive".into() } else { "fixed".into() },
                format!("{:.0} ps", p.outcome.mean_t_clk_ps()),
                format!("{:.2} ops/us", p.throughput()),
                format!("{}/{}", p.outcome.errors, p.outcome.cycles),
                pct(p.outcome.error_rate()),
                format!("{:+.1}%", (p.throughput() / oracle_tp - 1.0) * 100.0),
            ]);
        }
        let dominates = adaptive_dominates(&points);
        dominated_corners += dominates as usize;
        println!(
            "== corner {cond} (STA critical delay {sta_period} ps, {cycles_total} eval cycles) ==\n{}\nadaptive dominates a fixed baseline: {}\n",
            table.render(),
            if dominates { "yes" } else { "NO" }
        );
    }

    println!(
        "adaptive clocking dominated a fixed-clock baseline at {dominated_corners}/{} corners",
        corners.len()
    );
    if check && dominated_corners == 0 {
        eprintln!("error: --check requires the adaptive controller to dominate at >=1 corner");
        std::process::exit(1);
    }
}

/// Accumulates per-workload outcomes under one label so each corner's
/// table has one row per scheme across both application streams.
fn merge(points: &mut Vec<Point>, label: String, adaptive: bool, outcome: ReplayOutcome) {
    if let Some(p) = points.iter_mut().find(|p| p.label == label && p.adaptive == adaptive) {
        p.outcome.cycles += outcome.cycles;
        p.outcome.errors += outcome.errors;
        p.outcome.total_t_clk_ps += outcome.total_t_clk_ps;
    } else {
        points.push(Point { label, adaptive, outcome });
    }
}
