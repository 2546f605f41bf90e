//! The fixed benchmark suite behind `bench_track`.
//!
//! One run measures, for every functional unit, the pipeline's three
//! throughput axes (gate-level simulation, feature extraction, model
//! inference) plus out-of-sample prediction accuracy, and rolls the
//! results into a [`BenchReport`](crate::baseline::BenchReport) whose
//! metric *names* are independent of scale: `--tiny` changes vector
//! counts, never the set of tracked metrics, so a tiny CI candidate
//! always lines up with the committed baseline in `bench_compare`.
//!
//! Throughputs come from wall-clock timing around the respective stage;
//! gate evaluations and featurized rows are read from the global
//! `tevot-obs` counters as before/after deltas, so a run sharing a
//! process with other work (tests) should use its own process or accept
//! slight over-counting.

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tevot::dta::Characterizer;
use tevot::eval::{evaluate_predictor, mean_accuracy};
use tevot::workload::random_workload;
use tevot::{build_delay_dataset, TevotModel, TevotParams};
use tevot_netlist::fu::FunctionalUnit;
use tevot_obs::metrics::{CORE_ROWS_FEATURIZED, SIM_GATE_EVALS};
use tevot_obs::progress::Progress;
use tevot_resil::checkpoint::CheckpointDir;
use tevot_timing::{ClockSpeedup, OperatingCondition};

use crate::baseline::BenchReport;

/// Sizing knobs for one suite run.
#[derive(Debug, Clone)]
pub struct SuiteScale {
    /// Units to benchmark. The tracked metric names derive from this
    /// list, so baseline and candidate must use the same one.
    pub fus: Vec<FunctionalUnit>,
    /// Characterization/training vectors per unit.
    pub train_vectors: usize,
    /// Held-out test vectors per unit.
    pub test_vectors: usize,
    /// Random-forest size.
    pub num_trees: usize,
    /// Conditions in the parallel-sweep benchmark (first FU only).
    pub sweep_conditions: usize,
    /// Vectors per condition in the parallel-sweep benchmark.
    pub sweep_vectors: usize,
    /// Requests driven through the loopback serving benchmark.
    pub serve_requests: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl SuiteScale {
    /// The standard scale used for committed baselines.
    pub fn standard() -> SuiteScale {
        SuiteScale {
            fus: FunctionalUnit::ALL.to_vec(),
            train_vectors: 600,
            test_vectors: 300,
            num_trees: 10,
            sweep_conditions: 6,
            sweep_vectors: 200,
            serve_requests: 1000,
            seed: 0xDAC2020,
        }
    }

    /// The `--tiny` smoke scale: same units and metric names, fewer
    /// vectors and trees.
    pub fn tiny() -> SuiteScale {
        SuiteScale {
            train_vectors: 200,
            test_vectors: 120,
            num_trees: 4,
            sweep_conditions: 4,
            sweep_vectors: 80,
            serve_requests: 300,
            ..Self::standard()
        }
    }
}

/// Runs the fixed suite and returns the labelled report.
///
/// # Panics
///
/// Panics if `scale.fus` is empty or the vector counts are too small to
/// characterize (fewer than two cycles).
pub fn run_suite(label: &str, scale: &SuiteScale) -> BenchReport {
    let _span = tevot_obs::span!("bench.suite");
    assert!(!scale.fus.is_empty(), "suite needs at least one FU");
    let cond = OperatingCondition::new(0.9, 50.0);
    let mut report = BenchReport::new(label);
    let progress = Progress::new("bench-track", scale.fus.len() as u64);
    let suite_t0 = Instant::now();
    let mut featurize_rows = 0u64;
    let mut featurize_s = 0.0;
    let mut train_s = 0.0;

    // The event-engine trace of one unit, kept for the levelized-engine
    // stage below: (fu, workload, trace, wall seconds). Prefer IntMul —
    // the deepest netlist and the unit the gate's speedup floor names.
    let mut event_exemplar = None;

    for &fu in &scale.fus {
        let slug = fu.name().to_lowercase().replace(' ', "_");
        // Pin the event engine: `{slug}.sim_cycles_per_s` is the
        // event-driven reference the levelized speedup is measured
        // against, and must stay comparable across baselines.
        let characterizer = Characterizer::new(fu).with_engine(tevot_sim::Engine::Event);
        let train_w = random_workload(fu, scale.train_vectors, scale.seed);

        // Gate-level simulation throughput (cycles and gate evaluations
        // per second) over the training characterization run.
        let evals_before = SIM_GATE_EVALS.get();
        let t0 = Instant::now();
        let trace = characterizer.trace(cond, &train_w);
        let sim_s = t0.elapsed().as_secs_f64();
        if fu == FunctionalUnit::IntMul || event_exemplar.is_none() {
            event_exemplar = Some((fu, train_w.clone(), trace.clone(), sim_s));
        }
        let gate_evals = SIM_GATE_EVALS.get() - evals_before;
        report.push(
            format!("{slug}.sim_cycles_per_s"),
            scale.train_vectors as f64 / sim_s,
            "cycles/s",
            true,
        );
        report.push(format!("{slug}.gate_evals_per_s"), gate_evals as f64 / sim_s, "evals/s", true);
        tevot_obs::instant!("bench.simulated");

        // Ground truth at the paper's speedup periods, then featurize.
        let base_period = trace.fastest_error_free_period_ps();
        let periods: Vec<u64> =
            ClockSpeedup::PAPER.iter().map(|s| s.apply_to_period(base_period)).collect();
        let truth = trace.characterization(&periods);
        let params = TevotParams::default();
        let rows_before = CORE_ROWS_FEATURIZED.get();
        let t0 = Instant::now();
        let data = build_delay_dataset(params.encoding, &[(&train_w, &truth)]);
        featurize_s += t0.elapsed().as_secs_f64();
        featurize_rows += CORE_ROWS_FEATURIZED.get() - rows_before;

        // Training wall time (aggregated across units below).
        let mut params = params;
        params.forest.num_trees = scale.num_trees;
        let mut rng = SmallRng::seed_from_u64(scale.seed);
        let t0 = Instant::now();
        let mut model = TevotModel::train(&data, &params, &mut rng);
        train_s += t0.elapsed().as_secs_f64();
        tevot_obs::instant!("bench.trained");

        // Inference throughput on held-out transitions.
        let test_w = random_workload(fu, scale.test_vectors, scale.seed + 7);
        let ops = test_w.operands();
        let t0 = Instant::now();
        let mut acc = 0.0;
        for t in 1..ops.len() {
            acc += model.predict_delay_ps(cond, ops[t], ops[t - 1]);
        }
        let infer_s = t0.elapsed().as_secs_f64();
        assert!(acc > 0.0, "inference produced no delay mass");
        report.push(
            format!("{slug}.predictions_per_s"),
            (scale.test_vectors - 1) as f64 / infer_s,
            "preds/s",
            true,
        );

        // Out-of-sample accuracy at the shared period basis.
        let truth_test = characterizer.characterize_with_periods(cond, &test_w, &periods);
        let points = evaluate_predictor(&mut model, &test_w, &truth_test);
        report.push(format!("{slug}.accuracy_mean"), mean_accuracy(&points), "frac", true);

        progress.tick();
    }
    progress.finish();

    report.push("featurize.rows_per_s", featurize_rows as f64 / featurize_s, "rows/s", true);
    report.push("train.wall_s", train_s, "s", false);

    // Bit-parallel levelized engine vs the event-driven reference, on the
    // same unit, condition, and workload as the per-FU stage above. The
    // traces must agree bit for bit (the oracle contract), so this stage
    // is simultaneously the sweep-throughput benchmark and an end-to-end
    // differential check on every benchmark run.
    {
        let _span = tevot_obs::span!("bench.levelized");
        let (fu, work, event_trace, event_s) =
            event_exemplar.expect("per-FU stage ran at least once");
        let characterizer = Characterizer::new(fu); // default: levelized
        let t0 = Instant::now();
        let lev_trace = characterizer.trace(cond, &work);
        let lev_s = t0.elapsed().as_secs_f64();
        assert_eq!(
            lev_trace, event_trace,
            "levelized trace must be bit-identical to the event-driven oracle"
        );
        report.push(
            "sim.levelized_cycles_per_s",
            scale.train_vectors as f64 / lev_s,
            "cycles/s",
            true,
        );
        report.push("sim.speedup_vs_event", event_s / lev_s, "x", true);
    }

    // Parallel condition sweep on the first FU: throughput at the active
    // `--jobs`/`TEVOT_JOBS` level, plus the speedup over a forced
    // single-worker run. The two sweeps must agree bit for bit — that is
    // tevot-par's ordered-reduction contract — so this doubles as an
    // end-to-end determinism check on every benchmark run.
    let sweep_reference = {
        let _span = tevot_obs::span!("bench.par_sweep");
        let fu = scale.fus[0];
        let characterizer = Characterizer::new(fu);
        let sweep_w = random_workload(fu, scale.sweep_vectors, scale.seed + 13);
        let n = scale.sweep_conditions.max(2);
        let grid: Vec<OperatingCondition> = (0..n)
            .map(|i| {
                let f = i as f64 / (n - 1) as f64;
                OperatingCondition::new(0.81 + 0.19 * f, 100.0 * f)
            })
            .collect();
        let speedups = ClockSpeedup::PAPER.to_vec();
        let t0 = Instant::now();
        let serial = tevot_par::with_jobs(1, || {
            characterizer.characterize_sweep(&grid, &sweep_w, &speedups)
        });
        let serial_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let parallel = characterizer.characterize_sweep(&grid, &sweep_w, &speedups);
        let parallel_s = t0.elapsed().as_secs_f64();
        assert_eq!(serial, parallel, "parallel sweep must be bit-identical to --jobs 1");
        report.push("par.sweep_conds_per_s", n as f64 / parallel_s, "conds/s", true);
        report.push("par.sweep_speedup", serial_s / parallel_s, "x", true);
        (grid, parallel)
    };

    // Fleet sweep over the same grid, sharded across thread-mode workers
    // through the full lease protocol + checkpoint journal. The result
    // must match the in-process sweep bit for bit; the tracked metric is
    // the end-to-end coordination overhead (lease HTTP round-trips,
    // shard fsyncs, final assembly) on top of the raw simulation.
    {
        let _span = tevot_obs::span!("bench.fleet_sweep");
        let (grid, reference) = &sweep_reference;
        let dir = std::env::temp_dir().join(format!("tevot_bench_fleet_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut spec = tevot_fleet::FleetSweepSpec::new(
            scale.fus[0],
            scale.sweep_vectors,
            scale.seed + 13,
            &dir,
        );
        spec.conditions = grid.clone();
        spec.workers = 2;
        let token = tevot_resil::CancelToken::new();
        let t0 = Instant::now();
        let fleet = tevot_fleet::run_sweep(&spec, &token).expect("fleet sweep");
        let fleet_s = t0.elapsed().as_secs_f64();
        assert_eq!(&fleet, reference, "fleet sweep must be bit-identical to the in-process sweep");
        report.push("fleet.sweep_conds_per_s", grid.len() as f64 / fleet_s, "conds/s", true);
        std::fs::remove_dir_all(&dir).ok();
    }

    // Checkpoint resilience: shard write throughput (tmp + fsync +
    // rename with a checksummed header) and resume-skip throughput (a
    // validated read replacing recomputation). The no-op failpoint
    // branches on these paths are part of what the regression gate
    // watches.
    {
        let _span = tevot_obs::span!("bench.resil");
        let dir = std::env::temp_dir().join(format!("tevot_bench_ckpt_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let ckpt = CheckpointDir::open(&dir).expect("open bench checkpoint dir");
        // Payload in the realm of a real condition shard (~16 KiB).
        let payload: Vec<u8> = (0..4096u32).flat_map(u32::to_le_bytes).collect();
        let n = 32;
        let t0 = Instant::now();
        for i in 0..n {
            ckpt.write(&format!("bench-{i}"), &payload).expect("write bench shard");
        }
        let write_s = t0.elapsed().as_secs_f64();
        report.push("resil.ckpt_write_per_s", n as f64 / write_s, "shards/s", true);

        let t0 = Instant::now();
        for i in 0..n {
            assert!(ckpt.read_valid(&format!("bench-{i}")).is_some(), "shard must round-trip");
        }
        let read_s = t0.elapsed().as_secs_f64();
        report.push("resil.resume_skip_per_s", n as f64 / read_s, "shards/s", true);
        std::fs::remove_dir_all(&dir).ok();
    }

    // Online serving: a loopback tevot-serve instance under the
    // deterministic load generator. With fewer concurrent connections
    // than the admission bound every request must be answered 200, so
    // the stage asserts a clean run and tracks end-to-end throughput
    // (serve.qps) and tail latency (serve.p99_us) in the gate.
    let dfs_model = {
        let _span = tevot_obs::span!("bench.serve");
        let fu = scale.fus[0];
        let characterizer = Characterizer::new(fu);
        let serve_w = random_workload(fu, scale.train_vectors.min(300), scale.seed + 21);
        let truth = characterizer.characterize(cond, &serve_w, &ClockSpeedup::PAPER);
        let mut params = TevotParams::default();
        params.forest.num_trees = scale.num_trees.min(4);
        let data = build_delay_dataset(params.encoding, &[(&serve_w, &truth)]);
        let mut rng = SmallRng::seed_from_u64(scale.seed + 21);
        let model = TevotModel::train(&data, &params, &mut rng);

        // Watch at its default resolution, as production would run: the
        // tracked serve.qps therefore gates the telemetry overhead too.
        let config = tevot_serve::ServeConfig {
            watch: Some(tevot_serve::WatchConfig::default()),
            ..tevot_serve::ServeConfig::default()
        };
        let server = tevot_serve::Server::start(config).expect("bind loopback");
        server.state().registry.insert(tevot_serve::DEFAULT_MODEL, model.clone());
        let load = tevot_serve::loadgen::LoadConfig {
            addr: server.local_addr().to_string(),
            requests: scale.serve_requests,
            connections: 4,
            transitions: 4,
            model: tevot_serve::DEFAULT_MODEL.into(),
            dfs: false,
        };
        let outcome = tevot_serve::loadgen::run(&load);
        server.shutdown();
        assert_eq!(
            (outcome.shed, outcome.errors),
            (0, 0),
            "loopback load run must be shed- and error-free"
        );
        report.push("serve.qps", outcome.qps, "req/s", true);
        report.push("serve.p99_us", outcome.p99_us, "us", false);
        model
    };

    // Closed-loop clock-controller decision rate: the `tevot dfs` /
    // `POST /dfs` hot path — one forest inference plus guardband
    // arithmetic plus the PI policy update per cycle — on the serve
    // stage's model.
    {
        let _span = tevot_obs::span!("bench.dfs");
        let fu = scale.fus[0];
        let work = random_workload(fu, scale.test_vectors.max(2), scale.seed + 23);
        let ops = work.operands();
        let policy = tevot_dfs::GuardbandPolicy::Feedback(tevot_dfs::FeedbackConfig::default());
        let mut controller = tevot_dfs::ClockController::new(policy);
        let t0 = Instant::now();
        let mut total_t_clk = 0u64;
        for t in 1..ops.len() {
            let rec = controller.recommend(&dfs_model, cond, ops[t], ops[t - 1]);
            total_t_clk += rec.t_clk_ps;
            // Deterministic occasional "errors" keep the feedback-path
            // update live in the measurement.
            controller.observe(rec.t_clk_ps.is_multiple_of(97));
        }
        let dfs_s = t0.elapsed().as_secs_f64();
        assert!(total_t_clk > 0, "controller recommended no clock mass");
        report.push("dfs.decisions_per_s", (ops.len() - 1) as f64 / dfs_s, "decisions/s", true);
    }

    // Watch hot paths in isolation: the per-tick cost of sampling every
    // registered metric into the ring store, and the Prometheus text
    // exposition (what a scraper hits on every poll).
    {
        let _span = tevot_obs::span!("bench.watch");
        let store = tevot_obs::watch::TimeSeriesStore::new(1, 600);
        let base = tevot_obs::watch::wall_ms();
        let n = 2000u64;
        let t0 = Instant::now();
        for i in 0..n {
            store.sample_registry(base + i, &[("bench.gauge", i as f64)]);
        }
        let sample_s = t0.elapsed().as_secs_f64();
        report.push("watch.sample_overhead_ns", sample_s * 1e9 / n as f64, "ns", false);

        let n = 500u64;
        let t0 = Instant::now();
        let mut rendered = 0usize;
        for _ in 0..n {
            rendered += tevot_obs::prom::render().len();
        }
        let expose_s = t0.elapsed().as_secs_f64();
        assert!(rendered > 0, "exposition must render something");
        report.push("watch.expose_per_s", n as f64 / expose_s, "renders/s", true);
    }

    // Statistical-profiler hot path in isolation: one sampler tick
    // (snapshot every live span slot, charge the elapsed time). This is
    // the entire cost the sampler thread pays per period, so it bounds
    // the profiler's overhead at any sampling rate.
    {
        let _span = tevot_obs::span!("bench.prof");
        let was_enabled = tevot_obs::stacks::enabled();
        tevot_obs::stacks::enable();
        let _probe = tevot_obs::span!("bench.prof_probe");
        let mut core = tevot_prof::SamplerCore::new();
        let n = 2000u64;
        let t0 = Instant::now();
        for i in 0..=n {
            let paths = tevot_obs::stacks::sample_paths();
            core.tick(u128::from(i) * 1_000, &paths);
        }
        let sample_s = t0.elapsed().as_secs_f64();
        assert!(core.total_ns() > 0, "sampler must observe the probe span");
        if !was_enabled {
            tevot_obs::stacks::disable();
        }
        report.push("prof.sample_overhead_ns", sample_s * 1e9 / n as f64, "ns", false);
    }

    report.push("suite.wall_s", suite_t0.elapsed().as_secs_f64(), "s", false);

    // Attach the run's per-span self times so bench_compare can show
    // *where* the time moved when a metric regresses.
    let snapshot = tevot_obs::report::Snapshot::capture();
    let self_ns = snapshot.self_times_ns();
    report.profile = snapshot
        .spans
        .iter()
        .zip(&self_ns)
        .map(|((path, _), &ns)| (path.clone(), ns as f64 / 1e6))
        .collect();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_and_standard_scales_track_the_same_metric_names() {
        // The gate depends on name stability across scales; check it
        // structurally (4 per-FU metrics x 4 FUs + 3 globals) without
        // running the suite.
        let tiny = SuiteScale::tiny();
        let std = SuiteScale::standard();
        assert_eq!(tiny.fus, std.fus);
        assert!(tiny.train_vectors < std.train_vectors);
    }
}
