//! `serve_open`: open-loop `POST /predict` against an in-process
//! `tevot_serve::Server` in its default configuration with watch on.
//! The model is trained in setup on the grid the requests query; request
//! transitions come from a held-out stream simulated at gate level, so
//! the served verdicts can be scored against the truth.

use tevot::dta::Characterizer;
use tevot::workload::{random_workload, Workload};
use tevot::TevotModel;
use tevot_serve::Server;
use tevot_timing::{ConditionGrid, OperatingCondition};

use crate::client::{self, Phase, Req, Source, NOMINAL_RPS};
use crate::infer::Stream;
use crate::model::{EvalCase, Pipeline, FU};
use crate::stats::{median, quantile, Metrics, Tally};
use crate::{end_to_end, mix, spread_setups, Opts, Outcome, FAST_QUANTILE};

/// Training vectors per condition.
pub const TRAIN_VECTORS: usize = 200;
/// Vectors in the held-out stream requests draw from.
pub const POOL_VECTORS: usize = 600;
/// Distinct requests, sent cyclically.
pub const REQUESTS: usize = 2048;
/// Untimed warm-up at the nominal rate, s.
const WARMUP_S: f64 = 0.5;

/// The queried grid: three voltages by three temperatures.
pub fn grid() -> Vec<OperatingCondition> {
    ConditionGrid::new(vec![0.81, 0.9, 1.0], vec![0.0, 50.0, 100.0]).iter().collect()
}

/// The generated inputs: the training stream and the held-out stream.
pub fn inputs(seed: u64) -> (Workload, Workload) {
    (
        random_workload(FU, TRAIN_VECTORS, mix(seed, 1)),
        random_workload(FU, POOL_VECTORS, mix(seed, 2)),
    )
}

struct State {
    model: TevotModel,
    sources: Vec<Source>,
    reqs: Vec<Req>,
}

/// Builds the model and the requests; with `out`, times the model's
/// layers too.
fn setup(opts: &Opts, out: Option<&mut Metrics>) -> State {
    let (train, pool) = inputs(opts.seed);
    let characterizer = Characterizer::new(FU);
    let grid = grid();
    let pipeline = Pipeline {
        characterizer: &characterizer,
        grid: &grid,
        train: &train,
        seed: mix(opts.seed, 3),
    };
    let traces = characterizer.trace_sweep(&grid, &pool);
    let built = match out {
        None => pipeline.run(),
        Some(out) => pipeline.run_traced(
            &[0, 4, 8],
            |built| -> Vec<EvalCase> {
                traces
                    .iter()
                    .zip(&built.chars)
                    .map(|(t, c)| (pool.clone(), t.characterization(c.clock_periods_ps())))
                    .collect()
            },
            out,
        ),
    };
    let sources: Vec<Source> = traces
        .iter()
        .zip(&built.chars)
        .map(|(trace, c)| Source {
            stream: Stream {
                cond: trace.condition(),
                ops: pool.operands().to_vec(),
                actual: trace.cycles().iter().map(|c| c.dynamic_delay_ps()).collect(),
            },
            periods: c.clock_periods_ps().to_vec(),
        })
        .collect();
    let mut reqs = client::requests(&built.model, &sources, REQUESTS, mix(opts.seed, 4));
    if opts.corrupt {
        reqs[0].expected[0] += 1.0;
    }
    State { model: built.model, sources, reqs }
}

/// The untraced run: a warm-up, then the nominal rate for the rest of
/// the run, spread between the set-ups.
pub fn run(opts: &Opts) -> Outcome {
    let conns = client::connections();
    let mut server: Option<Server> = None;
    let mut tally = Tally::default();
    let mut phases: Vec<Phase> = Vec::new();
    let mut next = 0;
    let (state, setup_s, reproduced) = spread_setups(
        || setup(opts, None),
        |a, b| a.model == b.model,
        opts.seconds,
        |state, secs| {
            let server = server.get_or_insert_with(|| client::start_server(&state.model));
            let addr = server.local_addr().to_string();
            if phases.is_empty() {
                let warmup =
                    client::open_loop(&addr, &state.reqs, 0, NOMINAL_RPS, WARMUP_S, conns, false);
                tally.merge(warmup.tally());
                next = warmup.scheduled;
            }
            let phase =
                client::open_loop(&addr, &state.reqs, next, NOMINAL_RPS, secs, conns, false);
            next += phase.scheduled;
            phases.push(phase);
        },
    );
    if let Some(server) = server {
        server.shutdown();
    }
    tally.record(reproduced);
    let mut latencies = Vec::new();
    let (mut matched, mut total) = (0, 0);
    for phase in &phases {
        eprintln!("serve_open: {}", phase.describe());
        tally.merge(phase.tally());
        latencies.extend(phase.latencies());
        for s in &phase.samples {
            let r = &state.reqs[s.req];
            matched += r.matched();
            total += r.truth.len();
        }
    }
    Outcome {
        tally,
        metrics: end_to_end(
            setup_s,
            tally,
            quantile(&latencies, FAST_QUANTILE) * 1e3,
            matched as f64 / total.max(1) as f64,
        ),
    }
}

/// The traced run: the model's layers from setup, the nominal rate
/// untraced and traced (the ratio of their median latencies is the
/// tracing overhead), then the shared inference and serving probes.
pub fn traced(opts: &Opts) -> Outcome {
    let mut out = Metrics::default();
    let state = setup(opts, Some(&mut out));
    let server = client::start_server(&state.model);
    let addr = server.local_addr().to_string();
    let conns = client::connections();
    let mut tally = Tally::default();
    let mut p50 = || {
        let p = client::open_loop(&addr, &state.reqs, 0, NOMINAL_RPS, 1.0, conns, false);
        tally.merge(p.tally());
        median(&p.latencies())
    };
    tevot_obs::trace::disable();
    let plain = p50();
    tevot_obs::trace::enable();
    let traced = p50();
    server.shutdown();
    tally.merge(crate::layer_probes(&state.model, &state.sources, opts.seed, &mut out));
    out.push("trace_overhead_ratio", traced / plain, "ratio");
    Outcome { tally, metrics: out }
}
