//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <sweep_train|serve_open|dfs_replay> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload makes its inputs from `--seed`, sets itself up several
//! times (the median is `setup_s`), measures for `--seconds`, checks every
//! output against the repository's oracles, and prints one JSON object as
//! the last line of standard output:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run records spans
//! around every layer call and prints the per-layer metrics instead,
//! writing the spans to `.bench_out/trace-<workload>-<seed>.json`. The
//! line before the result records the run configuration.

mod client;
mod dfs;
mod infer;
mod model;
mod serve;
mod spans;
mod stats;
mod sweep;

use std::path::PathBuf;
use std::time::Instant;

use tevot::TevotModel;
use tevot_obs::json::Json;

use crate::client::Source;
use crate::stats::{median, peak_rss_mb, Metrics, Tally};

/// The workloads this binary runs; `BENCHMARK.json` gates the last two
/// (see `README.md` for why `sweep_train` is not gated).
pub const WORKLOADS: [&str; 3] = ["sweep_train", "serve_open", "dfs_replay"];

/// Set-ups per run, spread over the run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Seconds of nominal-rate traffic in the serving probe.
const PROBE_SECS: f64 = 1.0;
/// Requests built for the serving probe.
const PROBE_REQUESTS: usize = 512;

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
    /// Deliberately wrong expected outputs (checks that the output
    /// checks can fail).
    pub corrupt: bool,
}

/// What a run produced.
pub struct Outcome {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// The metrics to print.
    pub metrics: Metrics,
}

/// A derived seed: stream `k` of input seed `seed` (splitmix64).
pub fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sets up [`SETUP_REPEATS`] times, spread over the run: after each
/// set-up, `measure` runs for an equal share of `secs` on the first
/// set-up's state. Spread out, the set-ups sample the host over the whole
/// run, as the measured operations do, rather than over its first
/// seconds. Returns the first state, the median set-up time, s, and
/// whether every later set-up reproduced the first (`same`).
pub fn spread_setups<T>(
    setup: impl Fn() -> T,
    same: impl Fn(&T, &T) -> bool,
    secs: f64,
    mut measure: impl FnMut(&T, f64),
) -> (T, f64, bool) {
    let timed = || {
        let t0 = Instant::now();
        let state = setup();
        (state, t0.elapsed().as_secs_f64())
    };
    let share = secs / SETUP_REPEATS as f64;
    let (first, t) = timed();
    let mut times = vec![t];
    let mut reproduced = true;
    measure(&first, share);
    for _ in 1..SETUP_REPEATS {
        let (again, t) = timed();
        times.push(t);
        reproduced &= same(&first, &again);
        drop(again);
        measure(&first, share);
    }
    (first, median(&times), reproduced)
}

/// The quantile of operation times reported as `p2_ms`. On a shared host
/// whose speed drifts by tens of percent over minutes, the fastest
/// operations track the code's own speed; the median and the tail track
/// the host's load. Over 30 s runs on a loaded host, the 2nd percentile
/// spread less across runs than the 10th, which falls wherever the
/// host's quiet moments end.
pub const FAST_QUANTILE: f64 = 0.02;

/// The end-to-end metrics every workload prints, in `BENCHMARK.json`
/// order. What `p2_ms` and `accuracy` measure on each workload is
/// documented in `perfbench/README.md`.
pub fn end_to_end(setup_s: f64, tally: Tally, p2_ms: f64, accuracy: f64) -> Metrics {
    let mut m = Metrics::default();
    m.push("setup_s", setup_s, "s");
    m.push("ok_ratio", 1.0 - tally.fail_ratio(), "ratio");
    m.push("p2_ms", p2_ms, "ms");
    m.push("accuracy", accuracy, "ratio");
    m
}

/// The per-layer probes every traced run ends with, on the workload's own
/// model and held-out streams: the inference layers, then the serving
/// layers on a fresh server.
pub fn layer_probes(model: &TevotModel, sources: &[Source], seed: u64, out: &mut Metrics) -> Tally {
    let cases: Vec<infer::Case> = sources.iter().map(|s| infer::case(model, &s.stream)).collect();
    let mut tally = infer::probe(model, &cases, out);
    let server = client::start_server(model);
    let reqs = client::requests(model, sources, PROBE_REQUESTS, mix(seed, 5));
    tally.merge(client::probe(&server, &reqs, PROBE_SECS, out));
    server.shutdown();
    tally
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Opts {
    let mut opts =
        Opts { workload: String::new(), seed: 0, seconds: 10.0, trace: false, corrupt: false };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--corrupt-expected" {
            opts.corrupt = true;
            continue;
        }
        let value = args.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let bad = || -> ! { usage(&format!("bad value {value:?} for {flag}")) };
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().unwrap_or_else(|_| bad()),
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 => opts.seconds = s,
                _ => bad(),
            },
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        usage(&format!("unknown workload {:?}", opts.workload));
    }
    opts
}

/// The run configuration, printed before the result.
fn config(opts: &Opts) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from) as u64;
    Json::obj(vec![
        ("workload", Json::from(opts.workload.as_str())),
        ("seed", Json::from(opts.seed)),
        ("seconds", Json::Num(opts.seconds)),
        ("trace", Json::Bool(opts.trace)),
        ("nproc", Json::from(nproc)),
        ("jobs", Json::from(tevot_par::jobs() as u64)),
        ("connections", Json::from(client::connections() as u64)),
        (
            "batch_wait_ms",
            Json::Num(tevot_serve::ServeConfig::default().batch_wait.as_secs_f64() * 1e3),
        ),
        ("nominal_rps", Json::Num(client::NOMINAL_RPS)),
        ("ladder_rps", Json::Arr(client::LADDER_RPS.iter().map(|&r| Json::Num(r)).collect())),
        ("p99_limit_ms", Json::Num(client::P99_LIMIT_S * 1e3)),
        ("setup_repeats", Json::from(SETUP_REPEATS as u64)),
    ])
}

fn main() {
    tevot_obs::set_level(tevot_obs::Level::Error);
    let opts = parse_args();
    if opts.trace {
        tevot_obs::trace::enable();
    }
    let run = match (opts.workload.as_str(), opts.trace) {
        ("sweep_train", false) => sweep::run,
        ("sweep_train", true) => sweep::traced,
        ("serve_open", false) => serve::run,
        ("serve_open", true) => serve::traced,
        ("dfs_replay", false) => dfs::run,
        ("dfs_replay", true) => dfs::traced,
        (other, _) => unreachable!("workload {other:?} passed validation"),
    };
    let Outcome { tally, mut metrics } = run(&opts);
    if opts.trace {
        tevot_obs::trace::disable();
        metrics.push("mem.peak_rss_mb", peak_rss_mb(), "MiB");
        metrics.push("fail_ratio", tally.fail_ratio(), "ratio");
        let path =
            PathBuf::from(".bench_out").join(format!("trace-{}-{}.json", opts.workload, opts.seed));
        if let Err(e) = spans::write(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    println!("{}", Json::obj(vec![("config", config(&opts))]));
    let result = Json::obj(vec![
        ("correct", Json::Bool(tally.failed == 0 && tally.attempted > 0)),
        ("attempted", Json::from(tally.attempted.max(1))),
        ("failed", Json::from(tally.failed)),
        ("metrics", metrics.to_json()),
    ]);
    println!("{result}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_generates_identical_inputs() {
        assert_eq!(sweep::inputs(7), sweep::inputs(7));
        assert_eq!(serve::inputs(7), serve::inputs(7));
        assert_eq!(dfs::inputs(7), dfs::inputs(7));
    }

    #[test]
    fn another_seed_generates_other_inputs() {
        assert_ne!(sweep::inputs(7).0, sweep::inputs(8).0);
        assert_ne!(sweep::inputs(7).1, sweep::inputs(8).1);
        assert_ne!(serve::inputs(7), serve::inputs(8));
        let (a, b) = (dfs::inputs(7), dfs::inputs(8));
        assert_ne!(a.0, b.0);
        assert_ne!(a.1[0], b.1[0]);
        assert_ne!(a.1[1], b.1[1]);
    }

    #[test]
    fn derived_seeds_differ_by_stream_and_seed() {
        assert_ne!(mix(1, 1), mix(1, 2));
        assert_ne!(mix(1, 1), mix(2, 1));
        assert_eq!(mix(7, 3), mix(7, 3));
    }
}
