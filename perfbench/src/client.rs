//! The serving path: seeded `POST /predict` requests, an open-loop load
//! generator, and the probe that splits a served request into its
//! `tevot-serve` layers.
//!
//! The generator is open-loop: request `i` is due at `start + i / rate`
//! whatever happened to earlier requests, and each of at most two
//! keep-alive connections takes the next due request when it is free.
//! Latency is timed from the due time, so a stall also charges the
//! requests queued behind it; how late the generator sent each request
//! is recorded too. Every response body is parsed and its delays compared
//! bit for bit with offline `predict_delay_ps` on the same model.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tevot::TevotModel;
use tevot_obs::json::{self, Json};
use tevot_obs::metrics::{
    PAR_TASKS, SERVE_BATCH_JOBS, SERVE_PREDICT_LATENCY_US, SERVE_QUEUE_DEPTH,
};
use tevot_serve::http::Request;
use tevot_serve::Server;

use crate::infer::Stream;
use crate::spans::span_id;
use crate::stats::{median, quantile, Metrics, Tally};

/// The nominal request rate, req/s.
pub const NOMINAL_RPS: f64 = 500.0;
/// The rate ladder probed for the highest sustainable rate, req/s: ×2
/// steps placed so that the default server's two-connection capacity
/// (about 1300 req/s on two cores) falls just under a rung. The rung
/// below it then runs at half the capacity and still passes when a
/// loaded host slows the server by half again, so the result does not
/// flip between rungs from run to run.
pub const LADDER_RPS: [f64; 6] = [160.0, 320.0, 640.0, 1280.0, 2560.0, 5120.0];
/// The latency limit on the 99th percentile, s.
pub const P99_LIMIT_S: f64 = 0.005;
/// A ladder rung is abandoned once the generator runs this far behind.
pub const ABORT_LAG_S: f64 = 0.05;

/// Client connections: one per core, at most two.
pub fn connections() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from).clamp(1, 2)
}

/// A gate-level-simulated operand stream requests draw transitions from,
/// with the clock periods requests may ask about.
pub struct Source {
    /// Operands and their true delays at one condition.
    pub stream: Stream,
    /// Clock periods, ps.
    pub periods: Vec<u64>,
}

/// One prepared request.
#[derive(Debug, Clone)]
pub struct Req {
    /// The JSON body.
    pub body: String,
    /// The clock period it asks about, ps.
    pub clock_ps: u64,
    /// Offline `predict_delay_ps` of each transition.
    pub expected: Vec<f64>,
    /// Whether each transition truly misses `clock_ps` (gate level).
    pub truth: Vec<bool>,
}

impl Req {
    /// Whether a response (status, body) is the expected one: status 200,
    /// every delay bit-identical to offline, and the verdicts consistent.
    pub fn check(&self, status: u16, body: &str) -> bool {
        if status != 200 {
            return false;
        }
        let Ok(doc) = json::parse(body) else { return false };
        let delays = doc.get("delays_ps").and_then(Json::as_arr).unwrap_or(&[]);
        let verdicts = doc.get("erroneous").and_then(Json::as_arr).unwrap_or(&[]);
        delays.len() == self.expected.len()
            && verdicts.len() == self.expected.len()
            && delays.iter().zip(&self.expected).zip(verdicts).all(|((d, e), v)| {
                d.as_f64().map(f64::to_bits) == Some(e.to_bits())
                    && matches!(v, Json::Bool(b) if *b == (*e > self.clock_ps as f64))
            })
    }

    /// Transitions whose offline verdict matches the gate-level truth.
    pub fn matched(&self) -> usize {
        self.expected
            .iter()
            .zip(&self.truth)
            .filter(|&(&e, &t)| (e > self.clock_ps as f64) == t)
            .count()
    }
}

/// Builds `n` requests from `sources`: each picks a source, one of its
/// clock periods and a run of consecutive transitions — mostly 1–4,
/// one in ten 64–256.
pub fn requests(model: &TevotModel, sources: &[Source], n: usize, seed: u64) -> Vec<Req> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let src = &sources[rng.gen_range(0..sources.len())];
            let s = &src.stream;
            let clock_ps = src.periods[rng.gen_range(0..src.periods.len())];
            let want: usize = if rng.gen_range(0..10) == 0 {
                rng.gen_range(64..=256)
            } else {
                rng.gen_range(1..=4)
            };
            let len = want.min(s.ops.len() - 1);
            let first = rng.gen_range(1..=s.ops.len() - len);
            let mut body = format!(
                "{{\"voltage\":{},\"temperature\":{},\"clock_ps\":{clock_ps},\"transitions\":[",
                s.cond.voltage(),
                s.cond.temperature()
            );
            let mut expected = Vec::with_capacity(len);
            let mut truth = Vec::with_capacity(len);
            for t in first..first + len {
                let ((a, b), (pa, pb)) = (s.ops[t], s.ops[t - 1]);
                if t > first {
                    body.push(',');
                }
                body.push_str(&format!("{{\"a\":{a},\"b\":{b},\"prev_a\":{pa},\"prev_b\":{pb}}}"));
                expected.push(model.predict_delay_ps(s.cond, s.ops[t], s.ops[t - 1]));
                truth.push(s.actual[t] > clock_ps);
            }
            body.push_str("]}");
            Req { body, clock_ps, expected, truth }
        })
        .collect()
}

/// One keep-alive client connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(Duration::from_secs(10)))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn { writer, reader })
    }

    /// Sends `body` to `POST /predict`; returns the status and body.
    fn post(&mut self, body: &str) -> std::io::Result<(u16, String)> {
        let msg = format!(
            "POST /predict HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer.write_all(msg.as_bytes())?;
        let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response");
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let status: u16 =
            line.split_whitespace().nth(1).and_then(|s| s.parse().ok()).ok_or_else(bad)?;
        let mut length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            let header = line.trim();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().map_err(|_| bad())?;
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        Ok((status, String::from_utf8(body).map_err(|_| bad())?))
    }
}

/// One sent request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index into the request list.
    pub req: usize,
    /// Due time, s after the phase start.
    pub due_s: f64,
    /// How late it was sent, s.
    pub lag_s: f64,
    /// Send to response, s.
    pub service_s: f64,
    /// Due time to response, s.
    pub latency_s: f64,
    /// Whether the response was the expected one.
    pub ok: bool,
}

/// One open-loop phase at a fixed rate.
#[derive(Debug)]
pub struct Phase {
    /// Sent requests, in due order.
    pub samples: Vec<Sample>,
    /// Requests scheduled.
    pub scheduled: usize,
    /// Whether the generator fell more than [`ABORT_LAG_S`] behind and
    /// stopped sending.
    pub aborted: bool,
    /// Start to last response, s.
    pub wall_s: f64,
    /// The rate, req/s.
    pub rate: f64,
}

impl Phase {
    /// Success tally over the sent requests.
    pub fn tally(&self) -> Tally {
        let mut t = Tally::default();
        for s in &self.samples {
            t.record(s.ok);
        }
        t
    }

    /// Latencies from the due time, s.
    pub fn latencies(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.latency_s).collect()
    }

    /// Whether the rate was sustained: everything sent and answered
    /// correctly, the p99 latency within the limit (taken per quarter of
    /// the phase, median over quarters), and no growing backlog (the last
    /// tenth of requests was sent no later than the limit).
    pub fn sustained(&self) -> bool {
        let n = self.samples.len();
        let tail: Vec<f64> = self.samples[n - n / 10..].iter().map(|s| s.lag_s).collect();
        let quarter = self.scheduled as f64 / self.rate / 4.0;
        !self.aborted
            && n == self.scheduled
            && self.samples.iter().all(|s| s.ok)
            && self.windowed_p99(quarter) <= P99_LIMIT_S
            && median(&tail) <= P99_LIMIT_S
    }

    /// The median over `window_s`-long stretches of due times of each
    /// stretch's p99 latency, s: a tail figure that one scheduling stall
    /// of the host cannot move.
    pub fn windowed_p99(&self, window_s: f64) -> f64 {
        let mut windows: Vec<Vec<f64>> = Vec::new();
        for s in &self.samples {
            let w = (s.due_s / window_s) as usize;
            if windows.len() <= w {
                windows.resize(w + 1, Vec::new());
            }
            windows[w].push(s.latency_s);
        }
        let p99s: Vec<f64> =
            windows.iter().filter(|w| !w.is_empty()).map(|w| quantile(w, 0.99)).collect();
        median(&p99s)
    }

    /// A one-line summary for the log.
    pub fn describe(&self) -> String {
        let lat = self.latencies();
        let lags: Vec<f64> = self.samples.iter().map(|s| s.lag_s).collect();
        format!(
            "{} req/s: sent {}/{}, latency p2 {:.3} ms p10 {:.3} ms p50 {:.3} ms p99 {:.3} ms, \
             lag p99 {:.3} ms",
            self.rate,
            self.samples.len(),
            self.scheduled,
            quantile(&lat, 0.02) * 1e3,
            quantile(&lat, 0.1) * 1e3,
            median(&lat) * 1e3,
            quantile(&lat, 0.99) * 1e3,
            quantile(&lags, 0.99) * 1e3,
        )
    }

    /// Answered requests per second of the phase.
    pub fn achieved_rps(&self) -> f64 {
        self.samples.len() as f64 / self.wall_s
    }
}

/// Drives `requests` (cyclically, from index `first`) at `rate` req/s for
/// `secs` seconds over `conns` connections to `addr`. A `ladder` phase
/// stops sending once the generator runs [`ABORT_LAG_S`] behind.
pub fn open_loop(
    addr: &str,
    reqs: &[Req],
    first: usize,
    rate: f64,
    secs: f64,
    conns: usize,
    ladder: bool,
) -> Phase {
    let scheduled = ((rate * secs).round() as usize).max(1);
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let start = Instant::now();
    /// A sent request and its response (status, body), if one arrived.
    type Exchange = (Sample, Option<(u16, String)>);
    let per_conn: Vec<Vec<Exchange>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..conns)
            .map(|_| {
                scope.spawn(|| {
                    let mut conn = Conn::open(addr).ok();
                    let mut samples = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= scheduled || abort.load(Ordering::Relaxed) {
                            break;
                        }
                        let due = Duration::from_secs_f64(i as f64 / rate);
                        if let Some(wait) = due.checked_sub(start.elapsed()) {
                            std::thread::sleep(wait);
                        }
                        let sent = start.elapsed();
                        let lag = sent.saturating_sub(due).as_secs_f64();
                        if ladder && lag > ABORT_LAG_S {
                            abort.store(true, Ordering::Relaxed);
                            break;
                        }
                        let req = (first + i) % reqs.len();
                        let response = {
                            let _s = span_id("client.request", i as u64 + 1);
                            if conn.is_none() {
                                conn = Conn::open(addr).ok();
                            }
                            let response = conn.as_mut().and_then(|c| c.post(&reqs[req].body).ok());
                            if response.is_none() {
                                conn = None;
                            }
                            response
                        };
                        let done = start.elapsed();
                        let sample = Sample {
                            req,
                            due_s: due.as_secs_f64(),
                            lag_s: lag,
                            service_s: (done - sent).as_secs_f64(),
                            latency_s: done.saturating_sub(due).as_secs_f64(),
                            ok: false,
                        };
                        samples.push((sample, response));
                    }
                    samples
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("client thread panicked")).collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    // Responses are checked after the phase, so the checking does not
    // compete with the server for the cores while it is measured.
    let mut samples: Vec<Sample> = per_conn
        .into_iter()
        .flatten()
        .map(|(mut sample, response)| {
            sample.ok =
                response.is_some_and(|(status, body)| reqs[sample.req].check(status, &body));
            sample
        })
        .collect();
    samples.sort_by(|a, b| a.due_s.total_cmp(&b.due_s));
    Phase { samples, scheduled, aborted: abort.into_inner(), wall_s, rate }
}

/// Seconds per ladder rung in the probe.
const RUNG_S: f64 = 1.0;
/// The stretch of a phase each p99 is taken over, s (125 requests at the
/// nominal rate).
const P99_WINDOW_S: f64 = 0.25;

/// Direct `tevot_serve::api::handle` calls in the probe.
const HANDLE_CALLS: usize = 400;

/// Splits a served request into its layers: a nominal-rate open-loop
/// window of `secs` seconds gives client-side, server-histogram,
/// batching and generator figures; direct `api::handle` calls on the same
/// server state, with no TCP, give the handler's own latency. Pushes the
/// serving per-layer metrics and returns the success tally.
pub fn probe(server: &Server, reqs: &[Req], secs: f64, out: &mut Metrics) -> Tally {
    for h in [&SERVE_PREDICT_LATENCY_US, &SERVE_BATCH_JOBS, &SERVE_QUEUE_DEPTH] {
        h.reset();
    }
    let tasks0 = PAR_TASKS.get();
    let addr = server.local_addr().to_string();
    let phase = open_loop(&addr, reqs, 0, NOMINAL_RPS, secs, connections(), false);
    let tasks = PAR_TASKS.get() - tasks0;
    let sent = phase.samples.len().max(1) as f64;
    let service: Vec<f64> = phase.samples.iter().map(|s| s.service_s).collect();
    let lags: Vec<f64> = phase.samples.iter().map(|s| s.lag_s).collect();
    let hist = |q| SERVE_PREDICT_LATENCY_US.quantile(q).unwrap_or(f64::NAN);
    out.push("serve.server_p50_us", hist(0.5), "us");
    out.push("serve.server_p99_us", hist(0.99), "us");
    let batches = SERVE_BATCH_JOBS.total().max(1) as f64;
    out.push("serve.batch_jobs_mean", SERVE_BATCH_JOBS.sum() as f64 / batches, "jobs");
    out.push("serve.queue_depth_p99", SERVE_QUEUE_DEPTH.quantile(0.99).unwrap_or(f64::NAN), "jobs");
    out.push("par.tasks_per_request", tasks as f64 / sent, "tasks");
    out.push("serve.gen_lag_p99_us", quantile(&lags, 0.99) * 1e6, "us");
    out.push("serve.client_p50_us", median(&phase.latencies()) * 1e6, "us");
    out.push("serve.client_p99_us", phase.windowed_p99(P99_WINDOW_S) * 1e6, "us");

    let mut tally = phase.tally();
    let state = server.state();
    let mut handle_s = Vec::with_capacity(HANDLE_CALLS);
    for i in 0..HANDLE_CALLS {
        let req = &reqs[i % reqs.len()];
        let request = Request {
            method: "POST".into(),
            path: "/predict".into(),
            headers: Vec::new(),
            body: req.body.clone().into_bytes(),
        };
        let t0 = Instant::now();
        let response = {
            let _s = span_id("serve.handle", i as u64 + 1);
            tevot_serve::api::handle(state, &request)
        };
        handle_s.push(t0.elapsed().as_secs_f64());
        tally.record(req.check(response.status, &String::from_utf8_lossy(&response.body)));
    }
    let handle_p50 = median(&handle_s);
    out.push("serve.handle_p50_us", handle_p50 * 1e6, "us");
    out.push("serve.handle_p99_us", quantile(&handle_s, 0.99) * 1e6, "us");
    out.push("serve.transport_p50_us", (median(&service) - handle_p50) * 1e6, "us");

    let mut first = phase.scheduled;
    let mut max_rps = 0.0;
    for rate in LADDER_RPS {
        // A rung gets a second try, so one host stall cannot fail it.
        let sustained = (0..2)
            .map(|_| {
                let rung = open_loop(&addr, reqs, first, rate, RUNG_S, connections(), true);
                first += rung.scheduled;
                tally.merge(rung.tally());
                rung
            })
            .find(Phase::sustained);
        match sustained {
            Some(rung) => max_rps = rung.achieved_rps(),
            None => break,
        }
    }
    out.push("serve.max_rps", max_rps, "1/s");
    tally
}

/// Starts a server configured as the CLI runs it (default
/// `ServeConfig`, watch on) with `model` as the default model.
pub fn start_server(model: &TevotModel) -> Server {
    let config = tevot_serve::ServeConfig {
        watch: Some(tevot_serve::WatchConfig::default()),
        ..tevot_serve::ServeConfig::default()
    };
    let server = Server::start(config).expect("bind a loopback port");
    server.state().registry.insert(tevot_serve::DEFAULT_MODEL, model.clone());
    server
}
