//! The sweep coordinator: shard a condition grid across worker
//! processes, survive their deaths, finish bit-identical.
//!
//! The coordinator owns three things: the [`LeaseTable`] journal of work
//! units, a loopback [`MiniServer`] speaking the fleet wire protocol,
//! and one monitor thread per worker slot. Workers are ordinary `tevot
//! fleet-worker` processes (or threads, for in-process tests) that pull
//! unit indices over HTTP, simulate the condition, and commit the result
//! as a `tevot-resil` checkpoint shard before acknowledging.
//!
//! # Why the result is bit-identical at any worker count
//!
//! Workers never hand results to the coordinator — they hand them to the
//! checkpoint directory, through the exact serialization the
//! single-process checkpointed sweep uses. The coordinator's last step
//! is [`Characterizer::characterize_sweep_ckpt`] on that directory,
//! which validates every shard (recomputing any that are missing,
//! truncated, or for the wrong condition) and assembles results in grid
//! order. Sharding therefore only decides *who computes* each shard;
//! *what* a shard contains is fixed by the fingerprint-bound
//! configuration. Even the degenerate fleet — every worker dead, zero
//! shards written — degrades to the ordinary single-process sweep.
//!
//! # Wire protocol (`tevot-fleet/1`)
//!
//! ```text
//! GET  /fleet/config     -> run configuration + fingerprint (hex)
//! POST /fleet/lease      {"worker":id}            -> {"unit":i} | {"wait_ms":k} | {"done":true}
//! POST /fleet/complete   {"worker":id,"unit":i}   -> {"ok":true}
//! POST /fleet/heartbeat  {"worker":id}            -> {"ok":true}
//! GET  /fleet/status     -> {"pending":p,"leased":l,"done":d,...}
//! ```

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use tevot::dta::{Characterization, Characterizer};
use tevot::workload::random_workload;
use tevot_netlist::fu::FunctionalUnit;
use tevot_obs::json::Json;
use tevot_obs::metrics::{FLEET_HEARTBEATS, FLEET_REASSIGNED, FLEET_WORKERS_SPAWNED};
use tevot_resil::checkpoint::CheckpointDir;
use tevot_resil::{CancelToken, ResultExt, TevotError};
use tevot_serve::http::{Request, Response};
use tevot_timing::{ClockSpeedup, OperatingCondition};

use crate::lease::{Grant, LeaseTable};
use crate::service::{Handler, MiniServer};

/// How the coordinator runs its workers.
#[derive(Debug, Clone)]
pub enum WorkerMode {
    /// Fork real processes: `program args... --coordinator <addr>
    /// --worker-id <id>`. This is the production mode — a killed worker
    /// takes nothing down but itself.
    Process {
        /// The worker executable (normally the `tevot` binary itself).
        program: PathBuf,
        /// Arguments before the coordinator flags (normally
        /// `["fleet-worker"]`).
        args: Vec<String>,
    },
    /// Run workers as in-process threads — same protocol over loopback,
    /// no fork. For tests and benches; a panicking thread stands in for
    /// a dying process.
    Thread,
}

/// A sharded sweep's full configuration.
#[derive(Debug, Clone)]
pub struct FleetSweepSpec {
    /// Functional unit to characterize.
    pub fu: FunctionalUnit,
    /// Random-workload vector count (workers rebuild the workload from
    /// `(fu, vectors, seed)`, so it never crosses the wire).
    pub vectors: usize,
    /// Random-workload seed.
    pub seed: u64,
    /// Simulation engine.
    pub engine: tevot_sim::Engine,
    /// The (V, T) grid to shard.
    pub conditions: Vec<OperatingCondition>,
    /// Clock-speedup set for ground-truth extraction.
    pub speedups: Vec<ClockSpeedup>,
    /// Checkpoint directory: the work-unit journal and the only channel
    /// results travel through.
    pub ckpt_dir: PathBuf,
    /// Worker count.
    pub workers: usize,
    /// Heartbeat grace period before a silent worker's units are
    /// reassigned.
    pub lease: Duration,
    /// Total replacement workers the fleet may spawn before it stops
    /// respawning and lets the coordinator finish the remainder.
    pub max_respawns: usize,
    /// Process or thread workers.
    pub mode: WorkerMode,
}

impl FleetSweepSpec {
    /// A spec with production defaults: 10 s leases, a respawn budget of
    /// twice the worker count, thread mode (callers spawning processes
    /// override `mode`).
    pub fn new(
        fu: FunctionalUnit,
        vectors: usize,
        seed: u64,
        ckpt_dir: impl Into<PathBuf>,
    ) -> Self {
        FleetSweepSpec {
            fu,
            vectors,
            seed,
            engine: tevot_sim::Engine::default(),
            conditions: Vec::new(),
            speedups: ClockSpeedup::PAPER.to_vec(),
            ckpt_dir: ckpt_dir.into(),
            workers: 2,
            lease: Duration::from_secs(10),
            max_respawns: 4,
            mode: WorkerMode::Thread,
        }
    }
}

/// How one worker generation ended, as seen by its monitor.
enum Exit {
    /// Exited zero / returned `Ok` — the sweep is done for this worker.
    Clean,
    /// Killed by the coordinator's own shutdown.
    Stopped,
    /// Crashed, was killed externally, or returned an error.
    Died,
    /// Could not even be spawned; the slot gives up.
    Unspawnable,
}

/// Runs a sharded sweep and returns the characterizations in grid
/// order, bit-identical to [`Characterizer::characterize_sweep`] at any
/// worker count and through any number of worker deaths.
///
/// # Errors
///
/// [`tevot_resil::ErrorKind::Corrupt`] when `ckpt_dir` belongs to a
/// different run configuration, [`tevot_resil::ErrorKind::Cancelled`]
/// when `token` fires, [`tevot_resil::ErrorKind::Io`] on unrecoverable
/// shard or socket failures.
pub fn run_sweep(
    spec: &FleetSweepSpec,
    token: &CancelToken,
) -> Result<Vec<Characterization>, TevotError> {
    let _span = tevot_obs::span!(
        "fleet.sweep",
        "{} conds, {} workers",
        spec.conditions.len(),
        spec.workers
    );
    if spec.conditions.is_empty() {
        return Ok(Vec::new());
    }
    let workers = spec.workers.max(1);
    let characterizer = Characterizer::new(spec.fu).with_engine(spec.engine);
    let workload = random_workload(spec.fu, spec.vectors, spec.seed);
    let ckpt = CheckpointDir::open(&spec.ckpt_dir)?;
    let fingerprint = characterizer.sweep_fingerprint(&spec.conditions, &workload, &spec.speedups);
    // Refuse a foreign directory *before* any worker starts writing.
    ckpt.bind_manifest(fingerprint)
        .ctx(|| format!("bind checkpoint directory {}", ckpt.path().display()))?;

    // Resume pre-scan: anything already journaled is not work.
    let mut table = LeaseTable::new(spec.conditions.len(), spec.lease);
    for (i, condition) in spec.conditions.iter().enumerate() {
        let valid = ckpt
            .read_valid(&format!("cond-{i}"))
            .and_then(|payload| Characterization::from_bytes(&payload).ok())
            .is_some_and(|c| c.condition() == *condition);
        if valid {
            table.mark_done(i);
        }
    }
    let (pending, _, done) = table.counts();
    if done > 0 {
        tevot_obs::info!(
            "fleet: resuming, {done} of {} conditions already journaled",
            done + pending
        );
    }

    let table = Arc::new(Mutex::new(table));
    let all_done = table.lock().expect("lease table").done();
    if !all_done {
        let config_json = Arc::new(config_json(spec, fingerprint));
        let mut server =
            MiniServer::start("127.0.0.1:0", 1 << 16, protocol_handler(&table, &config_json))
                .map_err(|e| TevotError::from(e).context("bind fleet coordinator"))?;
        let addr = server.local_addr().to_string();
        tevot_obs::info!(
            "fleet: coordinating {} conditions across {workers} workers on {addr}",
            spec.conditions.len()
        );

        let stop = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(workers));
        let respawns = Arc::new(AtomicUsize::new(spec.max_respawns));
        // Thread-mode workers run under the caller's scoped failpoints,
        // as process workers run under its `TEVOT_FAIL`.
        let failpoints = tevot_resil::fail::inherit();
        let monitors: Vec<_> = (0..workers)
            .map(|slot| {
                let mode = spec.mode.clone();
                let addr = addr.clone();
                let table = Arc::clone(&table);
                let stop = Arc::clone(&stop);
                let active = Arc::clone(&active);
                let respawns = Arc::clone(&respawns);
                let failpoints = failpoints.clone();
                std::thread::spawn(move || {
                    let _failpoints = failpoints.enter();
                    monitor_slot(slot, &mode, &addr, &table, &stop, &respawns);
                    active.fetch_sub(1, Ordering::Relaxed);
                })
            })
            .collect();

        let outcome = loop {
            if let Err(e) = token.check("fleet sweep") {
                break Err(e);
            }
            {
                let mut t = table.lock().expect("lease table");
                let expired = t.expire();
                if expired > 0 {
                    FLEET_REASSIGNED.add(expired as u64);
                }
                if t.done() {
                    break Ok(());
                }
            }
            if active.load(Ordering::Relaxed) == 0 {
                tevot_obs::warn!(
                    "fleet: every worker exited with work remaining; \
                     the coordinator finishes the rest itself"
                );
                break Ok(());
            }
            std::thread::sleep(Duration::from_millis(100));
        };

        // Shutting the server down first makes thread-mode workers fail
        // their next protocol call and exit; the stop flag makes
        // process monitors kill their children.
        stop.store(true, Ordering::Relaxed);
        server.shutdown();
        for monitor in monitors {
            let _ = monitor.join();
        }
        outcome?;
    }

    // Final assembly: the single-process checkpointed sweep over the
    // shared journal. It validates every shard and computes whatever the
    // fleet did not finish, which is exactly what makes the fleet's
    // output bit-identical to a serial run.
    characterizer.characterize_sweep_ckpt(&spec.conditions, &workload, &spec.speedups, &ckpt, token)
}

/// The `/fleet/config` document, built once per run.
pub(crate) fn config_json(spec: &FleetSweepSpec, fingerprint: u64) -> String {
    Json::obj(vec![
        ("schema", Json::Str("tevot-fleet/1".into())),
        ("fu", Json::Str(spec.fu.slug().into())),
        ("vectors", Json::from(spec.vectors as u64)),
        // Decimal string: u64 seeds above 2^53 would lose bits as JSON
        // numbers.
        ("seed", Json::Str(spec.seed.to_string())),
        ("engine", Json::Str(spec.engine.name().into())),
        ("speedups", Json::Arr(spec.speedups.iter().map(|s| Json::Num(s.fraction())).collect())),
        (
            "conditions",
            Json::Arr(
                spec.conditions
                    .iter()
                    .map(|c| Json::Arr(vec![Json::Num(c.voltage()), Json::Num(c.temperature())]))
                    .collect(),
            ),
        ),
        ("ckpt_dir", Json::Str(spec.ckpt_dir.display().to_string())),
        ("fingerprint", Json::Str(format!("{fingerprint:#018x}"))),
        ("lease_ms", Json::from(spec.lease.as_millis() as u64)),
    ])
    .to_string()
}

/// The coordinator's request handler over the shared lease table.
fn protocol_handler(table: &Arc<Mutex<LeaseTable>>, config: &Arc<String>) -> Handler {
    let table = Arc::clone(table);
    let config = Arc::clone(config);
    Arc::new(move |req: &Request| {
        let body_field = |key: &str| -> Option<Json> {
            let text = std::str::from_utf8(&req.body).ok()?;
            tevot_obs::json::parse(text).ok()?.get(key).cloned()
        };
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/fleet/config") => Response::json(200, (*config).clone()),
            ("POST", "/fleet/lease") => {
                let Some(worker) = body_field("worker").and_then(|w| w.as_str().map(String::from))
                else {
                    return Response::json(400, "{\"error\":\"lease needs a worker id\"}");
                };
                match table.lock().expect("lease table").grant(&worker) {
                    Grant::Unit(i) => Response::json(200, format!("{{\"unit\":{i}}}")),
                    Grant::Wait => Response::json(200, "{\"wait_ms\":200}"),
                    Grant::Done => Response::json(200, "{\"done\":true}"),
                }
            }
            ("POST", "/fleet/complete") => {
                let worker = body_field("worker").and_then(|w| w.as_str().map(String::from));
                let unit = body_field("unit").and_then(|u| u.as_u64());
                match (worker, unit) {
                    (Some(worker), Some(unit)) => {
                        table.lock().expect("lease table").complete(&worker, unit as usize);
                        Response::json(200, "{\"ok\":true}")
                    }
                    _ => Response::json(400, "{\"error\":\"complete needs worker and unit\"}"),
                }
            }
            ("POST", "/fleet/heartbeat") => {
                let Some(worker) = body_field("worker").and_then(|w| w.as_str().map(String::from))
                else {
                    return Response::json(400, "{\"error\":\"heartbeat needs a worker id\"}");
                };
                FLEET_HEARTBEATS.incr();
                table.lock().expect("lease table").heartbeat(&worker);
                Response::json(200, "{\"ok\":true}")
            }
            ("GET", "/fleet/status") => {
                let (pending, leased, done) = table.lock().expect("lease table").counts();
                Response::json(
                    200,
                    format!(
                        "{{\"schema\":\"tevot-fleet/1\",\"pending\":{pending},\
                         \"leased\":{leased},\"done\":{done},\"total\":{}}}",
                        pending + leased + done
                    ),
                )
            }
            _ => Response::json(404, "{\"error\":\"unknown fleet endpoint\"}"),
        }
    })
}

/// One worker slot's supervision loop: spawn, wait, on death release the
/// leases and respawn (with the chaos environment scrubbed) while the
/// fleet-wide respawn budget lasts.
fn monitor_slot(
    slot: usize,
    mode: &WorkerMode,
    addr: &str,
    table: &Arc<Mutex<LeaseTable>>,
    stop: &Arc<AtomicBool>,
    respawns: &Arc<AtomicUsize>,
) {
    let mut generation = 0usize;
    loop {
        let id = format!("w{slot}g{generation}");
        let _span = tevot_obs::span!("fleet.worker", "{}", id);
        FLEET_WORKERS_SPAWNED.incr();
        let exit = match mode {
            WorkerMode::Process { program, args } => {
                run_process_worker(program, args, addr, &id, generation > 0, stop)
            }
            WorkerMode::Thread => run_thread_worker(addr, &id, stop),
        };
        match exit {
            Exit::Clean | Exit::Stopped | Exit::Unspawnable => return,
            Exit::Died => {
                let released = table.lock().expect("lease table").release_worker(&id);
                if released > 0 {
                    FLEET_REASSIGNED.add(released as u64);
                }
                tevot_obs::warn!(
                    "fleet: worker {id} died ({released} units reassigned immediately)"
                );
                if stop.load(Ordering::Relaxed) || table.lock().expect("lease table").done() {
                    return;
                }
                // Decrement the shared budget; stop respawning once the
                // fleet has burned through it.
                if respawns
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |left| left.checked_sub(1))
                    .is_err()
                {
                    tevot_obs::warn!("fleet: respawn budget exhausted; slot {slot} stays down");
                    return;
                }
                generation += 1;
            }
        }
    }
}

/// Spawns and supervises one worker process generation.
fn run_process_worker(
    program: &PathBuf,
    args: &[String],
    addr: &str,
    id: &str,
    scrub_chaos: bool,
    stop: &Arc<AtomicBool>,
) -> Exit {
    let mut cmd = Command::new(program);
    cmd.args(args).arg("--coordinator").arg(addr).arg("--worker-id").arg(id).stdout(Stdio::null());
    if scrub_chaos {
        // Replacement workers run clean: the chaos harness injects
        // faults into first-generation workers, and recovery must
        // converge instead of killing every replacement at the same
        // site.
        cmd.env("TEVOT_FAIL", "");
    }
    let mut child = match cmd.spawn() {
        Ok(child) => child,
        Err(e) => {
            tevot_obs::error!("fleet: cannot spawn worker {id} ({})", e);
            return Exit::Unspawnable;
        }
    };
    loop {
        if stop.load(Ordering::Relaxed) {
            let _ = child.kill();
            let _ = child.wait();
            return Exit::Stopped;
        }
        match child.try_wait() {
            Ok(Some(status)) => {
                return if status.success() { Exit::Clean } else { Exit::Died };
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(50)),
            Err(_) => {
                let _ = child.kill();
                return Exit::Died;
            }
        }
    }
}

/// Runs one worker generation as an in-process thread. A panic (e.g. an
/// injected `fleet.task=panic` failpoint) counts as death, like a
/// killed process.
fn run_thread_worker(addr: &str, id: &str, stop: &Arc<AtomicBool>) -> Exit {
    let addr = addr.to_string();
    let id_owned = id.to_string();
    let failpoints = tevot_resil::fail::inherit();
    let handle = std::thread::spawn(move || {
        let _failpoints = failpoints.enter();
        crate::worker::run(&addr, &id_owned)
    });
    loop {
        if handle.is_finished() {
            return match handle.join() {
                Ok(Ok(())) => Exit::Clean,
                Ok(Err(e)) => {
                    tevot_obs::warn!("fleet: worker {id} failed: {e}");
                    Exit::Died
                }
                Err(_) => Exit::Died, // panicked
            };
        }
        if stop.load(Ordering::Relaxed) {
            // Threads cannot be killed; the server shutdown fails the
            // worker's next protocol call, so just wait it out.
            return match handle.join() {
                Ok(Ok(())) => Exit::Clean,
                _ => Exit::Stopped,
            };
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(n: usize) -> Vec<OperatingCondition> {
        (0..n)
            .map(|i| {
                let f = i as f64 / (n - 1).max(1) as f64;
                OperatingCondition::new(0.85 + 0.1 * f, 100.0 * f)
            })
            .collect()
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tevot_fleet_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn thread_fleet_matches_serial_sweep() {
        let dir = scratch("thread");
        let mut spec = FleetSweepSpec::new(FunctionalUnit::IntAdd, 40, 11, &dir);
        spec.conditions = grid(4);
        spec.workers = 3;
        let token = CancelToken::new();
        let fleet = run_sweep(&spec, &token).expect("fleet sweep");

        let serial = Characterizer::new(spec.fu).with_engine(spec.engine).characterize_sweep(
            &spec.conditions,
            &random_workload(spec.fu, spec.vectors, spec.seed),
            &spec.speedups,
        );
        assert_eq!(fleet, serial, "fleet output must be bit-identical to the serial sweep");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fleet_survives_every_worker_dying() {
        // After two clean evaluations, fleet.task panics every worker
        // thread (replacements included — thread-mode workers inherit
        // the test's scoped failpoints). The respawn budget drains,
        // every slot goes dark, and the coordinator still finishes with
        // the correct result.
        let dir = scratch("chaos");
        let _chaos = tevot_resil::fail::scoped("fleet.task=panic#2");
        let mut spec = FleetSweepSpec::new(FunctionalUnit::IntAdd, 30, 5, &dir);
        spec.conditions = grid(5);
        spec.workers = 2;
        spec.max_respawns = 2;
        spec.lease = Duration::from_secs(30);
        let token = CancelToken::new();
        let fleet = run_sweep(&spec, &token).expect("fleet sweep under chaos");
        drop(_chaos);

        let serial = Characterizer::new(spec.fu).characterize_sweep(
            &spec.conditions,
            &random_workload(spec.fu, spec.vectors, spec.seed),
            &spec.speedups,
        );
        assert_eq!(fleet, serial, "chaos must not change the output");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_checkpoint_directory_is_refused() {
        let dir = scratch("foreign");
        let ckpt = CheckpointDir::open(&dir).unwrap();
        ckpt.bind_manifest(0xDEAD_BEEF).unwrap();
        let mut spec = FleetSweepSpec::new(FunctionalUnit::IntAdd, 30, 5, &dir);
        spec.conditions = grid(2);
        let e = run_sweep(&spec, &CancelToken::new()).unwrap_err();
        assert_eq!(e.kind(), tevot_resil::ErrorKind::Corrupt);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_with_truncated_shard_recomputes_it() {
        let dir = scratch("truncated");
        let mut spec = FleetSweepSpec::new(FunctionalUnit::IntAdd, 30, 9, &dir);
        spec.conditions = grid(3);
        let token = CancelToken::new();
        let first = run_sweep(&spec, &token).expect("first run");

        // Truncate one shard mid-write, as a crash would leave it.
        let ckpt = CheckpointDir::open(&dir).unwrap();
        let victim = ckpt.shard_path("cond-1");
        let bytes = std::fs::read(&victim).unwrap();
        std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();

        let second = run_sweep(&spec, &token).expect("resume over truncated shard");
        assert_eq!(first, second, "redone shard must be bit-identical");
        assert!(ckpt.read_valid("cond-1").is_some(), "shard must be re-journaled");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
