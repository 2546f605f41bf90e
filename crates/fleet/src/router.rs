//! The replicated-serving router: consistent-hash placement, health
//! ejection, bounded failover, rolling deploys.
//!
//! `tevot serve --replicas N` runs N ordinary `tevot serve` processes on
//! ephemeral loopback ports and puts this router in front of them.
//! Requests are placed by hashing `(model, voltage bucket, temperature
//! bucket)` onto a [`Ring`]: the same operating region lands on the same
//! replica, keeping its per-condition working set warm, and the ring
//! order doubles as the failover sequence. A replica that dies — or
//! merely stops answering `/healthz` — is ejected, respawned, and
//! re-admitted only after its health probe passes again; requests caught
//! in the blast radius retry with backoff along the ring instead of
//! surfacing a 5xx.
//!
//! Rolling deploys (`POST /models/<name>` against the router) drain one
//! replica at a time: stop routing to it, wait for its in-flight
//! requests, forward the swap, re-admit, move on. A failed swap stops
//! the roll with the fleet still serving on the old model everywhere
//! else.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tevot::TevotModel;
use tevot_obs::metrics::{
    FLEET_DEPLOYS, FLEET_EJECTED, FLEET_FAILOVERS, FLEET_READMITTED, FLEET_ROUTED,
};
use tevot_serve::http::{self, Request, Response};
use tevot_serve::{ServeConfig, Server, DEFAULT_MODEL};

use crate::ring::Ring;
use crate::service::{Handler, MiniServer};

/// One serving replica the router can route to, health-check, and kill.
pub trait ReplicaHandle: Send {
    /// The replica's `host:port`.
    fn addr(&self) -> String;
    /// The OS pid, when the replica is a real process.
    fn pid(&self) -> Option<u32>;
    /// Whether the replica is still running (process alive / server
    /// held). A `false` here is a stronger signal than a failed probe:
    /// the replica is gone, not slow.
    fn alive(&mut self) -> bool;
    /// Tears the replica down immediately.
    fn kill(&mut self);
}

/// Launches replicas; the router uses it both at startup and to respawn
/// the dead.
pub trait ReplicaLauncher: Send + Sync {
    /// Starts replica `index` and returns once it is ready to serve.
    ///
    /// # Errors
    ///
    /// Propagates spawn/bind failures; on respawn the router retries on
    /// the next health tick.
    fn launch(&self, index: usize) -> std::io::Result<Box<dyn ReplicaHandle>>;
}

/// Spawns real `tevot serve` child processes on ephemeral ports,
/// discovering each replica's port through its `--port-file`.
pub struct ProcessReplicaLauncher {
    /// The serve executable (normally the `tevot` binary).
    pub program: PathBuf,
    /// Arguments after `serve` and before the router-owned `--addr` /
    /// `--port-file` flags (model path, admission bound...).
    pub base_args: Vec<String>,
    /// Directory for `replica-{i}.addr` port files.
    pub port_dir: PathBuf,
}

struct ProcessReplica {
    child: Child,
    addr: String,
}

impl ReplicaHandle for ProcessReplica {
    fn addr(&self) -> String {
        self.addr.clone()
    }
    fn pid(&self) -> Option<u32> {
        Some(self.child.id())
    }
    fn alive(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(None))
    }
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl ReplicaLauncher for ProcessReplicaLauncher {
    fn launch(&self, index: usize) -> std::io::Result<Box<dyn ReplicaHandle>> {
        std::fs::create_dir_all(&self.port_dir)?;
        let port_file = self.port_dir.join(format!("replica-{index}.addr"));
        let _ = std::fs::remove_file(&port_file);
        // `--parent-pid` arms the replica's orphan watchdog: if this
        // router dies ungracefully (SIGKILL — `Drop` never runs), the
        // reparented replica notices and exits instead of leaking.
        let mut child = Command::new(&self.program)
            .arg("serve")
            .args(&self.base_args)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--port-file")
            .arg(&port_file)
            .arg("--parent-pid")
            .arg(std::process::id().to_string())
            .stdout(Stdio::null())
            .spawn()?;
        // The replica writes its bound address (tmp + rename) after
        // binding; wait for the file, then for a green health probe, so
        // a freshly launched slot is immediately routable.
        let deadline = Instant::now() + Duration::from_secs(10);
        let addr = loop {
            if let Ok(addr) = std::fs::read_to_string(&port_file) {
                let addr = addr.trim().to_string();
                if !addr.is_empty() {
                    break addr;
                }
            }
            if let Ok(Some(status)) = child.try_wait() {
                return Err(std::io::Error::other(format!(
                    "replica {index} exited ({status}) before publishing its port"
                )));
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                return Err(std::io::Error::other(format!(
                    "replica {index} did not publish its port within 10s"
                )));
            }
            std::thread::sleep(Duration::from_millis(25));
        };
        while !matches!(http::get(&addr, "/healthz"), Ok((200, _))) {
            if Instant::now() > deadline {
                let _ = child.kill();
                return Err(std::io::Error::other(format!(
                    "replica {index} on {addr} never answered /healthz"
                )));
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        Ok(Box::new(ProcessReplica { child, addr }))
    }
}

/// Runs replicas as in-process [`tevot_serve::Server`]s — no fork, same
/// router semantics. Used by `serve_load --replicas` and the bench
/// suite to self-host a replicated fleet.
pub struct InProcessLauncher {
    /// The model every replica serves as `default`.
    pub model: TevotModel,
}

struct InProcessReplica {
    server: Option<Server>,
    addr: String,
}

impl ReplicaHandle for InProcessReplica {
    fn addr(&self) -> String {
        self.addr.clone()
    }
    fn pid(&self) -> Option<u32> {
        None
    }
    fn alive(&mut self) -> bool {
        self.server.is_some()
    }
    fn kill(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

impl ReplicaLauncher for InProcessLauncher {
    fn launch(&self, _index: usize) -> std::io::Result<Box<dyn ReplicaHandle>> {
        let server = Server::start(ServeConfig::default())?;
        server.state().registry.insert(DEFAULT_MODEL, self.model.clone());
        let addr = server.local_addr().to_string();
        Ok(Box::new(InProcessReplica { server: Some(server), addr }))
    }
}

/// Router tuning knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Router bind address (`host:0` picks a free port).
    pub addr: String,
    /// Replica count.
    pub replicas: usize,
    /// Request-body cap forwarded requests must fit in.
    pub max_body: usize,
    /// Health-probe period.
    pub health_interval: Duration,
    /// Consecutive failed probes before a live-but-unresponsive replica
    /// is ejected (a dead process is ejected on the first tick).
    pub eject_after: u32,
    /// Full passes over the failover ring before a request gives up
    /// with 503.
    pub retry_attempts: u32,
    /// Base backoff between failover passes (scales linearly per pass).
    pub retry_backoff: Duration,
    /// Replica respawns the router will attempt over its lifetime
    /// before leaving a slot dark.
    pub max_restarts: usize,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            addr: "127.0.0.1:0".into(),
            replicas: 2,
            max_body: 1 << 20,
            health_interval: Duration::from_millis(250),
            eject_after: 2,
            retry_attempts: 3,
            retry_backoff: Duration::from_millis(10),
            max_restarts: 8,
        }
    }
}

/// One replica slot's routing state.
struct Slot {
    handle: Box<dyn ReplicaHandle>,
    addr: String,
    healthy: bool,
    draining: bool,
    fails: u32,
    restarts: usize,
    inflight: Arc<AtomicUsize>,
}

struct Shared {
    slots: Mutex<Vec<Slot>>,
    ring: Ring,
    launcher: Arc<dyn ReplicaLauncher>,
    config: RouterConfig,
}

/// The consistent-hash front door for a fleet of serving replicas.
pub struct Router {
    shared: Arc<Shared>,
    server: MiniServer,
    stop: Arc<AtomicBool>,
    health: Option<JoinHandle<()>>,
}

impl Router {
    /// Launches `config.replicas` replicas through `launcher`, binds the
    /// router address, and starts the health loop.
    ///
    /// # Errors
    ///
    /// Fails (tearing down anything already launched) if a replica
    /// cannot start or the router address cannot be bound.
    pub fn start(
        config: RouterConfig,
        launcher: Arc<dyn ReplicaLauncher>,
    ) -> std::io::Result<Router> {
        assert!(config.replicas > 0, "a router needs at least one replica");
        let mut slots = Vec::with_capacity(config.replicas);
        for index in 0..config.replicas {
            match launcher.launch(index) {
                Ok(handle) => {
                    let addr = handle.addr();
                    slots.push(Slot {
                        handle,
                        addr,
                        healthy: true,
                        draining: false,
                        fails: 0,
                        restarts: 0,
                        inflight: Arc::new(AtomicUsize::new(0)),
                    });
                }
                Err(e) => {
                    for slot in &mut slots {
                        slot.handle.kill();
                    }
                    return Err(e);
                }
            }
        }
        let shared = Arc::new(Shared {
            slots: Mutex::new(slots),
            ring: Ring::new(config.replicas),
            launcher,
            config: config.clone(),
        });
        let server = {
            let shared = Arc::clone(&shared);
            let handler: Handler = Arc::new(move |req: &Request| route(&shared, req));
            MiniServer::start(&config.addr, config.max_body, handler)?
        };
        let stop = Arc::new(AtomicBool::new(false));
        let health = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || health_loop(&shared, &stop))
        };
        tevot_obs::info!(
            "fleet: router on {} fronting {} replicas",
            server.local_addr(),
            config.replicas
        );
        Ok(Router { shared, server, stop, health: Some(health) })
    }

    /// The router's bound address.
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.server.local_addr()
    }

    /// Replica pids, by slot (None for in-process replicas).
    pub fn pids(&self) -> Vec<Option<u32>> {
        self.shared.slots.lock().expect("slots").iter().map(|s| s.handle.pid()).collect()
    }

    /// Kills replica `index` outright — the chaos hook for tests that
    /// cannot send signals (in-process replicas). The health loop
    /// notices, respawns, and re-admits it.
    pub fn kill_replica(&self, index: usize) {
        let mut slots = self.shared.slots.lock().expect("slots");
        if let Some(slot) = slots.get_mut(index) {
            slot.handle.kill();
            slot.healthy = false;
            FLEET_EJECTED.incr();
        }
    }

    /// Blocks until the router is shut down from another thread — the
    /// foreground of `tevot serve --replicas`.
    pub fn join(&mut self) {
        self.server.join();
    }

    /// Stops the health loop, kills every replica, and closes the
    /// router socket.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.health.take() {
            let _ = handle.join();
        }
        for slot in self.shared.slots.lock().expect("slots").iter_mut() {
            slot.handle.kill();
        }
        self.server.shutdown();
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The placement key: same model + operating region → same replica.
/// Buckets are coarse on purpose (50 mV, 25 °C) so a sweep over nearby
/// conditions reuses one replica's warm path.
fn placement_key(req: &Request) -> String {
    let parsed = std::str::from_utf8(&req.body).ok().and_then(|s| tevot_obs::json::parse(s).ok());
    match parsed {
        Some(doc) => {
            let model = doc
                .get("model")
                .and_then(|m| m.as_str().map(String::from))
                .unwrap_or_else(|| DEFAULT_MODEL.to_string());
            let vb = doc.get("voltage").and_then(|v| v.as_f64()).map(|v| (v / 0.05).round() as i64);
            let tb =
                doc.get("temperature").and_then(|t| t.as_f64()).map(|t| (t / 25.0).round() as i64);
            match (vb, tb) {
                (Some(vb), Some(tb)) => format!("{model}|v{vb}|t{tb}"),
                _ => format!("{model}|{}", req.path),
            }
        }
        None => req.path.clone(),
    }
}

/// The router's request handler.
fn route(shared: &Shared, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/router/healthz") => {
            let slots = shared.slots.lock().expect("slots");
            let healthy = slots.iter().filter(|s| s.healthy && !s.draining).count();
            let status = if healthy > 0 { 200 } else { 503 };
            Response::json(
                status,
                format!("{{\"healthy\":{healthy},\"replicas\":{}}}", slots.len()),
            )
        }
        ("GET", "/fleet/status") => {
            let slots = shared.slots.lock().expect("slots");
            let replicas: Vec<String> = slots
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    format!(
                        "{{\"index\":{i},\"addr\":\"{}\",\"pid\":{},\"healthy\":{},\
                         \"draining\":{},\"restarts\":{}}}",
                        s.addr,
                        s.handle.pid().map_or("null".to_string(), |p| p.to_string()),
                        s.healthy,
                        s.draining,
                        s.restarts
                    )
                })
                .collect();
            Response::json(
                200,
                format!("{{\"schema\":\"tevot-fleet/1\",\"replicas\":[{}]}}", replicas.join(",")),
            )
        }
        ("POST", path) if path.strip_prefix("/models/").is_some_and(|n| !n.is_empty()) => {
            rolling_deploy(shared, req)
        }
        _ => forward(shared, req),
    }
}

/// Forwards `req` along the ring with ejection-on-error and bounded
/// retry. Only transport failures fail over; an HTTP-level error (4xx,
/// shed 503) is the replica's answer and is relayed as-is.
fn forward(shared: &Shared, req: &Request) -> Response {
    let candidates = shared.ring.candidates(&placement_key(req));
    for round in 0..shared.config.retry_attempts {
        for &index in &candidates {
            let (addr, inflight) = {
                let slots = shared.slots.lock().expect("slots");
                let slot = &slots[index];
                if !slot.healthy || slot.draining {
                    continue;
                }
                (slot.addr.clone(), Arc::clone(&slot.inflight))
            };
            inflight.fetch_add(1, Ordering::Relaxed);
            let outcome = exchange(&addr, req);
            inflight.fetch_sub(1, Ordering::Relaxed);
            match outcome {
                Ok(response) => {
                    FLEET_ROUTED.incr();
                    return response;
                }
                Err(e) => {
                    // Transport failure: the replica is gone or wedged.
                    // Eject it now rather than waiting for the probe.
                    tevot_obs::warn!("fleet: replica {index} failed mid-exchange ({e}); ejecting");
                    FLEET_FAILOVERS.incr();
                    let mut slots = shared.slots.lock().expect("slots");
                    if slots[index].healthy {
                        slots[index].healthy = false;
                        FLEET_EJECTED.incr();
                    }
                }
            }
        }
        std::thread::sleep(shared.config.retry_backoff * (round + 1));
    }
    Response::json(503, "{\"error\":\"no healthy replica\",\"kind\":\"shed\"}")
        .with_header("Retry-After", "1")
}

/// One buffered request/response exchange with a replica.
fn exchange(addr: &str, req: &Request) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut head =
        format!("{} {} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n", req.method, req.path);
    head.push_str("Content-Type: application/json\r\n");
    head.push_str(&format!("Content-Length: {}\r\n\r\n", req.body.len()));
    stream.write_all(head.as_bytes())?;
    stream.write_all(&req.body)?;
    stream.flush()?;

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_reply(&raw)
}

/// Parses a buffered replica reply into a relayable [`Response`],
/// keeping the headers clients act on (`Retry-After`, `X-Request-Id`).
fn parse_reply(raw: &[u8]) -> std::io::Result<Response> {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| std::io::Error::other("replica reply had no header terminator"))?;
    let head = String::from_utf8_lossy(&raw[..split]);
    let mut lines = head.lines();
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other("replica reply had no status line"))?;
    let body = String::from_utf8_lossy(&raw[split + 4..]).into_owned();
    let mut response = Response::json(status, body);
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if matches!(name.trim().to_ascii_lowercase().as_str(), "retry-after" | "x-request-id") {
                response = response.with_header(name.trim(), value.trim().to_string());
            }
        }
    }
    Ok(response)
}

/// Drains replicas one at a time and forwards the model swap to each —
/// the fleet never has fewer than `replicas - 1` serving slots during a
/// deploy. Any failure stops the roll with a 502.
fn rolling_deploy(shared: &Shared, req: &Request) -> Response {
    let _span = tevot_obs::span!("fleet.deploy", "{}", req.path);
    let total = shared.slots.lock().expect("slots").len();
    for index in 0..total {
        let (addr, inflight) = {
            let mut slots = shared.slots.lock().expect("slots");
            let slot = &mut slots[index];
            if !slot.healthy {
                // A dead slot respawns with whatever model its launcher
                // provides; skipping keeps the roll moving.
                continue;
            }
            slot.draining = true;
            (slot.addr.clone(), Arc::clone(&slot.inflight))
        };
        // Drain: new requests already skip this slot; wait (bounded)
        // for in-flight ones to finish.
        let deadline = Instant::now() + Duration::from_secs(2);
        while inflight.load(Ordering::Relaxed) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let outcome = exchange(&addr, req);
        shared.slots.lock().expect("slots")[index].draining = false;
        match outcome {
            Ok(response) if response.status == 200 => {}
            Ok(response) => {
                let body = String::from_utf8_lossy(&response.body).into_owned();
                return Response::json(
                    502,
                    format!(
                        "{{\"error\":\"deploy stopped at replica {index}\",\
                         \"replica_status\":{},\"replica_body\":{}}}",
                        response.status,
                        tevot_obs::json::Json::Str(body)
                    ),
                );
            }
            Err(e) => {
                return Response::json(
                    502,
                    format!(
                        "{{\"error\":{}}}",
                        tevot_obs::json::Json::Str(format!(
                            "deploy stopped at replica {index}: {e}"
                        ))
                    ),
                );
            }
        }
    }
    FLEET_DEPLOYS.incr();
    Response::json(200, format!("{{\"ok\":true,\"replicas\":{total}}}"))
}

/// The health loop: respawn dead replicas, probe the rest, eject and
/// re-admit on probe evidence.
fn health_loop(shared: &Shared, stop: &AtomicBool) {
    while !stop.load(Ordering::Relaxed) {
        let total = shared.slots.lock().expect("slots").len();
        for index in 0..total {
            if stop.load(Ordering::Relaxed) {
                return;
            }
            // Phase 1 (under the lock, cheap): liveness + respawn
            // eligibility.
            let respawn = {
                let mut slots = shared.slots.lock().expect("slots");
                let slot = &mut slots[index];
                if slot.handle.alive() {
                    None
                } else {
                    if slot.healthy {
                        slot.healthy = false;
                        FLEET_EJECTED.incr();
                    }
                    (slot.restarts < shared.config.max_restarts).then_some(slot.restarts + 1)
                }
            };
            // Phase 2 (no lock): launching can take seconds; routing
            // must not stall behind it.
            if let Some(restarts) = respawn {
                tevot_obs::warn!("fleet: replica {index} is dead; respawning (restart {restarts})");
                match shared.launcher.launch(index) {
                    Ok(handle) => {
                        let addr = handle.addr();
                        let mut slots = shared.slots.lock().expect("slots");
                        let slot = &mut slots[index];
                        slot.handle = handle;
                        slot.addr = addr;
                        slot.restarts = restarts;
                        slot.fails = 0;
                        // Not healthy yet: the probe below re-admits.
                    }
                    Err(e) => {
                        tevot_obs::warn!("fleet: respawn of replica {index} failed ({e})");
                        shared.slots.lock().expect("slots")[index].restarts = restarts;
                        continue;
                    }
                }
            }
            // Phase 3 (no lock): probe, then apply the verdict.
            let addr = shared.slots.lock().expect("slots")[index].addr.clone();
            let probe_ok = matches!(http::get(&addr, "/healthz"), Ok((200, _)));
            let mut slots = shared.slots.lock().expect("slots");
            let slot = &mut slots[index];
            if probe_ok {
                slot.fails = 0;
                if !slot.healthy && slot.handle.alive() {
                    slot.healthy = true;
                    FLEET_READMITTED.incr();
                    tevot_obs::info!("fleet: replica {index} on {} re-admitted", slot.addr);
                }
            } else {
                slot.fails += 1;
                if slot.healthy && slot.fails >= shared.config.eject_after {
                    slot.healthy = false;
                    FLEET_EJECTED.incr();
                    tevot_obs::warn!(
                        "fleet: replica {index} failed {} probes; ejected",
                        slot.fails
                    );
                }
            }
        }
        std::thread::sleep(shared.config.health_interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scriptable fake replica: a MiniServer that answers /healthz and
    /// echoes everything else, plus handles that can "die".
    struct FakeReplica {
        server: Option<MiniServer>,
        addr: String,
    }

    impl ReplicaHandle for FakeReplica {
        fn addr(&self) -> String {
            self.addr.clone()
        }
        fn pid(&self) -> Option<u32> {
            None
        }
        fn alive(&mut self) -> bool {
            self.server.is_some()
        }
        fn kill(&mut self) {
            if let Some(mut server) = self.server.take() {
                server.shutdown();
            }
        }
    }

    struct FakeLauncher;

    impl ReplicaLauncher for FakeLauncher {
        fn launch(&self, index: usize) -> std::io::Result<Box<dyn ReplicaHandle>> {
            let handler: Handler = Arc::new(move |req: &Request| {
                if req.path == "/healthz" {
                    Response::json(200, "{\"ok\":true}")
                } else {
                    Response::json(
                        200,
                        format!("{{\"replica\":{index},\"path\":\"{}\"}}", req.path),
                    )
                }
            });
            let server = MiniServer::start("127.0.0.1:0", 1 << 16, handler)?;
            let addr = server.local_addr().to_string();
            Ok(Box::new(FakeReplica { server: Some(server), addr }))
        }
    }

    fn quick_config(replicas: usize) -> RouterConfig {
        RouterConfig {
            replicas,
            health_interval: Duration::from_millis(25),
            ..RouterConfig::default()
        }
    }

    #[test]
    fn routes_and_reports_status() {
        let mut router = Router::start(quick_config(2), Arc::new(FakeLauncher)).unwrap();
        let addr = router.local_addr().to_string();
        let (status, body) = http::get(&addr, "/router/healthz").unwrap();
        assert_eq!(status, 200, "{body}");
        let (status, body) =
            http::post(&addr, "/predict", "{\"voltage\":0.9,\"temperature\":25}").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("replica"), "{body}");
        let (status, body) = http::get(&addr, "/fleet/status").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"replicas\""), "{body}");
        router.shutdown();
    }

    #[test]
    fn same_condition_sticks_to_one_replica() {
        let mut router = Router::start(quick_config(3), Arc::new(FakeLauncher)).unwrap();
        let addr = router.local_addr().to_string();
        let body = "{\"voltage\":0.85,\"temperature\":50,\"a\":1,\"b\":2}";
        let (_, first) = http::post(&addr, "/predict", body).unwrap();
        for _ in 0..5 {
            let (_, again) = http::post(&addr, "/predict", body).unwrap();
            assert_eq!(first, again, "placement must be sticky per condition bucket");
        }
        router.shutdown();
    }

    #[test]
    fn killed_replica_fails_over_then_readmits() {
        let mut router = Router::start(quick_config(2), Arc::new(FakeLauncher)).unwrap();
        let addr = router.local_addr().to_string();
        router.kill_replica(0);
        // Every request still succeeds: the ring fails over to the
        // survivor.
        for i in 0..6 {
            let body = format!("{{\"voltage\":0.{},\"temperature\":{}}}", 80 + i, i * 20);
            let (status, reply) = http::post(&addr, "/predict", &body).unwrap();
            assert_eq!(status, 200, "request {i} should fail over: {reply}");
        }
        // The health loop respawns and re-admits the corpse.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let (_, body) = http::get(&addr, "/router/healthz").unwrap();
            if body.contains("\"healthy\":2") {
                break;
            }
            assert!(Instant::now() < deadline, "replica 0 was never re-admitted: {body}");
            std::thread::sleep(Duration::from_millis(25));
        }
        assert!(FLEET_READMITTED.get() > 0);
        router.shutdown();
    }

    #[test]
    fn rolling_deploy_touches_every_replica() {
        let mut router = Router::start(quick_config(2), Arc::new(FakeLauncher)).unwrap();
        let addr = router.local_addr().to_string();
        let (status, body) =
            http::post(&addr, "/models/default", "{\"path\":\"/tmp/whatever.tevot\"}").unwrap();
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"replicas\":2"), "{body}");
        router.shutdown();
    }
}
