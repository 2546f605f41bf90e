//! The TCP server: accept loop, per-connection threads, shutdown.
//!
//! Deliberately boring concurrency: one OS thread per connection, and
//! that thread does all of a request's work — read, parse, predict,
//! serialize, write. A prediction costs about a microsecond per
//! transition, so a hand-off to another thread would cost more than the
//! work it moves; connections scale across cores because each has its
//! own thread. The accept loop and the connection loops poll a shared
//! [`CancelToken`] on short socket timeouts, so [`Server::shutdown`]
//! converges without killing anything mid-response.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use tevot_resil::CancelToken;

use crate::api::{self, ServeState};
use crate::http::{read_request, write_response, ReadError, Response};
use crate::watch::{Watch, WatchConfig};

/// Server tuning knobs; the defaults match the CLI's documented
/// defaults.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7450` (`:0` picks a free port).
    pub addr: String,
    /// Admission bound: prediction requests in flight beyond this are
    /// shed with 503.
    pub max_queue: usize,
    /// Always zero: requests are never held back to wait for company.
    /// Kept only because the repository benchmark (`perfbench`) still
    /// reads it for its configuration line; [`Server::start`] rejects
    /// any other value. Removed together with that reader.
    pub batch_wait: Duration,
    /// Maximum accepted request-body size, in bytes.
    pub max_body: usize,
    /// Telemetry: `Some` starts the watch sampler thread (time-series
    /// store, SLO monitors, drift detection); `None` serves without it.
    pub watch: Option<WatchConfig>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            max_queue: 256,
            batch_wait: Duration::ZERO,
            max_body: 1 << 20,
            watch: None,
        }
    }
}

/// How long an idle keep-alive connection sleeps between shutdown polls.
const READ_POLL: Duration = Duration::from_millis(50);

/// A running server. Dropping it (or calling [`Server::shutdown`])
/// stops the accept loop; connection threads notice within [`READ_POLL`].
#[derive(Debug)]
pub struct Server {
    state: Arc<ServeState>,
    addr: SocketAddr,
    stop: CancelToken,
    accept_handle: Option<std::thread::JoinHandle<()>>,
    sampler_handle: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `config.addr` and starts accepting connections. The model
    /// registry starts empty; populate it through
    /// [`state`](Self::state) (the CLI loads `--model` as `default`)
    /// or over HTTP with `POST /models/<name>`.
    ///
    /// # Errors
    ///
    /// [`std::io::ErrorKind::InvalidInput`] for a non-zero
    /// `batch_wait`; otherwise propagates the bind failure (address in
    /// use, permission...).
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        if !config.batch_wait.is_zero() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "batch_wait must be zero (got {:?}): requests are never held",
                    config.batch_wait
                ),
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ServeState::new(config.max_queue));
        let stop = CancelToken::new();
        let accept_state = Arc::clone(&state);
        let accept_stop = stop.clone();
        let max_body = config.max_body;
        let accept_handle = std::thread::Builder::new()
            .name("tevot-serve-accept".into())
            .spawn(move || accept_loop(&listener, &accept_state, &accept_stop, max_body))?;
        let sampler_handle = match config.watch {
            Some(watch_config) => {
                let watch = Arc::new(Watch::new(watch_config));
                state.install_watch(Arc::clone(&watch));
                let sampler_state = Arc::clone(&state);
                let sampler_stop = stop.clone();
                Some(
                    std::thread::Builder::new()
                        .name("tevot-serve-sampler".into())
                        .spawn(move || sampler_loop(&watch, &sampler_state, &sampler_stop))?,
                )
            }
            None => None,
        };
        tevot_obs::info!("serve: listening on {addr}");
        Ok(Server { state, addr, stop, accept_handle: Some(accept_handle), sampler_handle })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (registry + admission counter), for pre-loading
    /// models.
    pub fn state(&self) -> &Arc<ServeState> {
        &self.state
    }

    /// Stops the accept loop and waits for it to exit. In-flight
    /// requests finish; idle keep-alive connections close within
    /// [`READ_POLL`].
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// Blocks until the accept loop exits (i.e. forever, unless another
    /// thread cancels). Used by the CLI foreground mode.
    pub fn join(mut self) {
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
    }

    fn stop_and_join(&mut self) {
        self.stop.cancel();
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.sampler_handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// The watch sampler: one tick per `resolution_ms`, polling the stop
/// token between short sleeps so shutdown converges quickly.
fn sampler_loop(watch: &Watch, state: &Arc<ServeState>, stop: &CancelToken) {
    let resolution = Duration::from_millis(watch.config().resolution_ms.max(1));
    let poll = resolution.min(Duration::from_millis(50));
    let mut next = std::time::Instant::now() + resolution;
    while !stop.is_cancelled() {
        std::thread::sleep(poll);
        if std::time::Instant::now() < next {
            continue;
        }
        next += resolution;
        let model = state.default_reference();
        let reference = model.as_deref().and_then(tevot::TevotModel::reference);
        let _ = watch.tick(tevot_obs::watch::wall_ms(), state.queue_depth(), reference);
    }
}

fn accept_loop(
    listener: &TcpListener,
    state: &Arc<ServeState>,
    stop: &CancelToken,
    max_body: usize,
) {
    loop {
        match listener.accept() {
            Ok((stream, peer)) => {
                tevot_obs::debug!("serve: connection from {peer}");
                // Responses are small and latency-bound: without this,
                // Nagle + delayed ACK can stall every keep-alive
                // round-trip by ~40 ms.
                stream.set_nodelay(true).ok();
                let state = Arc::clone(state);
                let stop = stop.clone();
                let spawned = std::thread::Builder::new()
                    .name("tevot-serve-conn".into())
                    .spawn(move || connection_loop(stream, &state, &stop, max_body));
                if let Err(e) = spawned {
                    tevot_obs::error!("serve: cannot spawn connection thread: {e}");
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if stop.is_cancelled() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => {
                tevot_obs::warn!("serve: accept failed: {e}");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// Serves one keep-alive connection until the peer closes, a protocol
/// error forces a close, or shutdown is requested while idle.
fn connection_loop(stream: TcpStream, state: &ServeState, stop: &CancelToken, max_body: usize) {
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        match read_request(&mut reader, max_body) {
            Ok(req) => {
                let response = api::handle(state, &req);
                let close = req.wants_close() || stop.is_cancelled();
                if write_response(&mut writer, &response, close).is_err() || close {
                    return;
                }
            }
            Err(ReadError::Eof) => return,
            Err(ReadError::IdleTimeout) => {
                if stop.is_cancelled() {
                    return;
                }
            }
            Err(ReadError::Malformed(m)) => {
                let id = api::next_request_id();
                let body =
                    format!("{{\"error\":{},\"kind\":\"parse\",\"request_id\":{id}}}", quoted(&m));
                let response =
                    Response::json(400, body).with_header("X-Request-Id", id.to_string());
                let _ = write_response(&mut writer, &response, true);
                return;
            }
            Err(ReadError::BodyTooLarge(n)) => {
                let id = api::next_request_id();
                let body = format!(
                    "{{\"error\":\"request body of {n} bytes too large\",\
                     \"kind\":\"usage\",\"request_id\":{id}}}"
                );
                let response =
                    Response::json(413, body).with_header("X-Request-Id", id.to_string());
                let _ = write_response(&mut writer, &response, true);
                return;
            }
            Err(e @ (ReadError::HeadTooLarge(_) | ReadError::TooManyHeaders(_))) => {
                let id = api::next_request_id();
                let body = format!(
                    "{{\"error\":{},\"kind\":\"usage\",\"request_id\":{id}}}",
                    quoted(&e.to_string())
                );
                let response =
                    Response::json(431, body).with_header("X-Request-Id", id.to_string());
                let _ = write_response(&mut writer, &response, true);
                return;
            }
            Err(ReadError::Io(_)) => return,
        }
        let _ = writer.flush();
    }
}

fn quoted(text: &str) -> String {
    tevot_obs::json::Json::from(text).to_string()
}
