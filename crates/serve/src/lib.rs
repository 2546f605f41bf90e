//! tevot-serve — a zero-dependency online inference server for trained
//! TEVoT models.
//!
//! TEVoT's central claim is that one trained delay model answers
//! timing-error queries for *every* clock period and (V, T) operating
//! condition. That is the shape of an online service, and this crate is
//! that service, built entirely on `std::net::TcpListener` plus the
//! workspace's own crates:
//!
//! * [`http`] — a minimal HTTP/1.1 subset (request-line + headers +
//!   `Content-Length` bodies, keep-alive by default).
//! * [`registry`] — a hot-swappable model registry: `POST
//!   /models/<name>` reloads from disk behind an `Arc` swap; in-flight
//!   requests finish on the model they started with.
//! * [`api`] — endpoints (`/predict`, `/ter`, `/dfs`, `/models`,
//!   `/healthz`, `/metrics`) and the
//!   [`ErrorKind`](tevot_resil::ErrorKind) → HTTP-status mapping.
//!   Prediction runs inline on the connection thread as an ordered map
//!   of `predict_delay_ps`, so the served numbers are **bit-identical**
//!   to offline `tevot predict`. Admission control is an in-flight
//!   counter (503 + `Retry-After` past `max_queue`); a per-request
//!   deadline that has passed when execution starts answers 504.
//! * [`server`] — the accept loop and per-connection threads.
//! * [`watch`] — production telemetry: a fixed-memory time-series store
//!   fed by a sampler thread, SLO burn-rate monitors, PSI model-drift
//!   detection against the reference histograms stored in the model
//!   file, and a shadow-replay thread scoring live accuracy against the
//!   gate-level simulator. Exposed as `GET /watch` (JSON) and
//!   `GET /metrics?format=prom` (Prometheus text exposition).
//! * [`loadgen`] — a deterministic load generator for benches and CI
//!   smoke tests.
//!
//! The CLI front-end is `tevot serve --model <path> --addr <host:port>`.

pub mod api;
pub mod http;
pub mod loadgen;
pub mod registry;
pub mod server;
pub mod watch;

pub use api::{status_for, ServeState, DEFAULT_MODEL};
pub use registry::ModelRegistry;
pub use server::{ServeConfig, Server};
pub use watch::{Watch, WatchConfig};
