//! The serve-side watch loop: time-series sampling, SLO burn-rate
//! monitors, and online model-drift detection.
//!
//! A [`Watch`] glues the pure pieces from `tevot-obs` into the running
//! server:
//!
//! * a [`TimeSeriesStore`] fed once per resolution tick by
//!   [`Watch::tick`] (driven from a sampler thread the server spawns):
//!   every registry counter and histogram quantile, plus derived gauges
//!   — `serve.qps`, `serve.error_ratio`, `serve.shed_ratio`,
//!   `serve.p50_us`/`serve.p99_us`, `serve.queue_depth`;
//! * one [`SloMonitor`] per configured objective, evaluated against the
//!   freshly sampled series each tick with two-window burn-rate
//!   semantics;
//! * per-feature [`DriftWindow`]s (voltage, temperature, predicted
//!   delay) compared each tick — as `drift.<feature>.psi` series —
//!   against the reference histograms persisted in the served model at
//!   train time, alerting past the PSI threshold;
//! * an optional **shadow sampler**: every `shadow_every`-th served
//!   transition is replayed through the gate-level simulator oracle on
//!   a dedicated thread, yielding a sliding-window live-accuracy signal
//!   (`shadow.accuracy`) that needs no labeled traffic.
//!
//! Alerts are edge-triggered, bounded in memory (last
//! [`MAX_HELD_ALERTS`]), counted by `watch.alerts`, logged, and marked
//! on the trace timeline. `GET /watch` serializes the whole picture via
//! [`Watch::to_json`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};

use tevot::reference::ReferenceStats;
use tevot_netlist::fu::FunctionalUnit;
use tevot_obs::drift::{DriftWindow, PSI_ALERT_DEFAULT};
use tevot_obs::json::Json;
use tevot_obs::metrics::{
    SERVE_HTTP_ERRORS, SERVE_PREDICT_LATENCY_US, SERVE_REQUESTS, SERVE_SHED, WATCH_ALERTS,
    WATCH_SHADOW_REPLAYS,
};
use tevot_obs::slo::{Alert, BurnRateConfig, Slo, SloMonitor};
use tevot_obs::watch::TimeSeriesStore;
use tevot_timing::{DelayModel, OperatingCondition};

use crate::api::Transition;

/// Alerts retained for `GET /watch` (older ones age out; the
/// `watch.alerts` counter keeps the lifetime total).
pub const MAX_HELD_ALERTS: usize = 64;

/// Live observations per drift window.
const DRIFT_WINDOW: usize = 512;

/// Delay observations taken per request, so one huge batch cannot
/// flush the whole delay window.
const DELAYS_PER_REQUEST: usize = 64;

/// Queue bound between request threads and the shadow replay thread;
/// replays beyond it are dropped, never blocking a request.
const SHADOW_QUEUE: usize = 64;

/// Per-condition delay-annotation cache entries held by the shadow
/// thread (annotation is the expensive part of a replay).
const SHADOW_ANNOTATION_CACHE: usize = 8;

/// Watch tuning knobs; the defaults match the CLI's documented
/// defaults.
#[derive(Debug, Clone)]
pub struct WatchConfig {
    /// Sampler tick period, milliseconds.
    pub resolution_ms: u64,
    /// Samples retained per series (memory bound: see
    /// [`tevot_obs::watch`]).
    pub capacity: usize,
    /// SLO objectives (`--slo serve.p99_us<5000,...`).
    pub slos: Vec<Slo>,
    /// Burn-rate windows and firing factor shared by all objectives.
    pub burn: BurnRateConfig,
    /// Replay every Nth served transition through the simulator oracle
    /// (`0` disables shadow sampling).
    pub shadow_every: u64,
    /// PSI level at which a drift monitor alerts.
    pub psi_alert: f64,
    /// The functional unit the shadow oracle simulates (must match the
    /// unit the served model was trained on for the accuracy signal to
    /// mean anything).
    pub fu: FunctionalUnit,
}

impl Default for WatchConfig {
    fn default() -> WatchConfig {
        WatchConfig {
            resolution_ms: 1000,
            capacity: 600,
            slos: Vec::new(),
            burn: BurnRateConfig::default(),
            shadow_every: 0,
            psi_alert: PSI_ALERT_DEFAULT,
            fu: FunctionalUnit::IntAdd,
        }
    }
}

/// One transition queued for oracle replay, with the delay the model
/// served for it.
struct ShadowJob {
    cond: OperatingCondition,
    transition: Transition,
    predicted_ps: f64,
}

/// Number of slow-request exemplars retained (the k slowest requests
/// seen so far, by total latency).
pub const MAX_EXEMPLARS: usize = 8;

/// The per-stage span breakdown of one served request, retained when it
/// ranks among the slowest — the "what was this request doing" answer
/// `/watch` and `tevot top` surface next to the latency quantiles.
#[derive(Debug, Clone)]
pub struct Exemplar {
    /// Process-unique request id (matches `X-Request-Id`).
    pub request_id: u64,
    /// Endpoint that served the request (`/predict`, `/ter`).
    pub endpoint: &'static str,
    /// End-to-end handler latency, in microseconds.
    pub total_us: u64,
    /// `(stage, nanoseconds)` pairs in execution order.
    pub stages: Vec<(&'static str, u64)>,
    /// Wall-clock capture time, in ms since the epoch.
    pub at_ms: u64,
}

/// Live drift windows plus the per-feature edge-trigger latches.
struct DriftState {
    voltage: DriftWindow,
    temperature: DriftWindow,
    delay_ps: DriftWindow,
    firing: [bool; 3],
}

/// Previous tick's cumulative counters, for the derived rate/ratio
/// gauges.
#[derive(Default)]
struct TickState {
    wall_ms: u64,
    requests: u64,
    errors: u64,
    shed: u64,
}

/// The per-server watch state. Constructed by `Server::start` when
/// watching is configured and shared via `ServeState`.
pub struct Watch {
    config: WatchConfig,
    store: TimeSeriesStore,
    monitors: Mutex<Vec<SloMonitor>>,
    drift: Mutex<DriftState>,
    alerts: Mutex<VecDeque<Alert>>,
    last_tick: Mutex<TickState>,
    /// Live-accuracy samples, shared with the shadow thread (1.0 = the
    /// model's delay matched the oracle exactly).
    accuracy: Arc<Mutex<DriftWindow>>,
    shadow_tx: Option<SyncSender<ShadowJob>>,
    shadow_handle: Option<std::thread::JoinHandle<()>>,
    transition_seq: AtomicU64,
    exemplars: Mutex<Vec<Exemplar>>,
}

impl std::fmt::Debug for Watch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Watch").field("config", &self.config).finish_non_exhaustive()
    }
}

impl Watch {
    /// Builds the watch: the store, one monitor per objective, and —
    /// when `shadow_every > 0` — the shadow replay thread.
    pub fn new(config: WatchConfig) -> Watch {
        let store = TimeSeriesStore::new(config.resolution_ms, config.capacity);
        let monitors =
            config.slos.iter().map(|s| SloMonitor::new(s.clone(), config.burn)).collect();
        let accuracy = Arc::new(Mutex::new(DriftWindow::new(DRIFT_WINDOW)));
        let (shadow_tx, shadow_handle) = if config.shadow_every > 0 {
            let (tx, rx) = mpsc::sync_channel::<ShadowJob>(SHADOW_QUEUE);
            let fu = config.fu;
            let sink = Arc::clone(&accuracy);
            let handle = std::thread::Builder::new()
                .name("tevot-serve-shadow".into())
                .spawn(move || shadow_loop(&rx, fu, &sink))
                .expect("spawn shadow thread");
            (Some(tx), Some(handle))
        } else {
            (None, None)
        };
        Watch {
            config,
            store,
            monitors: Mutex::new(monitors),
            drift: Mutex::new(DriftState {
                voltage: DriftWindow::new(DRIFT_WINDOW),
                temperature: DriftWindow::new(DRIFT_WINDOW),
                delay_ps: DriftWindow::new(DRIFT_WINDOW),
                firing: [false; 3],
            }),
            alerts: Mutex::new(VecDeque::new()),
            last_tick: Mutex::new(TickState::default()),
            accuracy,
            shadow_tx,
            shadow_handle,
            transition_seq: AtomicU64::new(0),
            exemplars: Mutex::new(Vec::new()),
        }
    }

    /// The watch configuration.
    pub fn config(&self) -> &WatchConfig {
        &self.config
    }

    /// The underlying time-series store.
    pub fn store(&self) -> &TimeSeriesStore {
        &self.store
    }

    /// Records one served `/predict` outcome into the drift windows:
    /// the request's operating condition and (a bounded prefix of) the
    /// delays the model answered.
    pub fn observe_predict(&self, cond: OperatingCondition, delays_ps: &[f64]) {
        let mut drift = self.drift.lock().unwrap_or_else(|e| e.into_inner());
        drift.voltage.push(cond.voltage());
        drift.temperature.push(cond.temperature());
        for &d in delays_ps.iter().take(DELAYS_PER_REQUEST) {
            drift.delay_ps.push(d);
        }
    }

    /// Picks the indices of `transitions` due for shadow replay (every
    /// `shadow_every`-th across all requests). Cheap when shadowing is
    /// off: one branch, no atomics.
    pub fn sample_for_shadow(&self, transitions: &[Transition]) -> Vec<(usize, Transition)> {
        let every = self.config.shadow_every;
        if every == 0 || self.shadow_tx.is_none() {
            return Vec::new();
        }
        let start = self.transition_seq.fetch_add(transitions.len() as u64, Ordering::Relaxed);
        transitions
            .iter()
            .enumerate()
            .filter(|(i, _)| (start + *i as u64).is_multiple_of(every))
            .map(|(i, &t)| (i, t))
            .collect()
    }

    /// Queues one sampled transition for oracle replay; drops silently
    /// when the shadow queue is full (a monitoring sample is never
    /// worth blocking a request for).
    pub fn shadow_submit(
        &self,
        cond: OperatingCondition,
        transition: Transition,
        predicted_ps: f64,
    ) {
        if let Some(tx) = &self.shadow_tx {
            match tx.try_send(ShadowJob { cond, transition, predicted_ps }) {
                Ok(()) | Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => {}
            }
        }
    }

    /// One sampler tick at `now_ms`: samples the registry and derived
    /// gauges into the store, re-scores drift against `reference`, and
    /// evaluates every SLO monitor. Returns the alerts that fired this
    /// tick (already recorded, counted, and logged).
    pub fn tick(
        &self,
        now_ms: u64,
        queue_depth: usize,
        reference: Option<&ReferenceStats>,
    ) -> Vec<Alert> {
        let mut gauges: Vec<(&str, f64)> = vec![("serve.queue_depth", queue_depth as f64)];
        if let Some((p50, _p90, p99)) = SERVE_PREDICT_LATENCY_US.quantiles() {
            gauges.push(("serve.p50_us", p50));
            gauges.push(("serve.p99_us", p99));
        }

        // Derived rate/ratio gauges from the cumulative counters.
        let requests = SERVE_REQUESTS.get();
        let errors = SERVE_HTTP_ERRORS.get();
        let shed = SERVE_SHED.get();
        {
            let mut last = self.last_tick.lock().unwrap_or_else(|e| e.into_inner());
            if last.wall_ms > 0 && now_ms > last.wall_ms {
                let dt_s = (now_ms - last.wall_ms) as f64 / 1e3;
                let dr = requests.saturating_sub(last.requests) as f64;
                let de = errors.saturating_sub(last.errors) as f64;
                let ds = shed.saturating_sub(last.shed) as f64;
                gauges.push(("serve.qps", dr / dt_s));
                gauges.push(("serve.error_ratio", if dr > 0.0 { (de / dr).min(1.0) } else { 0.0 }));
                gauges.push(("serve.shed_ratio", if dr > 0.0 { (ds / dr).min(1.0) } else { 0.0 }));
            }
            *last = TickState { wall_ms: now_ms, requests, errors, shed };
        }
        if let Some(mean) = self.mean_accuracy() {
            gauges.push(("shadow.accuracy", mean));
        }

        // Drift scores, recorded as series, with edge-triggered alerts.
        let mut fired = Vec::new();
        let drift_scores = self.drift_scores(reference);
        {
            let mut drift = self.drift.lock().unwrap_or_else(|e| e.into_inner());
            let names = ["drift.voltage", "drift.temperature", "drift.delay_ps"];
            for (slot, (name, psi)) in names.iter().zip(&drift_scores).enumerate() {
                let Some(psi) = *psi else { continue };
                self.store.record(&format!("{name}.psi"), now_ms, psi);
                let over = psi >= self.config.psi_alert;
                if over && !drift.firing[slot] {
                    drift.firing[slot] = true;
                    fired.push(Alert {
                        kind: "drift",
                        series: (*name).to_string(),
                        threshold: self.config.psi_alert,
                        burn_fast: psi,
                        burn_slow: psi,
                        at_ms: now_ms,
                    });
                } else if !over {
                    drift.firing[slot] = false;
                }
            }
        }

        self.store.sample_registry(now_ms, &gauges);

        // SLO monitors read the series just sampled, current tick
        // included.
        {
            let mut monitors = self.monitors.lock().unwrap_or_else(|e| e.into_inner());
            for monitor in monitors.iter_mut() {
                let samples = self.store.series(&monitor.slo.series).unwrap_or_default();
                if let Some(alert) = monitor.evaluate(&samples, now_ms) {
                    fired.push(alert);
                }
            }
        }

        for alert in &fired {
            self.record_alert(alert);
        }
        fired
    }

    /// The current `(voltage, temperature, delay)` PSI scores against
    /// `reference` (`None` per feature while either side lacks data).
    pub fn drift_scores(&self, reference: Option<&ReferenceStats>) -> [Option<f64>; 3] {
        let Some(reference) = reference else { return [None; 3] };
        let drift = self.drift.lock().unwrap_or_else(|e| e.into_inner());
        [
            drift.voltage.psi_against(&reference.voltage),
            drift.temperature.psi_against(&reference.temperature),
            drift.delay_ps.psi_against(&reference.delay_ps),
        ]
    }

    /// Mean of the shadow live-accuracy window (`None` before the first
    /// replay lands).
    pub fn mean_accuracy(&self) -> Option<f64> {
        let window = self.accuracy.lock().unwrap_or_else(|e| e.into_inner());
        let values = window.values();
        (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
    }

    /// Offers one request's breakdown to the slow-exemplar buffer: kept
    /// while there is room, otherwise it must beat the fastest retained
    /// exemplar. O(k) with k = [`MAX_EXEMPLARS`], no allocation on the
    /// reject path.
    pub fn observe_exemplar(&self, exemplar: Exemplar) {
        let mut buffer = self.exemplars.lock().unwrap_or_else(|e| e.into_inner());
        if buffer.len() < MAX_EXEMPLARS {
            buffer.push(exemplar);
            return;
        }
        if let Some(slot) = buffer.iter_mut().min_by_key(|e| e.total_us) {
            if exemplar.total_us > slot.total_us {
                *slot = exemplar;
            }
        }
    }

    /// The retained slow-request exemplars, slowest first.
    pub fn exemplars(&self) -> Vec<Exemplar> {
        let buffer = self.exemplars.lock().unwrap_or_else(|e| e.into_inner());
        let mut out: Vec<Exemplar> = buffer.clone();
        out.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.request_id.cmp(&b.request_id)));
        out
    }

    /// Alerts currently retained (newest last).
    pub fn alerts(&self) -> Vec<Alert> {
        self.alerts.lock().unwrap_or_else(|e| e.into_inner()).iter().cloned().collect()
    }

    fn record_alert(&self, alert: &Alert) {
        WATCH_ALERTS.incr();
        tevot_obs::warn!(
            "watch: {} alert on {} (threshold {}, burn fast {:.2} slow {:.2})",
            alert.kind,
            alert.series,
            alert.threshold,
            alert.burn_fast,
            alert.burn_slow
        );
        tevot_obs::trace::instant_id("watch.alert", WATCH_ALERTS.get());
        let mut alerts = self.alerts.lock().unwrap_or_else(|e| e.into_inner());
        if alerts.len() == MAX_HELD_ALERTS {
            alerts.pop_front();
        }
        alerts.push_back(alert.clone());
    }

    /// The `GET /watch` payload: schema, drift scores, SLO status,
    /// retained alerts, and the windowed series.
    pub fn to_json(&self, since_ms: u64, reference: Option<&ReferenceStats>) -> Json {
        let now = tevot_obs::watch::wall_ms();
        let slo_status: Vec<Json> = {
            let monitors = self.monitors.lock().unwrap_or_else(|e| e.into_inner());
            monitors
                .iter()
                .map(|m| {
                    let samples = self.store.series(&m.slo.series).unwrap_or_default();
                    let (fast, slow) = m.burn_rates(&samples, now);
                    Json::obj(vec![
                        ("series", Json::from(m.slo.series.as_str())),
                        ("threshold", Json::Num(m.slo.threshold)),
                        ("firing", Json::Bool(m.firing())),
                        ("burn_fast", fast.map_or(Json::Null, Json::Num)),
                        ("burn_slow", slow.map_or(Json::Null, Json::Num)),
                    ])
                })
                .collect()
        };
        let [v, t, d] = self.drift_scores(reference);
        let opt = |x: Option<f64>| x.map_or(Json::Null, Json::Num);
        let alerts: Vec<Json> = self
            .alerts()
            .iter()
            .map(|a| {
                Json::obj(vec![
                    ("kind", Json::from(a.kind)),
                    ("series", Json::from(a.series.as_str())),
                    ("threshold", Json::Num(a.threshold)),
                    ("burn_fast", Json::Num(a.burn_fast)),
                    ("burn_slow", Json::Num(a.burn_slow)),
                    ("at_ms", Json::from(a.at_ms)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("schema", Json::from("tevot-watch/1")),
            ("resolution_ms", Json::from(self.store.resolution_ms())),
            ("capacity", Json::from(self.store.capacity() as u64)),
            ("alerts_total", Json::from(WATCH_ALERTS.get())),
            ("reference_loaded", Json::Bool(reference.is_some())),
            (
                "drift",
                Json::obj(vec![
                    ("voltage_psi", opt(v)),
                    ("temperature_psi", opt(t)),
                    ("delay_psi", opt(d)),
                    ("psi_alert", Json::Num(self.config.psi_alert)),
                    ("shadow_accuracy", opt(self.mean_accuracy())),
                ]),
            ),
            ("slo", Json::Arr(slo_status)),
            ("alerts", Json::Arr(alerts)),
            // Additive member (same precedent as the tevot-obs/1
            // quantiles): the slow-request exemplars, slowest first.
            (
                "exemplars",
                Json::Arr(
                    self.exemplars()
                        .iter()
                        .map(|e| {
                            Json::obj(vec![
                                ("request_id", Json::from(e.request_id)),
                                ("endpoint", Json::from(e.endpoint)),
                                ("total_us", Json::from(e.total_us)),
                                ("at_ms", Json::from(e.at_ms)),
                                (
                                    "stages",
                                    Json::Arr(
                                        e.stages
                                            .iter()
                                            .map(|&(name, ns)| {
                                                Json::obj(vec![
                                                    ("name", Json::from(name)),
                                                    ("ns", Json::from(ns)),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("series", self.store.to_json(since_ms)),
        ])
    }
}

impl Drop for Watch {
    fn drop(&mut self) {
        // Dropping the sender ends the shadow loop; join so no replay
        // outlives the server that sampled it.
        self.shadow_tx = None;
        if let Some(handle) = self.shadow_handle.take() {
            let _ = handle.join();
        }
    }
}

/// The shadow replay loop: re-simulates sampled transitions with the
/// gate-level oracle and scores the served delay against ground truth.
/// Accuracy is `1 - |predicted - truth| / truth`, clamped to `[0, 1]`.
fn shadow_loop(rx: &mpsc::Receiver<ShadowJob>, fu: FunctionalUnit, sink: &Mutex<DriftWindow>) {
    let netlist = fu.build();
    let model = DelayModel::tsmc45_like();
    let mut cache: Vec<(u64, tevot_timing::DelayAnnotation)> = Vec::new();
    while let Ok(job) = rx.recv() {
        let key = job.cond.voltage().to_bits() ^ job.cond.temperature().to_bits().rotate_left(17);
        let index = match cache.iter().position(|(k, _)| *k == key) {
            Some(i) => i,
            None => {
                if cache.len() == SHADOW_ANNOTATION_CACHE {
                    cache.remove(0);
                }
                cache.push((key, model.annotate(&netlist, job.cond)));
                cache.len() - 1
            }
        };
        let ((a, b), (pa, pb)) = job.transition;
        let previous = fu.encode_operands(pa, pb);
        let current = fu.encode_operands(a, b);
        let truth =
            tevot_sim::replay_transition(&netlist, &cache[index].1, &previous, &current) as f64;
        let accuracy = if truth > 0.0 {
            (1.0 - (job.predicted_ps - truth).abs() / truth).clamp(0.0, 1.0)
        } else {
            // A zero-delay cycle (no output toggles): score the
            // prediction's absolute error against a 1 ps scale.
            (1.0 - job.predicted_ps.abs()).clamp(0.0, 1.0)
        };
        WATCH_SHADOW_REPLAYS.incr();
        sink.lock().unwrap_or_else(|e| e.into_inner()).push(accuracy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_records_derived_series_and_quiet_without_slos() {
        let watch =
            Watch::new(WatchConfig { resolution_ms: 10, capacity: 16, ..Default::default() });
        SERVE_REQUESTS.add(10);
        assert!(watch.tick(1_000, 2, None).is_empty());
        SERVE_REQUESTS.add(10);
        assert!(watch.tick(2_000, 3, None).is_empty());
        let qps = watch.store().series("serve.qps").expect("qps series");
        assert_eq!(qps.len(), 1, "first tick has no previous sample");
        assert!(qps[0].value >= 10.0, "10 requests over 1s: qps {}", qps[0].value);
        assert_eq!(watch.store().series("serve.queue_depth").unwrap().len(), 2);
        assert!(watch.alerts().is_empty());
    }

    #[test]
    fn exemplar_buffer_keeps_the_k_slowest_and_serializes() {
        let watch =
            Watch::new(WatchConfig { resolution_ms: 10, capacity: 16, ..Default::default() });
        for i in 0..(MAX_EXEMPLARS as u64 + 4) {
            watch.observe_exemplar(Exemplar {
                request_id: i + 1,
                endpoint: "/predict",
                total_us: 100 + i * 10,
                stages: vec![("parse", 1_000), ("execute", (100 + i * 10) * 1_000)],
                at_ms: 5_000 + i,
            });
        }
        let kept = watch.exemplars();
        assert_eq!(kept.len(), MAX_EXEMPLARS);
        // Slowest first, and the fastest requests were evicted.
        assert_eq!(kept[0].total_us, 100 + (MAX_EXEMPLARS as u64 + 3) * 10);
        assert!(kept.iter().all(|e| e.total_us >= 140), "{kept:?}");
        assert!(kept.windows(2).all(|w| w[0].total_us >= w[1].total_us));
        let doc = watch.to_json(0, None);
        let exemplars = doc.get("exemplars").and_then(Json::as_arr).expect("exemplars member");
        assert_eq!(exemplars.len(), MAX_EXEMPLARS);
        assert_eq!(exemplars[0].get("endpoint").and_then(Json::as_str), Some("/predict"));
        let stages = exemplars[0].get("stages").and_then(Json::as_arr).unwrap();
        assert_eq!(stages[0].get("name").and_then(Json::as_str), Some("parse"));
    }

    #[test]
    fn slo_alert_fires_through_tick() {
        let slos = Slo::parse_list("serve.queue_depth<1").unwrap();
        let burn = BurnRateConfig { fast_ms: 1_000, slow_ms: 2_000, factor: 1.0 };
        let watch = Watch::new(WatchConfig {
            resolution_ms: 10,
            capacity: 16,
            slos,
            burn,
            ..Default::default()
        });
        let before = WATCH_ALERTS.get();
        // Queue depth 5 against an objective of < 1: burns immediately.
        let fired = watch.tick(10_000, 5, None);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, "slo");
        assert_eq!(fired[0].series, "serve.queue_depth");
        // >= rather than ==: the counter is global and other tests may
        // alert concurrently.
        assert!(WATCH_ALERTS.get() > before);
        // Latched: a second hot tick does not re-alert.
        assert!(watch.tick(10_100, 5, None).is_empty());
        assert_eq!(watch.alerts().len(), 1);
    }

    #[test]
    fn drift_alert_fires_off_reference_and_stays_quiet_on() {
        let conditions = vec![tevot_timing::OperatingCondition::new(0.9, 25.0)];
        let delays: Vec<f64> = (500..600).map(f64::from).collect();
        let reference = ReferenceStats::collect(&conditions, &delays);
        let watch =
            Watch::new(WatchConfig { resolution_ms: 10, capacity: 16, ..Default::default() });

        // In-distribution traffic: same condition, delays spanning the
        // training-label range.
        for i in 0..100 {
            watch.observe_predict(OperatingCondition::new(0.9, 25.0), &[500.0 + f64::from(i)]);
        }
        assert!(watch.tick(1_000, 0, Some(&reference)).is_empty(), "clean traffic must not alert");

        // Off-reference condition: voltage and temperature far from the
        // training point.
        for _ in 0..200 {
            watch.observe_predict(OperatingCondition::new(0.7, 90.0), &[900.0]);
        }
        let fired = watch.tick(2_000, 0, Some(&reference));
        assert!(
            fired.iter().any(|a| a.kind == "drift" && a.series == "drift.voltage"),
            "off-reference voltage must alert: {fired:?}"
        );
        // Latched while still drifted.
        assert!(watch.tick(3_000, 0, Some(&reference)).is_empty());
        let doc = watch.to_json(0, Some(&reference));
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some("tevot-watch/1"));
        let drift = doc.get("drift").unwrap();
        assert!(drift.get("voltage_psi").and_then(Json::as_f64).unwrap() > PSI_ALERT_DEFAULT);
    }

    #[test]
    fn shadow_replay_scores_live_accuracy() {
        let watch = Watch::new(WatchConfig {
            resolution_ms: 10,
            capacity: 16,
            shadow_every: 1,
            ..Default::default()
        });
        let cond = OperatingCondition::new(0.9, 25.0);
        let transitions: Vec<Transition> = vec![((3, 4), (0, 0)), ((7, 9), (3, 4))];
        let sampled = watch.sample_for_shadow(&transitions);
        assert_eq!(sampled.len(), 2, "shadow_every=1 samples everything");
        // A deliberately wrong prediction (0 ps) scores ~0 accuracy; the
        // oracle truth for these transitions is far from zero.
        for (_, t) in sampled {
            watch.shadow_submit(cond, t, 0.0);
        }
        // Poll until the shadow thread drains the queue.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let mean = loop {
            if let Some(mean) = watch.mean_accuracy() {
                break mean;
            }
            assert!(std::time::Instant::now() < deadline, "shadow thread never reported");
            std::thread::sleep(std::time::Duration::from_millis(10));
        };
        assert!(mean < 0.5, "a 0 ps prediction cannot score high accuracy: {mean}");
        assert!(WATCH_SHADOW_REPLAYS.get() >= 1);
    }

    #[test]
    fn sampling_every_nth_transition_is_global_across_requests() {
        let watch = Watch::new(WatchConfig {
            resolution_ms: 10,
            capacity: 16,
            shadow_every: 3,
            ..Default::default()
        });
        let request: Vec<Transition> = (0..4u32).map(|i| ((i, i), (0, 0))).collect();
        let first = watch.sample_for_shadow(&request);
        let second = watch.sample_for_shadow(&request);
        // Transitions 0..8 with every=3 → global indices 0, 3, 6.
        assert_eq!(first.iter().map(|(i, _)| *i).collect::<Vec<_>>(), vec![0, 3]);
        assert_eq!(second.iter().map(|(i, _)| *i).collect::<Vec<_>>(), vec![2]);
    }
}
