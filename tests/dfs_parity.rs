//! Acceptance test for the adaptive-clocking tentpole: `POST /dfs`
//! recommendations served over HTTP are **bit-identical** to the offline
//! `tevot dfs` arithmetic — `tevot_dfs::recommended_t_clk_ps` applied to
//! `TevotModel::predict_delay_ps` — for the same model, condition,
//! guardband and inputs, from four concurrent keep-alive connections.
//!
//! `t_clk_ps` is an integer on the wire, so JSON cannot perturb it; the
//! predicted delays underneath are pinned bit-exactly too, exactly as in
//! `serve_parity`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tevot::dta::Characterizer;
use tevot::workload::random_workload;
use tevot::{build_delay_dataset, FeatureEncoding, TevotModel, TevotParams};
use tevot_netlist::fu::FunctionalUnit;
use tevot_obs::json::{self, Json};
use tevot_serve::{ServeConfig, Server, DEFAULT_MODEL};
use tevot_timing::{ClockSpeedup, OperatingCondition};

const TRANSITIONS_PER_REQUEST: usize = 8;
const REQUESTS_PER_CONNECTION: usize = 10;
const CONNECTIONS: usize = 4;
const GUARDBAND_PS: f64 = 62.5;

fn train_model() -> TevotModel {
    let fu = FunctionalUnit::IntAdd;
    let w = random_workload(fu, 150, 0xD0F5);
    let c = Characterizer::new(fu).characterize(
        OperatingCondition::new(0.9, 25.0),
        &w,
        &ClockSpeedup::PAPER,
    );
    let data = build_delay_dataset(FeatureEncoding::with_history(), &[(&w, &c)]);
    let mut params = TevotParams::default();
    params.forest.num_trees = 3;
    TevotModel::train(&data, &params, &mut SmallRng::seed_from_u64(0xD0F5))
}

/// The deterministic transitions of request `index`.
fn transitions_for(index: usize) -> Vec<((u32, u32), (u32, u32))> {
    (0..TRANSITIONS_PER_REQUEST)
        .map(|t| {
            let x = (index * TRANSITIONS_PER_REQUEST + t) as u32;
            let a = x.wrapping_mul(2_654_435_761);
            let b = x.wrapping_mul(40_503).wrapping_add(17);
            ((a, b), (b.rotate_left(7), a.rotate_left(3)))
        })
        .collect()
}

fn body_for(index: usize) -> String {
    let items: Vec<String> = transitions_for(index)
        .iter()
        .map(|((a, b), (pa, pb))| format!(r#"{{"a":{a},"b":{b},"prev_a":{pa},"prev_b":{pb}}}"#))
        .collect();
    format!(
        r#"{{"voltage":0.9,"temperature":25,"guardband_ps":{GUARDBAND_PS},"transitions":[{}]}}"#,
        items.join(",")
    )
}

/// Sends `POST /dfs` for request `index` on the keep-alive streams and
/// returns `(delay bits, t_clk)` pairs.
fn round_trip(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    index: usize,
) -> Vec<(u64, u64)> {
    let body = body_for(index);
    write!(writer, "POST /dfs HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}", body.len())
        .expect("write request");

    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    assert!(line.contains("200"), "expected 200, got {line:?}");
    let mut content_length = 0usize;
    loop {
        line.clear();
        reader.read_line(&mut line).expect("header line");
        let trimmed = line.trim();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().expect("Content-Length");
            }
        }
    }
    let mut raw = vec![0u8; content_length];
    reader.read_exact(&mut raw).expect("body");
    let doc = json::parse(std::str::from_utf8(&raw).unwrap()).expect("JSON body");
    let delays = doc.get("delays_ps").and_then(Json::as_arr).expect("delays_ps array");
    let t_clks = doc.get("t_clk_ps").and_then(Json::as_arr).expect("t_clk_ps array");
    assert_eq!(delays.len(), t_clks.len());
    delays
        .iter()
        .zip(t_clks)
        .map(|(d, t)| {
            (d.as_f64().expect("numeric delay").to_bits(), t.as_u64().expect("integer t_clk"))
        })
        .collect()
}

#[test]
fn served_dfs_recommendations_are_bit_identical_to_offline() {
    let model = train_model();
    let cond = OperatingCondition::new(0.9, 25.0);

    // Offline ground truth — the exact arithmetic `tevot dfs` runs.
    let total = CONNECTIONS * REQUESTS_PER_CONNECTION;
    let expected: Vec<Vec<(u64, u64)>> = (0..total)
        .map(|index| {
            transitions_for(index)
                .iter()
                .map(|&(cur, prev)| {
                    let delay = model.predict_delay_ps(cond, cur, prev);
                    (delay.to_bits(), tevot_dfs::recommended_t_clk_ps(delay, GUARDBAND_PS))
                })
                .collect()
        })
        .collect();

    let server = Server::start(ServeConfig::default()).expect("bind loopback");
    server.state().registry.insert(DEFAULT_MODEL, model);
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        let expected = &expected;
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                scope.spawn(move || {
                    let stream = TcpStream::connect(addr).expect("connect");
                    stream.set_nodelay(true).ok();
                    let mut writer = stream.try_clone().expect("clone");
                    let mut reader = BufReader::new(stream);
                    for r in 0..REQUESTS_PER_CONNECTION {
                        let index = c * REQUESTS_PER_CONNECTION + r;
                        let served = round_trip(&mut writer, &mut reader, index);
                        assert_eq!(served, expected[index], "request {index} diverged");
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("client thread");
        }
    });

    server.shutdown();
}
