//! Acceptance test for serving: predictions served over HTTP from four
//! concurrent keep-alive connections are **bit-identical** to offline
//! `TevotModel::predict_delay_ps` for the same model and inputs.
//!
//! Two independent mechanisms make this hold, and this test pins both:
//! each connection thread computes its delays as the same ordered map
//! of `predict_delay_ps` that offline prediction runs (so concurrency
//! cannot change the numbers), and `tevot-obs`'s JSON writer prints
//! shortest round-tripping f64s (so the wire format cannot either).

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
const REQUESTS_PER_CONNECTION: usize = 12;
const CONNECTIONS: usize = 4;

fn train_model() -> TevotModel {
    let fu = FunctionalUnit::IntAdd;
    let w = random_workload(fu, 150, 0xA11CE);
    let c = Characterizer::new(fu).characterize(
        OperatingCondition::new(0.9, 25.0),
        &w,
        &ClockSpeedup::PAPER,
    );
    let data = build_delay_dataset(FeatureEncoding::with_history(), &[(&w, &c)]);
    let mut params = TevotParams::default();
    params.forest.num_trees = 3;
    TevotModel::train(&data, &params, &mut SmallRng::seed_from_u64(0xA11CE))
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
    format!(r#"{{"voltage":0.9,"temperature":25,"transitions":[{}]}}"#, items.join(","))
}

/// Sends `POST /predict` for request `index` over a fresh framing on the
/// given keep-alive streams and returns the served delay bits.
fn round_trip(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, index: usize) -> Vec<u64> {
    let body = body_for(index);
    write!(
        writer,
        "POST /predict HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
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
    doc.get("delays_ps")
        .and_then(Json::as_arr)
        .expect("delays_ps array")
        .iter()
        .map(|d| d.as_f64().expect("numeric delay").to_bits())
        .collect()
}

#[test]
fn served_predictions_are_bit_identical_to_offline() {
    let model = train_model();
    let cond = OperatingCondition::new(0.9, 25.0);

    // Offline ground truth, computed once per request index.
    let total = CONNECTIONS * REQUESTS_PER_CONNECTION;
    let expected: Vec<Vec<u64>> = (0..total)
        .map(|index| {
            transitions_for(index)
                .iter()
                .map(|&(cur, prev)| model.predict_delay_ps(cond, cur, prev).to_bits())
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
