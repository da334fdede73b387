//! Ping-pong over a bare pair of `wire` pipes: what one round trip costs
//! against what the link model charges for it.
//!
//! An echo thread returns every message it receives. The main thread
//! times each send-to-reply loop and prints the quantiles next to the
//! model's charge (two deliveries of one message under `NetConfig`),
//! then the frames' lateness past their deadlines (`wire.link.late_us`).
//!
//! ```bash
//! cargo run --release -p wire --example pipe_pingpong -- [round_trips] [bytes]
//! ```

use std::time::{Duration, Instant};

use wire::transport::{Endpoint, NetConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let trips: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(5000);
    let bytes: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(200);
    let cfg = NetConfig::default();
    let (client, server) = Endpoint::pair(cfg, cfg);

    let echo = std::thread::spawn(move || {
        while let Ok(msg) = server.rx.recv(None) {
            if server.tx.send(msg, None).is_err() {
                break;
            }
        }
    });

    let mut samples = Vec::with_capacity(trips);
    for _ in 0..trips {
        let t0 = Instant::now();
        client.tx.send(vec![0u8; bytes], None).expect("send");
        client.rx.recv(Some(Duration::from_secs(5))).expect("reply");
        samples.push(t0.elapsed());
    }
    client.close();
    echo.join().expect("echo thread");

    samples.sort_unstable();
    let q = |p: f64| samples[((samples.len() - 1) as f64 * p).round() as usize];
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let tx = cfg
        .bytes_per_sec
        .map_or(0.0, |bps| bytes as f64 / bps as f64 * 1e6);
    let one_way = us(cfg.latency) + tx + us(cfg.per_msg_cost);
    println!(
        "{trips} round trips of {bytes} B: p50 {:.0} us, p95 {:.0} us, p99 {:.0} us; model {:.0} us",
        us(q(0.50)),
        us(q(0.95)),
        us(q(0.99)),
        2.0 * one_way
    );
    let late = obskit::metrics::global()
        .histogram("wire.link.late_us")
        .snapshot();
    println!(
        "lateness over {} frames: mean {:.1} us, p50 {} us, p99 {} us",
        late.count,
        late.mean().unwrap_or(0.0),
        late.quantile(0.50).unwrap_or(0),
        late.quantile(0.99).unwrap_or(0)
    );
}
