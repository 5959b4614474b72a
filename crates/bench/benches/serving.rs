//! Loopback load generator for the serving front-end.
//!
//! Starts an in-process `qn-serve` server fronting a small
//! quadratic-neuron ResNet, then drives it over real loopback TCP at a
//! ladder of **offered** request rates (open-loop pacing: requests are
//! scheduled by a global clock, so a slow server accumulates queueing
//! delay instead of silently throttling the generator — that is what makes
//! the reported latency honest and exercises the 429 backpressure path at
//! the top of the ladder).
//!
//! Writes `BENCH_serving.json`: one record per ladder step (client-side
//! latency of the successful requests, achieved throughput, shed and error
//! counts) and a summary record with the flushed-batch-size histogram and
//! the flush-by-size and flush-by-deadline counts. Fails on any transport
//! error or 5xx other than a 503 shed, or if no batch was flushed.

mod common;

use qn_bench::{quantile, Stats};
use qn_core::NeuronSpec;
use qn_models::{NeuronPlacement, ResNet, ResNetConfig};
use qn_nn::Module;
use qn_serve::{BatchConfig, ServeConfig, ServerBuilder};
use qn_tensor::Rng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SAMPLE_SHAPE: [usize; 3] = [3, 32, 32];
const ROUTE: &str = "resnet8-eq2";
const MAX_BATCH: usize = 32;
const MAX_DELAY: Duration = Duration::from_millis(2);

/// What the clients of one ladder step saw.
#[derive(Default)]
struct Tally {
    /// Seconds from send to response of each 200.
    latencies: Vec<f64>,
    /// 429 and 503 answers.
    rejected: u64,
    /// Transport errors and other statuses.
    errors: u64,
}

/// Per-client worker: pulls globally-paced tickets and fires requests over a
/// persistent keep-alive connection.
fn client_loop(
    addr: SocketAddr,
    request: &[u8],
    ticket: &AtomicU64,
    start: Instant,
    interval: Duration,
    total: u64,
) -> Tally {
    let mut tally = Tally::default();
    let mut stream: Option<TcpStream> = None;
    loop {
        let i = ticket.fetch_add(1, Ordering::Relaxed);
        if i >= total {
            return tally;
        }
        // open-loop pacing: never send early, send immediately if behind
        let target = start + mul_interval(interval, i);
        let now = Instant::now();
        if target > now {
            std::thread::sleep(target - now);
        }
        let t0 = Instant::now();
        match request_once(&mut stream, addr, request) {
            Some(200) => tally.latencies.push(t0.elapsed().as_secs_f64()),
            Some(429) | Some(503) => tally.rejected += 1,
            _ => tally.errors += 1,
        }
    }
}

/// `interval * n` without u128 arithmetic (both operands are small: the
/// interval is at most tens of milliseconds, `n` at most a few thousand).
fn mul_interval(interval: Duration, n: u64) -> Duration {
    Duration::from_nanos((interval.as_nanos() as u64).saturating_mul(n))
}

/// Sends one request on the persistent connection (reconnecting on any
/// transport error) and returns the response status. Drains the body per
/// `Content-Length` so the connection is reusable.
fn request_once(stream: &mut Option<TcpStream>, addr: SocketAddr, request: &[u8]) -> Option<u16> {
    for attempt in 0..2 {
        if stream.is_none() {
            match TcpStream::connect(addr) {
                Ok(s) => {
                    let _ = s.set_nodelay(true);
                    let _ = s.set_read_timeout(Some(Duration::from_secs(60)));
                    *stream = Some(s);
                }
                Err(_) => return None,
            }
        }
        let s = stream.as_mut().expect("connected above");
        if s.write_all(request).is_err() {
            *stream = None;
            if attempt == 0 {
                continue; // stale keep-alive connection: reconnect once
            }
            return None;
        }
        match read_response(s) {
            Some(status) => return Some(status),
            None => {
                *stream = None;
                if attempt == 0 {
                    continue;
                }
                return None;
            }
        }
    }
    None
}

/// Minimal client-side response reader: status line + headers, then drains
/// exactly `Content-Length` body bytes (the server never sends chunked on
/// the predict route).
fn read_response(s: &mut TcpStream) -> Option<u16> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 2048];
    let head_end = loop {
        if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break p + 4;
        }
        match s.read(&mut chunk) {
            Ok(0) | Err(_) => return None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    };
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let status: u16 = head.split(' ').nth(1)?.parse().ok()?;
    let mut content_length = 0usize;
    for line in head.lines().skip(1) {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok()?;
            }
        }
    }
    let mut have = buf.len() - head_end;
    while have < content_length {
        match s.read(&mut chunk) {
            Ok(0) | Err(_) => return None,
            Ok(n) => have += n,
        }
    }
    Some(status)
}

/// Offers `qps` for `duration` from `clients` threads; returns the merged
/// tally, the requests sent and the wall time taken.
fn run_step(
    addr: SocketAddr,
    request: &[u8],
    qps: u64,
    duration: Duration,
    clients: usize,
) -> (Tally, u64, Duration) {
    let total = (qps as f64 * duration.as_secs_f64()).round() as u64;
    let interval = Duration::from_nanos(1_000_000_000 / qps.max(1));
    let ticket = AtomicU64::new(0);
    let start = Instant::now();
    let tally = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| scope.spawn(|| client_loop(addr, request, &ticket, start, interval, total)))
            .collect();
        let mut merged = Tally::default();
        for h in handles {
            let t = h.join().expect("client thread panicked");
            merged.latencies.extend(t.latencies);
            merged.rejected += t.rejected;
            merged.errors += t.errors;
        }
        merged
    });
    (tally, total, start.elapsed())
}

fn main() {
    let mut bench = common::Bench::new("serving");
    let (steps, step_duration, clients): (&[u64], Duration, usize) = if bench.smoke {
        (&[50, 200], Duration::from_millis(600), 4)
    } else {
        (&[25, 50, 100, 200, 400, 800], Duration::from_secs(4), 8)
    };

    let model: Arc<dyn Module> = Arc::new(ResNet::cifar(ResNetConfig {
        depth: 8,
        base_width: 4,
        num_classes: 10,
        neuron: NeuronSpec::EfficientQuadratic { rank: 2 },
        placement: NeuronPlacement::All,
        seed: 7,
    }));
    let server = ServerBuilder::new(ServeConfig {
        max_connections: clients + 8,
        ..ServeConfig::default()
    })
    .route(
        ROUTE,
        &SAMPLE_SHAPE,
        model,
        BatchConfig {
            max_batch: MAX_BATCH,
            max_delay: MAX_DELAY,
            queue_capacity: 128,
            workers: 1,
        },
    )
    .start()
    .expect("bind loopback server");
    let addr = server.addr();

    // one fixed sample, binary f32 little-endian
    let elems: usize = SAMPLE_SHAPE.iter().product();
    let mut rng = Rng::seed_from(42);
    let mut body = Vec::with_capacity(elems * 4);
    for _ in 0..elems {
        body.extend_from_slice(&rng.uniform(-1.0, 1.0).to_le_bytes());
    }
    let mut request = format!(
        "POST /v1/models/{ROUTE}/predict HTTP/1.1\r\nHost: bench\r\n\
         Content-Type: application/octet-stream\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(&body);

    // warmup: populate arenas/pools so step 1 doesn't measure cold allocs
    run_step(addr, &request, 20, Duration::from_millis(300), 2);

    let mut errors = 0;
    for &qps in steps {
        let (mut tally, sent, elapsed) = run_step(addr, &request, qps, step_duration, clients);
        tally.latencies.sort_by(f64::total_cmp);
        let lat = &tally.latencies;
        let ok = lat.len();
        let r = bench.record(
            format!("{ROUTE}/offered_{qps}qps"),
            (ok > 0).then(|| Stats::from_samples(lat.clone())),
        );
        r.metric("offered_qps", qps as f64)
            .metric("clients", clients as f64)
            .metric("sent", sent as f64)
            .metric("ok", ok as f64)
            .metric("rejected", tally.rejected as f64)
            .metric("errors", tally.errors as f64)
            .metric("achieved_qps", ok as f64 / elapsed.as_secs_f64());
        if ok > 0 {
            r.metric("p90_ms", quantile(lat, 0.90) * 1e3)
                .metric("p99_ms", quantile(lat, 0.99) * 1e3)
                .metric("max_ms", lat[ok - 1] * 1e3);
        }
        errors += tally.errors;
    }

    let metrics = server.route_metrics(ROUTE).expect("the route exists");
    let r = bench.record(format!("{ROUTE}/batching"), None);
    r.metric("max_batch", MAX_BATCH as f64)
        .metric("max_delay_ms", MAX_DELAY.as_secs_f64() * 1e3)
        .metric(
            "flush_by_size",
            metrics.flush_size.load(Ordering::Relaxed) as f64,
        )
        .metric(
            "flush_by_deadline",
            metrics.flush_deadline.load(Ordering::Relaxed) as f64,
        );
    let dist = metrics.batch_size_dist();
    for &(size, count) in &dist {
        r.metric(format!("batch_size_{size}"), count as f64);
    }
    server.shutdown();
    bench.write();
    assert_eq!(errors, 0, "the load generator saw transport or 5xx errors");
    assert!(!dist.is_empty(), "the server flushed no batches");
}
