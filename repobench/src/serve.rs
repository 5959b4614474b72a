//! `serve-quad`, an open loop against `qn-serve` over loopback, and the
//! serve layer probe every traced run makes.
//!
//! Set-up saves a checkpoint of the quad model, loads it with
//! `LoadMode::Mapped` and starts a server with the default `BatchConfig`.
//! Seeded Poisson arrivals then go over [`CONNECTIONS`] keep-alive
//! connection at the fixed `low` rate, then over a fixed ladder of rates
//! [`RUNG_RATIO`] apart, searched for the highest rate that keeps p99
//! within [`P99_LIMIT_MS`] without a growing backlog. The probe sends at the
//! `low` and then the `high` rate. Every request is timed from when it was
//! *due*, so a server stall also shows in the requests queued behind it,
//! and every response body must be bit-identical to a sequential
//! `InferenceSession::predict` of the same sample.
//!
//! `serve-quad` is not among the workloads of `BENCHMARK.json`: on a
//! 2-vCPU host its latency follows the host's wake-up delays too closely to
//! gate changes (see `README.md`).
//!
//! One connection, not two: with two, pairs of requests batch together and
//! `predict_batch` of 2 samples shards across the pool, and on a 2-vCPU
//! host whether those shards run in parallel differs from process to
//! process. That made every latency figure bimodal across runs (see
//! `README.md`).

use crate::model::{self, cross_entropy, derive, Pool, RES};
use crate::stats::{median, ms, percentile, repeat_setup};
use crate::trace::Tracer;
use crate::{json::Json, probes, Ctx, Report};
use qn_models::{InferenceSession, ResNet};
use qn_nn::Module;
use qn_serve::{BatchConfig, ServeConfig, Server, ServerBuilder};
use qn_tensor::{Rng, Tensor};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Client connections (and generator threads).
const CONNECTIONS: usize = 1;
/// The `low` rate, about a quarter of the parent's capacity (requests/s).
const LOW_RPS: f64 = 45.0;
/// The `high` rate, about three quarters of the parent's capacity.
const HIGH_RPS: f64 = 135.0;
/// Ladder rungs are `LOW_RPS * RUNG_RATIO^k` for whole `k >= 0`.
const RUNG_RATIO: f64 = 1.05;
/// The rung the search starts from (168 requests/s, near the parent's
/// capacity).
const START_RUNG: i32 = 27;
/// Rungs the search may try in one run.
const MAX_RUNGS: usize = 8;
/// The p99 latency limit of the ladder.
const P99_LIMIT_MS: f64 = 100.0;
/// A rung fails when more requests than this were still waiting to be sent
/// when its schedule ended.
const BACKLOG_LIMIT: usize = 8;
/// Shares of `--seconds` spent in the `low` phase and on each ladder rung,
/// and in each phase of the traced run's probe.
const LOW_SHARE: f64 = 0.45;
const RUNG_SHARE: f64 = 0.07;
const PROBE_SHARE: f64 = 0.2;
/// Distinct samples the generator draws from.
const POOL_BATCHES: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
const ROUTE: &str = "quad";

/// One request of an open-loop phase; times are seconds since the phase
/// started.
#[derive(Clone, Copy, Debug)]
struct Shot {
    due: f64,
    sent: f64,
    done: f64,
    ok: bool,
    /// Whether a span was recorded for it.
    traced: bool,
}

impl Shot {
    /// Due → last byte of the response, in milliseconds.
    fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }
}

/// What the generator sends: one complete HTTP request per sample of the
/// pool, and the response body each must produce.
struct Target {
    addr: SocketAddr,
    requests: Vec<Vec<u8>>,
    expected: Vec<Vec<u8>>,
}

fn predict_request(body: &[u8]) -> Vec<u8> {
    let mut r = format!(
        "POST /v1/models/{ROUTE}/predict HTTP/1.1\r\nHost: bench\r\n\
         Content-Type: application/octet-stream\r\nAccept: application/octet-stream\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    r.extend_from_slice(body);
    r
}

fn f32_bytes(v: &[f32]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

/// Seeded Poisson arrival offsets (seconds) over `duration`, each with the
/// pool sample it sends.
fn schedule(rate: f64, duration: f64, samples: usize, seed: u64) -> Vec<(f64, usize)> {
    let mut rng = Rng::seed_from(seed);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        let u = f64::from(rng.uniform(0.0, 1.0)).min(1.0 - 1e-9);
        t += -(1.0 - u).ln() / rate;
        if t >= duration {
            return out;
        }
        out.push((t, rng.below(samples)));
    }
}

/// Runs one open-loop phase over `conns` (one generator thread each).
/// Each thread takes the next request in due order when its connection
/// is free, waits until that request is due, and sends it; a request that
/// finds every connection busy is sent late, and its latency still counts
/// from when it was due. An enabled tracer records every other request, so
/// the rest time the same phase untraced.
fn open_loop(
    target: &Target,
    conns: &mut [Option<TcpStream>],
    plan: &[(f64, usize)],
    tracer: &Tracer,
) -> Vec<Shot> {
    let next = AtomicUsize::new(0);
    let shots = Mutex::new(vec![
        Shot {
            due: 0.0,
            sent: 0.0,
            done: 0.0,
            ok: false,
            traced: false,
        };
        plan.len()
    ]);
    let parent = tracer.current();
    let start = Instant::now();
    std::thread::scope(|s| {
        for conn in conns.iter_mut() {
            let (next, shots) = (&next, &shots);
            s.spawn(move || {
                tracer.adopt(parent, || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(due, sample)) = plan.get(i) else {
                        break;
                    };
                    let due_at = start + Duration::from_secs_f64(due);
                    wait_until(due_at);
                    let sent = Instant::now();
                    let body = send(conn, target.addr, &target.requests[sample]);
                    let done = Instant::now();
                    let traced = tracer.on() && i % 2 == 1;
                    if traced {
                        tracer.record("serve_request", i as u64 + 1, sent, done);
                    }
                    let ok = matches!(body, Ok((200, b)) if b == target.expected[sample]);
                    let secs = |t: Instant| t.duration_since(start).as_secs_f64();
                    shots.lock().expect("shot list poisoned")[i] = Shot {
                        due,
                        sent: secs(sent),
                        done: secs(done),
                        ok,
                        traced,
                    };
                })
            });
        }
    });
    shots.into_inner().expect("shot list poisoned")
}

/// Sleeps until shortly before `t`, then spins, so that the generator's
/// own wake-up delay stays out of the latencies it measures.
fn wait_until(t: Instant) {
    const SPIN: Duration = Duration::from_micros(300);
    if let Some(wait) = t.checked_duration_since(Instant::now()) {
        if wait > SPIN {
            std::thread::sleep(wait - SPIN);
        }
    }
    while Instant::now() < t {
        std::hint::spin_loop();
    }
}

/// Sends one request on the keep-alive connection (connecting first if
/// needed, reconnecting once if a reused connection went stale) and returns
/// the status and body.
fn send(
    conn: &mut Option<TcpStream>,
    addr: SocketAddr,
    request: &[u8],
) -> io::Result<(u16, Vec<u8>)> {
    for attempt in 0..2 {
        let reused = conn.is_some();
        if conn.is_none() {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(Duration::from_secs(30)))?;
            *conn = Some(s);
        }
        let s = conn.as_mut().expect("connected above");
        match s.write_all(request).and_then(|()| read_response(s)) {
            Ok(r) => return Ok(r),
            Err(e) => {
                *conn = None;
                if !(reused && attempt == 0) {
                    return Err(e);
                }
            }
        }
    }
    Err(io::Error::other("unreachable"))
}

/// Reads one `Content-Length`-framed HTTP/1.1 response. With one request
/// in flight per connection, nothing follows the body.
fn read_response(s: &mut TcpStream) -> io::Result<(u16, Vec<u8>)> {
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let mut framed: Option<(u16, usize, usize)> = None;
    loop {
        if let Some((status, head_end, len)) = framed {
            if buf.len() >= head_end + len {
                if buf.len() > head_end + len {
                    return Err(io::Error::other("bytes after the response body"));
                }
                return Ok((status, buf.split_off(head_end)));
            }
        }
        let n = s.read(&mut chunk)?;
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        buf.extend_from_slice(&chunk[..n]);
        if framed.is_none() {
            if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let (status, len) = parse_head(&buf[..p])?;
                framed = Some((status, p + 4, len));
            } else if buf.len() > 16 * 1024 {
                return Err(io::Error::other("response head too long"));
            }
        }
    }
}

/// Status code and `Content-Length` of a response head.
fn parse_head(head: &[u8]) -> io::Result<(u16, usize)> {
    let head = String::from_utf8_lossy(head);
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse::<u16>().ok())
        .ok_or_else(|| io::Error::other("no status code"))?;
    let len = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.trim()
                .eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse::<usize>().ok())?
        })
        .ok_or_else(|| io::Error::other("no Content-Length"))?;
    Ok((status, len))
}

/// Requests still waiting to be sent when the schedule ended.
fn backlog_at_end(shots: &[Shot], duration: f64) -> usize {
    shots
        .iter()
        .filter(|s| s.due <= duration && s.sent > duration)
        .count()
}

struct Setup {
    server: Server,
    model: Arc<ResNet>,
}

/// Starts a server with one route serving `model`.
fn start(ctx: &Ctx, model: &Arc<ResNet>) -> Server {
    ctx.tracer.span("serve_start", 0, || {
        ServerBuilder::new(ServeConfig::default())
            .route(
                ROUTE,
                &[3, RES, RES],
                model.clone() as Arc<dyn Module>,
                BatchConfig::default(),
            )
            .start()
            .expect("start the server")
    })
}

/// Checkpoint save, mapped load and server start, up to the first 200.
fn setup(ctx: &Ctx, path: &Path, first: &[u8]) -> (Setup, probes::CkptTimes) {
    let trained = model::resnet20(model::QUAD, model::WEIGHT_SEED);
    let skeleton = model::resnet20(model::QUAD, model::WEIGHT_SEED + 1);
    let ckpt = probes::checkpoint(ctx, &trained, &skeleton, path);
    let model = Arc::new(skeleton);
    let server = start(ctx, &model);
    let mut conn = None;
    let t = Instant::now();
    let status = send(&mut conn, server.addr(), first).map(|(s, _)| s);
    ctx.tracer.record("serve_request", 0, t, Instant::now());
    assert_eq!(status.ok(), Some(200), "the first request must succeed");
    (Setup { server, model }, ckpt)
}

/// Per-route figures from the server's `/metrics` payload.
struct RouteStats {
    p50_ms: f64,
    p99_ms: f64,
    flush_deadline_share: f64,
    batch_mean: f64,
    depth_hwm: f64,
    rejected_share: f64,
    pool_hit_ratio: f64,
}

fn route_stats(metrics: &str) -> Result<RouteStats, String> {
    let doc = Json::parse(metrics)?;
    let num = |path: &[&str]| {
        doc.at(path)
            .and_then(Json::num)
            .ok_or_else(|| format!("/metrics has no {}", path.join(".")))
    };
    let r = |k: &[&str]| -> Result<f64, String> {
        let mut p = vec!["routes", ROUTE];
        p.extend_from_slice(k);
        num(&p)
    };
    let (size, deadline) = (
        r(&["batch", "flush_size"])?,
        r(&["batch", "flush_deadline"])?,
    );
    let dist = doc
        .at(&["routes", ROUTE, "batch", "size_dist"])
        .and_then(Json::obj)
        .ok_or("/metrics has no batch size distribution")?;
    let (mut samples, mut batches) = (0.0, 0.0);
    for (size, count) in dist {
        let count = count.num().unwrap_or(0.0);
        samples += size.parse::<f64>().unwrap_or(0.0) * count;
        batches += count;
    }
    let requests = num(&["server", "requests_total"])?;
    let rejected = num(&["server", "rejected_429"])? + num(&["server", "rejected_503"])?;
    let (hits, misses) = (r(&["pool", "hits"])?, r(&["pool", "misses"])?);
    Ok(RouteStats {
        p50_ms: r(&["latency", "p50_ns"])? / 1e6,
        p99_ms: r(&["latency", "p99_ns"])? / 1e6,
        flush_deadline_share: deadline / (size + deadline).max(1.0),
        batch_mean: samples / batches.max(1.0),
        depth_hwm: r(&["queue", "depth_hwm"])?,
        rejected_share: rejected / requests.max(1.0),
        pool_hit_ratio: hits / (hits + misses).max(1.0),
    })
}

/// The samples the generator draws from, with their labels.
fn samples(pool: &Pool) -> Vec<(Tensor, usize)> {
    (0..POOL_BATCHES)
        .flat_map(|b| (0..model::BATCH).map(move |i| (b, i)))
        .map(|(b, i)| (pool.sample(b, i), pool.labels[b][i]))
        .collect()
}

fn requests(samples: &[(Tensor, usize)]) -> Vec<Vec<u8>> {
    samples
        .iter()
        .map(|(x, _)| predict_request(&f32_bytes(x.data())))
        .collect()
}

/// The response body sequential `predict` gives for every sample, and the
/// mean cross-entropy of those outputs against the labels.
fn expected_bodies(
    session: &mut InferenceSession<'_>,
    samples: &[(Tensor, usize)],
) -> (Vec<Vec<u8>>, f64) {
    let mut loss = 0.0;
    let bodies = samples
        .iter()
        .map(|(x, label)| {
            let y = session.predict(x);
            loss += cross_entropy(y.data(), *label);
            let b = f32_bytes(y.data());
            session.recycle(y);
            b
        })
        .collect();
    (bodies, loss / samples.len() as f64)
}

/// One open-loop phase of seeded arrivals at `rate` for `duration`
/// seconds. Counts its requests into `report` and prints a summary line.
#[allow(clippy::too_many_arguments)]
fn phase(
    ctx: &Ctx,
    target: &Target,
    conns: &mut [Option<TcpStream>],
    rate: f64,
    duration: f64,
    tag: u64,
    tracer: &Tracer,
    report: &mut Report,
) -> Vec<Shot> {
    let plan = schedule(
        rate,
        duration,
        target.requests.len(),
        derive(ctx.seed, 100 + tag),
    );
    let shots = open_loop(target, conns, &plan, tracer);
    report.attempted += shots.len() as u64;
    report.failed += shots.iter().filter(|s| !s.ok).count() as u64;
    let lat: Vec<f64> = shots.iter().map(Shot::latency_ms).collect();
    eprintln!(
        "phase {rate:.1} req/s over {duration:.1} s: {} requests, p50 {:.2} ms, \
         p90 {:.2} ms, p99 {:.2} ms, backlog at end {}",
        shots.len(),
        median(&lat),
        percentile(&lat, 0.9),
        percentile(&lat, 0.99),
        backlog_at_end(&shots, duration)
    );
    shots
}

/// The serve layer probe of every traced run: serves `model` (f32) with
/// the default `BatchConfig` and sends seeded arrivals at the `low` and then
/// the `high` rate, tracing every other request. Every response must be
/// bit-identical to a sequential `predict` of the same sample.
pub fn probe(ctx: &Ctx, model: &Arc<ResNet>, pool: &Pool, report: &mut Report) {
    let samples = samples(pool);
    let server = start(ctx, model);
    let (expected, _) = expected_bodies(&mut InferenceSession::new(model.as_ref()), &samples);
    let target = Target {
        addr: server.addr(),
        requests: requests(&samples),
        expected,
    };
    let mut conns: Vec<Option<TcpStream>> = (0..CONNECTIONS).map(|_| None).collect();
    let failed_before = report.failed;
    let duration = PROBE_SHARE * ctx.seconds;
    let (tr, c) = (&ctx.tracer, &mut conns);
    let low = phase(ctx, &target, c, LOW_RPS, duration, 1, tr, report);
    let high = phase(ctx, &target, c, HIGH_RPS, duration, 2, tr, report);
    let bad = report.failed - failed_before;
    report.check(bad == 0, || {
        format!("serve probe: {bad} requests failed or answered other than sequential predict")
    });
    let lat = |s: &[Shot]| s.iter().map(Shot::latency_ms).collect::<Vec<_>>();
    let both: Vec<Shot> = low.iter().chain(&high).copied().collect();
    let p50_traced = |t: bool| {
        let v: Vec<Shot> = both.iter().filter(|s| s.traced == t).copied().collect();
        median(&lat(&v))
    };
    // the overhead of the serve-quad workload, whose traced run is this probe
    if !report.metrics.contains_key("trace.overhead") {
        report.set("trace.overhead", p50_traced(true) / p50_traced(false) - 1.0);
    }
    let late: Vec<f64> = both.iter().map(|s| (s.sent - s.due) * 1e3).collect();
    let rtt: Vec<f64> = both.iter().map(|s| (s.done - s.sent) * 1e3).collect();
    report.set("client.send_late_p99_ms", percentile(&late, 0.99));
    report.set("client.rtt_p50_ms", median(&rtt));
    report.set("client.p99_ms_low", percentile(&lat(&low), 0.99));
    report.set("client.p50_ms_high", median(&lat(&high)));
    report.set("client.p99_ms_high", percentile(&lat(&high), 0.99));
    let metrics = ctx
        .tracer
        .span("serve_metrics", 0, || server.metrics_json());
    match route_stats(&metrics) {
        Ok(r) => {
            report.set("serve.server_p50_ms", r.p50_ms);
            report.set("serve.server_p99_ms", r.p99_ms);
            report.set("serve.flush_deadline_share", r.flush_deadline_share);
            report.set("serve.batch_mean", r.batch_mean);
            report.set("serve.queue_depth_hwm", r.depth_hwm);
            report.set("serve.rejected_share", r.rejected_share);
            report.set("serve.pool_hit_ratio", r.pool_hit_ratio);
        }
        Err(e) => report.problems.push(e),
    }
    drop(conns);
    server.shutdown();
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let pool = Pool::generate(POOL_BATCHES, derive(ctx.seed, 1));
    let samples = samples(&pool);
    let requests = requests(&samples);
    let path: PathBuf = Path::new(".bench_out/tmp").join(format!("serve-{}.qnck", ctx.seed));

    let mut ckpts = Vec::with_capacity(SETUPS);
    let (Setup { server, model }, setup_s) = repeat_setup(SETUPS, || {
        let (s, ckpt) = setup(ctx, &path, &requests[0]);
        ckpts.push(ckpt);
        s
    });
    let _ = std::fs::remove_file(&path);
    let mut session = InferenceSession::new(model.as_ref());
    let t = Instant::now();
    let y = ctx
        .tracer
        .span("predict", 0, || session.predict(&samples[0].0));
    let first_predict_ms = ms(t.elapsed());
    session.recycle(y);

    if ctx.tracer.on() {
        server.shutdown();
        let med =
            |f: fn(&probes::CkptTimes) -> f64| median(&ckpts.iter().map(f).collect::<Vec<_>>());
        probes::CkptTimes {
            save_ms: med(|c| c.save_ms),
            load_ms: med(|c| c.load_ms),
            file_bytes: med(|c| c.file_bytes),
        }
        .record(&mut report);
        report.set("model.first_predict_ms", first_predict_ms);
        probes::all(ctx, &model, &mut session, &pool, &mut report);
        return report;
    }

    let (expected, loss) = expected_bodies(&mut session, &samples);
    let target = Target {
        addr: server.addr(),
        requests,
        expected,
    };
    let mut conns: Vec<Option<TcpStream>> = (0..CONNECTIONS).map(|_| None).collect();
    let off = Tracer::new(false);
    let low = phase(
        ctx,
        &target,
        &mut conns,
        LOW_RPS,
        LOW_SHARE * ctx.seconds,
        1,
        &off,
        &mut report,
    );
    // Search the ladder from START_RUNG: gallop (steps 1, 2, 4, ...) away
    // from the start until a rung passes and a rung fails, then bisect
    // between the highest pass and the lowest failure.
    let rate = |k: i32| LOW_RPS * RUNG_RATIO.powi(k);
    let (mut pass, mut fail): (Option<i32>, Option<i32>) = (None, None);
    let (mut k, mut step) = (START_RUNG, 1);
    let duration = RUNG_SHARE * ctx.seconds;
    for n in 0..MAX_RUNGS {
        let shots = phase(
            ctx,
            &target,
            &mut conns,
            rate(k),
            duration,
            2 + n as u64,
            &off,
            &mut report,
        );
        let p99 = percentile(
            &shots.iter().map(Shot::latency_ms).collect::<Vec<_>>(),
            0.99,
        );
        let ok = shots.iter().all(|s| s.ok)
            && p99 <= P99_LIMIT_MS
            && backlog_at_end(&shots, duration) <= BACKLOG_LIMIT;
        if ok {
            pass = pass.max(Some(k));
        } else {
            fail = Some(fail.map_or(k, |f| f.min(k)));
        }
        k = match (pass, fail) {
            (Some(p), Some(f)) if f - p <= 1 => break,
            (Some(p), Some(f)) => (p + f) / 2,
            (Some(p), None) => p + step,
            (None, Some(0)) => break,
            (None, Some(f)) => (f - step).max(0),
            (None, None) => unreachable!("every rung passes or fails"),
        };
        step *= 2;
    }
    drop(conns);
    server.shutdown();
    report.check_operations("requests failed or answered other than sequential predict");
    report.set("setup_s", setup_s);
    report.set(
        "p50_ms",
        median(&low.iter().map(Shot::latency_ms).collect::<Vec<_>>()),
    );
    report.set("samples_per_s", pass.map_or(0.0, rate));
    report.set("loss", loss);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A stub server answering every request with `body`, except that it
    /// stalls `stall` before answering request number `stall_at`.
    fn stub(
        body: &'static [u8],
        stall_at: usize,
        stall: Duration,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = listener.local_addr().expect("bound address");
        let handle = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("one client");
            let mut served = 0usize;
            let mut buf = Vec::new();
            let mut chunk = [0u8; 4096];
            loop {
                // one request: head plus a 4-byte body
                while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
                    match s.read(&mut chunk) {
                        Ok(0) | Err(_) => return,
                        Ok(n) => buf.extend_from_slice(&chunk[..n]),
                    }
                }
                let end = buf.windows(4).position(|w| w == b"\r\n\r\n").expect("head") + 4;
                while buf.len() < end + 4 {
                    match s.read(&mut chunk) {
                        Ok(0) | Err(_) => return,
                        Ok(n) => buf.extend_from_slice(&chunk[..n]),
                    }
                }
                buf.drain(..end + 4);
                served += 1;
                if served == stall_at {
                    std::thread::sleep(stall);
                }
                let head = format!("HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n", body.len());
                if s.write_all(head.as_bytes())
                    .and_then(|()| s.write_all(body))
                    .is_err()
                {
                    return;
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn a_stall_shows_in_the_requests_queued_behind_it() {
        let stall = Duration::from_millis(300);
        let (addr, server) = stub(b"okay", 5, stall);
        let target = Target {
            addr,
            requests: vec![predict_request(b"abcd")],
            expected: vec![b"okay".to_vec()],
        };
        // one request every 10 ms on one connection
        let plan: Vec<(f64, usize)> = (0..60).map(|i| (i as f64 * 0.01, 0)).collect();
        let mut conns = vec![None];
        let shots = open_loop(&target, &mut conns, &plan, &Tracer::new(false));
        drop(conns);
        server.join().expect("stub server exits cleanly");
        assert!(shots.iter().all(|s| s.ok), "every response matches");
        // the stalled request is the fifth; the ones due during the stall
        // were sent late, and their latency counts that wait
        let stalled = shots[4];
        assert!(stalled.latency_ms() >= 300.0);
        let behind: Vec<&Shot> = shots[5..].iter().filter(|s| s.due < stalled.done).collect();
        assert!(
            behind.len() >= 20,
            "about 30 requests fall due during the stall"
        );
        for s in &behind {
            let wait_ms = (stalled.done - s.due) * 1e3;
            assert!(
                s.latency_ms() >= wait_ms,
                "a request due {:.0} ms before the stall ended reports {:.1} ms",
                wait_ms,
                s.latency_ms()
            );
            assert!(
                s.sent >= stalled.done,
                "it could not be sent before the stall ended"
            );
        }
        // a clock started at send time would have hidden all of this
        let from_send = median(
            &behind
                .iter()
                .map(|s| (s.done - s.sent) * 1e3)
                .collect::<Vec<_>>(),
        );
        let from_due = median(&behind.iter().map(|s| s.latency_ms()).collect::<Vec<_>>());
        assert!(
            from_due > 100.0 && from_send < 50.0,
            "due {from_due} vs send {from_send}"
        );
    }

    #[test]
    fn schedule_is_seeded_poisson() {
        let a = schedule(200.0, 5.0, 64, 9);
        assert_eq!(a, schedule(200.0, 5.0, 64, 9));
        assert_ne!(a, schedule(200.0, 5.0, 64, 10));
        // about rate * duration arrivals, in order, within the duration
        assert!((900..1100).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(a.iter().all(|&(t, s)| t < 5.0 && s < 64));
    }

    #[test]
    fn route_stats_read_the_metrics_payload() {
        let m = r#"{"server":{"requests_total":10,"rejected_429":1,"rejected_503":0},
            "routes":{"quad":{"queue":{"depth_hwm":3},
            "batch":{"flush_size":1,"flush_deadline":3,"size_dist":{"1":2,"2":2}},
            "latency":{"p50_ns":2000000,"p99_ns":9000000},
            "pool":{"hits":3,"misses":1}}}}"#;
        let r = route_stats(m).expect("valid payload");
        assert_eq!(r.flush_deadline_share, 0.75);
        assert_eq!(r.batch_mean, 1.5);
        assert_eq!((r.p50_ms, r.p99_ms), (2.0, 9.0));
        assert_eq!(r.rejected_share, 0.1);
        assert_eq!(r.pool_hit_ratio, 0.75);
        assert_eq!(r.depth_hwm, 3.0);
    }
}
