//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path repobench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path repobench/Cargo.toml -- compare <dir-a> <dir-b>
//! ```
//!
//! A run prints every metric by name with its unit, then, as its last line,
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the run
//! records spans around every call into a layer and reports the per-layer
//! metrics instead. Each run also leaves a record (with host facts) under
//! `.bench_out/records/`, and a traced run its spans under
//! `.bench_out/spans/`. `compare` sets two directories of records side by
//! side. See `repobench/README.md`.

#[global_allocator]
static ALLOC: qn_bench::counting_alloc::CountingAlloc = qn_bench::counting_alloc::CountingAlloc;

mod batch;
mod compare;
mod json;
mod model;
mod probes;
mod serve;
mod stats;
mod trace;
mod train;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;

/// End-to-end metrics (reported by `--trace 0` runs of every workload).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("samples_per_s", "1/s"),
    ("loss", "nats"),
    ("ok_share", "share"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (reported by `--trace 1` runs of every workload; a
/// layer the workload's traced run never calls reads 0).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = [
        ("serve.server_p50_ms", "ms"),
        ("serve.server_p99_ms", "ms"),
        ("serve.flush_deadline_share", "share"),
        ("serve.batch_mean", "samples"),
        ("serve.queue_depth_hwm", "count"),
        ("serve.rejected_share", "share"),
        ("serve.pool_hit_ratio", "share"),
        ("client.send_late_p99_ms", "ms"),
        ("client.rtt_p50_ms", "ms"),
        ("client.p99_ms_low", "ms"),
        ("client.p50_ms_high", "ms"),
        ("client.p99_ms_high", "ms"),
        ("model.predict_b1_ms", "ms"),
        ("model.predict_b2_ms", "ms"),
        ("model.predict_batch_ms", "ms"),
        ("model.predict_batch_1t_ms", "ms"),
        ("parallel.speedup", "ratio"),
        ("model.first_predict_ms", "ms"),
        ("ckpt.save_ms", "ms"),
        ("ckpt.load_mapped_ms", "ms"),
        ("ckpt.file_bytes", "bytes"),
        ("train.data_ms", "ms"),
        ("train.forward_ms", "ms"),
        ("train.backward_ms", "ms"),
        ("train.optim_ms", "ms"),
        ("train.tape_vs_eager", "ratio"),
        ("int8.calibrate_ms", "ms"),
        ("int8.weight_bytes", "bytes"),
        ("f32.weight_bytes", "bytes"),
        ("int8.top1_agree", "share"),
        ("alloc.per_predict", "count"),
        ("alloc.per_train_step", "count"),
        ("pool.hit_ratio", "share"),
        ("trace.overhead", "share"),
        ("trace.spans", "count"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for kind in ["linear", "quad"] {
        for stage in probes::STAGES {
            for b in ["b1", "b32"] {
                m.push((format!("conv.{kind}.{}.{b}.gmacs", stage.name), "GMAC/s"));
            }
        }
    }
    for dtype in ["f32", "i8"] {
        for stage in probes::STAGES {
            m.push((format!("gemm.{dtype}.{}.gflops", stage.name), "GFLOP/s"));
        }
    }
    for layer in trace::LAYERS {
        m.push((format!("self_ms.{layer}"), "ms"));
    }
    m
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServeQuad,
    TrainQuad,
    BatchLinear,
    BatchQuadInt8,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeQuad,
        Workload::TrainQuad,
        Workload::BatchLinear,
        Workload::BatchQuadInt8,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeQuad => "serve-quad",
            Workload::TrainQuad => "train-quad",
            Workload::BatchLinear => "batch-linear",
            Workload::BatchQuadInt8 => "batch-quad-int8",
        }
    }
}

/// What one run of a workload needs.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
}

/// What one run of a workload found.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Fails the run when any attempted operation failed.
    pub fn check_operations(&mut self, what: &str) {
        if self.failed > 0 {
            let msg = format!("{} of {} {what}", self.failed, self.attempted);
            self.problems.push(msg);
        }
    }

    /// Records an output check; a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// Facts about the host and build a record was made on. Two records are
/// comparable only when everything but `commit` and `source` agrees.
pub struct Host {
    pub nproc: usize,
    pub simd: &'static str,
    pub profile: &'static str,
    pub threads: usize,
    pub commit: String,
    pub source: String,
}

impl Host {
    fn probe() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            simd: qn_simd::SimdLevel::active().name(),
            profile: qn_simd::KernelProfile::active().name(),
            threads: qn_parallel::num_threads(),
            commit: git_commit().unwrap_or_else(|| "unknown".to_string()),
            source: source_digest(),
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"simd\":{},\"profile\":{},\"threads\":{},\"commit\":{},\"source\":{}}}",
            self.nproc,
            json::quote(self.simd),
            json::quote(self.profile),
            self.threads,
            json::quote(&self.commit),
            json::quote(&self.source),
        )
    }
}

/// The checked-out commit, read from `.git` when the checkout has one.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .ok()
            .map(|s| s.trim().to_string()),
        None => Some(head.to_string()),
    }
}

/// FNV-1a digest of the program's sources (`Cargo.*`, `src/`, `crates/`),
/// which identifies the code under test where no commit id is available.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("src"), &mut files);
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let Ok(bytes) = std::fs::read(f) else {
            continue;
        };
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

const USAGE: &str =
    "usage: repobench --workload <serve-quad|train-quad|batch-linear|batch-quad-int8> \
--seed <n> --seconds <s> --trace <0|1>\n       repobench compare <records-a> <records-b>";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match compare::run(&argv[1..]) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    qn_simd::force_profile(qn_simd::KernelProfile::Exact);
    // spawn the pool first: its threads are not part of any measurement
    let _ = qn_parallel::pool_threads();
    let host = Host::probe();
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
    };
    let mut report = match args.workload {
        Workload::ServeQuad => serve::run(&ctx),
        Workload::TrainQuad => train::run(&ctx),
        Workload::BatchLinear => batch::run(&ctx, false),
        Workload::BatchQuadInt8 => batch::run(&ctx, true),
    };

    let declared: Vec<(String, &'static str)> = if args.trace {
        let spans = ctx.tracer.spans();
        report.set("trace.spans", spans.len() as f64);
        let times = trace::layer_times(&spans);
        for layer in trace::LAYERS {
            let t = times.get(layer).copied().unwrap_or_default();
            report.set(&format!("self_ms.{layer}"), t.self_ms);
        }
        let path = PathBuf::from(format!(
            ".bench_out/spans/{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        if let Err(e) = trace::write_spans(&path, &spans) {
            eprintln!("could not write {}: {e}", path.display());
        }
        per_layer()
    } else {
        report.set("peak_rss_mb", stats::peak_rss_mib());
        report.set(
            "ok_share",
            (report.attempted - report.failed) as f64 / report.attempted.max(1) as f64,
        );
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    for name in report.metrics.keys() {
        assert!(
            declared.iter().any(|(n, _)| n == name),
            "metric {name} is not declared for this kind of run"
        );
    }
    report.check(report.attempted > 0, || {
        "the run attempted no operation".to_string()
    });
    let mut entries = Vec::with_capacity(declared.len());
    for (name, unit) in &declared {
        // a traced run reads 0 for layers its workload never calls
        let value = match report.metrics.get(name) {
            Some(&v) => v,
            None if args.trace => 0.0,
            None => f64::NAN,
        };
        if !value.is_finite() {
            report
                .problems
                .push(format!("metric {name} was not measured"));
        }
        println!("{name:<34} {value:>14.4} {unit}");
        entries.push(format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            json::quote(name),
            json::number(value),
            json::quote(unit)
        ));
    }
    for p in &report.problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = report.problems.is_empty();
    let metrics = format!("{{{}}}", entries.join(","));
    let record = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{},\
         \"correct\":{correct},\"attempted\":{},\"failed\":{},\"problems\":[{}],\"metrics\":{metrics}}}\n",
        json::quote(args.workload.name()),
        args.seed,
        json::number(args.seconds),
        u8::from(args.trace),
        host.json(),
        report.attempted,
        report.failed,
        report
            .problems
            .iter()
            .map(|p| json::quote(p))
            .collect::<Vec<_>>()
            .join(","),
    );
    let path = PathBuf::from(format!(
        ".bench_out/records/{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) =
        std::fs::create_dir_all(".bench_out/records").and_then(|()| std::fs::write(&path, record))
    {
        eprintln!("could not write {}: {e}", path.display());
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        report.attempted.max(1),
        report.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the program declare the same metrics and
    /// workloads.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = json::Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(json::Json::arr)
                .expect("a list")
                .iter()
                .map(|m| {
                    (
                        m.get("name")
                            .and_then(json::Json::str)
                            .expect("name")
                            .to_string(),
                        m.get("unit")
                            .and_then(json::Json::str)
                            .unwrap_or("")
                            .to_string(),
                    )
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layer: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), layer);
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        // serve-quad stays runnable but is not a benchmark workload: its
        // latency is too unsteady on a 2-vCPU host (see README.md)
        let ours: Vec<String> = Workload::ALL
            .iter()
            .filter(|&&w| w != Workload::ServeQuad)
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload train-quad --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid arguments");
        assert_eq!(a.workload, Workload::TrainQuad);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload train-quad --seed x --seconds 1 --trace 0",
            "--workload train-quad --seed 1 --seconds 0 --trace 0",
            "--workload train-quad --seed 1 --seconds 1 --trace 2",
            "--workload train-quad --seconds 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
