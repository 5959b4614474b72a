//! The one bench harness behind every `BENCH_*.json` record: a per-call
//! timer with a spread ([`measure`] → [`Stats`]), one record schema
//! ([`Record`]), one writer ([`write()`]) and the smoke switch ([`smoke`]).
//!
//! The crate has no dependencies — the repository benchmark links
//! [`counting_alloc`] — so host facts reach a [`Record`] as plain values
//! from the bench binaries.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub mod counting_alloc;

/// Order statistics of repeated timings, in seconds.
///
/// Quartiles rather than a p90: at the 5–40 samples a bench takes, fewer
/// than ten samples would lie beyond a p90.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Number of samples.
    pub n: usize,
    /// Fastest sample.
    pub min: f64,
    /// Lower quartile.
    pub p25: f64,
    /// Median.
    pub median: f64,
    /// Upper quartile.
    pub p75: f64,
}

impl Stats {
    /// Order statistics of `samples` (any order).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn from_samples(mut samples: Vec<f64>) -> Stats {
        assert!(!samples.is_empty(), "Stats needs at least one sample");
        samples.sort_by(f64::total_cmp);
        Stats {
            n: samples.len(),
            min: samples[0],
            p25: quantile(&samples, 0.25),
            median: quantile(&samples, 0.5),
            p75: quantile(&samples, 0.75),
        }
    }
}

/// The `q`-quantile of the ascending, non-empty `sorted`, interpolated
/// linearly between neighbouring order statistics (so the median of an
/// even count is the mean of the middle two).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let h = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

/// Times each of `samples` calls of `f` on its own, after one untimed
/// warm-up call.
///
/// # Panics
///
/// Panics if `samples == 0`: there would be no timing to record.
pub fn measure(samples: usize, mut f: impl FnMut()) -> Stats {
    assert!(samples > 0, "measure needs at least one timed sample");
    f();
    let times = (0..samples)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    Stats::from_samples(times)
}

/// Whether this is a CI-sized smoke run: `QN_SMOKE=1`. Any other value,
/// or none, is a full run.
pub fn smoke() -> bool {
    std::env::var("QN_SMOKE").as_deref() == Ok("1")
}

/// The machine and configuration a record was measured under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Host {
    /// Logical CPUs available to the process.
    pub cpus: usize,
    /// Active SIMD dispatch level (`scalar`, `sse2`, `avx2`).
    pub simd: &'static str,
    /// Active kernel profile (`exact`, `fast`).
    pub profile: &'static str,
    /// Pool threads the measured call could use.
    pub threads: usize,
}

/// One measured case of one bench: the single schema of every
/// `BENCH_*.json` line.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// The bench; names the file, `BENCH_<bench>.json`.
    pub bench: &'static str,
    /// What was measured, unique within the bench.
    pub case: String,
    /// Where and how it was measured.
    pub host: Host,
    /// Measured at the CI-sized configuration.
    pub smoke: bool,
    /// Per-call timings; `None` for a case that records only metrics.
    pub stats: Option<Stats>,
    /// Further named numbers (counts, ratios, throughputs), in order.
    pub metrics: Vec<(String, f64)>,
}

impl Record {
    /// Appends the metric `name = value`.
    pub fn metric(&mut self, name: impl Into<String>, value: f64) -> &mut Record {
        self.metrics.push((name.into(), value));
        self
    }

    /// Median seconds per call.
    ///
    /// # Panics
    ///
    /// Panics if the record is untimed.
    pub fn median(&self) -> f64 {
        self.stats.expect("an untimed record has no median").median
    }

    /// The record as one line of JSON. Timings are in seconds; a
    /// non-finite number is written as `null`.
    pub fn to_json(&self) -> String {
        let h = &self.host;
        let mut out = format!(
            "{{\"bench\":{},\"case\":{},\"host\":{{\"cpus\":{},\"simd\":{},\"profile\":{},\
             \"threads\":{}}},\"smoke\":{},\"stats\":",
            json_str(self.bench),
            json_str(&self.case),
            h.cpus,
            json_str(h.simd),
            json_str(h.profile),
            h.threads,
            self.smoke,
        );
        match &self.stats {
            Some(s) => {
                let _ = write!(
                    out,
                    "{{\"n\":{},\"min_s\":{},\"p25_s\":{},\"median_s\":{},\"p75_s\":{}}}",
                    s.n,
                    json_num(s.min),
                    json_num(s.p25),
                    json_num(s.median),
                    json_num(s.p75)
                );
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"metrics\":{");
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}{}:{}", json_str(name), json_num(*value));
        }
        out.push_str("}}");
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "null".to_string()
    }
}

/// Where `bench`'s records go: `BENCH_<bench>.json` at the repository
/// root, or for a smoke run the git-ignored `target/bench-smoke/`, so a
/// CI-sized run never overwrites a committed record.
pub fn record_path(bench: &str, smoke: bool) -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let file = format!("BENCH_{bench}.json");
    if smoke {
        root.join("target/bench-smoke").join(file)
    } else {
        root.join(file)
    }
}

/// Writes `records` as a JSON array, one record per line, to
/// [`record_path`] and returns that path.
///
/// # Panics
///
/// Panics if `records` is empty or mixes benches or smoke flags.
pub fn write(records: &[Record]) -> io::Result<PathBuf> {
    let first = records.first().expect("write needs at least one record");
    assert!(
        records
            .iter()
            .all(|r| r.bench == first.bench && r.smoke == first.smoke),
        "one file holds the records of one bench run"
    );
    let path = record_path(first.bench, first.smoke);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let lines: Vec<String> = records
        .iter()
        .map(|r| format!("  {}", r.to_json()))
        .collect();
    std::fs::write(&path, format!("[\n{}\n]\n", lines.join(",\n")))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(case: &str) -> Record {
        Record {
            bench: "unit",
            case: case.to_string(),
            host: Host {
                cpus: 3,
                simd: "sse2",
                profile: "fast",
                threads: 2,
            },
            smoke: true,
            stats: Some(Stats::from_samples(vec![0.5])),
            metrics: Vec::new(),
        }
    }

    #[test]
    fn stats_of_one_sample_are_that_sample() {
        let s = Stats::from_samples(vec![5.0]);
        assert_eq!(
            s,
            Stats {
                n: 1,
                min: 5.0,
                p25: 5.0,
                median: 5.0,
                p75: 5.0
            }
        );
    }

    #[test]
    fn stats_of_an_even_count_interpolate() {
        let s = Stats::from_samples(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(
            s,
            Stats {
                n: 4,
                min: 1.0,
                p25: 1.75,
                median: 2.5,
                p75: 3.25
            }
        );
    }

    #[test]
    fn stats_of_an_odd_count_are_order_statistics() {
        let s = Stats::from_samples(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(
            s,
            Stats {
                n: 5,
                min: 1.0,
                p25: 2.0,
                median: 3.0,
                p75: 4.0
            }
        );
    }

    #[test]
    fn measure_times_every_sample_after_a_warmup() {
        let mut calls = 0;
        let s = measure(7, || calls += 1);
        assert_eq!((s.n, calls), (7, 8));
        assert!(s.min <= s.p25 && s.p25 <= s.median && s.median <= s.p75);
    }

    #[test]
    #[should_panic(expected = "at least one timed sample")]
    fn measure_of_zero_samples_panics() {
        measure(0, || {});
    }

    #[test]
    fn smoke_is_exactly_qn_smoke_1() {
        // the only test in this crate that touches QN_SMOKE
        for (value, want) in [(Some("1"), true), (Some("0"), false), (None, false)] {
            match value {
                Some(v) => std::env::set_var("QN_SMOKE", v),
                None => std::env::remove_var("QN_SMOKE"),
            }
            assert_eq!(smoke(), want, "QN_SMOKE={value:?}");
        }
        std::env::remove_var("QN_SMOKE");
    }

    #[test]
    fn case_names_are_escaped() {
        let json = record("a \"quoted\" \\ case\n").to_json();
        assert!(
            json.contains(r#""case":"a \"quoted\" \\ case\u000a""#),
            "{json}"
        );
    }

    #[test]
    fn every_record_carries_the_host_facts() {
        let mut timed = record("timed");
        timed.metric("gflops", 1.5).metric("nan", f64::NAN);
        let untimed = Record {
            stats: None,
            ..record("untimed")
        };
        let host = r#""host":{"cpus":3,"simd":"sse2","profile":"fast","threads":2}"#;
        for r in [&timed, &untimed] {
            assert!(r.to_json().contains(host), "{}", r.to_json());
        }
        assert!(timed.to_json().ends_with(
            r#""stats":{"n":1,"min_s":0.5,"p25_s":0.5,"median_s":0.5,"p75_s":0.5},"metrics":{"gflops":1.5,"nan":null}}"#
        ));
        assert!(untimed.to_json().ends_with(r#""stats":null,"metrics":{}}"#));
    }

    #[test]
    fn a_smoke_record_never_resolves_to_a_committed_path() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let gitignore = std::fs::read_to_string(root.join(".gitignore")).expect(".gitignore");
        assert!(gitignore.lines().any(|l| l.trim() == "/target"));
        for bench in ["gemm", "alloc", "serving", "costs"] {
            let smoke = record_path(bench, true);
            assert!(smoke.starts_with(root.join("target")), "{smoke:?}");
            assert_eq!(
                record_path(bench, false),
                root.join(format!("BENCH_{bench}.json"))
            );
        }
    }
}
