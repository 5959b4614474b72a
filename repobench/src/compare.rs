//! `compare <records-a> <records-b>`: sets two directories of run records
//! side by side, one row per workload and end-to-end metric, judged by the
//! bounds in `BENCHMARK.json`. Records made on hosts with different facts
//! (CPUs, SIMD level, kernel profile, threads) are refused.

use crate::json::Json;
use crate::stats::median;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

struct Record {
    workload: String,
    host: String,
    metrics: BTreeMap<String, f64>,
}

/// The host facts two records must share to be compared.
fn host_key(doc: &Json) -> Result<String, String> {
    let host = doc.get("host").ok_or("record has no host facts")?;
    let field = |k: &str| {
        host.get(k)
            .map(|v| match v {
                Json::Str(s) => s.clone(),
                Json::Num(n) => n.to_string(),
                _ => String::new(),
            })
            .ok_or_else(|| format!("record host facts lack {k}"))
    };
    Ok(format!(
        "nproc={} simd={} profile={} threads={}",
        field("nproc")?,
        field("simd")?,
        field("profile")?,
        field("threads")?
    ))
}

fn load(dir: &Path) -> Result<Vec<Record>, String> {
    let rd = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut out = Vec::new();
    for entry in rd.flatten() {
        let p = entry.path();
        if p.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))?;
        if doc.get("trace").and_then(Json::num) != Some(0.0) {
            continue;
        }
        if doc.get("correct") != Some(&Json::Bool(true)) {
            return Err(format!(
                "{} is a run whose output checks failed",
                p.display()
            ));
        }
        let metrics = doc
            .get("metrics")
            .and_then(Json::obj)
            .ok_or_else(|| format!("{}: no metrics", p.display()))?
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.num()?)))
            .collect();
        out.push(Record {
            workload: doc
                .get("workload")
                .and_then(Json::str)
                .ok_or_else(|| format!("{}: no workload", p.display()))?
                .to_string(),
            host: host_key(&doc).map_err(|e| format!("{}: {e}", p.display()))?,
            metrics,
        });
    }
    if out.is_empty() {
        return Err(format!("{} holds no untraced run records", dir.display()));
    }
    Ok(out)
}

/// `(name, better is lower, bound)` of every end-to-end metric.
fn bounds() -> Result<Vec<(String, bool, f64)>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = Json::parse(&text)?;
    doc.get("end_to_end")
        .and_then(Json::arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Ok((
                m.get("name")
                    .and_then(Json::str)
                    .ok_or("metric without name")?
                    .to_string(),
                m.get("better").and_then(Json::str) == Some("lower"),
                m.get("bound")
                    .and_then(Json::num)
                    .ok_or("metric without bound")?,
            ))
        })
        .collect()
}

/// Interquartile range of `xs` as a share of its median, with quartiles
/// interpolated as Python's `statistics.quantiles(xs, n=4)` does.
fn spread(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.len() < 2 {
        return 0.0;
    }
    let m = v.len() + 1;
    let quartile = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (quartile(3) - quartile(1)) / quartile(2).abs().max(f64::MIN_POSITIVE)
}

pub fn run(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: compare <records-a> <records-b>".to_string());
    };
    let (ra, rb) = (load(Path::new(a))?, load(Path::new(b))?);
    let hosts: std::collections::BTreeSet<&str> =
        ra.iter().chain(&rb).map(|r| r.host.as_str()).collect();
    if hosts.len() > 1 {
        return Err(format!(
            "refusing to compare records from different hosts: {}",
            hosts.into_iter().collect::<Vec<_>>().join(" | ")
        ));
    }
    let bounds = bounds()?;
    let workloads: std::collections::BTreeSet<&str> =
        ra.iter().map(|r| r.workload.as_str()).collect();
    let mut regressed = false;
    println!(
        "{:<16} {:<14} {:>12} {:>12} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "median a", "median b", "worse", "bound", "spread"
    );
    for w in workloads {
        for (name, lower, bound) in &bounds {
            let values = |rs: &[Record]| -> Vec<f64> {
                rs.iter()
                    .filter(|r| r.workload == w)
                    .filter_map(|r| r.metrics.get(name).copied())
                    .collect()
            };
            let (va, vb) = (values(&ra), values(&rb));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            // how much worse b is than a, as a share of a
            let worse = if *lower { mb / ma - 1.0 } else { 1.0 - mb / ma };
            let s = spread(&va).max(spread(&vb));
            let verdict = if name == "setup_s" || s <= *bound {
                if worse > *bound {
                    regressed = true;
                    "WORSE"
                } else {
                    "ok"
                }
            } else {
                "unresolved (spread above bound)"
            };
            println!(
                "{w:<16} {name:<14} {ma:>12.4} {mb:>12.4} {:>7.1}% {:>6.0}% {:>6.1}%  {verdict}",
                worse * 100.0,
                bound * 100.0,
                s * 100.0
            );
        }
    }
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_key_ignores_the_commit() {
        let a = Json::parse(
            r#"{"host":{"nproc":2,"simd":"avx2","profile":"exact","threads":2,"commit":"a"}}"#,
        )
        .expect("valid");
        let b = Json::parse(
            r#"{"host":{"nproc":2,"simd":"avx2","profile":"exact","threads":2,"commit":"b"}}"#,
        )
        .expect("valid");
        let c = Json::parse(
            r#"{"host":{"nproc":2,"simd":"sse2","profile":"exact","threads":2,"commit":"a"}}"#,
        )
        .expect("valid");
        assert_eq!(host_key(&a), host_key(&b));
        assert_ne!(host_key(&a), host_key(&c));
    }

    #[test]
    fn spread_is_the_interquartile_range_over_the_median() {
        // statistics.quantiles(range(1, 9), n=4) == [2.25, 4.5, 6.75]
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        assert!((spread(&xs) - (6.75 - 2.25) / 4.5).abs() < 1e-12);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ys: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ys) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // [10, 11, 12, 20]: quartiles 10.25, 11.5, 18
        assert!((spread(&[12.0, 10.0, 20.0, 11.0]) - (18.0 - 10.25) / 11.5).abs() < 1e-12);
    }
}
