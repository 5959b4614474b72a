//! What every bench binary shares: the host facts a record carries, and the
//! collector that times, records and writes one `BENCH_*.json`.

// Each bench binary compiles this module on its own and uses part of it.
#![allow(dead_code)]

use qn_bench::{measure, Host, Record, Stats};

/// The host facts in effect on the calling thread.
pub fn host() -> Host {
    Host {
        cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        simd: qn_simd::SimdLevel::active().name(),
        profile: qn_simd::KernelProfile::active().name(),
        threads: qn_parallel::num_threads(),
    }
}

/// The records of one bench run.
pub struct Bench {
    name: &'static str,
    /// Whether this is a smoke run ([`qn_bench::smoke`]).
    pub smoke: bool,
    records: Vec<Record>,
}

impl Bench {
    /// An empty run of the bench that writes `BENCH_<name>.json`.
    pub fn new(name: &'static str) -> Bench {
        Bench {
            name,
            smoke: qn_bench::smoke(),
            records: Vec::new(),
        }
    }

    /// Times `samples` calls of `f` ([`measure`]) with the pool capped at
    /// `threads` and records them as `case`.
    pub fn time(
        &mut self,
        case: impl Into<String>,
        threads: usize,
        samples: usize,
        f: impl FnMut(),
    ) -> &mut Record {
        let (stats, host) =
            qn_parallel::with_max_threads(threads, || (measure(samples, f), host()));
        self.push(case, host, Some(stats))
    }

    /// Records `case` with timings taken elsewhere, or none; the caller
    /// adds its metrics.
    pub fn record(&mut self, case: impl Into<String>, stats: Option<Stats>) -> &mut Record {
        self.push(case, host(), stats)
    }

    fn push(&mut self, case: impl Into<String>, host: Host, stats: Option<Stats>) -> &mut Record {
        self.records.push(Record {
            bench: self.name,
            case: case.into(),
            host,
            smoke: self.smoke,
            stats,
            metrics: Vec::new(),
        });
        self.records.last_mut().expect("just pushed")
    }

    /// Prints every record and writes them to [`qn_bench::record_path`].
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written.
    pub fn write(&self) {
        for r in &self.records {
            eprintln!("{}", r.to_json());
        }
        match qn_bench::write(&self.records) {
            Ok(path) => eprintln!("recorded {}", path.display()),
            Err(e) => panic!("could not write the {} records: {e}", self.name),
        }
    }
}
