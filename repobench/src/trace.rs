//! In-memory spans around every call the benchmark makes into a layer.
//!
//! A disabled tracer costs one branch per call site. An enabled one keeps
//! each span (name, start, end, parent, request id) in memory; the run
//! writes them out when it ends and reduces them to per-layer self times.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Span names, one per layer boundary the benchmark crosses. The per-layer
/// metric `self_ms.<name>` exists for each of them.
pub const LAYERS: [&str; 16] = [
    "serve_start",
    "serve_request",
    "serve_metrics",
    "ckpt_save",
    "ckpt_load",
    "predict",
    "predict_batch",
    "quantize",
    "train_classifier",
    "data",
    "forward",
    "backward",
    "sgd",
    "conv",
    "gemm",
    "gemm_i8",
];

/// One closed span; times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// `0` for a root span.
    pub parent: u64,
    /// Request id (`0` when the span serves no single request).
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

thread_local! {
    /// Open spans on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name`, child of this thread's
    /// innermost open span.
    pub fn span<R>(&self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let parent = self.current();
        OPEN.with(|o| o.borrow_mut().push(id));
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        OPEN.with(|o| o.borrow_mut().pop());
        self.push(id, parent, request, name, start, end);
        r
    }

    /// Records a span timed by the caller, child of this thread's innermost
    /// open span.
    pub fn record(&self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if self.on {
            let id = self.next.fetch_add(1, Ordering::Relaxed);
            self.push(id, self.current(), request, name, start, end);
        }
    }

    /// The innermost open span on this thread (`0` when none).
    pub fn current(&self) -> u64 {
        OPEN.with(|o| o.borrow().last().copied().unwrap_or(0))
    }

    /// Runs `f` on this thread as if span `parent` (opened on another
    /// thread) were open, so the spans `f` records name it as their cause.
    pub fn adopt<R>(&self, parent: u64, f: impl FnOnce() -> R) -> R {
        if !self.on || parent == 0 {
            return f();
        }
        OPEN.with(|o| o.borrow_mut().push(parent));
        let r = f();
        OPEN.with(|o| o.borrow_mut().pop());
        r
    }

    fn push(&self, id: u64, parent: u64, request: u64, name: &'static str, s: Instant, e: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            request,
            name,
            start_ns: ns(s),
            end_ns: ns(e),
        };
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// All closed spans, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}

/// Per-name totals of a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub calls: u64,
    pub total_ms: f64,
    /// Total duration minus the part of each span its children cover.
    pub self_ms: f64,
}

/// Reduces spans to per-name call counts, total and self times.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.total_ms += dur as f64 / 1e6;
        e.self_ms += dur.saturating_sub(covered) as f64 / 1e6;
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`. Children on
/// other threads may overlap each other, so they are merged first.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Writes spans as JSON lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, "forward", 0, 10_000_000),
            // two overlapping children (other threads) and one disjoint
            span(2, 1, "gemm", 1_000_000, 4_000_000),
            span(3, 1, "gemm", 3_000_000, 5_000_000),
            span(4, 1, "conv", 8_000_000, 12_000_000),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["forward"].calls, 1);
        assert!((t["forward"].total_ms - 10.0).abs() < 1e-9);
        // covered: [1,5) + [8,10) = 6 ms
        assert!((t["forward"].self_ms - 4.0).abs() < 1e-9);
        assert_eq!(t["gemm"].calls, 2);
        assert!((t["gemm"].self_ms - 5.0).abs() < 1e-9);
    }

    #[test]
    fn nested_spans_name_their_parent() {
        let tracer = Tracer::new(true);
        tracer.span("forward", 7, || {
            tracer.span("gemm", 7, || {});
            let outer = tracer.current();
            std::thread::scope(|s| {
                s.spawn(|| tracer.adopt(outer, || tracer.span("conv", 8, || {})));
            });
        });
        let spans = tracer.spans();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).expect("span recorded");
        let fwd = by_name("forward");
        assert_eq!(fwd.parent, 0);
        assert_eq!(by_name("gemm").parent, fwd.id);
        assert_eq!(by_name("conv").parent, fwd.id);
        assert_eq!(by_name("conv").request, 8);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let v = tracer.span("forward", 1, || 42);
        assert_eq!(v, 42);
        assert!(tracer.spans().is_empty());
    }
}
