//! Spans recorded by the benchmark's own code around each call into a layer.
//!
//! Nothing outside `benchmark/` is instrumented. The span around the call is
//! measured; the span of the layer *below* the called one is reconstructed
//! from the time the call reports for it (`Answered::inner`) and placed at
//! the start of its parent. A layer's self time is its spans' duration minus
//! the part their children cover. Spans stay in memory during the run and are
//! written out once, at exit.

use crate::json::{number, quote};
use crate::surface::Work;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One span. The layer is the part of `name` before the first dot.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<layer>.<what>`, e.g. `engine.answer`.
    pub name: &'static str,
    /// Identifier shared by the spans of one op.
    pub op: u32,
    /// Pool position of the op's (first) query.
    pub query: u32,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Queries the span covers (64 for a batch call).
    pub queries: u32,
    /// Counted work at this boundary, where the call reports it.
    pub work: Option<Work>,
}

/// One measured call into a layer, as the workload loop saw it.
pub struct Op {
    /// `<layer>.<function>` that was called.
    pub call: &'static str,
    /// Pool position of the (first) query.
    pub query: usize,
    /// Just before the call.
    pub start: Instant,
    /// Just after it returned.
    pub end: Instant,
    /// Time the call reports for the layer below (already divided by the
    /// thread count for a parallel call).
    pub inner: Duration,
    /// Queries the call covered.
    pub queries: u32,
    /// Counted work the call reports.
    pub work: Work,
}

/// The in-memory span store of one traced phase.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    next_op: u32,
}

impl Tracer {
    /// An empty tracer; span times count from now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            next_op: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Records one op: the measured span of the layer call, and below it the
    /// reconstructed `method.answer` span of `inner` time.
    pub fn record_op(&mut self, op: Op) {
        let id = self.next_op;
        self.next_op += 1;
        let root = self.spans.len() as u32;
        let (start_ns, end_ns) = (self.ns(op.start), self.ns(op.end));
        self.spans.push(Span {
            name: op.call,
            op: id,
            query: op.query as u32,
            parent: None,
            start_ns,
            end_ns,
            queries: op.queries,
            work: Some(op.work),
        });
        self.spans.push(Span {
            name: "method.answer",
            op: id,
            query: op.query as u32,
            parent: Some(root),
            start_ns,
            end_ns: start_ns + (op.inner.as_nanos() as u64).min(end_ns - start_ns),
            queries: op.queries,
            work: None,
        });
    }

    /// Queries covered by the recorded ops.
    pub fn queries(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| u64::from(s.queries))
            .sum()
    }

    /// Self time per layer, in ns: each span's duration minus the part of it
    /// its children cover.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p as usize];
                let start = s.start_ns.max(parent.start_ns);
                let end = s.end_ns.min(parent.end_ns);
                covered[p as usize] += end.saturating_sub(start);
            }
        }
        let mut by_layer = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(covered) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *by_layer.entry(layer).or_insert(0) += own;
        }
        by_layer
    }

    /// Writes the spans as one JSON document.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"workload\": {}, \"seed\": {seed}, \"spans\": [",
            quote(workload)
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{{\"id\": {i}, \"name\": {}, \"op\": {}, \"query\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"queries\": {}",
                quote(s.name),
                s.op,
                s.query,
                s.start_ns,
                s.end_ns,
                s.queries
            )?;
            if let Some(w) = s.work {
                write!(
                    out,
                    ", \"raw_examined\": {}, \"lower_bounds\": {}, \"nodes\": {}, \"seq_pages\": {}, \"rand_pages\": {}, \"io_hdd_ms\": {}",
                    w.raw_examined,
                    w.lower_bounds,
                    w.nodes,
                    w.seq_pages,
                    w.rand_pages,
                    number(w.io_hdd_ms())
                )?;
            }
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(out, "}}{comma}")?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        let t0 = t.origin;
        let at = |us: u64| t0 + Duration::from_micros(us);
        // Call 10..90 µs, of which the method reported 50 µs.
        t.record_op(Op {
            call: "engine.answer",
            query: 3,
            start: at(10),
            end: at(90),
            inner: Duration::from_micros(50),
            queries: 1,
            work: Work::default(),
        });
        // A batch of 4: method time longer than the call is clipped to it.
        t.record_op(Op {
            call: "serve.answer",
            query: 64,
            start: at(100),
            end: at(190),
            inner: Duration::from_micros(500),
            queries: 4,
            work: Work::default(),
        });
        let own = t.self_ns_by_layer();
        assert_eq!(own["engine"], 30_000);
        assert_eq!(own["serve"], 0);
        assert_eq!(own["method"], 50_000 + 90_000);
        assert_eq!(
            own.values().sum::<u64>(),
            170_000,
            "self times tile the calls"
        );
        assert_eq!(t.queries(), 5);
    }

    #[test]
    fn written_trace_parses() {
        let mut t = Tracer::new();
        let t0 = t.origin;
        t.record_op(Op {
            call: "engine.answer",
            query: 41,
            start: t0,
            end: t0 + Duration::from_micros(8),
            inner: Duration::from_micros(5),
            queries: 1,
            work: Work {
                rand_pages: 3,
                ..Work::default()
            },
        });
        let dir =
            std::env::temp_dir().join(format!("hydra-benchmark-trace-{}", std::process::id()));
        let path = dir.join("trace.json");
        t.write(&path, "exact_serial", 7).unwrap();
        let doc = crate::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let spans = doc.get("spans").unwrap().items();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("rand_pages").unwrap().as_f64(), Some(3.0));
        assert_eq!(spans[1].get("query").unwrap().as_f64(), Some(41.0));
        assert_eq!(spans[0].get("parent"), Some(&crate::json::Value::Null));
        assert_eq!(spans[1].get("parent").unwrap().as_f64(), Some(0.0));
    }
}
