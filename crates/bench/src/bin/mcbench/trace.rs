//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded by the benchmark around calls into each layer's
//! public functions (nothing inside the library is instrumented). Each
//! span has a name, the op it belongs to, its parent span and its start
//! and end in nanoseconds since the tracer was created. Spans stay in
//! memory until the run ends and are then written as one JSON file.
//!
//! A span's *self time* is its duration minus the time its child spans
//! cover; self times of a tree never double-count.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The root span of one timed op. Its children are the layers the op
/// blocks on; the trace-coverage check sums their self times.
pub const OP: &str = "op";
/// Root of work done next to an op to decompose it (a shadow of a code
/// path, or direct calls to compare against a wrapped one). Never part
/// of an op's latency.
pub const PROBE: &str = "probe";

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Collects spans; one per traced pass.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

/// Aggregates of one span name over a pass.
#[derive(Clone, Debug, Default)]
pub struct SpanStats {
    pub calls: u64,
    pub self_ns: u64,
    pub durations_ns: Vec<u64>,
}

impl SpanStats {
    pub fn total_ns(&self) -> u64 {
        self.durations_ns.iter().sum()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Sets the op id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Per span: the summed duration of its direct children.
    fn child_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        child_ns
    }

    /// Per-name aggregates with self times, over the spans of the ops
    /// `keep` selects (indexed by op id).
    pub fn summary(&self, keep: &[bool]) -> BTreeMap<&'static str, SpanStats> {
        let child_ns = self.child_ns();
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if !kept(keep, s.op) {
                continue;
            }
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.self_ns += dur.saturating_sub(child_ns[i]);
            e.durations_ns.push(dur);
        }
        out
    }

    /// Mean over the ops `keep` selects of the summed self time of every
    /// span under an [`OP`] root (the root's own self time — gaps between
    /// layer calls — excluded), in nanoseconds.
    pub fn layer_ns_per_op(&self, keep: &[bool]) -> f64 {
        let child_ns = self.child_ns();
        let mut under_op = vec![false; self.spans.len()];
        let (mut ops, mut total) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            if !kept(keep, s.op) {
                continue;
            }
            match s.parent {
                None => ops += u64::from(s.name == OP),
                Some(p) => {
                    under_op[i] = under_op[p] || self.spans[p].name == OP;
                    if under_op[i] {
                        total += (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
                    }
                }
            }
        }
        total as f64 / ops.max(1) as f64
    }

    /// The trace file: a name table plus one
    /// `[id, parent, op, name_index, start_ns, end_ns]` row per span
    /// (`parent` is -1 for a root).
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut names: Vec<&str> = Vec::new();
        let mut index: BTreeMap<&str, usize> = BTreeMap::new();
        for s in &self.spans {
            index.entry(s.name).or_insert_with(|| {
                names.push(s.name);
                names.len() - 1
            });
        }
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \
             \"columns\": [\"id\", \"parent\", \"op\", \"name\", \"start_ns\", \"end_ns\"], \
             \"names\": ["
        );
        for (i, n) in names.iter().enumerate() {
            let _ = write!(out, "{}\"{n}\"", if i == 0 { "" } else { ", " });
        }
        out.push_str("],\n\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "[{i},{parent},{},{},{},{}]{}",
                s.op,
                index[s.name],
                s.start_ns,
                s.end_ns,
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push_str("]}\n");
        out
    }
}

fn kept(keep: &[bool], op: u64) -> bool {
    usize::try_from(op)
        .ok()
        .and_then(|i| keep.get(i))
        .copied()
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {}
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span(OP, |t| {
            t.span("outer", |t| {
                spin(200_000);
                t.span("inner", |_| spin(300_000));
            });
        });
        let s = t.summary(&[true]);
        let outer = &s["outer"];
        let inner = &s["inner"];
        assert_eq!(outer.calls, 1);
        assert!(inner.self_ns >= 300_000);
        assert!(outer.self_ns >= 200_000);
        assert_eq!(outer.self_ns + inner.self_ns, outer.durations_ns[0]);
        // Only spans under an op root count towards the op's layers.
        let per_op = t.layer_ns_per_op(&[true]);
        assert_eq!(per_op as u64, outer.durations_ns[0]);
    }

    #[test]
    fn probe_spans_are_not_op_layers() {
        let mut t = Tracer::new();
        t.span(OP, |t| t.span("a", |_| spin(100_000)));
        t.span(PROBE, |t| t.span("b", |_| spin(100_000)));
        let a = t.summary(&[true])["a"].self_ns;
        assert_eq!(t.layer_ns_per_op(&[true]) as u64, a);
        assert!(
            t.summary(&[false]).is_empty(),
            "unkept ops contribute nothing"
        );
    }

    #[test]
    fn trace_json_lists_every_span() {
        let mut t = Tracer::new();
        t.set_op(5);
        t.span(OP, |t| t.span("x", |_| ()));
        let json = t.to_json("w", 1);
        let v = crate::json::parse(&json).expect("valid JSON");
        let spans = v.get("spans").and_then(|s| s.as_array()).expect("spans");
        assert_eq!(spans.len(), 2);
        let second = spans[1].as_array().expect("row");
        assert_eq!(second[1].as_f64(), Some(0.0), "parent is the op root");
        assert_eq!(second[2].as_f64(), Some(5.0), "op id");
    }
}
