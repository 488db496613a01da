//! In-memory span recorder for the traced run.
//!
//! Every timed call into a layer is one span: name, start, end, and the
//! span that was open when it started. Spans stay in memory and are written
//! out once, at exit. A per-layer metric is the median duration of the
//! spans that share its name; a span's self time is its duration minus the
//! part its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub rep: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &str, rep: u32) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            rep,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end_ns;
    }

    /// Time one call as a span; returns the call's result.
    pub fn time<T>(&mut self, name: &str, rep: u32, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, rep);
        let out = f();
        self.exit(id);
        out
    }

    /// Run `f` inside a span that groups whatever `f` records.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let id = self.enter(name, 0);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// The trace file: every span with its self time.
    pub fn to_json(&self, workload: &str) -> String {
        let selfs = self_times_ns(&self.spans);
        let mut out = String::with_capacity(self.spans.len() * 96);
        let _ = write!(out, "{{\"workload\":\"{workload}\",\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"workload\":\"{workload}\",\"rep\":{},\"self_ns\":{}}}",
                s.name, s.start_ns, s.end_ns, s.rep, selfs[i]
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time per span: duration minus the time covered by direct children.
/// Children of one parent never overlap here (one recording thread), so
/// their durations simply add.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Total self time per span name, in seconds, largest first.
pub fn self_time_by_name_s(spans: &[Span]) -> Vec<(String, f64)> {
    let mut by_name: BTreeMap<&str, u64> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        *by_name.entry(&s.name).or_default() += ns;
    }
    let mut out: Vec<(String, f64)> = by_name
        .into_iter()
        .map(|(n, ns)| (n.to_string(), ns as f64 / 1e9))
        .collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 50, 90, Some(0)),
            span("a.inner", 15, 25, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 40, 10]);
        let by_name = self_time_by_name_s(&spans);
        assert_eq!(by_name[0].0, "b");
        let total: f64 = by_name.iter().map(|(_, s)| s).sum();
        assert!(
            (total - 100e-9).abs() < 1e-15,
            "self times add up to the root"
        );
    }

    #[test]
    fn recorder_nests_and_names() {
        let mut sp = Spans::new();
        let root = sp.enter("root", 0);
        let v = sp.time("leaf", 3, || 7);
        sp.time("leaf", 4, || ());
        sp.exit(root);
        assert_eq!(v, 7);
        assert_eq!(sp.all().len(), 3);
        assert_eq!(sp.all()[1].parent, Some(root));
        assert_eq!(sp.all()[1].rep, 3);
        assert_eq!(sp.durations_us("leaf").len(), 2);
        assert!(sp.all()[0].duration_ns() >= sp.all()[1].duration_ns());
        let json = sp.to_json("w");
        assert!(json.contains("\"name\":\"leaf\"") && json.contains("\"self_ns\":"));
    }
}
