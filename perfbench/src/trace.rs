//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's calls into the engine's public layer
//! functions; nothing inside the engine is instrumented. Each span has a
//! name, start and end (ns since the recorder was made), its parent span
//! and the id of the workload call it belongs to. Spans stay in memory
//! and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub call: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` of workload call `call`; spans
    /// opened inside `f` become its children. Returns `f`'s result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        call: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, call });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Append `other`'s spans, shifting their times onto this recorder's
    /// clock and their parent ids past this recorder's spans.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let shift = |ns: u64| {
            let at = other.epoch + std::time::Duration::from_nanos(ns);
            at.saturating_duration_since(self.epoch).as_nanos() as u64
        };
        let moved: Vec<Span> = other
            .spans
            .into_iter()
            .map(|s| Span {
                start_ns: shift(s.start_ns),
                end_ns: shift(s.end_ns),
                parent: s.parent.map(|p| p + base),
                ..s
            })
            .collect();
        self.spans.extend(moved);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration and self time (duration minus the time its children
    /// cover) per span name, in ns, with the span count.
    pub fn by_name(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            let total = s.end_ns - s.start_ns;
            e.count += 1;
            e.total_ns += total;
            e.self_ns += total.saturating_sub(child);
        }
        out
    }
}

/// Spans as a JSON array.
pub fn spans_json(spans: &[Span]) -> String {
    let mut s = String::from("[");
    for (i, sp) in spans.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            s,
            "{sep}{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"parent\": {parent}, \"call\": {}}}",
            sp.name, sp.start_ns, sp.end_ns, sp.call
        );
    }
    s.push_str("\n]");
    s
}

#[derive(Default, Clone, Copy)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span("outer", 7, |t| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.span("inner", 7, |_| std::thread::sleep(std::time::Duration::from_millis(3)));
        });
        let by = t.by_name();
        let (outer, inner) = (by["outer"], by["inner"]);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].call, 7);
        assert_eq!(outer.total_ns, outer.self_ns + inner.total_ns);
        assert!(inner.self_ns >= 3_000_000 && outer.self_ns >= 2_000_000);
    }
}
