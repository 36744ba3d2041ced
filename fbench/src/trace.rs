//! In-memory spans for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer's
//! public functions, kept in memory while the run measures, and written
//! out as JSON lines when it ends. A span's *self time* is its duration
//! minus the part of it covered by its children.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// The scenario or request the span belongs to.
    pub id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder: `enter` opens a span under the innermost
/// open one, `exit` closes it.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its handle for [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, id: u64) -> usize {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            id,
        });
        self.open.push(index);
        index
    }

    /// Closes the span `enter` returned (spans close innermost first).
    pub fn exit(&mut self, index: usize) {
        let end = self.now_ns();
        self.spans[index].end_ns = end;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(index), "spans must close innermost first");
    }

    /// Times `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let span = self.enter(name, id);
        let result = f();
        self.exit(span);
        result
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-span self time: duration minus the union of the children's
/// intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Call count and total self time of every span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub calls: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let selfs = self_times(spans);
    let mut totals: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(selfs) {
        let entry = totals.entry(span.name).or_default();
        entry.calls += 1;
        entry.self_ns += self_ns;
    }
    totals
}

/// Writes spans as JSON lines (`name`, `start_us`, `end_us`, `parent`,
/// `id`; `parent` is a line index within the same `group`).
pub fn write_jsonl(path: &Path, groups: &[(String, &[Span])]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (group, spans) in groups {
        for span in spans.iter() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"group\":\"{group}\",\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"id\":{}}}",
                span.name,
                span.start_ns as f64 / 1e3,
                span.end_ns as f64 / 1e3,
                span.id
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 50, Some(0)),  // overlaps a: union is 10..50
            span("c", 90, 120, Some(0)), // clipped to 90..100
            span("leaf", 15, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 25, 20, 30, 5]);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["root"].self_ns, 50);
        assert_eq!(totals["a"].calls, 1);
    }

    #[test]
    fn tracer_nests_spans() {
        let mut tracer = Tracer::new(crate::sys::now());
        let outer = tracer.enter("outer", 7);
        tracer.time("inner", 7, || std::hint::black_box(1 + 1));
        tracer.exit(outer);
        let spans = tracer.into_spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
