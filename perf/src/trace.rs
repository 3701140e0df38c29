//! Spans recorded around calls into each layer.
//!
//! Spans are kept in memory and written out once, after the traced pass.
//! A span is opened and closed around a whole stage of one query — never
//! around a single probe — so the two clock reads it costs stay off the
//! per-entry path.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Version of the trace line schema (`trace-W.jsonl`).
pub const TRACE_SCHEMA: u32 = 1;

/// `{name, start_ns, end_ns, parent, query_id}`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The query (or ingest batch) this span belongs to.
    pub query_id: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder with a stack of open spans.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
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

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span, and returns its result with the span's duration in ns.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        query_id: u32,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, u64) {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            query_id,
        });
        self.open.push(id);
        // Read the clock last before and first after the work, so the
        // recorder's own bookkeeping stays outside the span.
        let start = self.now_ns();
        let value = f(self);
        let end = self.now_ns();
        self.open.pop();
        let span = &mut self.spans[id as usize];
        span.start_ns = start;
        span.end_ns = end;
        (value, end - start)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span, preceded by a schema line.
    pub fn write_jsonl(&self, path: &Path, workload: &str, seed: u64) -> io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"trace_schema\":{TRACE_SCHEMA},\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":{}}}",
            self.spans.len()
        )?;
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or("null".to_string(), |parent| parent.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"query_id\":{}}}",
                span.name, span.start_ns, span.end_ns, span.query_id
            )?;
        }
        out.flush()
    }
}

/// Total duration and count of the spans named `name`.
pub fn total_ns(spans: &[Span], name: &str) -> (u64, u64) {
    spans
        .iter()
        .filter(|span| span.name == name)
        .fold((0, 0), |(total, count), span| {
            (total + span.duration_ns(), count + 1)
        })
}

/// Total self time of the spans named `name`: a span's self time is its
/// duration minus the part its child spans cover. Children of one parent
/// never overlap here (one client thread), so the covered part is the sum
/// of their durations.
pub fn total_self_ns(spans: &[Span], name: &str) -> u64 {
    // One pass: subtract every child's duration from its parent's tally.
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent as usize] = own[parent as usize].saturating_sub(span.duration_ns());
        }
    }
    spans
        .iter()
        .zip(own)
        .filter(|(span, _)| span.name == name)
        .map(|(_, own)| own)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            query_id: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("query", 0, 100, None),
            span("staged", 10, 70, Some(0)),
            span("label", 10, 30, Some(1)),
            span("probe", 30, 65, Some(1)),
            span("answer", 70, 95, Some(0)),
        ];
        // query: 100 - (60 + 25); staged: 60 - (20 + 35); leaves keep all.
        assert_eq!(total_self_ns(&spans, "query"), 15);
        assert_eq!(total_self_ns(&spans, "staged"), 5);
        assert_eq!(total_self_ns(&spans, "label"), 20);
        assert_eq!(total_ns(&spans, "probe"), (35, 1));
        // Grandchildren are not subtracted twice: self times tile the root.
        let names = ["query", "staged", "label", "probe", "answer"];
        let tiled: u64 = names.iter().map(|name| total_self_ns(&spans, name)).sum();
        assert_eq!(tiled, 100);
    }

    #[test]
    fn tracer_nests_spans_under_the_open_one() {
        let mut tracer = Tracer::new();
        tracer.span("query", 7, |t| {
            t.span("cover", 7, |_| ());
            t.span("staged", 7, |t| {
                t.span("label", 7, |_| ());
            });
        });
        tracer.span("query", 8, |_| ());
        let spans = tracer.spans();
        let shape: Vec<_> = spans
            .iter()
            .map(|s| (s.name, s.parent, s.query_id))
            .collect();
        assert_eq!(
            shape,
            vec![
                ("query", None, 7),
                ("cover", Some(0), 7),
                ("staged", Some(0), 7),
                ("label", Some(2), 7),
                ("query", None, 8),
            ]
        );
        for span in spans {
            assert!(span.start_ns <= span.end_ns);
            if let Some(parent) = span.parent {
                let parent = &spans[parent as usize];
                assert!(parent.start_ns <= span.start_ns && span.end_ns <= parent.end_ns);
            }
        }
    }
}
