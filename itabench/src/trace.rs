//! Spans recorded around the calls the benchmark makes into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the run's
//! epoch), an optional parent span and an optional subject: the document or
//! query id the call was about. Spans stay in memory while the run measures
//! and are written out as JSON lines when it ends. A disabled tracer records
//! nothing, so untraced runs pay one branch per call site.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span (its position in the trace).
pub type SpanId = u32;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Call or phase name: `generate`, `offer`, `pump`, `process`, …
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// The document or query id the call concerned, if any.
    pub subject: Option<u64>,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts recording from now on (the traced phase of a run).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Records a span over `[start, end]`. Call sites that time a call for
    /// their own metrics pass the same instants, so a traced call is timed
    /// once.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        subject: Option<u64>,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let id = SpanId::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            name,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
            parent,
            subject,
        });
        Some(id)
    }

    /// Opens a span whose end is not known yet (a phase enclosing other
    /// spans); close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        let now = Instant::now();
        self.record(name, now, now, parent, None)
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&mut self, span: Option<SpanId>) {
        if let Some(id) = span {
            let end = self.offset(Instant::now());
            self.spans[id as usize].end_ns = end;
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines to `path`, creating its directory.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"subject\":{}}}",
                span.name,
                span.start_ns,
                span.end_ns,
                opt(span.parent.map(u64::from)),
                opt(span.subject)
            )?;
        }
        out.flush()
    }

    fn offset(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.record("pump", now, now, None, None), None);
        assert_eq!(t.open("phase", None), None);
        t.close(None);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_keep_parent_subject_and_order() {
        let mut t = Tracer::new(true);
        let phase = t.open("phase", None);
        let a = Instant::now();
        let b = Instant::now();
        let child = t.record("offer", a, b, phase, Some(42)).unwrap();
        t.close(phase);
        let spans = t.spans();
        assert_eq!(spans[child as usize].parent, phase);
        assert_eq!(spans[child as usize].subject, Some(42));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(spans[1].start_ns <= spans[1].end_ns);
    }
}
