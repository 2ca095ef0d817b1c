//! In-memory spans of a traced run, written out when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One span: a layer's interval inside one operation.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same list.
    pub parent: Option<usize>,
    /// Operation id shared by every span of one operation.
    pub op: u64,
}

impl SpanRec {
    pub fn new(
        name: &'static str,
        epoch: Instant,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: u64,
    ) -> SpanRec {
        let ns = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
        SpanRec {
            name,
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
            parent,
            op,
        }
    }
}

/// Appends `spans` (re-based after `base` earlier spans) to `all`.
pub fn extend(all: &mut Vec<SpanRec>, spans: Vec<SpanRec>) {
    let base = all.len();
    all.extend(spans.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &Path, spans: &[SpanRec]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"op":{}}}"#,
            s.name, s.start_ns, s.end_ns, s.op
        )?;
    }
    out.flush()
}
