//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each crate's
//! public functions (no instrumentation inside the program). Each span has
//! a name, start and end (ns since the recorder was created), a parent
//! span and the operation it belongs to. Spans stay in memory and are
//! written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub op: u32,
}

/// Thread-safe span and counter store.
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    /// (operation, name) → accumulated value, for counts and ratios.
    values: Mutex<BTreeMap<(u32, &'static str), f64>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            values: Mutex::new(BTreeMap::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that is closed later with [`Recorder::close`] (used for
    /// the operation root, whose children are recorded in between).
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, op: u32) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("recorder lock poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        spans.len() - 1
    }

    pub fn close(&self, id: SpanId) {
        let end = self.now_ns();
        self.spans.lock().expect("recorder lock poisoned")[id].end_ns = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let op = self.spans.lock().expect("recorder lock poisoned")[parent].op;
        let id = self.open(name, Some(parent), op);
        let out = f();
        self.close(id);
        out
    }

    /// Adds `v` to the per-operation value `name`.
    pub fn add(&self, op: u32, name: &'static str, v: f64) {
        *self
            .values
            .lock()
            .expect("recorder lock poisoned")
            .entry((op, name))
            .or_insert(0.0) += v;
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("recorder lock poisoned").clone()
    }

    pub fn values(&self) -> BTreeMap<(u32, &'static str), f64> {
        self.values.lock().expect("recorder lock poisoned").clone()
    }

    /// Writes every span and value as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (id, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        for ((op, name), v) in self.values() {
            writeln!(out, "{{\"value\":\"{name}\",\"op\":{op},\"v\":{v}}}")?;
        }
        out.flush()
    }
}

/// Total length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_len(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
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

/// Per-operation breakdown of a recorded run.
pub struct Breakdown {
    /// (operation, span name) → summed self time in ms.
    pub self_ms: BTreeMap<(u32, &'static str), f64>,
    /// operation → (wall ms of its root span, ms covered by its children).
    pub coverage: BTreeMap<u32, (f64, f64)>,
}

/// Self time of every span (duration minus the union of its children's
/// intervals), summed per operation and name; plus, per root span, how
/// much of its wall time its direct children cover.
pub fn breakdown(spans: &[Span]) -> Breakdown {
    let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); spans.len()];
    for (id, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(id);
        }
    }
    let mut self_ms = BTreeMap::new();
    let mut coverage = BTreeMap::new();
    for (id, s) in spans.iter().enumerate() {
        let kids: Vec<(u64, u64)> = children[id]
            .iter()
            .map(|&c| (spans[c].start_ns, spans[c].end_ns))
            .collect();
        let covered = union_len(kids, s.start_ns, s.end_ns);
        let dur = s.end_ns.saturating_sub(s.start_ns);
        *self_ms.entry((s.op, s.name)).or_insert(0.0) += (dur - covered.min(dur)) as f64 / 1e6;
        if s.parent.is_none() {
            coverage.insert(s.op, (dur as f64 / 1e6, covered as f64 / 1e6));
        }
    }
    Breakdown { self_ms, coverage }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(union_len(vec![(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(union_len(vec![(0, 10), (5, 15)], 8, 12), 4);
        assert_eq!(union_len(vec![], 0, 10), 0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "op",
                start_ns: 0,
                end_ns: 10_000_000,
                parent: None,
                op: 0,
            },
            Span {
                name: "a",
                start_ns: 1_000_000,
                end_ns: 4_000_000,
                parent: Some(0),
                op: 0,
            },
            Span {
                name: "a",
                start_ns: 3_000_000,
                end_ns: 6_000_000,
                parent: Some(0),
                op: 0,
            },
        ];
        let b = breakdown(&spans);
        assert_eq!(b.self_ms[&(0, "a")], 6.0);
        assert_eq!(b.self_ms[&(0, "op")], 5.0);
        assert_eq!(b.coverage[&0], (10.0, 5.0));
    }
}
