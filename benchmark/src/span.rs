//! Spans recorded by the driver around its calls into each layer, kept
//! in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::json::Value;

/// One timed interval. Spans of one request share `request`; `parent`
/// is the span that caused this one (`None` for a request's root).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub request: u64,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans kept per traced run. Past it they are counted, not stored: the
/// trace file stays a few megabytes and the recorder's memory constant.
pub const SPAN_CAPACITY: usize = 1 << 16;

/// An in-memory span recorder with one clock.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
    next_request: u64,
}

/// Handle to a span opened with [`Tracer::open`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

impl Open {
    /// No span: as a parent it marks a root, and closing it does nothing
    /// (it is also what `open` returns once the recorder is full).
    pub const NONE: Open = Open(None);
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(SPAN_CAPACITY),
            dropped: 0,
            next_request: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh request id.
    pub fn next_request(&mut self) -> u64 {
        self.next_request += 1;
        self.next_request
    }

    /// Starts a span now; finish it with [`Tracer::close`].
    pub fn open(&mut self, request: u64, parent: Open, name: &'static str) -> Open {
        if self.spans.len() == SPAN_CAPACITY {
            self.dropped += 1;
            return Open::NONE;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            request,
            parent: parent.0,
            name,
            start_ns,
            end_ns: start_ns,
        });
        Open(Some(self.spans.len() as u32 - 1))
    }

    pub fn close(&mut self, span: Open) {
        if let Some(i) = span.0 {
            self.spans[i as usize].end_ns = self.now();
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let row = Value::Obj(vec![
                ("id".into(), Value::Num(id as f64)),
                ("request".into(), Value::Num(s.request as f64)),
                (
                    "parent".into(),
                    s.parent.map_or(Value::Null, |p| Value::Num(f64::from(p))),
                ),
                ("name".into(), Value::str(s.name)),
                ("start_ns".into(), Value::Num(s.start_ns as f64)),
                ("end_ns".into(), Value::Num(s.end_ns as f64)),
            ]);
            writeln!(out, "{row}")?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover. Overlapping children (two label fetches
/// in flight at once) are counted once, and a child is clipped to its
/// parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Mean duration and mean self time per span name, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NameSummary {
    pub count: u64,
    pub mean_ns: f64,
    pub mean_self_ns: f64,
}

pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, NameSummary> {
    let selfs = self_times(spans);
    let mut sums: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = sums.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end_ns - s.start_ns;
        e.2 += own;
    }
    sums.into_iter()
        .map(|(name, (count, total, own))| {
            (
                name,
                NameSummary {
                    count,
                    mean_ns: total as f64 / count as f64,
                    mean_self_ns: own as f64 / count as f64,
                },
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            request: 1,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_on_a_hand_built_tree() {
        let spans = vec![
            span(None, "driver.request", 0, 100),   // 0
            span(Some(0), "hl-net.submit", 10, 30), // 1
            span(Some(0), "hl-net.wait", 30, 90),   // 2
            span(Some(2), "inner", 40, 50),         // 3
            // Two overlapping fetches under one parent: [0,60) ∪ [40,80).
            span(None, "hl-shard.query", 0, 100), // 4
            span(Some(4), "fetch", 0, 60),        // 5
            span(Some(4), "fetch", 40, 80),       // 6
            // A child that leaks past its parent is clipped.
            span(None, "outer", 10, 20),    // 7
            span(Some(7), "leaky", 15, 40), // 8
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 50, 10, 20, 60, 40, 5, 25]);
        let by_name = summarize(&spans);
        assert_eq!(by_name["driver.request"].mean_self_ns, 20.0);
        assert_eq!(by_name["fetch"].count, 2);
        assert_eq!(by_name["fetch"].mean_ns, 50.0);
    }

    #[test]
    fn recorder_links_children_and_counts_overflow() {
        let mut t = Tracer::new();
        let request = t.next_request();
        let root = t.open(request, Open::NONE, "driver.request");
        let child = t.open(request, root, "hl-server.query");
        t.close(child);
        t.close(root);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        for _ in 0..SPAN_CAPACITY {
            let s = t.open(2, Open::NONE, "filler");
            t.close(s);
        }
        assert_eq!(t.spans().len(), SPAN_CAPACITY);
        assert_eq!(t.dropped(), 2);
    }

    #[test]
    fn trace_file_lines_parse() {
        let mut t = Tracer::new();
        let root = t.open(7, Open::NONE, "driver.request");
        let child = t.open(7, root, "hl-net.wait");
        t.close(child);
        t.close(root);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("unit-trace-{}.jsonl", std::process::id()));
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let rows: Vec<Value> = text
            .lines()
            .map(|l| crate::json::parse(l).unwrap())
            .collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("parent"), Some(&Value::Null));
        assert_eq!(rows[1].get("parent"), Some(&Value::Num(0.0)));
        assert_eq!(
            rows[1].get("name").and_then(Value::as_str),
            Some("hl-net.wait")
        );
    }
}
