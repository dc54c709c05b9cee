//! In-memory spans for the traced run, and the per-layer self-time summary.
//!
//! The benchmark records a span around each call it makes into a layer
//! (`experiments.run_round`, `runtime.exec`, `hub.send`, ...) and a root span
//! per unit of generator work (`bench.pass`, `bench.tick`). A span's layer
//! is its name up to the first dot. Spans of one round or ADU batch share an
//! id. The recorder is off in the untraced run, where every call is a
//! branch and no clock read.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `layer.operation`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Round or ADU-batch id shared by the spans of one unit of work.
    pub id: u64,
}

impl Span {
    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans when on; does nothing when off.
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

/// A handle to an open span (`None` when the recorder is off).
pub type Open = Option<usize>;

impl Recorder {
    /// A recorder that records iff `on`.
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Is this the traced run?
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str, parent: Open, id: u64) -> Open {
        if !self.on {
            return None;
        }
        let t = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: t,
            end_ns: t,
            parent,
            id,
        });
        Some(self.spans.len() - 1)
    }

    /// Close a span opened by [`Recorder::begin`].
    pub fn end(&mut self, span: Open) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a leaf span.
    pub fn timed<R>(
        &mut self,
        name: &'static str,
        parent: Open,
        id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let s = self.begin(name, parent, id);
        let r = f();
        self.end(s);
        r
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur() as f64 / 1e3)
            .collect()
    }

    /// Write the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                r#"{{"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"id":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.id
            )?;
        }
        w.flush()
    }
}

/// Per-layer self time: each span's duration minus the part of its interval
/// that its children cover (children clipped to the parent, overlaps
/// counted once), summed by layer. Returns `layer → (self ns, span count)`.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, usize)> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent.filter(|&p| p < spans.len() && p != i) {
            children[p].push(i);
        }
    }
    let mut out: BTreeMap<&'static str, (u64, usize)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let mut iv: Vec<(u64, u64)> = children[i]
            .iter()
            .map(|&c| {
                let c = &spans[c];
                (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
            })
            .filter(|(a, b)| a < b)
            .collect();
        iv.sort_unstable();
        let mut covered = 0;
        let mut reach = s.start_ns;
        for (a, b) in iv {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let e = out.entry(s.layer()).or_insert((0, 0));
        e.0 += s.dur() - covered;
        e.1 += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("bench.pass", 0, 100, None),
            span("runtime.exec", 10, 30, Some(0)),
            // Overlaps the previous child: the union 10..40 is covered once.
            span("runtime.take_delivered", 20, 40, Some(0)),
            span("hub.send", 50, 60, Some(0)),
            // A grandchild counts against its parent only.
            span("runtime.stats", 52, 55, Some(3)),
            // Clipped to the parent's end.
            span("runtime.exec", 90, 130, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["bench"], (100 - 30 - 10 - 10, 1));
        assert_eq!(t["runtime"], (20 + 20 + 3 + 40, 4));
        assert_eq!(t["hub"], (10 - 3, 1));
        let total: u64 = t.values().map(|v| v.0).sum();
        // Self times tile the root, plus the 10 ns two overlapping siblings
        // both count and the 30 ns the last child overhangs the root.
        assert_eq!(total, 100 + 10 + 30);
    }

    #[test]
    fn off_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        let s = r.begin("bench.pass", None, 1);
        assert_eq!(s, None);
        assert_eq!(r.timed("runtime.exec", s, 1, || 5), 5);
        r.end(s);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn on_recorder_nests_spans() {
        let mut r = Recorder::new(true);
        let root = r.begin("bench.pass", None, 7);
        r.timed("experiments.run_round", root, 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.end(root);
        let s = r.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert!(r.durations_us("experiments.run_round")[0] >= 2000.0);
        let t = self_times(s);
        assert_eq!(t["experiments"].1, 1);
        assert!(t["experiments"].0 >= 2_000_000);
    }
}
