//! In-memory spans recorded by the benchmark around its calls into each
//! crate. A span holds its name, start and end on one shared clock, the
//! span that caused it and the request it belongs to. Spans are written
//! out as JSON lines when the run ends.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    /// Index of the causing span in the same recorder.
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn dur(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// A single-threaded span recorder; threads each keep their own and the
/// run merges them at the end.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, request: u64) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end = self.now();
    }

    /// Run `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, request);
        let r = f();
        self.exit(id);
        r
    }

    /// Record an already measured interval as a root span.
    pub fn record(&mut self, name: &'static str, request: u64, start: Duration, end: Duration) {
        self.spans.push(Span {
            name,
            start,
            end,
            parent: None,
            request,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's duration minus the time its children cover.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = self.spans.iter().map(Span::dur).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur());
            }
        }
        own
    }

    /// Durations of every span called `name`, ms.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur().as_secs_f64() * 1e3)
            .collect()
    }

    /// Spans whose children overlap each other or leave their parent.
    pub fn nesting_violations(&self) -> usize {
        let mut bad = 0;
        let mut last_child_end: Vec<Option<Duration>> = vec![None; self.spans.len()];
        for s in &self.spans {
            let Some(p) = s.parent else { continue };
            let parent = &self.spans[p];
            let overlaps = last_child_end[p].is_some_and(|e| s.start < e);
            if s.start < parent.start || s.end > parent.end || overlaps {
                bad += 1;
            }
            last_child_end[p] = Some(s.end);
        }
        bad
    }

    /// Append `other`'s spans, re-basing their parent indices.
    pub fn merge(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Make every `child` span a child of the `parent` span that carries
    /// the same request id (spans recorded on different threads).
    pub fn link(&mut self, child: &str, parent: &str) {
        let parents: HashMap<u64, usize> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == parent)
            .map(|(i, s)| (s.request, i))
            .collect();
        for s in self.spans.iter_mut().filter(|s| s.name == child) {
            s.parent = parents.get(&s.request).copied();
        }
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let own = self.self_times();
        let mut text = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\
                 \"self_us\":{:.1},\"parent\":{parent},\"request\":{}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                own[i].as_secs_f64() * 1e6,
                s.request
            );
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(text.as_bytes())?;
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut r = Recorder::new(Instant::now());
        let root = r.enter("step", 0);
        r.time("a", 0, || std::thread::sleep(Duration::from_millis(2)));
        r.time("b", 0, || std::thread::sleep(Duration::from_millis(1)));
        r.exit(root);
        let own = r.self_times();
        let children: Duration = r.spans()[1..].iter().map(Span::dur).sum();
        assert_eq!(own[0] + children, r.spans()[0].dur());
        assert_eq!(r.nesting_violations(), 0);
        let total: Duration = own.iter().sum();
        assert_eq!(total, r.spans()[0].dur());
    }

    #[test]
    fn merge_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch);
        a.time("x", 1, || ());
        let mut b = Recorder::new(epoch);
        let p = b.enter("y", 2);
        b.time("z", 2, || ());
        b.exit(p);
        a.merge(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
