//! In-memory span recorder of the traced run.
//!
//! The benchmark opens a span around every call it makes into a layer's
//! public function. Layers without a public entry point (reconfiguration
//! and interface synthesis inside `CoSynthesis::run`) are seen through
//! the phase spans `crusade-obs` already emits: [`ObsBridge`] turns each
//! `SpanOpen`/`SpanClose` event into a child span of whatever benchmark
//! span is open. A layer's self time is its span minus its children.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crusade_obs::{Event, SynthesisObserver};

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of the parent span in the recorder, if any.
    pub parent: Option<usize>,
    /// Operation the span belongs to.
    pub op: u64,
    /// Layer name, e.g. `alloc.allocate` or `reconfiguration`.
    pub name: String,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
struct Inner {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    /// obs span id -> recorder index, for the bridged phase spans.
    obs_open: HashMap<u64, usize>,
}

/// Shared span recorder. Nesting follows a single open-span stack, so
/// spans must be opened and closed on one thread at a time.
#[derive(Debug, Clone)]
pub struct Tracer(Arc<Mutex<Inner>>);

impl Default for Tracer {
    fn default() -> Self {
        Tracer(Arc::new(Mutex::new(Inner {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            obs_open: HashMap::new(),
        })))
    }
}

impl Tracer {
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.0
            .lock()
            .expect("span recorder lock poisoned by a panic")
    }

    /// Sets the operation id stamped on spans opened from now on.
    pub fn set_op(&self, op: u64) {
        self.lock().op = op;
    }

    fn open(&self, name: &str) -> usize {
        let mut g = self.lock();
        let start_ns = g.t0.elapsed().as_nanos() as u64;
        let span = Span {
            parent: g.stack.last().copied(),
            op: g.op,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
        };
        g.spans.push(span);
        let idx = g.spans.len() - 1;
        g.stack.push(idx);
        idx
    }

    fn close(&self, idx: usize) -> u64 {
        let mut g = self.lock();
        let end = g.t0.elapsed().as_nanos() as u64;
        g.spans[idx].end_ns = end;
        if let Some(pos) = g.stack.iter().rposition(|&i| i == idx) {
            g.stack.truncate(pos);
        }
        g.spans[idx].dur_ns()
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's duration in nanoseconds.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> (T, u64) {
        let idx = self.open(name);
        let out = f();
        let ns = self.close(idx);
        (out, ns)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Per span, the summed duration of its direct children, ns.
    fn child_ns(spans: &[Span]) -> Vec<u64> {
        let mut child = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        child
    }

    /// Per-name totals: `(busy_ns, self_ns)`.
    pub fn totals(&self) -> BTreeMap<String, (u64, u64)> {
        let spans = self.spans();
        let child = Self::child_ns(&spans);
        let mut out: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for (s, c) in spans.iter().zip(&child) {
            let e = out.entry(s.name.clone()).or_default();
            e.0 += s.dur_ns();
            e.1 += s.dur_ns().saturating_sub(*c);
        }
        out
    }

    /// Share of the top-level `op_span` spans' time that the layer calls
    /// inside them account for: everything but the self time of the op
    /// spans and of the `containers` within them. A container is a span
    /// that only groups layers, such as `CoSynthesis::run`, whose phases
    /// are its children; its own time is work no layer span covers.
    pub fn coverage(&self, op_span: &str, containers: &[&str]) -> f64 {
        let spans = self.spans();
        let child = Self::child_ns(&spans);
        let root = |mut i: usize| {
            while let Some(p) = spans[i].parent {
                i = p;
            }
            i
        };
        let (mut total, mut uncovered) = (0u64, 0u64);
        for (i, (s, c)) in spans.iter().zip(&child).enumerate() {
            let r = root(i);
            if spans[r].name != op_span {
                continue;
            }
            if i == r {
                total += s.dur_ns();
            }
            if i == r || containers.contains(&s.name.as_str()) {
                uncovered += s.dur_ns().saturating_sub(*c);
            }
        }
        if total == 0 {
            0.0
        } else {
            1.0 - uncovered as f64 / total as f64
        }
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Observer that records the program's own `crusade-obs` phase spans as
/// children of the benchmark span currently open.
pub struct ObsBridge(pub Tracer);

impl SynthesisObserver for ObsBridge {
    fn event(&self, event: &Event) {
        match event {
            Event::SpanOpen { span, phase } => {
                let idx = self.0.open(phase);
                self.0.lock().obs_open.insert(*span, idx);
            }
            Event::SpanClose { span, .. } => {
                let idx = self.0.lock().obs_open.remove(span);
                if let Some(idx) = idx {
                    self.0.close(idx);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::default();
        t.time("op", || {
            t.time("child", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let totals = t.totals();
        let (busy, own) = totals["op"];
        assert!(own < busy);
        assert_eq!(totals["child"].0, busy - own);
        assert!(t.coverage("op", &[]) > 0.5);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
    }

    #[test]
    fn coverage_leaves_out_container_self_time() {
        let t = Tracer::default();
        let pause = || std::thread::sleep(std::time::Duration::from_millis(3));
        t.time("op", || {
            t.time("group", || {
                pause();
                t.time("layer", pause);
            })
        });
        // A span outside any op does not count.
        t.time("check", pause);
        assert!(t.coverage("op", &[]) > 0.9);
        let c = t.coverage("op", &["group"]);
        assert!(c > 0.3 && c < 0.7, "coverage {c}");
    }
}
