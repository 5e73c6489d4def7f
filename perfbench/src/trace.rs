//! In-memory span recorder for the traced run.
//!
//! Spans are opened by the benchmark around its calls into each layer;
//! nothing inside the program is instrumented. Each span keeps its name,
//! start, end and parent; the whole list is written out as JSON when the
//! run ends. A span's self time is its duration minus the time its child
//! spans cover (children of one span never overlap: the recorder is
//! single-threaded and spans nest strictly).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

pub struct Tracer {
    enabled: Cell<bool>,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

/// Per-name totals over every recorded span of that name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub count: usize,
    pub self_s: f64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled: Cell::new(enabled),
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled.get()
    }

    pub fn set_enabled(&self, enabled: bool) {
        assert!(self.stack.borrow().is_empty(), "toggle outside any span");
        self.enabled.set(enabled);
    }

    /// Run `f` inside a span named `name` (a plain call when disabled).
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.enabled.get() {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.stack.borrow().last().copied();
            let now = self.origin.elapsed().as_secs_f64();
            spans.push(Span {
                name: name.to_string(),
                start_s: now,
                end_s: now,
                parent,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        // Closes the span on return and on unwinding alike, so a
        // panicking operation leaves the stack as it found it.
        struct Close<'a>(&'a Tracer, usize);
        impl Drop for Close<'_> {
            fn drop(&mut self) {
                self.0.stack.borrow_mut().pop();
                self.0.spans.borrow_mut()[self.1].end_s = self.0.origin.elapsed().as_secs_f64();
            }
        }
        let _close = Close(self, idx);
        f()
    }

    /// Self time of every span, in recording order.
    pub fn self_times(&self) -> Vec<f64> {
        let spans = self.spans.borrow();
        let mut covered = vec![0.0; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                covered[p] += s.duration_s();
            }
        }
        spans
            .iter()
            .zip(&covered)
            .map(|(s, c)| s.duration_s() - c)
            .collect()
    }

    pub fn totals(&self) -> BTreeMap<String, Totals> {
        let self_times = self.self_times();
        let mut out: BTreeMap<String, Totals> = BTreeMap::new();
        for (s, st) in self.spans.borrow().iter().zip(self_times) {
            let t = out.entry(s.name.clone()).or_default();
            t.count += 1;
            t.self_s += st;
        }
        out
    }

    /// Closure of the spans named `root`: (summed root duration, summed
    /// self time of every span below a root, the roots' own self time).
    pub fn closure(&self, root: &str) -> (f64, f64, f64) {
        let spans = self.spans.borrow();
        let self_times = self.self_times();
        // Root ancestor of each span (spans are recorded parent-first).
        let mut root_of: Vec<Option<usize>> = vec![None; spans.len()];
        let (mut wall, mut attributed, mut unattributed) = (0.0, 0.0, 0.0);
        for (i, s) in spans.iter().enumerate() {
            root_of[i] = match s.parent {
                Some(p) => root_of[p],
                None if s.name == root => Some(i),
                None => None,
            };
            match root_of[i] {
                Some(r) if r == i => {
                    wall += s.duration_s();
                    unattributed += self_times[i];
                }
                Some(_) => attributed += self_times[i],
                None => {}
            }
        }
        (wall, attributed, unattributed)
    }

    /// Write every span as JSON lines of `{name, start_s, end_s, parent}`.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_s\": {:.9}, \"end_s\": {:.9}, \"parent\": {parent}}}",
                s.name, s.start_s, s.end_s
            )?;
        }
        w.flush()
    }
}
