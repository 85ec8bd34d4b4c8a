//! In-memory spans around the benchmark's calls into the program.
//!
//! Every call into a layer gets a span (name, start, end, parent); the
//! counts read from the program's public counters after a run become
//! counter records under the same parent. Spans stay in memory and are
//! written out once, when the benchmark ends. With tracing off, `begin`
//! and `end` only read the clock.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One span or counter record.
pub struct Record {
    /// Span or counter name.
    pub name: &'static str,
    /// The scheduler for `cell` and `run_until.window` spans, empty
    /// otherwise.
    pub tag: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Index of the outermost enclosing span (itself for a top-level span).
    pub root: u32,
    /// Start and end, nanoseconds since the tracer was created (equal
    /// for counters).
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
    /// `Some` for a counter record.
    pub value: Option<u64>,
}

impl Record {
    /// Span length.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// An open span: returned by [`Tracer::begin`], closed by [`Tracer::end`].
pub struct Open {
    id: Option<u32>,
    t0: Instant,
}

/// The span recorder.
pub struct Tracer {
    /// Record spans while set; otherwise only time.
    pub on: bool,
    origin: Instant,
    stack: Vec<u32>,
    /// Everything recorded so far, in begin order.
    pub records: Vec<Record>,
}

impl Tracer {
    /// An empty tracer, initially off.
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            origin: Instant::now(),
            stack: Vec::new(),
            records: Vec::new(),
        }
    }

    fn since_origin(&self, t: Instant) -> u64 {
        (t - self.origin).as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, tag: &'static str, value: Option<u64>) -> u32 {
        let id = self.records.len() as u32;
        let parent = self.stack.last().copied();
        let root = self.stack.first().copied().unwrap_or(id);
        self.records.push(Record {
            name,
            tag,
            parent,
            root,
            start_ns: 0,
            end_ns: 0,
            value,
        });
        id
    }

    /// Opens a span (when on) and starts its clock.
    pub fn begin(&mut self, name: &'static str, tag: &'static str) -> Open {
        let id = self.on.then(|| {
            let id = self.push(name, tag, None);
            self.stack.push(id);
            id
        });
        Open {
            id,
            t0: Instant::now(),
        }
    }

    /// Closes `open` and returns its length.
    pub fn end(&mut self, open: Open) -> Duration {
        let t1 = Instant::now();
        if let Some(id) = open.id {
            // Spans left open by a panic below this one close with it.
            while self.stack.pop().is_some_and(|top| top != id) {}
            let (start, end) = (self.since_origin(open.t0), self.since_origin(t1));
            let r = &mut self.records[id as usize];
            r.start_ns = start;
            r.end_ns = end;
        }
        t1 - open.t0
    }

    /// Records counter `name` under the innermost open span (when on).
    pub fn count(&mut self, name: &'static str, value: u64) {
        if self.on {
            let now = self.since_origin(Instant::now());
            let id = self.push(name, "", Some(value));
            let r = &mut self.records[id as usize];
            r.start_ns = now;
            r.end_ns = now;
        }
    }

    /// The records as JSON lines.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, r) in self.records.iter().enumerate() {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{id},\"root\":{},\"parent\":{parent},\"name\":\"{}\",\"tag\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                r.root, r.name, r.tag, r.start_ns, r.end_ns
            );
            if let Some(v) = r.value {
                let _ = write!(out, ",\"value\":{v}");
            }
            out.push_str("}\n");
        }
        out
    }
}
