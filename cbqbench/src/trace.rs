//! In-memory spans around every call the harness makes into a layer.
//!
//! A span is (name, start, end, parent span, job id). Spans are kept in
//! memory while the run measures and written out once at the end as
//! Chrome trace-event JSON, which Perfetto and `chrome://tracing` load.
//! The layer of a span is the part of its name before the first `.`.
//! When tracing is off, [`Tracer::span`] only runs the closure.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing span in the same thread, if any.
    parent: Option<usize>,
    job: u64,
    thread: usize,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// Open span indices of this thread, innermost last.
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static THREAD: RefCell<usize> = const { RefCell::new(0) };
}

/// Names the calling thread in the trace (0 is the main thread).
pub fn set_thread(id: usize) {
    THREAD.with(|t| *t.borrow_mut() = id);
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span named `name`, attributed to `job`.
    pub fn span<T>(&self, name: &'static str, job: u64, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let parent = STACK.with(|s| s.borrow().last().copied());
        let thread = THREAD.with(|t| *t.borrow());
        let idx = {
            let mut spans = self.spans.lock().expect("span store is never poisoned");
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                job,
                thread,
            });
            spans.len() - 1
        };
        STACK.with(|s| s.borrow_mut().push(idx));
        let out = f();
        STACK.with(|s| s.borrow_mut().pop());
        let end = self.now_ns();
        self.spans.lock().expect("span store is never poisoned")[idx].end_ns = end;
        out
    }

    /// Number of spans so far, which is also the index of the next one:
    /// spans recorded from here on belong to whatever the caller does
    /// next (one round, one replay).
    pub fn mark(&self) -> usize {
        self.spans
            .lock()
            .expect("span store is never poisoned")
            .len()
    }

    /// Self time per span name over the spans from `from` on: a span's
    /// duration minus the durations of its direct children (children of
    /// one span run one after another on its thread, so they never
    /// overlap).
    pub fn self_seconds(&self, from: usize) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.lock().expect("span store is never poisoned");
        let mut child_ns = vec![0u64; spans.len()];
        for s in &spans[from..] {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate().skip(from) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            *out.entry(s.name).or_default() += own as f64 * 1e-9;
        }
        out
    }

    /// The whole trace as Chrome trace-event JSON.
    pub fn to_chrome_json(&self) -> String {
        let spans = self.spans.lock().expect("span store is never poisoned");
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"id\":{i},\"parent\":{parent},\"job\":{}}}}}",
                s.name,
                layer_of(s.name),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.thread,
                s.job,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// The layer a span belongs to: its name up to the first `.`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}
