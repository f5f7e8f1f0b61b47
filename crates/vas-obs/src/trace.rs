//! Causal span tracing: hierarchical, cross-thread spans over the
//! [`crate::Recorder`] handle, exported as Chrome-trace-format JSON.
//!
//! Where the [`crate::MetricsRegistry`] answers *how much* and *how often*,
//! a trace answers *why*: one `build_from_source` produces a tree of
//! [`SpanRecord`]s — the build root, its per-chunk fill/candidate-eval
//! phases, the shard workers a sharded build fans out, and the chunk
//! decodes running ahead on the `vas-par` read-ahead thread —
//! every span carrying its parent's id, so the timeline reconstructs the
//! causal chain across thread boundaries.
//!
//! ## Parenting rules
//!
//! A new span resolves its parent in three steps, first match wins:
//!
//! 1. **Explicit** — a [`SpanContext`] captured on the consumer thread and
//!    handed across a fan-out boundary (the `vas-par` combinators do
//!    this), provided it belongs to the same tracer.
//! 2. **Implicit** — the innermost open span *on the current thread* of the
//!    same tracer (a thread-local stack, so nested guards on one thread
//!    form a chain for free).
//! 3. **Ambient** — the tracer's current *root* span, set by
//!    [`Tracer::root_span`] for the duration of a build. This is what
//!    parents work running on threads that were spawned *before* the build
//!    started (the read-ahead decode worker): their stacks are empty and no
//!    context was handed over, but they are still causally inside the
//!    build.
//!
//! ## Off the data path
//!
//! Same contract as the rest of the crate: a [`crate::Recorder`] without a
//! tracer returns an inert [`SpanGuard`] — no `Instant::now`, no
//! allocation, no lock. The span buffer is bounded ([`Tracer::with_capacity`]);
//! once full, further spans are counted as dropped rather than grown.

use serde::Value;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::flight::FlightRecorder;

/// Default bound on the number of finished spans a [`Tracer`] retains.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

/// Tracer tokens are process-unique so a `SpanContext` can never be
/// resolved against the wrong tracer.
static NEXT_TRACER_TOKEN: AtomicU64 = AtomicU64::new(1);

/// Process-unique small thread ids (1-based, in first-use order) — stable
/// for the lifetime of the thread, unlike `std::thread::ThreadId`, and
/// compact enough for the Chrome-trace `tid` field.
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
    /// The stack of open spans on this thread: `(tracer token, span id)`.
    static SPAN_STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

fn current_thread_id() -> u64 {
    THREAD_ID.with(|id| *id)
}

/// A reference to an open span that can be sent across threads so work
/// running elsewhere parents under it. Obtained from
/// [`SpanGuard::context`] or [`Tracer::current_context`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    token: u64,
    id: u64,
}

impl SpanContext {
    /// The id of the referenced span.
    pub fn span_id(&self) -> u64 {
        self.id
    }
}

/// One finished span: a named, timed interval with a causal parent link.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Monotonic span id, unique within the tracer (1-based).
    pub id: u64,
    /// Id of the parent span, if the span is not a root.
    pub parent: Option<u64>,
    /// Span name (`build_from_source`, `worker_task`, `chunk_decode`, ...).
    pub name: String,
    /// Small process-unique id of the thread the span ran on.
    pub thread: u64,
    /// Start time in microseconds since the tracer was created.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Key/value attributes attached via [`SpanGuard::attr`].
    pub attrs: Vec<(String, String)>,
}

/// Collects [`SpanRecord`]s from every thread of an instrumented run.
///
/// Shared behind an `Arc` by [`crate::Recorder::with_tracer`]; all state is
/// interior-mutable. Span ids are monotonic, the finished-span buffer is
/// bounded, and everything timing-related uses one epoch `Instant` so all
/// spans share a clock.
#[derive(Debug)]
pub struct Tracer {
    token: u64,
    epoch: Instant,
    capacity: usize,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
    dropped: AtomicU64,
    /// The current build-root span id — the ambient fallback parent for
    /// threads with no open span and no explicit context (see module docs).
    ambient: Mutex<Option<u64>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer with the default span capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// A tracer retaining at most `capacity` finished spans; further spans
    /// are dropped (and counted in [`Tracer::dropped`]) rather than grown.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            token: NEXT_TRACER_TOKEN.fetch_add(1, Ordering::Relaxed),
            epoch: Instant::now(),
            capacity,
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
            ambient: Mutex::new(None),
        }
    }

    /// Number of finished spans retained so far.
    pub fn len(&self) -> usize {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True when no span has finished yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans dropped because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// A copy of every finished span, in finish order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// The context a new span on this thread would parent under: the
    /// innermost open span on the current thread, else the ambient root.
    /// `None` outside any build.
    pub fn current_context(self: &Arc<Self>) -> Option<SpanContext> {
        let top = SPAN_STACK.with(|stack| {
            stack
                .borrow()
                .iter()
                .rev()
                .find(|(token, _)| *token == self.token)
                .map(|(_, id)| *id)
        });
        top.or_else(|| *self.ambient.lock().unwrap_or_else(|e| e.into_inner()))
            .map(|id| SpanContext {
                token: self.token,
                id,
            })
    }

    /// Opens a span parented per the resolution rules (implicit stack, then
    /// ambient root).
    pub fn span(self: &Arc<Self>, name: &'static str) -> SpanGuard {
        self.span_inner(name, None, false)
    }

    /// Opens a span with an explicit parent context (cross-thread
    /// propagation). A `None` or foreign-tracer context falls back to the
    /// implicit rules.
    pub fn span_under(
        self: &Arc<Self>,
        name: &'static str,
        parent: Option<SpanContext>,
    ) -> SpanGuard {
        self.span_inner(name, parent, false)
    }

    /// Opens a **root** span: besides the normal rules, the span installs
    /// itself as the tracer's ambient parent for its lifetime, so spans
    /// from pre-existing worker threads (read-ahead decode) parent under
    /// the build. The previous ambient is restored on drop, so nested
    /// roots behave.
    pub fn root_span(self: &Arc<Self>, name: &'static str) -> SpanGuard {
        self.span_inner(name, None, true)
    }

    fn span_inner(
        self: &Arc<Self>,
        name: &'static str,
        explicit: Option<SpanContext>,
        root: bool,
    ) -> SpanGuard {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = explicit
            .filter(|ctx| ctx.token == self.token)
            .map(|ctx| ctx.id)
            .or_else(|| self.current_context().map(|ctx| ctx.id));
        let prev_ambient = if root {
            let mut ambient = self.ambient.lock().unwrap_or_else(|e| e.into_inner());
            let prev = *ambient;
            *ambient = Some(id);
            Some(prev)
        } else {
            None
        };
        SPAN_STACK.with(|stack| stack.borrow_mut().push((self.token, id)));
        let start = Instant::now();
        let start_us = start
            .duration_since(self.epoch)
            .as_micros()
            .min(u64::MAX as u128) as u64;
        SpanGuard {
            inner: Some(GuardInner {
                tracer: Arc::clone(self),
                flight: None,
                id,
                parent,
                name,
                thread: current_thread_id(),
                start,
                start_us,
                attrs: Vec::new(),
                restore_ambient: prev_ambient,
            }),
        }
    }

    fn finish(&self, record: SpanRecord) {
        let mut spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        if spans.len() < self.capacity {
            spans.push(record);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Renders every finished span as Chrome-trace-format JSON (the
    /// `traceEvents` array of complete `"ph": "X"` events), loadable in
    /// `chrome://tracing` or <https://ui.perfetto.dev>. Parent links ride in
    /// `args.parent_id`; [`parse_chrome_trace`] round-trips them.
    pub fn to_chrome_trace(&self) -> String {
        let spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        spans_to_chrome_trace(&spans, self.dropped())
    }
}

/// Renders a span list as Chrome-trace-format JSON (see
/// [`Tracer::to_chrome_trace`]).
pub fn spans_to_chrome_trace(spans: &[SpanRecord], dropped: u64) -> String {
    let events: Vec<Value> = spans
        .iter()
        .map(|s| {
            let mut args: Vec<(String, Value)> =
                vec![("span_id".to_string(), Value::Number(s.id as f64))];
            if let Some(parent) = s.parent {
                args.push(("parent_id".to_string(), Value::Number(parent as f64)));
            }
            for (k, v) in &s.attrs {
                args.push((k.clone(), Value::String(v.clone())));
            }
            Value::Object(vec![
                ("name".to_string(), Value::String(s.name.clone())),
                ("cat".to_string(), Value::String("vas".to_string())),
                ("ph".to_string(), Value::String("X".to_string())),
                ("ts".to_string(), Value::Number(s.start_us as f64)),
                ("dur".to_string(), Value::Number(s.dur_us as f64)),
                ("pid".to_string(), Value::Number(1.0)),
                ("tid".to_string(), Value::Number(s.thread as f64)),
                ("args".to_string(), Value::Object(args)),
            ])
        })
        .collect();
    let root = Value::Object(vec![
        ("traceEvents".to_string(), Value::Array(events)),
        (
            "displayTimeUnit".to_string(),
            Value::String("ms".to_string()),
        ),
        ("vasDroppedSpans".to_string(), Value::Number(dropped as f64)),
    ]);
    serde_json::to_string_pretty(&root).expect("trace values are always serializable")
}

fn value_as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::Number(n) if n.fract() == 0.0 && *n >= 0.0 => Some(*n as u64),
        _ => None,
    }
}

/// Parses Chrome-trace-format JSON produced by [`Tracer::to_chrome_trace`]
/// back into [`SpanRecord`]s (non-`"X"` events are ignored). Fails with a
/// description on malformed input — this is the validation path the trace
/// harness runs on every exported trace.
pub fn parse_chrome_trace(text: &str) -> Result<Vec<SpanRecord>, String> {
    let root: Value =
        serde_json::from_str(text).map_err(|e| format!("trace is not valid JSON: {e}"))?;
    let Some(Value::Array(events)) = root.get("traceEvents") else {
        return Err("trace has no traceEvents array".to_string());
    };
    let mut spans = Vec::with_capacity(events.len());
    for (i, event) in events.iter().enumerate() {
        let ph = match event.get("ph") {
            Some(Value::String(s)) => s.as_str(),
            _ => return Err(format!("event {i} has no ph field")),
        };
        if ph != "X" {
            continue;
        }
        let name = match event.get("name") {
            Some(Value::String(s)) => s.clone(),
            _ => return Err(format!("event {i} has no name")),
        };
        let ts = event
            .get("ts")
            .and_then(value_as_u64)
            .ok_or_else(|| format!("event {i} has no integer ts"))?;
        let dur = event
            .get("dur")
            .and_then(value_as_u64)
            .ok_or_else(|| format!("event {i} has no integer dur"))?;
        let tid = event
            .get("tid")
            .and_then(value_as_u64)
            .ok_or_else(|| format!("event {i} has no integer tid"))?;
        let args = event.get("args");
        let id = args
            .and_then(|a| a.get("span_id"))
            .and_then(value_as_u64)
            .ok_or_else(|| format!("event {i} has no args.span_id"))?;
        let parent = args.and_then(|a| a.get("parent_id")).and_then(value_as_u64);
        let mut attrs = Vec::new();
        if let Some(Value::Object(fields)) = args {
            for (k, v) in fields {
                if k == "span_id" || k == "parent_id" {
                    continue;
                }
                if let Value::String(s) = v {
                    attrs.push((k.clone(), s.clone()));
                }
            }
        }
        spans.push(SpanRecord {
            id,
            parent,
            name,
            thread: tid,
            start_us: ts,
            dur_us: dur,
            attrs,
        });
    }
    Ok(spans)
}

#[derive(Debug)]
struct GuardInner {
    tracer: Arc<Tracer>,
    flight: Option<Arc<FlightRecorder>>,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    thread: u64,
    start: Instant,
    start_us: u64,
    attrs: Vec<(String, String)>,
    /// `Some(previous ambient)` when this is a root span.
    restore_ambient: Option<Option<u64>>,
}

/// RAII guard for an open span; the span is recorded when the guard drops.
///
/// A guard from a tracer-less [`crate::Recorder`] is inert: construction
/// and drop touch no clock, no lock and no allocation.
#[derive(Debug)]
pub struct SpanGuard {
    inner: Option<GuardInner>,
}

impl SpanGuard {
    /// An inert guard (what a detached recorder hands out).
    pub fn noop() -> Self {
        Self { inner: None }
    }

    /// True when the guard records into a live tracer.
    pub fn is_live(&self) -> bool {
        self.inner.is_some()
    }

    /// Also mirrors the finished span into `flight`, if given (used by
    /// [`crate::Recorder`] to feed the flight recorder's ring).
    pub fn with_flight(mut self, flight: Option<Arc<FlightRecorder>>) -> Self {
        if let Some(inner) = &mut self.inner {
            inner.flight = flight;
        }
        self
    }

    /// The context other threads can parent under. `None` on an inert
    /// guard.
    pub fn context(&self) -> Option<SpanContext> {
        self.inner.as_ref().map(|inner| SpanContext {
            token: inner.tracer.token,
            id: inner.id,
        })
    }

    /// Attaches a key/value attribute (no-op on an inert guard).
    pub fn attr(&mut self, key: &str, value: impl std::fmt::Display) {
        if let Some(inner) = &mut self.inner {
            inner.attrs.push((key.to_string(), value.to_string()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let dur_us = inner.start.elapsed().as_micros().min(u64::MAX as u128) as u64;
        // Pop this span from the thread's open-span stack. Guards normally
        // drop in LIFO order, but search from the top so an out-of-order
        // drop cannot corrupt unrelated entries.
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(pos) = stack
                .iter()
                .rposition(|&(token, id)| token == inner.tracer.token && id == inner.id)
            {
                stack.remove(pos);
            }
        });
        if let Some(prev) = inner.restore_ambient {
            *inner
                .tracer
                .ambient
                .lock()
                .unwrap_or_else(|e| e.into_inner()) = prev;
        }
        let record = SpanRecord {
            id: inner.id,
            parent: inner.parent,
            name: inner.name.to_string(),
            thread: inner.thread,
            start_us: inner.start_us,
            dur_us,
            attrs: inner.attrs,
        };
        if let Some(flight) = &inner.flight {
            flight.note_span(&record);
        }
        inner.tracer.finish(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_guards_chain_on_one_thread() {
        let tracer = Arc::new(Tracer::new());
        {
            let outer = tracer.span("outer");
            let outer_id = outer.context().unwrap().span_id();
            {
                let inner = tracer.span("inner");
                assert_ne!(inner.context().unwrap().span_id(), outer_id);
            }
            let sibling = tracer.span("sibling");
            drop(sibling);
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        let outer = by_name("outer");
        assert_eq!(outer.parent, None);
        assert_eq!(by_name("inner").parent, Some(outer.id));
        assert_eq!(by_name("sibling").parent, Some(outer.id));
    }

    #[test]
    fn explicit_context_parents_across_threads() {
        let tracer = Arc::new(Tracer::new());
        let root = tracer.span("consumer");
        let ctx = root.context();
        let worker_tracer = Arc::clone(&tracer);
        std::thread::spawn(move || {
            let _span = worker_tracer.span_under("worker", ctx);
        })
        .join()
        .unwrap();
        drop(root);
        let spans = tracer.spans();
        let worker = spans.iter().find(|s| s.name == "worker").unwrap();
        let consumer = spans.iter().find(|s| s.name == "consumer").unwrap();
        assert_eq!(worker.parent, Some(consumer.id));
        assert_ne!(worker.thread, consumer.thread, "ran on a worker thread");
    }

    #[test]
    fn ambient_root_parents_pre_existing_threads() {
        let tracer = Arc::new(Tracer::new());
        // A "pipeline worker" spawned before the build starts, with no
        // explicit context handed over: its spans must still land under the
        // root via the ambient cell.
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let worker_tracer = Arc::clone(&tracer);
        let handle = std::thread::spawn(move || {
            rx.recv().unwrap();
            let _span = worker_tracer.span("decode");
            drop(_span);
            done_tx.send(()).unwrap();
        });
        {
            let _root = tracer.root_span("build");
            tx.send(()).unwrap();
            done_rx.recv().unwrap();
        }
        handle.join().unwrap();
        let spans = tracer.spans();
        let root = spans.iter().find(|s| s.name == "build").unwrap();
        let decode = spans.iter().find(|s| s.name == "decode").unwrap();
        assert_eq!(decode.parent, Some(root.id));
        assert_eq!(root.parent, None);
        // After the root dropped, the ambient is cleared again.
        assert_eq!(tracer.current_context(), None);
    }

    #[test]
    fn capacity_bounds_the_buffer_and_counts_drops() {
        let tracer = Arc::new(Tracer::with_capacity(2));
        for _ in 0..5 {
            let _span = tracer.span("s");
        }
        assert_eq!(tracer.len(), 2);
        assert_eq!(tracer.dropped(), 3);
    }

    #[test]
    fn chrome_trace_round_trips() {
        let tracer = Arc::new(Tracer::new());
        {
            let mut root = tracer.span("build");
            root.attr("k", 300);
            let _child = tracer.span("fill");
        }
        let json = tracer.to_chrome_trace();
        let parsed = parse_chrome_trace(&json).unwrap();
        assert_eq!(parsed.len(), 2);
        let original = tracer.spans();
        for (a, b) in parsed.iter().zip(&original) {
            assert_eq!(a, b, "parsed span differs from the original");
        }
        let build = parsed.iter().find(|s| s.name == "build").unwrap();
        assert_eq!(build.attrs, vec![("k".to_string(), "300".to_string())]);
    }

    #[test]
    fn parse_rejects_malformed_traces() {
        assert!(parse_chrome_trace("not json").is_err());
        assert!(parse_chrome_trace("{}").is_err());
        assert!(parse_chrome_trace(r#"{"traceEvents":[{"ph":"X"}]}"#).is_err());
        // Non-X events are skipped, not errors.
        let ok = parse_chrome_trace(r#"{"traceEvents":[{"ph":"M","name":"meta"}]}"#).unwrap();
        assert!(ok.is_empty());
    }

    #[test]
    fn noop_guard_is_inert() {
        let mut guard = SpanGuard::noop();
        assert!(!guard.is_live());
        assert_eq!(guard.context(), None);
        guard.attr("k", "v");
        drop(guard);
    }

    #[test]
    fn foreign_context_is_ignored() {
        let a = Arc::new(Tracer::new());
        let b = Arc::new(Tracer::new());
        let root_a = a.span("root-a");
        let span_b = b.span_under("child-b", root_a.context());
        drop(span_b);
        drop(root_a);
        let spans = b.spans();
        assert_eq!(
            spans[0].parent, None,
            "foreign-tracer context must not bind"
        );
    }
}
