//! The [`Recorder`] handle every instrumented component records through.

use crate::flight::FlightRecorder;
use crate::journal::{EventValue, Journal};
use crate::registry::{Counter, MetricsRegistry, Phase, ValueSeries};
use crate::trace::{SpanContext, SpanGuard, Tracer};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// A cheap, cloneable handle bundling a metrics registry, an optional
/// event journal, and a timing switch.
///
/// Components hold a `Recorder` by value. The default is
/// [`Recorder::detached`]: a private registry, timing **off**, no journal —
/// counter-backed getters keep working, while the hot path performs zero
/// `Instant::now` calls and zero I/O (the off-the-data-path rule; see the
/// crate docs). Attaching a shared registry/journal via
/// [`Recorder::new`]/[`Recorder::with_journal`]/[`Recorder::with_timing`]
/// turns on full observability without touching any algorithmic state.
#[derive(Debug, Clone)]
pub struct Recorder {
    registry: Arc<MetricsRegistry>,
    journal: Option<Arc<Journal>>,
    tracer: Option<Arc<Tracer>>,
    flight: Option<Arc<FlightRecorder>>,
    timing: bool,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::detached()
    }
}

impl Recorder {
    /// The disabled/no-op mode: a fresh private registry, timing off, no
    /// journal. Counters still accumulate (they back public getters such as
    /// `VasSampler::kernel_lanes()`), but no wall clock is read and nothing
    /// is written anywhere.
    pub fn detached() -> Self {
        Self {
            registry: Arc::new(MetricsRegistry::new()),
            journal: None,
            tracer: None,
            flight: None,
            timing: false,
        }
    }

    /// A recorder over a shared registry (timing still off; enable it with
    /// [`Recorder::with_timing`]).
    pub fn new(registry: Arc<MetricsRegistry>) -> Self {
        Self {
            registry,
            journal: None,
            tracer: None,
            flight: None,
            timing: false,
        }
    }

    /// Attaches an event journal.
    pub fn with_journal(mut self, journal: Arc<Journal>) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Attaches a span tracer; [`Recorder::span`] and friends become live.
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Attaches a crash flight recorder: finished spans and journal events
    /// are mirrored into its bounded ring, and [`Recorder::fatal`] dumps it.
    pub fn with_flight(mut self, flight: Arc<FlightRecorder>) -> Self {
        self.flight = Some(flight);
        self
    }

    /// Enables or disables phase timing (wall-clock reads).
    pub fn with_timing(mut self, on: bool) -> Self {
        self.timing = on;
        self
    }

    /// The underlying registry.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The attached journal, if any.
    pub fn journal(&self) -> Option<&Arc<Journal>> {
        self.journal.as_ref()
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    /// The attached flight recorder, if any.
    pub fn flight(&self) -> Option<&Arc<FlightRecorder>> {
        self.flight.as_ref()
    }

    /// Whether phase timing is enabled.
    pub fn timing_enabled(&self) -> bool {
        self.timing
    }

    /// Adds `n` to `counter`.
    #[inline]
    pub fn inc(&self, counter: Counter, n: u64) {
        self.registry.inc(counter, n);
    }

    /// Restore-only counter overwrite (checkpoint resume; see
    /// [`MetricsRegistry::set`]).
    pub fn set_restored(&self, counter: Counter, value: u64) {
        self.registry.set(counter, value);
    }

    /// Records one observation into `series`.
    #[inline]
    pub fn record_value(&self, series: ValueSeries, value: u64) {
        self.registry.record_value(series, value);
    }

    /// Starts a phase-scoped timer; the elapsed time is recorded when the
    /// returned guard drops. When timing is disabled this is a true no-op:
    /// no `Instant::now` call is made on either end.
    #[inline]
    pub fn phase(&self, phase: Phase) -> PhaseGuard<'_> {
        PhaseGuard {
            recorder: self,
            phase,
            start: if self.timing {
                Some(Instant::now())
            } else {
                None
            },
        }
    }

    /// Records an explicitly measured phase duration (for call sites that
    /// manage their own clock, e.g. worker stripes timed off-thread).
    pub fn record_phase_ns(&self, phase: Phase, ns: u64) {
        self.registry.record_phase(phase, ns);
    }

    /// Appends an event to the journal, if one is attached (otherwise a
    /// no-op — not even the timestamp is read), and mirrors it into the
    /// flight recorder's ring, if one is attached.
    pub fn event(&self, kind: &str, fields: &[(&str, EventValue)]) {
        if let Some(journal) = &self.journal {
            journal.append(kind, fields);
        }
        if let Some(flight) = &self.flight {
            flight.note_event(kind, fields);
        }
    }

    /// Opens a span parented under the current thread's innermost open span
    /// (or the ambient build root). Inert when no tracer is attached: no
    /// clock read, no lock, no allocation.
    #[inline]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        match &self.tracer {
            Some(tracer) => tracer.span(name).with_flight(self.flight.clone()),
            None => SpanGuard::noop(),
        }
    }

    /// Opens a span under an explicit [`SpanContext`] — the cross-thread
    /// propagation entry point (`vas-par` workers).
    #[inline]
    pub fn span_under(&self, name: &'static str, parent: Option<SpanContext>) -> SpanGuard {
        match &self.tracer {
            Some(tracer) => tracer
                .span_under(name, parent)
                .with_flight(self.flight.clone()),
            None => SpanGuard::noop(),
        }
    }

    /// Opens a **root** span that also becomes the tracer's ambient parent
    /// for its lifetime (see [`Tracer::root_span`]) — used at the top of
    /// `build_from_source` so pipeline threads spawned earlier still parent
    /// under the build.
    #[inline]
    pub fn root_span(&self, name: &'static str) -> SpanGuard {
        match &self.tracer {
            Some(tracer) => tracer.root_span(name).with_flight(self.flight.clone()),
            None => SpanGuard::noop(),
        }
    }

    /// The context a worker spawned *now* should parent under, or `None`
    /// when no tracer is attached / no span is open.
    #[inline]
    pub fn current_ctx(&self) -> Option<SpanContext> {
        self.tracer.as_ref().and_then(|t| t.current_context())
    }

    /// Marks a fatal condition: journals/flight-notes a `fatal` event and
    /// dumps the flight recorder's ring to its post-mortem file. Returns
    /// the dump path when one was written. Callers invoke this on
    /// `VasError` fatal paths and contained worker panics *before*
    /// propagating the error.
    pub fn fatal(&self, reason: &str) -> Option<PathBuf> {
        self.event("fatal", &[("reason", EventValue::Str(reason.to_string()))]);
        self.flight.as_ref().and_then(|f| f.dump(reason))
    }
}

/// RAII guard returned by [`Recorder::phase`]; records the elapsed
/// wall-clock time into the phase's total and latency histogram on drop.
#[derive(Debug)]
pub struct PhaseGuard<'a> {
    recorder: &'a Recorder,
    phase: Phase,
    start: Option<Instant>,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            self.recorder.registry.record_phase(self.phase, ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detached_recorder_counts_but_never_times() {
        let rec = Recorder::detached();
        rec.inc(Counter::CoreAccepts, 1);
        {
            let _g = rec.phase(Phase::Fill);
        }
        rec.event("checkpoint_write", &[]);
        let snap = rec.registry().snapshot();
        assert_eq!(snap.counter(Counter::CoreAccepts), 1);
        // Timing off: the phase guard recorded nothing.
        assert_eq!(snap.phase_calls(Phase::Fill), 0);
        assert!(rec.journal().is_none());
    }

    #[test]
    fn enabled_recorder_times_and_journals() {
        let registry = Arc::new(MetricsRegistry::new());
        let journal = Arc::new(Journal::in_memory());
        let rec = Recorder::new(Arc::clone(&registry))
            .with_journal(Arc::clone(&journal))
            .with_timing(true);
        {
            let _g = rec.phase(Phase::ChunkDecode);
            std::hint::black_box(0u64);
        }
        rec.event("retry", &[("attempt", 1u64.into())]);
        let snap = registry.snapshot();
        assert_eq!(snap.phase_calls(Phase::ChunkDecode), 1);
        assert!(journal.contains_event("retry"));
    }

    #[test]
    fn detached_recorder_spans_are_inert() {
        let rec = Recorder::detached();
        let guard = rec.span("anything");
        assert!(!guard.is_live());
        assert!(rec.current_ctx().is_none());
        assert!(rec.fatal("nope").is_none());
    }

    #[test]
    fn traced_recorder_records_spans_and_mirrors_to_flight() {
        let tracer = Arc::new(Tracer::new());
        let flight = Arc::new(FlightRecorder::new());
        let rec = Recorder::detached()
            .with_tracer(Arc::clone(&tracer))
            .with_flight(Arc::clone(&flight));
        {
            let root = rec.root_span("build");
            assert!(root.is_live());
            let ctx = rec.current_ctx();
            assert_eq!(ctx, root.context());
            let _child = rec.span_under("worker_task", ctx);
        }
        rec.event("retry", &[("attempt", 1u64.into())]);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let worker = spans.iter().find(|s| s.name == "worker_task").unwrap();
        let build = spans.iter().find(|s| s.name == "build").unwrap();
        assert_eq!(worker.parent, Some(build.id));
        // Flight ring saw both spans plus the event.
        assert_eq!(flight.lines().len(), 3);
    }

    #[test]
    fn fatal_journals_and_dumps_the_flight_ring() {
        let dir = std::env::temp_dir().join(format!("vas-obs-fatal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let flight = Arc::new(FlightRecorder::new());
        flight.set_dump_path(dir.join("postmortem.jsonl"));
        let journal = Arc::new(Journal::in_memory());
        let rec = Recorder::detached()
            .with_journal(Arc::clone(&journal))
            .with_flight(Arc::clone(&flight));
        rec.event("retry", &[("attempt", 3u64.into())]);
        let path = rec
            .fatal("retries_exhausted")
            .expect("dump path configured");
        assert!(journal.contains_event("fatal"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.lines().next().unwrap().contains("retries_exhausted"));
        assert!(text.contains("\"retry\""), "ring content reaches the dump");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clones_share_the_registry() {
        let rec = Recorder::detached();
        let clone = rec.clone();
        clone.inc(Counter::StreamChunksDecoded, 2);
        assert_eq!(
            rec.registry().get(Counter::StreamChunksDecoded),
            2,
            "clone must record into the same registry"
        );
    }
}
