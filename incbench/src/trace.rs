//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions (nothing inside the program under test is
//! instrumented).  A span carries its layer name, start and end on the run's
//! monotonic clock, the span that caused it, the arrival or first packet it
//! belongs to, and how many items (packets) it covered.  Spans stay in
//! memory until the run ends and are then written out as JSON lines.
//!
//! Control-plane layers that the service runs internally are *replayed*
//! outside the service call (see `mirror`): their spans name the service
//! call's span as parent, so a parent's self time — its duration minus its
//! children's durations — is the part of the call no replayed layer
//! accounts for.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded layer call.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    /// Arrival index, or the stream index of the first packet covered.
    pub subject: u64,
    /// Packets (or other items) the span covered; 1 for a single call.
    pub items: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// The recorder.  A disabled tracer records nothing and never reads the
/// clock, so the untraced run pays for no instrumentation.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { origin: Instant::now(), enabled, spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start a span: the current instant when tracing, `None` otherwise.
    pub fn start(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    /// Close a span started with [`Tracer::start`].
    pub fn end(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        subject: u64,
        items: usize,
        started: Option<Instant>,
    ) -> Option<u32> {
        let started = started?;
        let elapsed = started.elapsed();
        self.record(name, parent, subject, items, started, elapsed)
    }

    /// Record a span whose duration was measured by the layer itself (the
    /// placement solver's own `solve_time`).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        subject: u64,
        items: usize,
        started: Instant,
        duration: Duration,
    ) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len() as u32;
        let start_ns = started.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            name,
            subject,
            items: items.max(1) as u32,
            start_ns,
            end_ns: start_ns + duration.as_nanos() as u64,
        });
        Some(id)
    }

    /// Set the duration of span `id` to the sum of its children's and
    /// return it: a parent that stands for work done inside a fused service
    /// call, measured only through the layers replayed under it.
    pub fn fit_to_children(&mut self, id: Option<u32>) -> Duration {
        let Some(id) = id else { return Duration::ZERO };
        // children are recorded after their parent
        let ns: u64 = self.spans[id as usize + 1..]
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let span = &mut self.spans[id as usize];
        span.end_ns = span.start_ns + ns;
        Duration::from_nanos(ns)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span named `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::duration_ms).collect()
    }

    /// Per-item durations (span duration over the items it covered) of
    /// every span named `name`, in microseconds.
    pub fn per_item_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ms() * 1e3 / f64::from(s.items))
            .collect()
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times_ms(&self) -> Vec<f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ms[parent as usize] += span.duration_ms();
            }
        }
        self.spans.iter().map(|s| s.duration_ms() - child_ms[s.id as usize]).collect()
    }

    /// Self time summed per subject over the spans named in `names`.
    pub fn self_time_by_subject(&self, names: &[&str]) -> BTreeMap<u64, f64> {
        let self_ms = self.self_times_ms();
        let mut out = BTreeMap::new();
        for span in self.spans.iter().filter(|s| names.contains(&s.name)) {
            *out.entry(span.subject).or_insert(0.0) += self_ms[span.id as usize];
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"subject\":{},\"items\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.name, s.subject, s.items, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let origin = Instant::now();
        let parent = t.record("core.commit", None, 7, 1, origin, Duration::from_millis(10));
        t.record("synthesis.add", parent, 7, 1, origin, Duration::from_millis(3));
        t.record("backend.generate", parent, 7, 1, origin, Duration::from_millis(4));
        let by_subject = t.self_time_by_subject(&["core.commit"]);
        assert!((by_subject[&7] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn a_fitted_parent_spans_its_children() {
        let mut t = Tracer::new(true);
        let origin = Instant::now();
        let parent = t.record("core.plan", None, 3, 1, origin, Duration::ZERO);
        t.record("frontend.compile", parent, 3, 1, origin, Duration::from_millis(2));
        t.record("core.commit", None, 3, 1, origin, Duration::from_millis(9));
        t.record("placement.solve", parent, 3, 1, origin, Duration::from_millis(5));
        assert_eq!(t.fit_to_children(parent), Duration::from_millis(7));
        assert!((t.spans()[0].duration_ms() - 7.0).abs() < 1e-9);
        assert_eq!(t.self_time_by_subject(&["core.plan"])[&3], 0.0);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let started = t.start();
        assert!(started.is_none());
        assert!(t.end("x", None, 0, 1, started).is_none());
        assert!(t.spans().is_empty());
    }
}
