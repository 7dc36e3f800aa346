//! In-memory spans around each call into a layer.
//!
//! A span has a name (the layer), a start, an end and a parent, and every
//! span of a run carries the run's id. Spans are kept in memory and
//! written out once, when the run ends. A layer's self time is its spans'
//! durations minus the parts of them covered by child spans.
//!
//! The tracer can be switched off and on within a run: a disabled tracer
//! records nothing and costs one branch per call, so the same code path
//! serves untraced runs, traced runs, and the traced-versus-untraced
//! overhead comparison inside a traced run. Coverage counts only the time
//! the tracer was on.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer the span measured.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` at top level.
    pub parent: Option<usize>,
}

/// Handle of an open span, returned by [`Tracer::begin`].
#[must_use = "pass the handle to Tracer::end"]
pub struct Open(Option<usize>);

/// The span recorder of one run.
pub struct Tracer {
    run_id: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    enabled: bool,
    enabled_since: Option<Instant>,
    enabled_ns: u64,
}

impl Tracer {
    /// A tracer for run `run_id`, initially on or off.
    pub fn new(run_id: String, enabled: bool) -> Tracer {
        let mut tracer = Tracer {
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            enabled: false,
            enabled_since: None,
            enabled_ns: 0,
        };
        tracer.set_enabled(enabled);
        tracer
    }

    /// Switches recording on or off. Only call between top-level spans.
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside a span");
        if on == self.enabled {
            return;
        }
        if on {
            self.enabled_since = Some(Instant::now());
        } else if let Some(since) = self.enabled_since.take() {
            self.enabled_ns += since.elapsed().as_nanos() as u64;
        }
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named after `layer`, nested in the innermost open one.
    pub fn begin(&mut self, layer: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name: layer, start_ns, end_ns: start_ns, parent });
        self.open.push(index);
        Open(Some(index))
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, open: Open) {
        if let Some(index) = open.0 {
            debug_assert_eq!(self.open.last(), Some(&index), "spans closed out of order");
            self.open.pop();
            self.spans[index].end_ns = self.now_ns();
        }
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer, in seconds: each span's duration minus the
    /// durations of its direct children.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// Share of the time the tracer was on that top-level spans cover.
    pub fn coverage(&self) -> f64 {
        let mut on_ns = self.enabled_ns;
        if let Some(since) = self.enabled_since {
            on_ns += since.elapsed().as_nanos() as u64;
        }
        let covered: u64 =
            self.spans.iter().filter(|s| s.parent.is_none()).map(|s| s.end_ns - s.start_ns).sum();
        if on_ns == 0 {
            0.0
        } else {
            covered as f64 / on_ns as f64
        }
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\":\"{}\",\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                self.run_id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < u128::from(ms) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_subtracts_children_and_disabled_tracers_record_nothing() {
        let mut t = Tracer::new("test".into(), true);
        let outer = t.begin("outer");
        spin(4);
        let inner = t.begin("inner");
        spin(6);
        t.end(inner);
        t.end(outer);
        let own = t.self_seconds();
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(own["inner"] >= 0.006, "{own:?}");
        assert!(own["outer"] >= 0.004 && own["outer"] < own["inner"] + 0.004, "{own:?}");
        assert!(t.coverage() > 0.5 && t.coverage() <= 1.0);

        t.set_enabled(false);
        let ignored = t.begin("ignored");
        spin(1);
        t.end(ignored);
        assert_eq!(t.spans().len(), 2);
    }

    /// Self time sums only the spans recorded while the tracer was on, as
    /// when traced runs alternate traced and untraced iterations.
    #[test]
    fn self_time_covers_only_the_enabled_iterations() {
        let mut t = Tracer::new("test".into(), true);
        for i in 0..4 {
            t.set_enabled(i % 2 == 0);
            let open = t.begin("solve");
            spin(5);
            t.end(open);
        }
        t.set_enabled(true);
        let own = t.self_seconds();
        assert_eq!(t.spans().len(), 2);
        assert!(own["solve"] >= 0.010, "{own:?}");
        assert!(t.coverage() > 0.9, "coverage counts on-time only: {}", t.coverage());
    }
}
