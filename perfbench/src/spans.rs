//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span is a name, a start and end (ns since the tracer was made) and
//! the span that was open when it started. Spans stay in memory until
//! [`Tracer::write_jsonl`] writes them out at the end of the run.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `workloads.generate`.
    pub name: &'static str,
    /// Start, in ns since the tracer's origin.
    pub start_ns: u64,
    /// End, in ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// A span recorder. Spans nest strictly: [`Tracer::exit`] closes the span
/// opened by the matching [`Tracer::enter`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span named `name` inside the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        let span =
            Span { name, start_ns: self.now_ns(), end_ns: 0, parent: self.open.last().copied() };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Index of the innermost open span, if any.
    #[must_use]
    pub fn open_span(&self) -> Option<usize> {
        self.open.last().copied()
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let end = self.now_ns();
        if let Some(index) = self.open.pop() {
            self.spans[index].end_ns = end;
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let value = f();
        self.exit();
        value
    }

    /// The recorded spans, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Index of the most recently opened span named `name`.
    #[must_use]
    pub fn last(&self, name: &str) -> Option<usize> {
        self.spans.iter().rposition(|s| s.name == name)
    }

    /// Duration of span `index`, in seconds.
    #[must_use]
    pub fn duration_s(&self, index: usize) -> f64 {
        let span = &self.spans[index];
        (span.end_ns - span.start_ns) as f64 / 1e9
    }

    fn within(&self, mut index: usize, root: Option<usize>) -> bool {
        let Some(root) = root else { return true };
        loop {
            if index == root {
                return true;
            }
            match self.spans[index].parent {
                Some(parent) => index = parent,
                None => return false,
            }
        }
    }

    /// Self time per span name, in seconds: each span's duration minus the
    /// part its direct children cover. With `root`, only span `root` and
    /// the spans nested in it count.
    #[must_use]
    pub fn self_times_s(&self, root: Option<usize>) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (index, (span, children)) in self.spans.iter().zip(child_ns).enumerate() {
            if self.within(index, root) {
                let own = (span.end_ns - span.start_ns).saturating_sub(children);
                *out.entry(span.name).or_insert(0.0) += own as f64 / 1e9;
            }
        }
        out
    }

    /// Write every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the file cannot be written.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::Tracer;

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::new();
        tracer.span("outer", || {});
        tracer.enter("outer");
        tracer.span("inner", || std::thread::sleep(std::time::Duration::from_millis(5)));
        tracer.exit();
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].parent, Some(1));
        let self_s = tracer.self_times_s(None);
        assert!(self_s["inner"] >= 0.005);
        assert!(self_s["outer"] < tracer.duration_s(1));
        let nested = tracer.self_times_s(tracer.last("outer"));
        assert!(nested["inner"] >= 0.005);
        assert!(nested["outer"] <= self_s["outer"]);
    }
}
