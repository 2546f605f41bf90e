//! The traced run's spans, recorded by the program's own
//! `tevot_obs::trace` recorder.
//!
//! Spans are opened from the benchmark's code around each call into a
//! layer. The recorder keeps begin/end events per thread in memory, so a
//! span's parent is the span it nests in; a request's span also carries
//! the request id as an instant event. [`write`] saves the timeline at
//! exit. With recording off a span is one relaxed load and allocates
//! nothing, so untraced runs pay nothing for the instrumentation.

use std::path::Path;

use tevot_obs::trace;

/// An open span; closes when dropped.
#[must_use = "a span closes when dropped"]
pub struct Guard(Option<&'static str>);

/// Opens a span named `name`.
pub fn span(name: &'static str) -> Guard {
    if !trace::enabled() {
        return Guard(None);
    }
    trace::begin(name);
    Guard(Some(name))
}

/// Opens a span named `name` carrying request id `id`.
pub fn span_id(name: &'static str, id: u64) -> Guard {
    let guard = span(name);
    trace::instant_id(name, id);
    guard
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(name) = self.0 {
            trace::end(name);
        }
    }
}

/// Writes the recorded timeline to `path` as a Chrome trace.
pub fn write(path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    trace::write_chrome_trace(path)
}
