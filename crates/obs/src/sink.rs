//! The sink abstraction: where per-event telemetry goes.
//!
//! Library crates never print (`clippy::print_stdout` & co. are denied in
//! each `lib.rs`); they emit
//! [`Event`]s through whatever [`Sink`] the owning binary installed.
//! [`MemorySink`] captures events for tests; [`JsonLinesSink`] streams
//! one JSON object per line to any `io::Write` for runs.

use std::io::Write;
use std::sync::{Arc, Mutex};

use crate::json::escape;

/// One telemetry event, emitted at record time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A span completed.
    SpanEnd {
        /// Metric name.
        name: &'static str,
        /// Measured duration.
        nanos: u64,
    },
    /// A counter was incremented.
    CounterAdd {
        /// Metric name.
        name: &'static str,
        /// Increment amount.
        delta: u64,
    },
    /// A histogram recorded a value.
    HistRecord {
        /// Metric name.
        name: &'static str,
        /// Recorded value.
        value: u64,
    },
}

impl Event {
    /// The event rendered as one JSON object (no trailing newline).
    pub fn to_json_line(&self) -> String {
        match self {
            Event::SpanEnd { name, nanos } => {
                format!(
                    "{{\"event\": \"span\", \"name\": \"{}\", \"ns\": {nanos}}}",
                    escape(name)
                )
            }
            Event::CounterAdd { name, delta } => format!(
                "{{\"event\": \"counter\", \"name\": \"{}\", \"delta\": {delta}}}",
                escape(name)
            ),
            Event::HistRecord { name, value } => format!(
                "{{\"event\": \"hist\", \"name\": \"{}\", \"value\": {value}}}",
                escape(name)
            ),
        }
    }
}

/// A destination for telemetry events. Implementations must be `Send`:
/// the registry is shared across threads.
pub trait Sink: Send {
    /// Delivers one event. Must never panic; delivery is best-effort.
    fn emit(&mut self, event: &Event);

    /// Flushes any buffered output (default: nothing to do).
    fn flush(&mut self) {}
}

/// An in-memory sink for tests: cloneable, with shared storage, so the
/// test keeps a handle while the registry owns the installed copy.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    events: Arc<Mutex<Vec<Event>>>,
}

impl MemorySink {
    /// An empty in-memory sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of every event delivered so far.
    pub fn events(&self) -> Vec<Event> {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// How many events were delivered.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True when nothing was delivered yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for MemorySink {
    fn emit(&mut self, event: &Event) {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(*event);
    }
}

/// Streams each event as one JSON object per line to a writer (a file,
/// a pipe, a `Vec<u8>` in tests). Write errors are swallowed: telemetry
/// must never take a run down.
#[derive(Debug)]
pub struct JsonLinesSink<W: Write + Send> {
    out: W,
}

impl<W: Write + Send> JsonLinesSink<W> {
    /// Wraps a writer.
    pub fn new(out: W) -> Self {
        JsonLinesSink { out }
    }

    /// Unwraps the writer (tests reading back a `Vec<u8>`).
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write + Send> Sink for JsonLinesSink<W> {
    fn emit(&mut self, event: &Event) {
        // Telemetry is best-effort by the Sink contract: an unwritable
        // sink must never take the run down with it.
        let _best_effort_io = writeln!(self.out, "{}", event.to_json_line());
    }

    fn flush(&mut self) {
        let _best_effort_io = self.out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    #[test]
    fn json_lines_sink_writes_parseable_lines() {
        let mut sink = JsonLinesSink::new(Vec::new());
        sink.emit(&Event::SpanEnd {
            name: "apsp.build",
            nanos: 42,
        });
        sink.emit(&Event::CounterAdd {
            name: "sim.hours",
            delta: 1,
        });
        sink.flush();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let v = parse(lines[0]).unwrap();
        assert_eq!(v.get("event").and_then(Value::as_str), Some("span"));
        assert_eq!(v.get("ns").and_then(Value::as_u64), Some(42));
        let v = parse(lines[1]).unwrap();
        assert_eq!(v.get("delta").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn memory_sink_is_shared_across_clones() {
        let mem = MemorySink::new();
        let mut installed = mem.clone();
        assert!(mem.is_empty());
        installed.emit(&Event::HistRecord {
            name: "h",
            value: 7,
        });
        assert_eq!(mem.len(), 1);
        assert_eq!(
            mem.events(),
            vec![Event::HistRecord {
                name: "h",
                value: 7
            }]
        );
    }
}
