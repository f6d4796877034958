//! Event sinks.
//!
//! Producers take `&mut dyn EventSink` and hoist one
//! [`EventSink::enabled`] check out of their hot loops; with the
//! default [`NullSink`] that check is a constant `false` and the
//! instrumented path compiles down to the uninstrumented one.

use std::io::{self, Write};

use crate::event::Event;

/// Receives the event stream of a run.
pub trait EventSink {
    /// Whether this sink wants events at all. Producers check once per
    /// run (not per event) and skip event construction entirely when
    /// this returns `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Record one event. Only called when [`EventSink::enabled`].
    fn emit(&mut self, event: &Event);

    /// Flush buffered output and surface any deferred I/O error.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The default sink: drops everything, reports itself disabled.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn emit(&mut self, _event: &Event) {}
}

/// Buffers every event in memory; the backing store for traces and
/// golden tests.
///
/// Ordering caveat: a sink records *emission* order. The simulator
/// emits in global causal order, but the cluster runtime buffers
/// events per worker and merges by logical time with
/// [`EventKind::order_class`](crate::EventKind::order_class) as the
/// equal-time tiebreak — two causally ordered events stamped in the
/// same microsecond on *different* workers have no further ordering
/// guarantee. Consumers checking cross-rank invariants must therefore
/// sort by `(time, order_class, index)` first, as
/// [`MonitorSink`](crate::MonitorSink) does, rather than trust raw
/// buffer order.
#[derive(Clone, Debug, Default)]
pub struct VecSink {
    /// The recorded events, in emission order.
    pub events: Vec<Event>,
}

impl VecSink {
    /// An empty sink.
    pub fn new() -> VecSink {
        VecSink::default()
    }

    /// Render the recorded stream as JSONL (one event per line,
    /// trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }
}

impl EventSink for VecSink {
    fn emit(&mut self, event: &Event) {
        self.events.push(*event);
    }
}

/// Streams events as JSONL to any writer (typically a buffered file).
///
/// I/O errors are deferred: `emit` never fails mid-run; the first error
/// is stored and returned by [`EventSink::flush`].
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    deferred: Option<io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// Wrap a writer.
    pub fn new(writer: W) -> JsonlSink<W> {
        JsonlSink {
            writer,
            deferred: None,
        }
    }

    /// Unwrap, surfacing any deferred error.
    pub fn into_inner(mut self) -> io::Result<W> {
        match self.deferred.take() {
            Some(e) => Err(e),
            None => Ok(self.writer),
        }
    }
}

impl<W: Write> EventSink for JsonlSink<W> {
    fn emit(&mut self, event: &Event) {
        if self.deferred.is_some() {
            return;
        }
        let line = event.to_json();
        if let Err(e) = self
            .writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
        {
            self.deferred = Some(e);
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self.deferred.take() {
            Some(e) => Err(e),
            None => self.writer.flush(),
        }
    }
}

impl EventSink for &mut dyn EventSink {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    fn emit(&mut self, event: &Event) {
        (**self).emit(event);
    }

    fn flush(&mut self) -> io::Result<()> {
        (**self).flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use ct_core::protocol::Payload;
    use ct_logp::Time;

    fn send(t: u64) -> Event {
        Event::sim(
            Time::new(t),
            EventKind::SendStart {
                from: 0,
                to: 1,
                payload: Payload::Tree,
            },
        )
    }

    #[test]
    fn null_sink_is_disabled() {
        let s = NullSink;
        assert!(!s.enabled());
    }

    #[test]
    fn vec_sink_records_and_renders_jsonl() {
        let mut s = VecSink::new();
        s.emit(&send(0));
        s.emit(&send(1));
        assert_eq!(s.events.len(), 2);
        let jsonl = s.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.ends_with('\n'));
    }

    #[test]
    fn jsonl_sink_streams_lines() {
        let mut s = JsonlSink::new(Vec::new());
        s.emit(&send(3));
        s.flush().unwrap();
        let bytes = s.into_inner().unwrap();
        assert_eq!(
            String::from_utf8(bytes).unwrap(),
            "{\"t\":3,\"kind\":\"send\",\"from\":0,\"to\":1,\"payload\":\"tree\"}\n"
        );
    }
}
