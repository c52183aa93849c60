//! The in-memory trace recorder.

use crate::event::{EventKind, TraceEvent};

/// How much of the kernel's activity is recorded.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TraceLevel {
    /// Recovery phases, connection lifecycle, partitions, spawns, exits
    /// and retries — everything the breakdown needs.
    #[default]
    Recovery,
    /// Everything above plus one event per kernel action dispatched.
    /// Traces grow with simulated traffic; use for debugging.
    Kernel,
}

/// The ordered, levelled event log of one simulation run, keyed by
/// simulated time. (Counters live in `simnet::Metrics`.)
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    level: TraceLevel,
    events: Vec<TraceEvent>,
}

impl Recorder {
    /// An empty recorder at the default [`TraceLevel::Recovery`].
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// An empty recorder at `level`.
    pub fn with_level(level: TraceLevel) -> Recorder {
        Recorder {
            level,
            events: Vec::new(),
        }
    }

    /// The configured verbosity.
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// Appends an event. `Dispatch` events are dropped below
    /// [`TraceLevel::Kernel`]; everything else is always kept.
    pub fn emit(&mut self, at_ns: u64, node: u32, pid: u64, kind: EventKind) {
        if matches!(kind, EventKind::Dispatch { .. }) && self.level < TraceLevel::Kernel {
            return;
        }
        let seq = self.events.len() as u64;
        self.events.push(TraceEvent {
            seq,
            at_ns,
            node,
            pid,
            kind,
        });
    }

    /// The ordered trace.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// The ordered trace, by value.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Phase;

    #[test]
    fn dispatch_filtered_below_kernel_level() {
        let mut r = Recorder::new();
        r.emit(1, 0, 0, EventKind::Dispatch { action: "deliver" });
        r.emit(2, 0, 0, EventKind::Phase(Phase::LeakDetected));
        assert_eq!(r.events().len(), 1);
        assert_eq!(r.events()[0].seq, 0);

        let mut rk = Recorder::with_level(TraceLevel::Kernel);
        rk.emit(1, 0, 0, EventKind::Dispatch { action: "deliver" });
        assert_eq!(rk.events().len(), 1);
    }
}
