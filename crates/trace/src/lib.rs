//! # kfi-trace — zero-cost-when-off observability for the simulator
//!
//! The paper's methodology is built on *observing* what the injected
//! kernel did: crash causes, latency in cycles, propagation between
//! subsystems (DSN 2003 §6–7). This crate is the substrate for that
//! observation across the workspace:
//!
//! * a compact, timestamped [`Event`] model covering the machine
//!   (exceptions, CR3 switches, syscall entries, watchdog/timer ticks)
//!   and the injection rig (snapshot restores, trigger hits, bit flips,
//!   outcome classification, cross-subsystem propagation);
//! * a single-writer overwrite-oldest [`EventRing`] sink behind the
//!   [`TraceSink`] enum whose [`TraceSink::Null`] variant compiles to a
//!   single never-taken branch, so the hot exec loop pays nothing when
//!   tracing is off;
//! * the LEB128 varints of the workspace's binary encodings
//!   ([`codec`]) and their CRC-checked framing ([`frame`]);
//! * a [`Metrics`] counter registry (instructions retired, faults by
//!   vector, TLB-miss page walks, snapshot restores, per-run latencies)
//!   whose [`Metrics::merge`] is pure addition — commutative and
//!   associative, so campaign aggregation over worker threads is
//!   deterministic no matter how work was sharded.
//!
//! Everything here is host-side instrumentation: sinks and counters are
//! never part of machine snapshots, and emitting events must never
//! perturb simulated state (the machine crate's property tests enforce
//! exactly that).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod metrics;
mod ring;

pub mod codec;
pub mod frame;
pub mod latency;

pub use event::{outcome, subsystem, Event, EventKind};
pub use latency::LatencyHist;
pub use metrics::{CycleHist, Metrics};
pub use ring::EventRing;

/// Where trace events go. [`TraceSink::Null`] is the default and makes
/// every [`emit`](TraceSink::emit) a no-op behind one predictable
/// branch; [`TraceSink::Ring`] records into a bounded [`EventRing`].
#[derive(Debug, Clone, Default)]
pub enum TraceSink {
    /// Tracing off: emit is a no-op.
    #[default]
    Null,
    /// Tracing on: events land in a bounded overwrite-oldest ring.
    Ring(EventRing),
}

impl TraceSink {
    /// A ring sink holding the `capacity` most recent events.
    pub fn ring(capacity: usize) -> TraceSink {
        TraceSink::Ring(EventRing::new(capacity))
    }

    /// True when events are being recorded.
    #[inline(always)]
    pub fn is_enabled(&self) -> bool {
        !matches!(self, TraceSink::Null)
    }

    /// Records one event (no-op for [`TraceSink::Null`]).
    #[inline(always)]
    pub fn emit(&mut self, tsc: u64, kind: EventKind) {
        if let TraceSink::Ring(ring) = self {
            ring.push(Event { tsc, kind });
        }
    }

    /// The recorded events in order, oldest first (empty for Null).
    pub fn events(&self) -> Vec<Event> {
        match self {
            TraceSink::Null => Vec::new(),
            TraceSink::Ring(ring) => ring.events(),
        }
    }

    /// Drops all recorded events, keeping the sink enabled.
    pub fn clear(&mut self) {
        if let TraceSink::Ring(ring) = self {
            ring.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_records_nothing() {
        let mut s = TraceSink::Null;
        s.emit(1, EventKind::WatchdogTick { eip: 0 });
        assert!(s.events().is_empty());
        assert!(!s.is_enabled());
    }

    #[test]
    fn ring_sink_records_in_order() {
        let mut s = TraceSink::ring(8);
        assert!(s.is_enabled());
        for i in 0..5u64 {
            s.emit(i * 10, EventKind::SyscallEntry { nr: i as u32 });
        }
        let ev = s.events();
        assert_eq!(ev.len(), 5);
        assert!(ev.windows(2).all(|w| w[0].tsc < w[1].tsc));
    }
}
