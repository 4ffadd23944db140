//! Property: tracing is observationally transparent. Running the same
//! guest code with a ring sink installed must leave the machine in a
//! bitwise-identical state (CPU + memory + device latches, compared via
//! the snapshot) and on an identical TSC as running it with the default
//! [`TraceSink::Null`] — emission can never perturb execution.

use kfi_machine::{Machine, MachineConfig, RunExit};
use kfi_trace::TraceSink;
use proptest::prelude::*;

fn machine_with(code: &[u8]) -> Machine {
    // Timer on so WatchdogTick emission is exercised; random byte soup
    // exercises ExceptionRaised (and occasionally the rest).
    let mut m = Machine::new(MachineConfig {
        phys_mem: 1 << 20,
        timer_period: 1000,
        timer_enabled: true,
        ..Default::default()
    });
    m.mem.load(0x1000, code);
    m.cpu.eip = 0x1000;
    m.cpu.set_reg(4, 0x8000);
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ring_sink_is_observationally_transparent(
        code in proptest::collection::vec(any::<u8>(), 1..512),
    ) {
        let mut null = machine_with(&code);
        let exit_null = null.run(200_000);

        let mut ring = machine_with(&code);
        ring.set_trace_sink(TraceSink::ring(128));
        let exit_ring = ring.run(200_000);

        prop_assert_eq!(exit_null, exit_ring);
        prop_assert_eq!(null.cpu.tsc, ring.cpu.tsc);
        prop_assert_eq!(null.snapshot(), ring.snapshot());
        prop_assert_eq!(null.counters(), ring.counters());
        prop_assert_eq!(null.console(), ring.console());
    }

    /// The ring records what the null sink discards: after a faulting
    /// run, events exist and are monotone in TSC.
    #[test]
    fn recorded_events_are_monotone(
        code in proptest::collection::vec(any::<u8>(), 1..256),
    ) {
        let mut m = machine_with(&code);
        m.set_trace_sink(TraceSink::ring(256));
        let exit = m.run(200_000);
        let events = m.trace_sink().events();
        if exit == RunExit::TripleFault {
            // A triple fault delivers at least one recorded exception.
            prop_assert!(!events.is_empty());
        }
        for w in events.windows(2) {
            prop_assert!(w[0].tsc <= w[1].tsc);
        }
    }
}
