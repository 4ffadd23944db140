//! Wire-codec fuzz coverage: proptest roundtrips for every protocol
//! frame type — run records and the distributed-runner messages
//! (handshake, heartbeat, lease grant/ack, job results, chaos
//! controls) — plus corrupted-frame rejection and mid-stream resync.

use kfi_injector::wire::{decode_msg, encode_msg, Msg, PROTOCOL_VERSION};
use kfi_injector::{Campaign, CrashInfo, FsvKind, InjectionTarget, Outcome, RunRecord, Severity};
use kfi_trace::frame::{write_frame, StreamDecoder};
use kfi_trace::Metrics;
use proptest::prelude::*;

fn campaign(tag: u8) -> Campaign {
    match tag % 3 {
        0 => Campaign::A,
        1 => Campaign::B,
        _ => Campaign::C,
    }
}

/// A run record exercising every outcome shape, derived from a handful
/// of fuzzed scalars.
fn record(v: u64, outcome_tag: u8) -> RunRecord {
    let outcome = match outcome_tag % 6 {
        0 => Outcome::NotActivated,
        1 => Outcome::NotManifested,
        2 => Outcome::Hang,
        3 => Outcome::RigFault(format!("worker lost at {v}")),
        4 => Outcome::FailSilenceViolation(if v % 2 == 0 {
            FsvKind::ConsoleMismatch
        } else {
            FsvKind::WrongResult {
                expected: vec![v as u32, (v >> 16) as u32],
                got: vec![!v as u32],
            }
        }),
        _ => Outcome::Crash(CrashInfo {
            cause: (v % 14) as u32,
            eip: 0xc010_0000u32.wrapping_add(v as u32),
            function: if v % 2 == 0 { Some(format!("f{v}")) } else { None },
            subsystem: "fs".into(),
            latency: v % 100_000,
            severity: match v % 3 {
                0 => Severity::Normal,
                1 => Severity::Severe,
                _ => Severity::MostSevere,
            },
            triple_fault: v % 5 == 0,
        }),
    };
    RunRecord {
        target: InjectionTarget {
            campaign: campaign(outcome_tag),
            function: format!("fn_{}", v % 97),
            subsystem: if v % 2 == 0 { "ipc".into() } else { "net".into() },
            insn_addr: 0xc000_0000 | (v as u32 & 0xf_ffff),
            insn_len: 1 + (v % 6) as u8,
            byte_index: (v % 6) as usize,
            bit_mask: 1 << (v % 8),
            is_branch: v % 3 == 0,
        },
        mode: (v % 3) as u32,
        outcome,
        activation_tsc: if v % 4 == 0 { None } else { Some(v) },
        run_cycles: v.wrapping_mul(31),
        sanitizer_violations: v % 5,
    }
}

fn metrics(v: u64) -> Metrics {
    let mut m = Metrics::default();
    m.runs = 1;
    m.instructions = v % 1_000_000;
    m.rig_panics = v % 3;
    m.run_retries = v % 2;
    m.quarantined_runs = v % 4;
    m.dirty_pages = v % 50_000;
    m.run_cycles.record(v % 1_000_000);
    m
}

/// Every message shape derivable from two fuzzed scalars.
fn messages(v: u64, tag: u8) -> Vec<Msg> {
    vec![
        Msg::Hello { protocol: PROTOCOL_VERSION, fingerprint: v, seed: !v },
        Msg::LeaseGrant {
            lease: v,
            campaign: campaign(tag),
            indices: (0..(v % 7)).map(|i| v.wrapping_add(i) % 10_000).collect(),
        },
        Msg::Heartbeat,
        Msg::JobDone {
            lease: v % 100,
            index: v % 10_000,
            record: record(v, tag),
            metrics: Box::new(metrics(v)),
        },
        Msg::Stall,
        Msg::Die { code: (v % 256) as u32 },
        Msg::Shutdown,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every message type roundtrips exactly, consuming every byte it
    /// produced; every strict prefix is rejected as truncated.
    #[test]
    fn every_message_roundtrips(v in any::<u64>(), tag in any::<u8>()) {
        for msg in messages(v, tag) {
            let mut buf = Vec::new();
            encode_msg(&mut buf, &msg);
            let mut pos = 0;
            let back = decode_msg(&buf, &mut pos).expect("roundtrip");
            prop_assert_eq!(&back, &msg);
            prop_assert_eq!(pos, buf.len(), "decoder must consume exactly its encoding");
            for cut in 0..buf.len() {
                let mut pos = 0;
                prop_assert!(
                    decode_msg(&buf[..cut], &mut pos).is_err(),
                    "prefix of length {} must not decode",
                    cut
                );
            }
        }
    }

    /// A single corrupted byte anywhere in a framed message either
    /// fails the CRC (frame never reaches the decoder) or — if it
    /// lands in the length prefix — yields a different frame boundary,
    /// never a silently different message.
    #[test]
    fn corrupted_frames_never_decode_silently(
        v in any::<u64>(),
        tag in any::<u8>(),
        hit in any::<u16>(),
        flip in 1u8..255,
    ) {
        for msg in messages(v, tag) {
            let mut payload = Vec::new();
            encode_msg(&mut payload, &msg);
            let mut framed = Vec::new();
            write_frame(&mut framed, &payload);
            let mut bad = framed.clone();
            let i = hit as usize % bad.len();
            bad[i] ^= flip;

            let mut dec = StreamDecoder::new();
            dec.push(&bad);
            dec.finish();
            while let Some(p) = dec.next_frame() {
                // Resync can surface small false-positive windows (an
                // 8-zero-byte run inside a payload parses as a valid
                // empty frame), but those die at the message layer.
                // What must never happen is a *decodable message* other
                // than the one originally sent.
                let mut pos = 0;
                if let Ok(m) = decode_msg(&p, &mut pos) {
                    prop_assert_eq!(&m, &msg, "corruption produced a different valid message");
                }
            }
        }
    }

    /// A reader joining a stream mid-flight (arbitrary garbage prefix,
    /// then well-formed frames, fed in arbitrary chunk sizes) recovers
    /// every following message in order.
    #[test]
    fn midstream_resync_recovers_following_messages(
        v in any::<u64>(),
        tag in any::<u8>(),
        garbage in collection::vec(any::<u8>(), 0..64),
        chunk in 1usize..97,
    ) {
        let msgs = messages(v, tag);
        let mut stream = garbage.clone();
        for msg in &msgs {
            let mut payload = Vec::new();
            encode_msg(&mut payload, msg);
            write_frame(&mut stream, &payload);
        }
        let mut dec = StreamDecoder::new();
        for piece in stream.chunks(chunk) {
            dec.push(piece);
        }
        dec.finish();
        let mut got = Vec::new();
        while let Some(p) = dec.next_frame() {
            let mut pos = 0;
            if let Ok(m) = decode_msg(&p, &mut pos) {
                got.push(m);
            }
        }
        // The garbage prefix may happen to frame-align and decode; the
        // real messages must all survive as the tail.
        prop_assert!(got.len() >= msgs.len(), "lost messages after resync");
        prop_assert_eq!(&got[got.len() - msgs.len()..], &msgs[..]);
    }
}
