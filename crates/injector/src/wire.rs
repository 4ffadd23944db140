//! Binary wire format for [`RunRecord`] — the payload of the campaign
//! run journal.
//!
//! Built on the same LEB128 varint primitives as the `kfi-trace` event
//! codec ([`kfi_trace::codec`]); strings are length-prefixed UTF-8.
//! [`decode_record`] inverts [`encode_record`] exactly, which the
//! journaled checkpoint/resume path relies on for bit-identical
//! resumed campaigns.

use crate::outcome::{CrashInfo, FsvKind, Outcome, RunRecord, Severity};
use crate::target::{Campaign, InjectionTarget};
use kfi_trace::codec::{get_varint, put_varint, CodecError};

fn put_string(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn get_string(buf: &[u8], pos: &mut usize) -> Result<String, CodecError> {
    let len = get_varint(buf, pos)? as usize;
    let end = pos.checked_add(len).filter(|e| *e <= buf.len()).ok_or(CodecError::Truncated)?;
    let s = std::str::from_utf8(&buf[*pos..end]).map_err(|_| CodecError::Truncated)?;
    *pos = end;
    Ok(s.to_string())
}

fn get_byte(buf: &[u8], pos: &mut usize) -> Result<u8, CodecError> {
    let b = *buf.get(*pos).ok_or(CodecError::Truncated)?;
    *pos += 1;
    Ok(b)
}

const OUTCOME_NOT_ACTIVATED: u8 = 0;
const OUTCOME_NOT_MANIFESTED: u8 = 1;
const OUTCOME_FSV_WRONG_RESULT: u8 = 2;
const OUTCOME_FSV_CONSOLE: u8 = 3;
const OUTCOME_FSV_CORRUPTION: u8 = 4;
const OUTCOME_CRASH: u8 = 5;
const OUTCOME_HANG: u8 = 6;
const OUTCOME_RIG_FAULT: u8 = 7;

fn severity_code(s: Severity) -> u8 {
    match s {
        Severity::Normal => 0,
        Severity::Severe => 1,
        Severity::MostSevere => 2,
    }
}

fn severity_of(code: u8) -> Result<Severity, CodecError> {
    match code {
        0 => Ok(Severity::Normal),
        1 => Ok(Severity::Severe),
        2 => Ok(Severity::MostSevere),
        _ => Err(CodecError::Truncated),
    }
}

/// Appends the wire encoding of one record.
pub fn encode_record(out: &mut Vec<u8>, r: &RunRecord) {
    let t = &r.target;
    out.push(t.campaign.letter() as u8);
    put_string(out, &t.function);
    put_string(out, &t.subsystem);
    put_varint(out, t.insn_addr as u64);
    put_varint(out, t.insn_len as u64);
    put_varint(out, t.byte_index as u64);
    out.push(t.bit_mask);
    out.push(t.is_branch as u8);
    put_varint(out, r.mode as u64);
    match &r.outcome {
        Outcome::NotActivated => out.push(OUTCOME_NOT_ACTIVATED),
        Outcome::NotManifested => out.push(OUTCOME_NOT_MANIFESTED),
        Outcome::FailSilenceViolation(FsvKind::WrongResult { expected, got }) => {
            out.push(OUTCOME_FSV_WRONG_RESULT);
            put_varint(out, expected.len() as u64);
            for v in expected {
                put_varint(out, *v as u64);
            }
            put_varint(out, got.len() as u64);
            for v in got {
                put_varint(out, *v as u64);
            }
        }
        Outcome::FailSilenceViolation(FsvKind::ConsoleMismatch) => out.push(OUTCOME_FSV_CONSOLE),
        Outcome::FailSilenceViolation(FsvKind::SilentCorruption { detail }) => {
            out.push(OUTCOME_FSV_CORRUPTION);
            put_string(out, detail);
        }
        Outcome::Crash(i) => {
            out.push(OUTCOME_CRASH);
            put_varint(out, i.cause as u64);
            put_varint(out, i.eip as u64);
            match &i.function {
                None => out.push(0),
                Some(f) => {
                    out.push(1);
                    put_string(out, f);
                }
            }
            put_string(out, &i.subsystem);
            put_varint(out, i.latency);
            out.push(severity_code(i.severity));
            out.push(i.triple_fault as u8);
        }
        Outcome::Hang => out.push(OUTCOME_HANG),
        Outcome::RigFault(msg) => {
            out.push(OUTCOME_RIG_FAULT);
            put_string(out, msg);
        }
    }
    match r.activation_tsc {
        None => out.push(0),
        Some(t) => {
            out.push(1);
            put_varint(out, t);
        }
    }
    put_varint(out, r.run_cycles);
    put_varint(out, r.sanitizer_violations);
}

/// Decodes one record written by [`encode_record`], advancing `pos`.
///
/// # Errors
///
/// [`CodecError`] on truncation or an invalid tag/letter.
pub fn decode_record(buf: &[u8], pos: &mut usize) -> Result<RunRecord, CodecError> {
    let campaign = match get_byte(buf, pos)? {
        b'A' => Campaign::A,
        b'B' => Campaign::B,
        b'C' => Campaign::C,
        other => return Err(CodecError::BadTag { offset: *pos - 1, tag: other }),
    };
    let function = get_string(buf, pos)?;
    let subsystem = get_string(buf, pos)?;
    let insn_addr = get_varint(buf, pos)? as u32;
    let insn_len = get_varint(buf, pos)? as u8;
    let byte_index = get_varint(buf, pos)? as usize;
    let bit_mask = get_byte(buf, pos)?;
    let is_branch = get_byte(buf, pos)? != 0;
    let mode = get_varint(buf, pos)? as u32;
    let outcome_tag_offset = *pos;
    let outcome = match get_byte(buf, pos)? {
        OUTCOME_NOT_ACTIVATED => Outcome::NotActivated,
        OUTCOME_NOT_MANIFESTED => Outcome::NotManifested,
        OUTCOME_FSV_WRONG_RESULT => {
            let n = get_varint(buf, pos)? as usize;
            let mut expected = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                expected.push(get_varint(buf, pos)? as u32);
            }
            let n = get_varint(buf, pos)? as usize;
            let mut got = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                got.push(get_varint(buf, pos)? as u32);
            }
            Outcome::FailSilenceViolation(FsvKind::WrongResult { expected, got })
        }
        OUTCOME_FSV_CONSOLE => Outcome::FailSilenceViolation(FsvKind::ConsoleMismatch),
        OUTCOME_FSV_CORRUPTION => Outcome::FailSilenceViolation(FsvKind::SilentCorruption {
            detail: get_string(buf, pos)?,
        }),
        OUTCOME_CRASH => {
            let cause = get_varint(buf, pos)? as u32;
            let eip = get_varint(buf, pos)? as u32;
            let function = match get_byte(buf, pos)? {
                0 => None,
                _ => Some(get_string(buf, pos)?),
            };
            let subsystem = get_string(buf, pos)?;
            let latency = get_varint(buf, pos)?;
            let severity = severity_of(get_byte(buf, pos)?)?;
            let triple_fault = get_byte(buf, pos)? != 0;
            Outcome::Crash(CrashInfo {
                cause,
                eip,
                function,
                subsystem,
                latency,
                severity,
                triple_fault,
            })
        }
        OUTCOME_HANG => Outcome::Hang,
        OUTCOME_RIG_FAULT => Outcome::RigFault(get_string(buf, pos)?),
        other => return Err(CodecError::BadTag { offset: outcome_tag_offset, tag: other }),
    };
    let activation_tsc = match get_byte(buf, pos)? {
        0 => None,
        _ => Some(get_varint(buf, pos)?),
    };
    let run_cycles = get_varint(buf, pos)?;
    let sanitizer_violations = get_varint(buf, pos)?;
    Ok(RunRecord {
        target: InjectionTarget {
            campaign,
            function,
            subsystem,
            insn_addr,
            insn_len,
            byte_index,
            bit_mask,
            is_branch,
        },
        mode,
        outcome,
        activation_tsc,
        run_cycles,
        sanitizer_violations,
    })
}

/// Version of the coordinator↔worker protocol. A worker whose
/// [`Msg::Hello`] carries a different version is reaped immediately —
/// mixed builds must never exchange records. Version 2 dropped eleven
/// counters from the `JobDone` metrics; version 3 dropped the lease
/// acknowledgement and the heartbeat's job count, which nothing read.
pub const PROTOCOL_VERSION: u32 = 3;

const MSG_HELLO: u8 = 1;
const MSG_LEASE_GRANT: u8 = 2;
const MSG_HEARTBEAT: u8 = 4;
const MSG_JOB_DONE: u8 = 5;
const MSG_STALL: u8 = 6;
const MSG_DIE: u8 = 7;
const MSG_SHUTDOWN: u8 = 8;

/// One coordinator↔worker protocol message. Each is CRC-framed on the
/// pipe (`kfi_trace::frame`); the payload is this tagged encoding.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Worker → coordinator, first frame after spawn: proves liveness
    /// and that both sides computed the same plan.
    Hello {
        /// Must equal [`PROTOCOL_VERSION`].
        protocol: u32,
        /// Fingerprint of the campaign plan the worker derived from its
        /// CLI config — must match the coordinator's own.
        fingerprint: u64,
        /// Campaign seed, double-checking the fingerprint.
        seed: u64,
    },
    /// Coordinator → worker: a chunk of plan indices to execute under
    /// the given lease.
    LeaseGrant {
        /// Monotonic lease id; stale results quote it and are dropped.
        lease: u64,
        /// Which campaign the indices index into.
        campaign: Campaign,
        /// Plan indices to run, ascending.
        indices: Vec<u64>,
    },
    /// Worker → coordinator, periodic liveness signal.
    Heartbeat,
    /// Worker → coordinator: one plan index finished.
    JobDone {
        /// Lease the job was granted under.
        lease: u64,
        /// Plan index the record belongs to.
        index: u64,
        /// The classified run.
        record: RunRecord,
        /// The run's metrics delta.
        metrics: Box<kfi_trace::Metrics>,
    },
    /// Coordinator → worker (chaos harness): stop heartbeating and park
    /// forever, simulating a livelocked worker.
    Stall,
    /// Coordinator → worker (chaos harness): exit with the given code,
    /// simulating a worker crash.
    Die {
        /// Process exit code to die with.
        code: u32,
    },
    /// Coordinator → worker: campaign over, flush and exit cleanly.
    Shutdown,
}

/// Appends the wire encoding of one protocol message.
pub fn encode_msg(out: &mut Vec<u8>, msg: &Msg) {
    match msg {
        Msg::Hello { protocol, fingerprint, seed } => {
            out.push(MSG_HELLO);
            put_varint(out, *protocol as u64);
            put_varint(out, *fingerprint);
            put_varint(out, *seed);
        }
        Msg::LeaseGrant { lease, campaign, indices } => {
            out.push(MSG_LEASE_GRANT);
            put_varint(out, *lease);
            out.push(campaign.letter() as u8);
            put_varint(out, indices.len() as u64);
            for i in indices {
                put_varint(out, *i);
            }
        }
        Msg::Heartbeat => out.push(MSG_HEARTBEAT),
        Msg::JobDone { lease, index, record, metrics } => {
            out.push(MSG_JOB_DONE);
            put_varint(out, *lease);
            put_varint(out, *index);
            encode_record(out, record);
            metrics.encode_into(out);
        }
        Msg::Stall => out.push(MSG_STALL),
        Msg::Die { code } => {
            out.push(MSG_DIE);
            put_varint(out, *code as u64);
        }
        Msg::Shutdown => out.push(MSG_SHUTDOWN),
    }
}

/// Decodes one message written by [`encode_msg`], advancing `pos`.
///
/// # Errors
///
/// [`CodecError`] on truncation or an invalid tag/letter.
pub fn decode_msg(buf: &[u8], pos: &mut usize) -> Result<Msg, CodecError> {
    let tag_offset = *pos;
    match get_byte(buf, pos)? {
        MSG_HELLO => Ok(Msg::Hello {
            protocol: get_varint(buf, pos)? as u32,
            fingerprint: get_varint(buf, pos)?,
            seed: get_varint(buf, pos)?,
        }),
        MSG_LEASE_GRANT => {
            let lease = get_varint(buf, pos)?;
            let letter_offset = *pos;
            let campaign = match get_byte(buf, pos)? {
                b'A' => Campaign::A,
                b'B' => Campaign::B,
                b'C' => Campaign::C,
                other => return Err(CodecError::BadTag { offset: letter_offset, tag: other }),
            };
            let n = get_varint(buf, pos)? as usize;
            let mut indices = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                indices.push(get_varint(buf, pos)?);
            }
            Ok(Msg::LeaseGrant { lease, campaign, indices })
        }
        MSG_HEARTBEAT => Ok(Msg::Heartbeat),
        MSG_JOB_DONE => {
            let lease = get_varint(buf, pos)?;
            let index = get_varint(buf, pos)?;
            let record = decode_record(buf, pos)?;
            let metrics = Box::new(kfi_trace::Metrics::decode_from(buf, pos)?);
            Ok(Msg::JobDone { lease, index, record, metrics })
        }
        MSG_STALL => Ok(Msg::Stall),
        MSG_DIE => Ok(Msg::Die { code: get_varint(buf, pos)? as u32 }),
        MSG_SHUTDOWN => Ok(Msg::Shutdown),
        other => Err(CodecError::BadTag { offset: tag_offset, tag: other }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn target(campaign: Campaign) -> InjectionTarget {
        InjectionTarget {
            campaign,
            function: "do_page_fault".into(),
            subsystem: "arch".into(),
            insn_addr: 0xc010_2040,
            insn_len: 5,
            byte_index: 2,
            bit_mask: 0x08,
            is_branch: campaign != Campaign::A,
        }
    }

    fn all_outcomes() -> Vec<Outcome> {
        vec![
            Outcome::NotActivated,
            Outcome::NotManifested,
            Outcome::FailSilenceViolation(FsvKind::WrongResult {
                expected: vec![1, 2, 3],
                got: vec![],
            }),
            Outcome::FailSilenceViolation(FsvKind::ConsoleMismatch),
            Outcome::FailSilenceViolation(FsvKind::SilentCorruption {
                detail: "inode 5: size mismatch".into(),
            }),
            Outcome::Crash(CrashInfo {
                cause: 3,
                eip: 0xc010_aaaa,
                function: Some("schedule".into()),
                subsystem: "kernel".into(),
                latency: 123_456,
                severity: Severity::MostSevere,
                triple_fault: true,
            }),
            Outcome::Crash(CrashInfo {
                cause: 1,
                eip: 0,
                function: None,
                subsystem: "?".into(),
                latency: 0,
                severity: Severity::Normal,
                triple_fault: false,
            }),
            Outcome::Hang,
            Outcome::RigFault("worker panicked: index out of bounds".into()),
        ]
    }

    #[test]
    fn roundtrip_every_outcome_shape() {
        for (i, outcome) in all_outcomes().into_iter().enumerate() {
            let rec = RunRecord {
                target: target([Campaign::A, Campaign::B, Campaign::C][i % 3]),
                mode: i as u32,
                outcome,
                activation_tsc: if i % 2 == 0 { Some(1 << 40) } else { None },
                run_cycles: 987_654_321,
                sanitizer_violations: i as u64,
            };
            let mut buf = Vec::new();
            encode_record(&mut buf, &rec);
            let mut pos = 0;
            let back = decode_record(&buf, &mut pos).expect("decodes");
            assert_eq!(pos, buf.len());
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn msg_roundtrip_every_variant() {
        let mut metrics = kfi_trace::Metrics::default();
        metrics.runs = 1;
        metrics.instructions = 1 << 33;
        let msgs = vec![
            Msg::Hello { protocol: PROTOCOL_VERSION, fingerprint: 0xDEAD_BEEF_0BAD_F00D, seed: 11 },
            Msg::LeaseGrant { lease: 7, campaign: Campaign::B, indices: vec![0, 5, 1 << 40] },
            Msg::LeaseGrant { lease: 8, campaign: Campaign::C, indices: vec![] },
            Msg::Heartbeat,
            Msg::JobDone {
                lease: 7,
                index: 3,
                record: RunRecord {
                    target: target(Campaign::A),
                    mode: 2,
                    outcome: Outcome::Hang,
                    activation_tsc: Some(5),
                    run_cycles: 100,
                    sanitizer_violations: 0,
                },
                metrics: Box::new(metrics),
            },
            Msg::Stall,
            Msg::Die { code: 3 },
            Msg::Shutdown,
        ];
        for msg in msgs {
            let mut buf = Vec::new();
            encode_msg(&mut buf, &msg);
            let mut pos = 0;
            let back = decode_msg(&buf, &mut pos).expect("decodes");
            assert_eq!(pos, buf.len(), "decode must consume exactly what encode wrote");
            assert_eq!(back, msg);
            // Truncation anywhere errors instead of panicking.
            for cut in 0..buf.len() {
                let mut p = 0;
                let _ = decode_msg(&buf[..cut], &mut p);
            }
        }
    }

    #[test]
    fn msg_bad_tag_rejected() {
        let mut pos = 0;
        assert!(decode_msg(&[0xEE], &mut pos).is_err());
        let mut pos = 0;
        assert!(decode_msg(&[], &mut pos).is_err());
        // LeaseGrant with an invalid campaign letter.
        let mut buf = vec![MSG_LEASE_GRANT];
        put_varint(&mut buf, 1);
        buf.push(b'Z');
        let mut pos = 0;
        assert!(decode_msg(&buf, &mut pos).is_err());
    }

    #[test]
    fn truncation_never_panics() {
        let rec = RunRecord {
            target: target(Campaign::B),
            mode: 3,
            outcome: all_outcomes().remove(5),
            activation_tsc: Some(42),
            run_cycles: 9,
            sanitizer_violations: 0,
        };
        let mut buf = Vec::new();
        encode_record(&mut buf, &rec);
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert!(decode_record(&buf[..cut], &mut pos).is_err());
        }
    }
}
