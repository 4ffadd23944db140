//! Measurement helpers: percentiles with the tail rule, process CPU
//! time from `/proc/self/stat`, peak resident memory from
//! `/proc/self/status`, and the FNV-1a dataset digest.
//!
//! Every `/proc` reader returns an error naming what it expected when
//! the format is not the one it knows; none of them ever reads as zero.

/// Clock ticks per second of the `/proc/<pid>/stat` time fields. The
/// kernel reports them in `USER_HZ`, which is 100 on every architecture
/// Linux exposes to user space (it is fixed by the ABI, unlike `HZ`).
pub const USER_HZ: f64 = 100.0;

/// A tail percentile chosen by [`tail`]: its label (`p99`, `p95`,
/// `p90`, or `max` when no percentile has enough samples beyond it),
/// the value, and the sample count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Which percentile was reported.
    pub label: &'static str,
    /// The percentile's value.
    pub value: f64,
    /// Number of samples.
    pub n: usize,
}

/// Samples a percentile needs beyond it before it is reported as the
/// tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it. `q` is in `(0, 1]`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of quantile `q` among `n` samples. The epsilon
/// keeps `0.99 * 1000` from rounding up past rank 990.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The tail rule: the highest of p99, p95 and p90 that has at least
/// [`TAIL_MIN_BEYOND`] samples above its rank; `max` when even p90 has
/// fewer (under 100 samples). `None` for no samples.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    for (label, q) in [("p99", 0.99), ("p95", 0.95), ("p90", 0.90)] {
        if n - rank(n, q) >= TAIL_MIN_BEYOND {
            return Some(Tail { label, value: percentile(sorted, q), n });
        }
    }
    Some(Tail { label: "max", value: sorted[n - 1], n })
}

/// Median of the values (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Sum of `utime + stime + cutime + cstime` in clock ticks from the text
/// of `/proc/<pid>/stat`: this process's CPU time plus that of every
/// child it has waited for.
///
/// # Errors
///
/// A description when the text is not a stat line (no `)` closing the
/// command name, fewer than 17 fields, or a non-numeric time field).
pub fn parse_cpu_ticks(stat: &str) -> Result<u64, String> {
    // The command name (field 2) may itself contain spaces and ')', so
    // fields are counted from the last ')'.
    let close = stat
        .rfind(')')
        .ok_or_else(|| format!("/proc stat line has no `)` after the command name: {stat:?}"))?;
    let rest: Vec<&str> = stat[close + 1..].split_whitespace().collect();
    // rest[0] is field 3 (state); utime..cstime are fields 14..=17.
    let field = |n: usize| -> Result<u64, String> {
        let raw = rest.get(n - 3).ok_or_else(|| {
            format!("/proc stat line has {} fields, expected at least 17", rest.len() + 2)
        })?;
        raw.parse::<u64>().map_err(|_| format!("/proc stat field {n} is not a count: {raw:?}"))
    };
    Ok(field(14)? + field(15)? + field(16)? + field(17)?)
}

/// This process's CPU time in clock ticks, its reaped children's
/// included; divide a difference by [`USER_HZ`] for seconds.
///
/// # Errors
///
/// Unreadable or unexpected `/proc/self/stat`.
pub fn cpu_ticks() -> Result<u64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
    parse_cpu_ticks(&stat)
}

/// The `VmHWM` (peak resident set) line of `/proc/<pid>/status`, in KiB.
///
/// # Errors
///
/// A description when the line is missing, is not in `kB`, or its value
/// is not a positive count.
pub fn parse_vm_hwm_kib(status: &str) -> Result<u64, String> {
    let line =
        status.lines().find(|l| l.starts_with("VmHWM:")).ok_or("/proc status has no VmHWM line")?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let (Some(value), Some("kB"), None) = (parts.next(), parts.next(), parts.next()) else {
        return Err(format!("/proc status VmHWM line is not `<n> kB`: {line:?}"));
    };
    match value.parse::<u64>() {
        Ok(kib) if kib > 0 => Ok(kib),
        _ => Err(format!("/proc status VmHWM is not a positive count: {line:?}")),
    }
}

/// This process's peak resident set in MiB.
///
/// # Errors
///
/// Unreadable or unexpected `/proc/self/status`.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    Ok(parse_vm_hwm_kib(&status)? as f64 / 1024.0)
}

/// What one calibration pass takes on this host when it is quiet, in
/// milliseconds (2-vCPU Xeon guest, 300 MiB shared L3). Calibrated
/// times are scaled to this speed.
pub const CALIBRATION_REFERENCE_MS: f64 = 8.0;
/// Kernel steps per calibration pass.
const CALIBRATION_STEPS: u32 = 2_000_000;
/// Passes each thread runs per sample (its median is kept).
const CALIBRATION_PASSES: usize = 5;
/// Table words per thread: 4 MiB, twice the per-core L2, like a rig's
/// working set of guest memory and decode caches.
const CALIBRATION_WORDS: usize = 1 << 19;

/// Host-speed calibration.
///
/// Other tenants of a shared host load its caches and memory, and a
/// campaign slows by up to 2x for minutes at a time. A fixed kernel that
/// calls nothing in the repository, run on every worker thread right
/// around each timed phase, measures how fast the host is at that
/// moment; scaling a phase's time by [`CALIBRATION_REFERENCE_MS`] over
/// the kernel's time cancels most of that swing. No change to the
/// repository can move the kernel, so a scaled difference between two
/// commits is theirs.
pub struct Calibrator {
    tables: Vec<Vec<u64>>,
}

impl Calibrator {
    /// Allocates one table per worker thread and runs a first sample, so
    /// page faults on the tables fall outside every later sample.
    pub fn new(threads: usize) -> Calibrator {
        let mut c = Calibrator { tables: vec![vec![0u64; CALIBRATION_WORDS]; threads] };
        c.sample_ms();
        c
    }

    /// Milliseconds one pass takes right now: each thread runs its
    /// passes at once with the others and keeps the median; the threads'
    /// medians are averaged, since a campaign's work spreads over all of
    /// them.
    pub fn sample_ms(&mut self) -> f64 {
        let per_thread: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .tables
                .iter_mut()
                .map(|table| {
                    s.spawn(move || {
                        let times: Vec<f64> = (0..CALIBRATION_PASSES)
                            .map(|_| {
                                let t = std::time::Instant::now();
                                std::hint::black_box(calibration_pass(table));
                                t.elapsed().as_secs_f64() * 1e3
                            })
                            .collect();
                        median(&times)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("calibration thread panicked")).collect()
        });
        per_thread.iter().sum::<f64>() / per_thread.len() as f64
    }
}

/// One calibration pass: xorshift-driven reads and writes over the table
/// with data-dependent branches, the mix of integer work, unpredictable
/// branches and cache misses an interpreter makes.
fn calibration_pass(table: &mut [u64]) -> u64 {
    let mask = table.len() - 1;
    let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15u64, 0u64);
    for _ in 0..CALIBRATION_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &mut table[x as usize & mask];
        *slot = slot.wrapping_add(x ^ acc);
        acc = if *slot & 1 == 0 { acc.wrapping_mul(31).wrapping_add(*slot) } else { acc ^ *slot };
    }
    acc
}

/// 64-bit FNV-1a: the dataset digest over the CSV text.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = ramp(10);
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.91), 10.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 has rank 990, 10 beyond it.
        assert_eq!(tail(&ramp(1000)), Some(Tail { label: "p99", value: 990.0, n: 1000 }));
        // 999: p99 rank 990 leaves 9, p95 rank 950 leaves 49.
        assert_eq!(tail(&ramp(999)), Some(Tail { label: "p95", value: 950.0, n: 999 }));
        // 200: p95 rank 190 leaves 10.
        assert_eq!(tail(&ramp(200)).unwrap().label, "p95");
        // 100: only p90 (rank 90) leaves 10.
        assert_eq!(tail(&ramp(100)), Some(Tail { label: "p90", value: 90.0, n: 100 }));
        // Under 100 no percentile qualifies; the maximum is reported.
        assert_eq!(tail(&ramp(99)), Some(Tail { label: "max", value: 99.0, n: 99 }));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    const STAT: &str = "4242 (kfi bench) S 1 4242 4242 0 -1 4194304 900 0 0 0 \
                        150 25 7 3 20 0 3 0 12345 81920000 4000 18446744073709551615";

    #[test]
    fn cpu_ticks_sum_self_and_reaped_children() {
        assert_eq!(parse_cpu_ticks(STAT), Ok(150 + 25 + 7 + 3));
        // A command name with `)` and spaces must not shift the fields.
        let odd = STAT.replace("(kfi bench)", "(a) b (c))");
        assert_eq!(parse_cpu_ticks(&odd), Ok(185));
    }

    #[test]
    fn cpu_ticks_reject_unexpected_formats() {
        assert!(parse_cpu_ticks("4242 kfi S 1").unwrap_err().contains("no `)`"));
        assert!(parse_cpu_ticks("4242 (kfi) S 1 2 3").unwrap_err().contains("fields"));
        let bad = STAT.replace(" 150 ", " x ");
        assert!(parse_cpu_ticks(&bad).unwrap_err().contains("field 14"));
    }

    #[test]
    fn vm_hwm_parses_kib() {
        let status =
            "Name:\tkfi_benchmark\nVmPeak:\t  200000 kB\nVmHWM:\t   73728 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Ok(73728));
    }

    #[test]
    fn vm_hwm_rejects_unexpected_formats() {
        assert!(parse_vm_hwm_kib("VmRSS:\t1 kB\n").unwrap_err().contains("no VmHWM"));
        assert!(parse_vm_hwm_kib("VmHWM:\t1 MB\n").unwrap_err().contains("kB"));
        assert!(parse_vm_hwm_kib("VmHWM:\t0 kB\n").unwrap_err().contains("positive"));
        assert!(parse_vm_hwm_kib("VmHWM:\tlots kB\n").unwrap_err().contains("positive"));
    }

    #[test]
    fn live_proc_files_parse() {
        assert!(cpu_ticks().is_ok());
        assert!(peak_rss_mib().unwrap() > 0.0);
    }

    #[test]
    fn fnv1a64_is_pinned() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
