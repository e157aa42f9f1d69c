//! Process and host measurements: CPU time, peak resident memory,
//! quantiles and the host-calibration kernel.

use std::hint::black_box;
use std::time::Instant;

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, fixed at 100 by the
/// kernel ABI on every mainstream architecture.
const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU seconds consumed by this process so far, threads
/// that already exited included.
#[must_use]
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields resume after its ')'.
    // `utime` and `stime` are fields 14 and 15, i.e. 11 and 12 after it.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|s| s.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => (u + s) / TICKS_PER_S,
        _ => f64::NAN,
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Nearest-rank quantile of `values` (`q` in `[0, 1]`); NaN when empty.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest rank).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Iterations of the calibration kernel.
const CALIB_ITERS: u64 = 1 << 21;

/// Times a fixed, dependency-free kernel — a serial floating-point
/// recurrence plus an integer mix, nothing the program under test touches
/// — and returns its wall time in nanoseconds, the fastest of three runs.
/// The kernel never changes, so its time tracks only the host: comparing
/// it across sessions shows how much of a shift in the other figures is
/// host drift.
#[must_use]
pub fn calib_ns() -> f64 {
    (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let mut x = black_box(0.5f64);
            let mut h = black_box(0x9E37_79B9_7F4A_7C15u64);
            for _ in 0..CALIB_ITERS {
                x = x.mul_add(0.999_999_7, 1e-7);
                h = (h ^ (h >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            }
            black_box((x, h));
            t0.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Seconds since `t0` as `f64`.
#[must_use]
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 10.0);
        assert_eq!(quantile(&v, 0.95), 19.0);
        assert_eq!(quantile(&v, 1.0), 20.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn process_readings_are_live() {
        assert!(process_cpu_s() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(calib_ns() > 0.0);
    }
}
