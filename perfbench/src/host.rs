//! Host facts recorded with every run: thread count, memory bandwidth calibration and
//! peak resident set size.

use std::hint::black_box;
use std::time::Instant;

/// Row size of the calibration sweep: one paper-geometry DRAM row (8 KiB).
const CALIB_ROW_BYTES: usize = 8 * 1024;
/// Rows per calibration sweep (32 MiB per buffer, larger than any host cache).
const CALIB_ROWS: usize = 4096;
/// Sweeps per calibration; the median is reported.
const CALIB_SWEEPS: usize = 7;

/// Worker threads the benchmark hands to the broadcast engine: the host's available
/// parallelism.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Host copy bandwidth in GB/s: the median of several sweeps copying 8 KiB rows
/// between two 32 MiB buffers. Dividing a host throughput by it makes result files
/// from different hosts comparable.
pub fn calibrate_gbps() -> f64 {
    let words = CALIB_ROW_BYTES / 8;
    let src: Vec<u64> = (0..(CALIB_ROWS * words) as u64).collect();
    let mut dst = vec![0u64; CALIB_ROWS * words];
    let mut rates: Vec<f64> = (0..CALIB_SWEEPS)
        .map(|_| {
            let start = Instant::now();
            for (d, s) in dst.chunks_exact_mut(words).zip(src.chunks_exact(words)) {
                d.copy_from_slice(black_box(s));
            }
            black_box(&mut dst);
            (CALIB_ROWS * CALIB_ROW_BYTES) as f64 / start.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    median(&mut rates)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc/self/status` does not exist.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// glibc malloc settings every process of a run uses (see [`with_pinned_malloc`]).
///
/// By default glibc raises its mmap threshold to the size of each large mapped block
/// a process frees, up to 32 MiB, and its trim threshold to twice that. How far a
/// process gets depends on the order in which its threads free memory during set-up,
/// so two processes of the same seed landed, at random, ~15,000 or ~225,000 page
/// faults apart per `paper1_serve` pass, and serve's host rate was bimodal. Pinning
/// both thresholds at those ceilings makes every process start in the state glibc
/// converges to.
pub const MALLOC_TUNABLES: &str =
    "glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=67108864";

/// The environment variable that carries [`MALLOC_TUNABLES`].
pub const TUNABLES_VAR: &str = "GLIBC_TUNABLES";

/// `None` when this process already runs with [`MALLOC_TUNABLES`]. Otherwise runs this
/// executable again with the same arguments and the tunables set, waits for it and
/// returns its exit code, or an error when it cannot be started. Its output goes
/// straight to this process's output.
pub fn with_pinned_malloc() -> Option<Result<i32, String>> {
    if std::env::var(TUNABLES_VAR).as_deref() == Ok(MALLOC_TUNABLES) {
        return None;
    }
    let status = std::env::current_exe()
        .and_then(|exe| {
            std::process::Command::new(exe)
                .args(std::env::args_os().skip(1))
                .env(TUNABLES_VAR, MALLOC_TUNABLES)
                .status()
        })
        .map_err(|e| format!("cannot run the benchmark with pinned malloc settings: {e}"));
    Some(status.map(|s| s.code().unwrap_or(1)))
}

/// Names of the `SIMDRAM_*` variables set in the environment. The benchmark builds its
/// configurations explicitly, so these cannot change a workload; they are recorded so
/// a leaked override is visible.
pub fn simdram_env() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SIMDRAM_"))
        .collect();
    names.sort();
    names
}

/// Median of `values` (sorted in place); 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `values` (sorted in place); 0 when empty.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 99.0), 99.0);
    }

    #[test]
    fn calibration_is_positive() {
        assert!(calibrate_gbps() > 0.0);
    }
}
