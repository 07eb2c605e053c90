//! Sample statistics and the process-level readings (calibrant, peak RSS,
//! free space) every run reports.

use logstore::checksum::Crc32;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Percentile `p` (0..=100) of `xs` by nearest rank; 0 for an empty sample.
pub fn percentile(xs: &mut [f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// Median with the mean of the two middle values for even counts.
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

pub fn ns_to_us(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e3).collect()
}

/// The calibrant: `logstore`'s CRC kernel over a 1 MiB buffer that fits the
/// last-level cache, run for `budget`; returns MiB per second of wall time.
/// It depends on nothing the workloads exercise except the machine, so a
/// shift between the start and end reading of one run (or between two runs)
/// means the machine changed, not the program. All the wall time counts, not
/// the typical slice: what changes on this sandbox is how often the
/// hypervisor takes the CPU away for 0.1–10 ms (a tenth of the time in a
/// quiet spell, a quarter in a noisy one, none of it reported as steal), and
/// a median of slices would not see that.
pub fn calibrant_mib_s(budget: Duration) -> f64 {
    let buf: Vec<u8> = (0..1u32 << 20).map(|i| (i.wrapping_mul(2654435761) >> 24) as u8).collect();
    let mut mib = 0.0;
    let start = Instant::now();
    while start.elapsed() < budget {
        let mut crc = Crc32::new();
        crc.update(black_box(&buf));
        black_box(crc.finish());
        mib += 1.0;
    }
    mib / start.elapsed().as_secs_f64()
}

/// `VmHWM` of this process in MiB (0 where `/proc` is absent).
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Free bytes on the filesystem holding `dir`, from `df -Pk`; `None` when
/// `df` is unavailable (the caller then skips the free-space guard).
pub fn free_bytes(dir: &Path) -> Option<u64> {
    let out = std::process::Command::new("df").arg("-Pk").arg(dir).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    let avail_kib: u64 = text.lines().nth(1)?.split_whitespace().nth(3)?.parse().ok()?;
    Some(avail_kib * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_medians() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut xs, 50.0), 50.0);
        assert_eq!(percentile(&mut xs, 99.0), 99.0);
        assert_eq!(percentile(&mut xs, 100.0), 100.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }
}
