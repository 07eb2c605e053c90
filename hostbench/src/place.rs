//! Thread placement. The driver and the two servers exchange a hundred-odd
//! condvar-signalled messages per step, so where the scheduler happens to put
//! three threads on two cores decides the result: unpinned, whole rounds ran
//! at 1 100 or at 2 700 steps/s with nothing else changed, and pinning the
//! servers apart from each other still left cross-core wake-ups twice as
//! noisy as no cross-core wake-ups at all. A benchmark that cannot tell
//! placement from a code change is useless, so the whole process is pinned to
//! one CPU: every step then costs the sum of the work all threads do for it,
//! which is also what lets the per-layer self times add up to the latency.
//!
//! The standard library has no affinity call and this package adds no
//! dependency, so the pin is one `taskset -pc CPU TID` on the main thread
//! before anything is spawned (threads inherit their creator's affinity).
//! Where `taskset` is missing or refused the run fails: an unpinned number
//! would be compared with pinned ones.

use std::process::Command;

fn own_tid() -> Option<u64> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// CPUs this process may run on, from `Cpus_allowed_list`.
fn allowed_cpus() -> Vec<usize> {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return Vec::new() };
    let Some(list) = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:")) else {
        return Vec::new();
    };
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// Pin the calling thread, and so every thread it later spawns, to the last
/// CPU it is allowed on (the first tends to take the interrupts). Returns the
/// CPU.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let cpu = *allowed_cpus().last().ok_or("cannot read Cpus_allowed_list of /proc/self/status")?;
    let tid = own_tid().ok_or("cannot read /proc/thread-self")?;
    let out = Command::new("taskset")
        .args(["-pc", &cpu.to_string(), &tid.to_string()])
        .output()
        .map_err(|e| format!("cannot pin to CPU {cpu}: taskset: {e}"))?;
    if out.status.success() {
        Ok(cpu)
    } else {
        Err(format!("cannot pin to CPU {cpu}: {}", String::from_utf8_lossy(&out.stderr).trim()))
    }
}
