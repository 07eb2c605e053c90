//! Shared helpers for the repository-root integration tests.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hang guard for tests that drive real OS threads: if the returned guard is
/// still alive after `limit`, the whole process is aborted with a diagnostic
/// so CI reports a crash (with the test name) instead of stalling until the
/// harness-level timeout kills the job with no context.
///
/// Dropping the guard (the test finished, passed or panicked) disarms it.
pub struct Watchdog {
    done: Arc<AtomicBool>,
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.done.store(true, Ordering::Release);
    }
}

/// Arm a watchdog for the calling test.
pub fn watchdog(test: &'static str, limit: Duration) -> Watchdog {
    watchdog_with_dump(test, limit, || {})
}

/// Arm a watchdog that runs `dump` before aborting — the hook for dumping
/// whatever shared diagnostics the test wired up (the obs flight recorder
/// via a cloned [`obs::Tracer`]), so a wedged run dies with its evidence
/// attached instead of just a timeout.
pub fn watchdog_with_dump<F>(test: &'static str, limit: Duration, dump: F) -> Watchdog
where
    F: FnOnce() + Send + 'static,
{
    let done = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&done);
    std::thread::spawn(move || {
        let start = Instant::now();
        while start.elapsed() < limit {
            if flag.load(Ordering::Acquire) {
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        eprintln!("watchdog: test `{test}` still running after {limit:?}; dumping diagnostics");
        dump();
        eprintln!("watchdog: aborting process");
        std::process::abort();
    });
    Watchdog { done }
}

/// A ready-made dump closure for workflow tests: prints the obs flight
/// recorder (if recording).
#[allow(dead_code)] // each test binary compiles common/ independently
pub fn dump_tracer(tracer: obs::Tracer) -> impl FnOnce() + Send + 'static {
    move || {
        if tracer.enabled() {
            let t = tracer.dump();
            eprintln!(
                "--- flight recorder: {} trace records ({} dropped) ---",
                t.records.len(),
                t.dropped
            );
            eprint!("{}", t.to_jsonl());
        }
    }
}
