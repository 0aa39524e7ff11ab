//! A host-speed probe: a fixed amount of the benchmark's own CPU work,
//! run every [`PERIOD`] on a thread of its own and timed on that thread's
//! CPU clock, so waiting for a core does not count but a slower core
//! does. It tells a run on a slowed host from a slower program: the
//! program's code never runs in it.

use crate::fixtures::Rng;
use crate::stats::Samples;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How often the probe runs.
const PERIOD: Duration = Duration::from_millis(50);

/// A running probe.
pub struct Probe {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<f64>>,
}

impl Probe {
    pub fn start() -> Probe {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut cpu_ms = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                let t0 = thread_cpu_ns();
                std::hint::black_box(work());
                cpu_ms.push((thread_cpu_ns() - t0) as f64 / 1e6);
                std::thread::sleep(PERIOD);
            }
            cpu_ms
        });
        Probe { stop, thread }
    }

    /// Stops the probe; returns the median CPU time of the fixed work, in ms.
    pub fn finish(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        Samples::new(self.thread.join().expect("probe thread panicked")).median()
    }
}

/// The fixed work: sorting, hashing and float arithmetic.
fn work() -> f64 {
    let mut rng = Rng::new(7, 7);
    let mut v: Vec<u64> = (0..4096).map(|_| rng.next_u64()).collect();
    v.sort_unstable();
    let mut buckets: HashMap<u64, f64> = HashMap::new();
    for (i, x) in v.iter().enumerate() {
        *buckets.entry(x % 251).or_default() += (i as f64).sqrt() * 0.5;
    }
    buckets.values().sum()
}

fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a writable `struct timespec`.
    unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_measures_its_work() {
        let probe = Probe::start();
        std::thread::sleep(Duration::from_millis(120));
        let ms = probe.finish();
        assert!(ms > 0.0 && ms < 1000.0, "{ms}");
    }
}
