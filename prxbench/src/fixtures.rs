//! Inputs and helpers shared by the workloads: the seeded generator,
//! views and documents, answer comparison, set-up timing, the loopback
//! server, and process facts (core count, peak RSS, commit).

use pxv_engine::{Engine, View};
use pxv_pxml::{NodeId, PDocument};
use pxv_server::serve::{serve, ServerConfig, ServerHandle};
use pxv_tpq::parse::parse_pattern;
use std::path::PathBuf;
use std::time::Instant;

/// Each workload builds its set-up at least [`SETUP_MIN_REPS`] times and
/// until [`SETUP_MIN_SECS`] have passed (at most [`SETUP_MAX_REPS`]
/// times); `setup_s` is the median.
pub const SETUP_MIN_REPS: usize = 11;
pub const SETUP_MIN_SECS: f64 = 3.0;
pub const SETUP_MAX_REPS: usize = 101;

/// splitmix64: a small, fast, seedable generator (the benchmark's only
/// source of randomness, so one seed fixes every input).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

/// Zipf-distributed ranks `0..n`: weight of rank `k` ∝ `1/(k+1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let x = rng.unit();
        self.cdf
            .iter()
            .position(|&c| x < c)
            .unwrap_or(self.cdf.len() - 1)
    }
}

/// The seed of document `i` of a workload run with `seed`.
pub fn doc_seed(seed: u64, i: usize) -> u64 {
    Rng::new(seed, 1000 + i as u64).next_u64()
}

/// A seeded `personnel` document (3 projects per person).
pub fn personnel(persons: usize, seed: u64) -> PDocument {
    pxv_pxml::generators::personnel(persons, 3, seed).0
}

/// Views from `(name, pattern)` pairs.
pub fn views(defs: &[(&str, &str)]) -> Vec<View> {
    defs.iter()
        .map(|&(name, p)| View::new(name, parse_pattern(p).expect("fixture view parses")))
        .collect()
}

/// Bit-for-bit equality of two answers.
pub fn same_answer(a: &[(NodeId, f64)], b: &[(NodeId, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

/// Same nodes, probabilities within `tol`.
pub fn close_answer(a: &[(NodeId, f64)], b: &[(NodeId, f64)], tol: f64) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && (x.1 - y.1).abs() <= tol)
}

/// Runs `build` as often as [`SETUP_MIN_REPS`] and [`SETUP_MIN_SECS`]
/// ask; puts the median wall time as `setup_s` and the count as
/// `setup_reps`, and returns the last value built.
pub fn timed_setup<T>(report: &mut crate::report::Report, mut build: impl FnMut() -> T) -> T {
    let mut secs = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while secs.len() < SETUP_MAX_REPS
        && (secs.len() < SETUP_MIN_REPS || start.elapsed().as_secs_f64() < SETUP_MIN_SECS)
    {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(build());
        secs.push(t0.elapsed().as_secs_f64());
    }
    report.put("setup_reps", secs.len() as f64, "count");
    report.put("setup_s", crate::stats::Samples::new(secs).median(), "s");
    last.expect("SETUP_MIN_REPS > 0")
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Serves `engine` on an ephemeral loopback port with one worker per core.
pub fn serve_loopback(engine: Engine) -> ServerHandle {
    serve(
        engine,
        &ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: nproc(),
            max_connections: 64,
            ..ServerConfig::default()
        },
    )
    .expect("bind a loopback port")
}

/// Where results, traces and the snapshot file go (ignored by git).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create the output directory");
    dir
}

/// Makes the allocator keep the heap it is handed back (glibc: no
/// trimming, no `mmap` for large blocks), so this process's resident set
/// follows the heap's high-water mark. By default glibc returns free
/// memory at moments that vary from run to run, which moved `restart`'s
/// peak RSS by about ±7% between runs of the same seed. Called once, first
/// thing in `main`; [`reset_peak_rss`] still hands set-up's heap back.
pub fn keep_freed_heap() {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_MAX: i32 = -4;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: mallopt only changes glibc's allocation policy; it is
    // called before the process starts any other thread.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
        mallopt(M_MMAP_MAX, 0);
    }
}

/// Starts measuring peak RSS from now: hands freed heap back to the
/// system and resets the kernel's high-water mark (`VmHWM`) of this
/// process to its current resident set, so [`peak_rss_mb`] covers only
/// what runs after this call, not the set-up before it.
pub fn reset_peak_rss() -> Result<(), String> {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's malloc_trim only releases free memory.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak-RSS mark (/proc/self/clear_refs): {e}"))
}

/// Peak resident set size of this process (the one hosting the server)
/// since the last [`reset_peak_rss`], in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The commit the benchmark was built from, read from `.git` when the
/// checkout has one.
pub fn commit() -> String {
    let git = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok();
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(git.join(reference)) {
        return id.trim().to_string();
    }
    read(git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|id| id.trim().to_string())
                    .filter(|id| !id.is_empty())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_per_seed_and_stream() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
        let mut r = Rng::new(1, 0);
        assert!((0..1000).all(|_| (0.0..1.0).contains(&r.unit())));
        assert!((0..1000).all(|_| r.below(3) < 3));
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(8, 1.2);
        let mut r = Rng::new(3, 0);
        let mut counts = [0usize; 8];
        for _ in 0..20_000 {
            counts[z.sample(&mut r)] += 1;
        }
        assert!(counts.windows(2).all(|w| w[0] > w[1]), "{counts:?}");
        assert!(counts[7] > 0);
    }

    #[test]
    fn answers_compare_bitwise_or_within_tolerance() {
        let a = [(NodeId(1), 0.1 + 0.2)];
        let b = [(NodeId(1), 0.3)];
        assert!(!same_answer(&a, &b));
        assert!(close_answer(&a, &b, 1e-9));
        assert!(same_answer(&a, &a));
        assert!(!close_answer(&a, &[(NodeId(2), 0.3)], 1e-9));
    }

    #[test]
    fn peak_rss_is_measured_from_the_reset() {
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        let before = peak_rss_mb();
        assert!(before > 64.0, "{before}");
        drop(big);
        reset_peak_rss().unwrap();
        let after = peak_rss_mb();
        assert!(after > 1.0 && after < before - 32.0, "{before} -> {after}");
    }
}
