//! Sample statistics: medians, quartiles and tail percentiles that are
//! only reported when enough samples lie beyond them.

/// A tail percentile is trusted only when at least this many samples lie
/// strictly beyond it (so p99 needs ≥1000 samples).
pub const MIN_BEYOND: usize = 10;

/// A sorted set of samples.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Sorts `values` (NaNs are not expected and sort last).
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.sort_by(|a, b| a.total_cmp(b));
        Samples(values)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The median (mean of the middle two for an even count); 0 when empty.
    pub fn median(&self) -> f64 {
        let n = self.0.len();
        match n {
            0 => 0.0,
            _ if n % 2 == 1 => self.0[n / 2],
            _ => (self.0[n / 2 - 1] + self.0[n / 2]) / 2.0,
        }
    }

    /// Nearest-rank percentile `p` in `(0, 1)`, with the number of
    /// samples strictly beyond its rank; `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<(f64, usize)> {
        let n = self.0.len();
        if n == 0 {
            return None;
        }
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
        Some((self.0[rank - 1], n - rank))
    }

    /// The tail percentile `p` as reported: its value, plus a note when
    /// fewer than [`MIN_BEYOND`] samples lie beyond it.
    pub fn tail(&self, p: f64, what: &str) -> (f64, Option<String>) {
        match self.percentile(p) {
            None => (0.0, Some(format!("{what}: no samples"))),
            Some((v, beyond)) if beyond < MIN_BEYOND => (
                v,
                Some(format!(
                    "{what}: only {beyond} of {} samples beyond p{}, needs {MIN_BEYOND}",
                    self.len(),
                    p * 100.0
                )),
            ),
            Some((v, _)) => (v, None),
        }
    }
}

/// Share of a timed phase's windows whose samples a run reports.
pub const QUIET_KEEP: f64 = 1.0 / 5.0;
/// Length of those windows, in seconds.
pub const QUIET_WINDOW_S: f64 = 1.0;

/// The samples of a timed phase's least-disturbed windows.
///
/// On a shared host a core's speed swings between about 0.55× and 1×
/// of its best for seconds at a time (other tenants' load; measured with
/// a fixed spin loop, no steal time involved), which moves a whole-run
/// median as much as a code change would. `samples` are `(t, value)`
/// pairs, `t` in seconds from the start of a phase of length `span`. The
/// phase is cut into `windows` equal windows, the windows are ranked by
/// the median of their values, and the samples of the lowest `keep`
/// share of windows are returned, with the time those windows cover. A
/// program's rare slow requests barely move a window's median, so they
/// stay in; windows where the whole host ran slow drop out.
pub fn quiet_windows(
    samples: &[(f64, f64)],
    span: f64,
    windows: usize,
    keep: f64,
) -> (Vec<f64>, f64) {
    let windows = windows.max(1);
    let width = span / windows as f64;
    let mut bins: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for &(t, v) in samples {
        let i = ((t / width) as usize).min(windows - 1);
        bins[i].push(v);
    }
    let mut ranked: Vec<(f64, Vec<f64>)> = bins
        .into_iter()
        .filter(|b| !b.is_empty())
        .map(|b| (Samples::new(b.clone()).median(), b))
        .collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    let n = ((windows as f64 * keep).ceil() as usize).min(ranked.len());
    let kept: Vec<f64> = ranked.into_iter().take(n).flat_map(|(_, b)| b).collect();
    (kept, n as f64 * width)
}

/// [`quiet_windows`] with [`QUIET_WINDOW_S`] windows, keeping [`QUIET_KEEP`].
pub fn quiet(samples: &[(f64, f64)], span: f64) -> (Vec<f64>, f64) {
    let windows = (span / QUIET_WINDOW_S).round() as usize;
    quiet_windows(samples, span, windows, QUIET_KEEP)
}

/// The median of [`quiet`].
pub fn quiet_median(samples: &[(f64, f64)], span: f64) -> f64 {
    Samples::new(quiet(samples, span).0).median()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_windows_drop_the_slow_periods_but_keep_rare_outliers() {
        // 10 windows of 1 s, 10 samples each: windows 3 and 7 ran twice as
        // slow; window 5 has one 50× outlier.
        let mut samples = Vec::new();
        for w in 0..10 {
            for k in 0..10 {
                let t = w as f64 + k as f64 / 10.0;
                let v = match (w, k) {
                    (3 | 7, _) => 2.0,
                    (5, 0) => 50.0,
                    _ => 1.0,
                };
                samples.push((t, v));
            }
        }
        let (kept, secs) = quiet_windows(&samples, 10.0, 10, 0.8);
        assert_eq!(secs, 8.0);
        assert_eq!(kept.len(), 80);
        assert!(!kept.contains(&2.0));
        assert!(kept.contains(&50.0));
        // Keeping everything returns every sample; a sample at the very
        // end of the span lands in the last window.
        let (all, secs) = quiet_windows(&[(0.0, 1.0), (10.0, 3.0)], 10.0, 10, 1.0);
        assert_eq!((all.len(), secs), (2, 2.0));
    }

    fn ramp(n: usize) -> Samples {
        Samples::new((1..=n).rev().map(|i| i as f64).collect())
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, exactly 10 beyond.
        assert_eq!(ramp(1000).percentile(0.99), Some((990.0, 10)));
        // 999 samples: rank 990, only 9 beyond.
        assert_eq!(ramp(999).percentile(0.99), Some((990.0, 9)));
        // p90 of 100 samples has exactly 10 beyond; p95 has 5.
        assert_eq!(ramp(100).tail(0.90, "x"), (90.0, None));
        assert!(ramp(100).tail(0.95, "x").1.is_some());
        let (v, note) = ramp(999).tail(0.99, "query_p99_ms");
        assert_eq!(v, 990.0);
        assert!(note.unwrap().contains("only 9 of 999"));
        assert_eq!(ramp(1000).tail(0.99, "x"), (990.0, None));
    }

    #[test]
    fn median_and_empty_sets() {
        assert_eq!(ramp(5).median(), 3.0);
        assert_eq!(ramp(4).median(), 2.5);
        assert_eq!(Samples::default().median(), 0.0);
        assert_eq!(Samples::default().percentile(0.5), None);
        assert_eq!(ramp(1).percentile(0.99), Some((1.0, 0)));
    }
}
