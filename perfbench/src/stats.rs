//! Summary statistics for the benchmark's samples, and the process's peak
//! resident set size.

/// Every sample of one metric in one run, in the order taken.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The median: the middle sample, or the mean of the two middle ones.
    /// `None` without samples.
    pub fn median(&self) -> Option<f64> {
        let v = self.sorted();
        let n = v.len();
        match n {
            0 => None,
            _ if n % 2 == 1 => Some(v[n / 2]),
            _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
        }
    }

    /// The `p`-th percentile (`0 < p < 100`) by the nearest-rank rule,
    /// reported only when at least [`MIN_TAIL`] samples lie strictly above
    /// its rank: a tail with fewer samples beyond it is no tail.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let v = self.sorted();
        let n = v.len();
        if n == 0 || !(0.0..100.0).contains(&p) {
            return None;
        }
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
        (n - rank >= MIN_TAIL).then(|| v[rank - 1])
    }

    /// The highest whole percentile this sample supports by the
    /// [`Samples::percentile`] rule; `None` when even the median lacks
    /// [`MIN_TAIL`] samples above it.
    pub fn highest_supported_percentile(&self) -> Option<u32> {
        (50..100)
            .rev()
            .find(|&p| self.percentile(f64::from(p)).is_some())
    }

    /// The smallest sample; infinity without samples.
    pub fn min(&self) -> f64 {
        self.0.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_TAIL: usize = 10;

/// Peak resident set size of this process in MiB, read from the
/// `VmHWM` line of a `/proc/<pid>/status` style document.
pub fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Peak resident set size of the running process in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_peak_rss_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(values: &[f64]) -> Samples {
        let mut s = Samples::default();
        for &v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(of(&[3.0, 1.0, 2.0]).median(), Some(2.0));
        assert_eq!(of(&[4.0, 1.0, 3.0, 2.0]).median(), Some(2.5));
        assert_eq!(of(&[7.5]).median(), Some(7.5));
        assert_eq!(Samples::default().median(), None);
    }

    #[test]
    fn sample_count_tracks_every_push() {
        let mut s = Samples::default();
        assert!(s.is_empty());
        for i in 0..37 {
            s.push(f64::from(i));
        }
        assert_eq!(s.len(), 37);
        assert!(!s.is_empty());
        assert_eq!(s.min(), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let hundred = of(&(1..=100).map(f64::from).collect::<Vec<_>>());
        // Rank 90 leaves exactly ten samples above it.
        assert_eq!(hundred.percentile(90.0), Some(90.0));
        // Rank 91 leaves nine: not a tail.
        assert_eq!(hundred.percentile(91.0), None);
        assert_eq!(hundred.highest_supported_percentile(), Some(90));

        let ninety_nine = of(&(1..=99).map(f64::from).collect::<Vec<_>>());
        assert_eq!(ninety_nine.percentile(90.0), None);
        assert_eq!(ninety_nine.highest_supported_percentile(), Some(89));

        let thousand = of(&(1..=1000).map(f64::from).collect::<Vec<_>>());
        assert_eq!(thousand.highest_supported_percentile(), Some(99));
        assert_eq!(thousand.percentile(99.0), Some(990.0));

        // Fewer than twenty samples: even the median has no ten above it.
        let few = of(&(1..=19).map(f64::from).collect::<Vec<_>>());
        assert_eq!(few.highest_supported_percentile(), None);
        assert_eq!(few.percentile(50.0), None);
    }

    #[test]
    fn percentile_ignores_insertion_order() {
        let mut values: Vec<f64> = (1..=200).map(f64::from).collect();
        values.reverse();
        assert_eq!(of(&values).percentile(90.0), Some(180.0));
    }

    #[test]
    fn peak_rss_reads_the_high_water_mark() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  900000 kB\nVmHWM:\t  524288 kB\nVmRSS:\t  1024 kB\n";
        assert_eq!(parse_peak_rss_mb(status), Some(512.0));
        assert_eq!(parse_peak_rss_mb("VmRSS:\t1024 kB\n"), None);
        assert_eq!(parse_peak_rss_mb("VmHWM:\tlots kB\n"), None);
        let live = peak_rss_mb().expect("Linux exposes VmHWM for this process");
        assert!(live > 0.0);
    }
}
