//! Order statistics, the simulation digest and the process's peak RSS.

/// Median of the samples (mean of the middle pair for an even count).
/// `NaN` for an empty slice, which the result check then refuses.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn median_u64(samples: &[u64]) -> f64 {
    median(&samples.iter().map(|&x| x as f64).collect::<Vec<_>>())
}

/// The highest percentile with at least ten samples beyond it, as
/// `(value, percentile)`; with twenty samples or fewer that is no higher
/// than the median, which is returned.
pub fn high_percentile(samples: &[f64]) -> (f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 20 {
        return (median(&v), 50.0);
    }
    (v[n - 11], 100.0 * (n - 10) as f64 / n as f64)
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles of Python's `statistics.quantiles(v, n=4)`
/// (the rule the benchmark's acceptance check uses).
pub fn quartile_spread(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let q = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(3) - q(1)) / median(&v)
}

/// FNV-1a over 64-bit words.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartile_spread_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let v = [1.0, 2.0, 4.0, 8.0, 16.0];
        assert!((quartile_spread(&v) - (12.0 - 1.5) / 4.0).abs() < 1e-12);
    }

    #[test]
    fn high_percentile_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(high_percentile(&v), (89.0, 90.0));
        assert_eq!(high_percentile(&v[..20]).1, 50.0);
    }
}
