//! Sample series and the percentile rule the benchmark reports by.
//!
//! A percentile is the nearest-rank value of the sorted samples. A
//! tail is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it; the median needs the same number on each side.

/// Samples a reported percentile needs beyond it.
pub const MIN_BEYOND: usize = 10;

/// One series of measurements (wall or simulated), in its unit.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
}

/// A percentile read off a series, with the sample counts behind it.
#[derive(Debug, Clone, Copy)]
pub struct Quantile {
    pub value: f64,
    pub samples: usize,
    pub beyond: usize,
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.sum() / self.values.len() as f64
        }
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    /// Nearest-rank `q`-quantile, `None` for an empty series.
    pub fn quantile(&self, q: f64) -> Option<Quantile> {
        if self.values.is_empty() {
            return None;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(Quantile {
            value: sorted[rank - 1],
            samples: n,
            beyond: n - rank,
        })
    }

    /// The median, or 0 for an empty series.
    pub fn p50(&self) -> f64 {
        self.quantile(0.5).map_or(0.0, |q| q.value)
    }
}

/// One reported metric and, for a percentile, the samples behind it.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub support: Option<Quantile>,
}

/// The `q`-quantile of `s` as a metric (0 when `s` is empty).
pub fn pct(name: impl Into<String>, s: &Samples, q: f64, unit: &'static str) -> Metric {
    let support = s.quantile(q);
    Metric {
        name: name.into(),
        value: support.map_or(0.0, |q| q.value),
        unit,
        support,
    }
}

/// A metric that is not a percentile.
pub fn plain(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        support: None,
    }
}

/// `num / den`, or 0 when the base is empty.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_of_a_thousand_leaves_ten_beyond() {
        let mut s = Samples::default();
        for i in 1..=1000 {
            s.push(i as f64);
        }
        let q = s.quantile(0.99).unwrap();
        assert_eq!(q.value, 990.0);
        assert_eq!(q.beyond, MIN_BEYOND);
        assert_eq!(s.quantile(0.5).unwrap().value, 500.0);
    }
}
