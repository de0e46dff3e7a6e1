//! The estimator: best-of-reps for a run's value, per-query minima for
//! latency populations, and quantiles with linear interpolation.
//!
//! Interference from the host only ever adds time, so the minimum over
//! repetitions (maximum for a rate) is the steadiest estimate of what the
//! code itself costs; README.md has the measured spreads behind that
//! choice. The detail file still carries median and quartiles over reps,
//! so the spread stays visible.

/// Which direction is better for a metric.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    /// Times, sizes.
    Lower,
    /// Rates.
    Higher,
}

/// The `q`-quantile (0 ≤ q ≤ 1) of an ascending slice, interpolating
/// linearly between the two nearest ranks. Panics on an empty slice: a
/// phase that produced no samples is a bug in the benchmark.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile of an unsorted sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(values), q)
}

/// Five-number summary of the values one metric took over repetitions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let s = sorted(values);
        Summary {
            n: s.len(),
            min: s[0],
            q1: quantile_sorted(&s, 0.25),
            median: quantile_sorted(&s, 0.5),
            q3: quantile_sorted(&s, 0.75),
            max: s[s.len() - 1],
        }
    }

    /// The run's value: the best repetition.
    pub fn best(&self, better: Better) -> f64 {
        match better {
            Better::Lower => self.min,
            Better::Higher => self.max,
        }
    }

    /// Interquartile range as a share of the median — the driver's
    /// spread measure.
    pub fn iqr_share(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }

    /// Full range as a share of the median.
    pub fn range_share(&self) -> f64 {
        (self.max - self.min) / self.median
    }

    pub fn to_json(self) -> String {
        format!(
            "{{\"n\":{},\"min\":{},\"q1\":{},\"median\":{},\"q3\":{},\"max\":{}}}",
            self.n, self.min, self.q1, self.median, self.q3, self.max
        )
    }
}

/// Element-wise minimum over repetitions of the same query list: entry
/// `i` is the fastest that query `i` ever ran. Every repetition must
/// time the same queries in the same order.
pub fn per_query_min(reps: &[Vec<f64>]) -> Vec<f64> {
    let mut best = reps.first().cloned().unwrap_or_default();
    for rep in &reps[1.min(reps.len())..] {
        assert_eq!(rep.len(), best.len(), "reps time different query lists");
        for (b, &v) in best.iter_mut().zip(rep) {
            *b = b.min(v);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn summary_orders_and_picks_best() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.n, s.min, s.median, s.max), (5, 1.0, 3.0, 5.0));
        assert_eq!((s.q1, s.q3), (2.0, 4.0));
        assert_eq!(s.best(Better::Lower), 1.0);
        assert_eq!(s.best(Better::Higher), 5.0);
        assert!((s.iqr_share() - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.range_share() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn per_query_min_takes_each_querys_fastest_rep() {
        let reps = vec![
            vec![3.0, 9.0, 5.0],
            vec![4.0, 2.0, 5.5],
            vec![3.5, 8.0, 1.0],
        ];
        assert_eq!(per_query_min(&reps), vec![3.0, 2.0, 1.0]);
        assert_eq!(per_query_min(&reps[..1]), reps[0]);
        assert!(per_query_min(&[]).is_empty());
    }

    #[test]
    fn summary_json_parses() {
        let s = Summary::of(&[1.5, 2.5]);
        let v = mssg_obs::json::parse(&s.to_json()).unwrap();
        assert_eq!(v.get("median").and_then(|m| m.as_f64()), Some(2.0));
        assert_eq!(v.get("n").and_then(|m| m.as_f64()), Some(2.0));
    }
}
