//! Order statistics and the result record the benchmark prints.
//!
//! A figure measured over several passes is summarised by its good
//! quartile, and a tail percentile is reported only when at least
//! [`MIN_TAIL`] samples lie beyond it: a p99 from 200 samples is two
//! observations, not a tail.

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// Sorted copy of `values` (total order, so NaN cannot panic the sort).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of an already sorted slice,
/// or `None` when it is empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    match sorted.len() {
        0 => None,
        1 => Some(sorted[0]),
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
        }
    }
}

/// Median of unsorted values, or `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile_sorted(&sorted(values), 0.5)
}

/// 25th percentile: the per-run statistic of a lower-is-better figure
/// measured over several windows. Neighbour contention only ever adds
/// time, so the lower quartile tracks the program rather than the box,
/// yet unlike the minimum it does not hang on one lucky window.
pub fn lower_quartile(values: &[f64]) -> Option<f64> {
    quantile_sorted(&sorted(values), 0.25)
}

/// 75th percentile: the same statistic for a higher-is-better figure.
pub fn upper_quartile(values: &[f64]) -> Option<f64> {
    quantile_sorted(&sorted(values), 0.75)
}

/// The `q` percentile of `values` when at least [`MIN_TAIL`] samples lie
/// beyond it, else `None`.
pub fn tail_percentile(values: &[f64], q: f64) -> Option<f64> {
    let beyond = values.len() as f64 * (1.0 - q);
    if beyond < MIN_TAIL as f64 {
        return None;
    }
    quantile_sorted(&sorted(values), q)
}

/// True when `name` is a legal metric or workload name:
/// `[A-Za-z0-9_.-]+`, starting with a letter or digit, at most 64 chars.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One named, unit-carrying measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The run's result: the last line of standard output.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The single-line JSON document. Values print with every digit Rust's
    /// shortest round-trip formatting keeps.
    ///
    /// # Panics
    ///
    /// Panics on an invalid metric name or a non-finite value — both are
    /// benchmark bugs, and printing them would emit an unreadable record.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(valid_name(m.name), "invalid metric name {:?}", m.name);
                assert!(
                    m.value.is_finite(),
                    "metric {} is not finite: {}",
                    m.name,
                    m.value
                );
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(
            tail_percentile(&v, 0.99),
            None,
            "999 samples leave 9.99 beyond p99"
        );
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!(
            tail_percentile(&v, 0.99).is_some(),
            "1000 samples leave 10 beyond p99"
        );
        let v: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(
            tail_percentile(&v, 0.5),
            Some(9.5),
            "20 samples leave 10 beyond p50"
        );
        assert_eq!(tail_percentile(&v[..19], 0.5), None);
    }

    #[test]
    fn quantiles_interpolate_and_handle_edges() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(quantile_sorted(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), Some(2.0));
    }

    #[test]
    fn metric_names_follow_the_grammar() {
        for ok in [
            "wall_s",
            "rtt_p99_us",
            "powergrid.step_us",
            "fleet.gemm_rows_per_batch",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/x",
            "quote\"",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn every_declared_metric_name_is_valid() {
        for name in crate::END_TO_END
            .iter()
            .chain(crate::PER_LAYER.iter())
            .map(|(n, _)| *n)
        {
            assert!(valid_name(name), "{name}");
        }
    }

    #[test]
    fn json_record_has_the_four_keys() {
        let r = RunResult {
            correct: true,
            attempted: 10,
            failed: 1,
            metrics: vec![Metric {
                name: "wall_s",
                value: 1.25,
                unit: "s",
            }],
        };
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \
             \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
