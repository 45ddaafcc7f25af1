//! Fleet output checks: one decision per reading, and every decision
//! bit-equal to an offline replay through a fresh [`EmergencyMonitor`].

use voltsense::core::{EmergencyMonitor, VoltageMapModel};
use voltsense::fleet::frame::decision_flags;

/// A decision as it travels on the wire: flags and predicted minimum.
pub type Decision = (u8, f64);

/// The decisions that came back for one pass, per reading. A `Busy` or
/// `Error` reply leaves its reading without a decision.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Decisions received per reading (exactly one is the only success).
    pub decisions: Vec<Vec<Decision>>,
}

impl Tally {
    /// An empty tally for `n` readings.
    pub fn new(n: usize) -> Self {
        Tally {
            decisions: vec![Vec::new(); n],
        }
    }

    /// Readings that did not get exactly one decision: refused (Busy),
    /// errored, shed, lost, or answered twice.
    pub fn failed(&self) -> u64 {
        self.decisions.iter().filter(|d| d.len() != 1).count() as u64
    }

    /// Readings answered exactly once whose decision differs from
    /// `expected` in any flag bit or any bit of the predicted minimum.
    pub fn mismatches(&self, expected: &[Decision]) -> Vec<usize> {
        self.decisions
            .iter()
            .zip(expected)
            .enumerate()
            .filter(|(_, (got, want))| {
                got.len() == 1 && (got[0].0 != want.0 || got[0].1.to_bits() != want.1.to_bits())
            })
            .map(|(i, _)| i)
            .collect()
    }
}

/// Monitor settings every fleet session and the replay share.
#[derive(Debug, Clone, Copy)]
pub struct MonitorSettings {
    pub threshold: f64,
    pub persistence: usize,
    pub release_margin: f64,
}

impl MonitorSettings {
    /// A fresh monitor on `model`.
    pub fn monitor(&self, model: VoltageMapModel) -> EmergencyMonitor {
        EmergencyMonitor::new(model, self.threshold, self.persistence, self.release_margin)
            .expect("valid monitor settings")
    }
}

/// Expected decisions for readings laid out chip-major (`chip * steps +
/// step`), replaying each chip's sequence through its own fresh monitor.
pub fn expected_decisions(
    model: &VoltageMapModel,
    settings: MonitorSettings,
    readings: &[Vec<f64>],
    steps: usize,
) -> Vec<Decision> {
    readings
        .chunks(steps)
        .flat_map(|chip| {
            let mut monitor = settings.monitor(model.clone());
            chip.iter()
                .map(|r| {
                    let d = monitor.observe(r).expect("generated readings are finite");
                    let mut flags = 0;
                    if d.alarm {
                        flags |= decision_flags::ALARM;
                    }
                    if d.rising_edge {
                        flags |= decision_flags::RISING;
                    }
                    (flags, d.predicted_min)
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltsense::linalg::Matrix;

    fn mean_model() -> VoltageMapModel {
        let coeffs = Matrix::from_rows(&[&[0.5, 0.5], &[0.25, 0.75]]).unwrap();
        VoltageMapModel::from_parts(vec![0, 1], 2, coeffs, vec![0.0, 0.0], 0.001).unwrap()
    }

    const SETTINGS: MonitorSettings = MonitorSettings {
        threshold: 0.85,
        persistence: 2,
        release_margin: 0.01,
    };

    fn readings() -> Vec<Vec<f64>> {
        [0.95, 0.80, 0.79, 0.95, 0.93, 0.82]
            .iter()
            .map(|&v| vec![v, v + 0.01])
            .collect()
    }

    #[test]
    fn replay_raises_and_clears_the_alarm() {
        let exp = expected_decisions(&mean_model(), SETTINGS, &readings(), 3);
        let flags: Vec<u8> = exp.iter().map(|d| d.0).collect();
        let (a, r) = (decision_flags::ALARM, decision_flags::RISING);
        // Chip 0: debounce of 2 raises on the second low sample.
        // Chip 1: starts fresh, so its single low sample does not alarm.
        assert_eq!(flags, vec![0, 0, a | r, 0, 0, 0]);
    }

    #[test]
    fn failed_counts_busy_error_missing_and_duplicate_replies() {
        let exp = expected_decisions(&mean_model(), SETTINGS, &readings(), 3);
        let mut t = Tally::new(6);
        t.decisions[0].push(exp[0]);
        t.decisions[1].push(exp[1]);
        // Reading 2 got Busy, reading 3 an Error, reading 4 nothing.
        t.decisions[5].push(exp[5]);
        t.decisions[5].push(exp[5]); // answered twice
        assert_eq!(t.failed(), 4);
        assert!(t.mismatches(&exp).is_empty());
    }

    #[test]
    fn replay_checker_catches_an_injected_mismatch() {
        let exp = expected_decisions(&mean_model(), SETTINGS, &readings(), 3);
        let mut t = Tally::new(6);
        for (i, d) in exp.iter().enumerate() {
            t.decisions[i].push(*d);
        }
        assert!(t.mismatches(&exp).is_empty());
        // One ulp off in the predicted minimum of reading 4.
        t.decisions[4][0].1 = f64::from_bits(exp[4].1.to_bits() + 1);
        // A flipped flag on reading 2.
        t.decisions[2][0].0 ^= decision_flags::RISING;
        assert_eq!(t.mismatches(&exp), vec![2, 4]);
    }
}
