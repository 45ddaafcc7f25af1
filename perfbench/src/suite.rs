//! Emergency sequences of the paper-scale suite: for every benchmark, one
//! bit per consecutive voltage map, set when any critical node of the map
//! is below the emergency threshold.
//!
//! The fleet workloads take their droop schedule from these sequences, so
//! the alarm edges the server sees (and the checkpoints they make due)
//! come at the suite's own rate rather than a chosen one. The committed
//! copy is [`SUITE_EMERGENCIES`]; every `paper_table2` pass derives the
//! sequences afresh from its collect; every run writes them to
//! `perfbench/out/suite_emergencies.txt` and fails when they differ from
//! the committed copy (regenerate it by copying that file over).

use voltsense::core::detection;
use voltsense::scenario::ScenarioData;

/// The committed sequences, relative to the repository root.
pub const SUITE_EMERGENCIES: &str = "perfbench/data/suite_emergencies.txt";

/// Per benchmark, the emergency bit of each of its maps in collect order.
pub fn derive(data: &ScenarioData, threshold: f64, benchmarks: usize) -> Vec<Vec<bool>> {
    let truth = detection::ground_truth(&data.f, threshold);
    let mut out = vec![Vec::new(); benchmarks];
    for (&b, &e) in data.sample_benchmark.iter().zip(&truth) {
        out[b].push(e);
    }
    out
}

/// The file format: a comment header, then `BM<n> <bits>` per benchmark.
pub fn format(seqs: &[Vec<bool>]) -> String {
    let mut out = String::from(
        "# Emergency (1) or not (0) for each consecutive map of every benchmark\n\
         # of the paper-scale suite, threshold 0.85 V, in collect order.\n\
         # Written by every paper_table2 run to perfbench/out/suite_emergencies.txt.\n",
    );
    for (b, seq) in seqs.iter().enumerate() {
        let bits: String = seq.iter().map(|&e| if e { '1' } else { '0' }).collect();
        out.push_str(&format!("BM{} {bits}\n", b + 1));
    }
    out
}

/// Parses [`format`]'s output.
pub fn parse(text: &str) -> Result<Vec<Vec<bool>>, String> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            let (name, bits) = line
                .split_once(' ')
                .ok_or_else(|| format!("line {:?} has no bits", line))?;
            if name != format!("BM{}", i + 1) {
                return Err(format!("expected BM{}, found {name:?}", i + 1));
            }
            bits.chars()
                .map(|c| match c {
                    '0' => Ok(false),
                    '1' => Ok(true),
                    _ => Err(format!("{name}: bad bit {c:?}")),
                })
                .collect()
        })
        .collect()
}

/// Reads the committed sequences.
pub fn load() -> Result<Vec<Vec<bool>>, String> {
    let text = std::fs::read_to_string(SUITE_EMERGENCIES)
        .map_err(|e| format!("cannot read {SUITE_EMERGENCIES}: {e}"))?;
    parse(&text)
}

/// Alarm edges (a map whose emergency bit differs from the previous map's)
/// per map, over every benchmark's sequence.
pub fn edges_per_map(seqs: &[Vec<bool>]) -> f64 {
    let (mut edges, mut maps) = (0usize, 0usize);
    for seq in seqs {
        maps += seq.len();
        edges += seq.windows(2).filter(|w| w[0] != w[1]).count();
    }
    edges as f64 / maps.max(1) as f64
}

/// One window of `steps` consecutive maps per chip. Chip `c` follows
/// benchmark `c % n`; the chips that share a benchmark take evenly spaced
/// windows of it. A window is moved forward until its last map is not an
/// emergency, so every chip ends a pass with its monitor clear. The
/// schedule does not depend on the seed: every seed asks the server for
/// the same alarm edges.
pub fn schedule(seqs: &[Vec<bool>], chips: usize, steps: usize) -> Result<Vec<Vec<bool>>, String> {
    let n = seqs.len();
    if n == 0 {
        return Err("no benchmark sequences".into());
    }
    let per_benchmark = chips.div_ceil(n);
    (0..chips)
        .map(|c| {
            let seq = &seqs[c % n];
            let len = seq.len();
            if len < steps {
                return Err(format!(
                    "BM{} has {len} maps, fewer than {steps}",
                    c % n + 1
                ));
            }
            let stride = (len - steps) / per_benchmark;
            let first = (c / n) * stride;
            (first..=len - steps)
                .find(|&s| !seq[s + steps - 1])
                .map(|s| seq[s..s + steps].to_vec())
                .ok_or_else(|| format!("BM{}: no window ends clear", c % n + 1))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_and_parse_round_trip() {
        let seqs = vec![vec![true, false, false], vec![false, true, true, false]];
        assert_eq!(parse(&format(&seqs)).unwrap(), seqs);
        assert!(parse("BM2 0101\n").is_err(), "benchmarks must be in order");
        assert!(parse("BM1 01x1\n").is_err());
    }

    #[test]
    fn schedule_windows_end_clear_and_spread_over_the_benchmark() {
        let seq: Vec<bool> = (0..40).map(|i| i % 5 == 4).collect();
        let sched = schedule(&[seq.clone(), seq], 4, 8).unwrap();
        assert_eq!(sched.len(), 4);
        for w in &sched {
            assert_eq!(w.len(), 8);
            assert!(!w[7], "window ends clear");
        }
        // Chips 0 and 2 share benchmark 1 but start 16 maps apart.
        assert_eq!(sched[0], sched[1]);
        assert_ne!(sched[0], sched[2]);
        assert!((edges_per_map(&[vec![false, true, true, false]]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn committed_sequences_cover_the_suite() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/data/suite_emergencies.txt");
        let seqs = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(seqs.len(), 19);
        assert_eq!(seqs.iter().map(Vec::len).sum::<usize>(), 10_013);
        let emergencies = seqs.iter().flatten().filter(|&&e| e).count();
        assert!(emergencies > 0 && emergencies < 10_013 / 2);
    }
}
