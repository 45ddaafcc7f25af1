//! Shared harness for the experiment regenerators.
//!
//! Each binary in `src/bin/` reproduces one table or figure of the paper
//! (see DESIGN.md for the index). They all start from the same collected
//! dataset, built here.
//!
//! Scale is controlled by the `VOLTSENSE_SCALE` environment variable:
//! `paper` (default — the 8-core chip, 19 benchmarks, ~10,000 maps) or
//! `small` (the 2-core test chip, a quick smoke run).
//!
//! The observability validator bins (`scrape_endpoint`,
//! `validate_profile`, `validate_incident`, `validate_telemetry`) share
//! [`fail`], [`http_get`] and [`resolve_addr`] from here.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use voltsense::scenario::{CorePartition, Scenario, ScenarioData};

/// Number of benchmarks in the suite.
pub const NUM_BENCHMARKS: usize = 19;

/// Which scale an experiment runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper-scale 8-core chip with ~10,000 training maps.
    Paper,
    /// The 2-core test chip with short traces.
    Small,
}

impl Scale {
    /// Reads `VOLTSENSE_SCALE` (default `paper`), via the shared env
    /// helper so spelling rules match every other knob.
    pub fn from_env() -> Scale {
        match voltsense::telemetry::env::value("VOLTSENSE_SCALE").as_deref() {
            Some(v) if v.eq_ignore_ascii_case("small") => Scale::Small,
            _ => Scale::Paper,
        }
    }
}

/// A fully-collected experiment: scenario, dataset over all benchmarks,
/// per-core partition, and the train/test split.
pub struct Experiment {
    /// The scenario (chip + grid + suite).
    pub scenario: Scenario,
    /// The full dataset across all 19 benchmarks.
    pub data: ScenarioData,
    /// Training partition (2/3 of samples).
    pub train: ScenarioData,
    /// Held-out partition (1/3 of samples).
    pub test: ScenarioData,
    /// Candidate/block-to-core assignment.
    pub partition: CorePartition,
}

impl Experiment {
    /// Simulates all 19 benchmarks at the given scale and splits the data.
    ///
    /// # Panics
    ///
    /// Panics on simulation failure — experiment binaries have no
    /// meaningful recovery path, and the message names the failing stage.
    pub fn collect(scale: Scale) -> Experiment {
        let scenario = match scale {
            Scale::Paper => Scenario::paper_scale(),
            Scale::Small => Scenario::small(),
        }
        .expect("scenario construction");
        let benchmarks: Vec<usize> = (0..NUM_BENCHMARKS).collect();
        eprintln!(
            "[experiment] simulating {NUM_BENCHMARKS} benchmarks on {} grid nodes …",
            scenario.chip().lattice().len()
        );
        let t0 = std::time::Instant::now();
        let data = scenario.collect(&benchmarks).expect("simulation");
        eprintln!(
            "[experiment] collected {} maps in {:.1?} ({} candidates, {} blocks)",
            data.num_samples(),
            t0.elapsed(),
            data.num_candidates(),
            data.num_blocks()
        );
        let (train, test) = data.split(3);
        let partition = CorePartition::from_chip(scenario.chip());
        Experiment {
            scenario,
            data,
            train,
            test,
            partition,
        }
    }

    /// Collects at the env-selected scale.
    pub fn from_env() -> Experiment {
        Experiment::collect(Scale::from_env())
    }
}

/// The workspace `results/` directory: `TESTKIT_RESULTS_DIR` if set, else
/// found by walking up to the workspace root. Delegates to the shared
/// telemetry env helper so binaries, benches, and telemetry exports all
/// drop artifacts in the same place.
pub fn results_dir() -> std::path::PathBuf {
    voltsense::telemetry::env::results_dir()
}

/// Prints a horizontal rule sized to a table width.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Formats a rate like the paper's tables (4 decimal places; `0` stays
/// `0`).
pub fn fmt_rate(r: f64) -> String {
    if r == 0.0 {
        "0".to_string()
    } else {
        format!("{r:.4}")
    }
}

/// Simple ASCII sparkline of a series between its own min and max.
pub fn sparkline(values: &[f64]) -> String {
    const LEVELS: &[char] = &['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (max - min).max(1e-12);
    values
        .iter()
        .map(|v| {
            let idx = (((v - min) / span) * (LEVELS.len() - 1) as f64).round() as usize;
            LEVELS[idx.min(LEVELS.len() - 1)]
        })
        .collect()
}

/// Reports a failed validator check on stderr as `<check> FAILED: <msg>`
/// and returns the failing exit code.
pub fn fail(check: &str, msg: &str) -> ExitCode {
    eprintln!("{check} FAILED: {msg}");
    ExitCode::FAILURE
}

/// One plain HTTP/1.1 GET against a live telemetry endpoint; returns
/// (status code, body).
pub fn http_get(addr: &str, path: &str) -> Result<(u32, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(|e| format!("send request: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read response: {e}"))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{path}: malformed HTTP response"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u32>().ok())
        .ok_or_else(|| format!("{path}: missing status code"))?;
    Ok((status, body.to_string()))
}

/// Resolves a validator's address argument: `host:port` as given, or
/// `@file` — the file a server writes via `VOLTSENSE_TELEMETRY_ADDR_FILE`
/// once it is up, polled for up to 60 s.
pub fn resolve_addr(arg: &str) -> Result<String, String> {
    let Some(path) = arg.strip_prefix('@') else {
        return Ok(arg.to_string());
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match std::fs::read_to_string(path) {
            Ok(s) if !s.trim().is_empty() => return Ok(s.trim().to_string()),
            _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(100)),
            _ => return Err(format!("address file {path} did not appear within 60s")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_from_env_defaults_to_paper() {
        // The test harness does not set the variable.
        if std::env::var("VOLTSENSE_SCALE").is_err() {
            assert_eq!(Scale::from_env(), Scale::Paper);
        }
    }

    #[test]
    fn fmt_rate_matches_paper_style() {
        assert_eq!(fmt_rate(0.0), "0");
        assert_eq!(fmt_rate(0.0976), "0.0976");
    }

    #[test]
    fn sparkline_has_one_char_per_value() {
        let s = sparkline(&[1.0, 2.0, 3.0, 2.0]);
        assert_eq!(s.chars().count(), 4);
    }
}
