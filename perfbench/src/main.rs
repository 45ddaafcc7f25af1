//! The repository benchmark: four workloads over the offline and the
//! fleet path, every end-to-end metric by name and unit, correctness
//! checks on every run, and a traced per-layer run.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_table2 --seed 0 --seconds 25 --trace 0
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON record; the exit code is non-zero when a correctness check fails.
//! See `perfbench/README.md` for the workloads, metrics and noise notes.

mod check;
mod fleet;
mod ledger;
mod offline;
mod stats;
mod suite;
mod sys;

use std::collections::BTreeMap;
use std::path::PathBuf;

use stats::{Metric, RunResult};
use sys::Interval;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("te_pct", "%"),
    ("rel_err_pct", "%"),
    ("readings_per_s", "1/s"),
    ("rtt_p50_us", "us"),
    ("rtt_p99_us", "us"),
    ("cpu_us_per_reading", "us"),
];

/// Per-layer metrics, printed by every traced run; a layer a workload
/// never calls reads 0.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("workload.generate_s", "s"),
    ("powergrid.factor_s", "s"),
    ("powergrid.sample_s", "s"),
    ("powergrid.steps", "count"),
    ("powergrid.step_us", "us"),
    ("scenario.assemble_s", "s"),
    ("parallel.collect_efficiency", "ratio"),
    ("selection.reduce_s", "s"),
    ("grouplasso.solve_s", "s"),
    ("grouplasso.solves", "count"),
    ("predict.refit_s", "s"),
    ("eagleeye.place_s", "s"),
    ("detection.evaluate_s", "s"),
    ("fleet.serve_s", "s"),
    ("unattributed_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_pct", "%"),
    ("frame.encode_ns", "ns"),
    ("frame.decode_ns", "ns"),
    ("predict.matvec_ns", "ns"),
    ("monitor.observe_ns", "ns"),
    ("predict.gemm_row_ns", "ns"),
    ("fleet.gemm_rows_per_batch", "count"),
    ("fleet.batched_frac", "ratio"),
    ("telemetry.flight_overhead_pct", "%"),
    ("fleet.shed", "count"),
    ("fleet.rejected", "count"),
    ("fleet.decode_errors", "count"),
    ("checkpoint.serialize_us", "us"),
    ("fleet.checkpoints_per_reading", "ratio"),
    ("fleet.reading_cpu_us", "us"),
    ("fleet.reading_wall_us", "us"),
    ("fleet.unattributed_us", "us"),
    ("client.send_us", "us"),
    ("client.wait_us", "us"),
    ("failed_frac", "ratio"),
];

/// Fewest timed passes of an untraced run, whatever `--seconds` says:
/// enough that the per-run quartile is not an interpolation of two passes.
pub const MIN_PASSES: usize = 4;

/// Where runs leave their reports, span files and incident snapshots.
const OUT_DIR: &str = "perfbench/out";

/// Everything one workload run measured and checked.
pub struct Measured {
    pub failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the metrics.
    pub notes: Vec<String>,
    /// The traced run's ledger table and reconciliation.
    pub ledger_lines: Vec<String>,
    /// The traced run's spans as JSON lines, written out at the end.
    pub ledger: Option<String>,
}

impl Measured {
    fn new(setup_s: f64, failures: Vec<String>) -> Self {
        let mut m = Measured {
            failures,
            attempted: 0,
            failed: 0,
            values: BTreeMap::new(),
            notes: Vec::new(),
            ledger_lines: Vec::new(),
            ledger: None,
        };
        m.put("setup_s", setup_s);
        m
    }

    fn put(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Runtime-reading metrics from windows of readings: throughput, CPU
    /// per reading and both latency percentiles are per-window figures,
    /// each summarised by its good quartile over windows. A window's p99
    /// counts only when at least ten of its samples lie beyond it.
    fn put_readings(&mut self, windows: &[Window]) -> Result<(), String> {
        let per_window = |f: &dyn Fn(&Window) -> Option<f64>| -> Result<Vec<f64>, String> {
            windows
                .iter()
                .map(|w| f(w).ok_or_else(|| format!("window of {} readings", w.readings)))
                .collect()
        };
        let p50s = per_window(&|w| stats::median(w.latencies_us))?;
        let p99s = per_window(&|w| stats::tail_percentile(w.latencies_us, 0.99))
            .map_err(|e| format!("{e} leaves fewer than 10 samples beyond p99"))?;
        let rates = per_window(&|w| Some(w.readings as f64 / w.interval.wall_s))?;
        let cpu = per_window(&|w| Some(1e6 * w.interval.cpu_s / w.readings as f64))?;
        let good = |v: &[f64]| stats::lower_quartile(v).ok_or("no windows");
        self.put("rtt_p50_us", good(&p50s)?);
        self.put("rtt_p99_us", good(&p99s)?);
        self.put(
            "readings_per_s",
            stats::upper_quartile(&rates).ok_or("no windows")?,
        );
        self.put("cpu_us_per_reading", good(&cpu)?);
        let samples: usize = windows.iter().map(|w| w.latencies_us.len()).sum();
        self.notes.push(format!(
            "rtt samples={samples} over {} windows of >= {} (each window's p99 has >= {} beyond it); \
             p99 by window={p99s:.1?} us",
            windows.len(),
            windows.iter().map(|w| w.latencies_us.len()).min().unwrap_or(0),
            windows.iter().map(|w| w.latencies_us.len() / 100).min().unwrap_or(0),
        ));
        Ok(())
    }
}

/// One window of runtime readings: how many, their interval, and every
/// reading's latency.
pub struct Window<'a> {
    pub readings: u64,
    pub interval: Interval,
    pub latencies_us: &'a [f64],
}

/// Installs the always-on flight recorder (the production posture) for
/// the rest of the process.
pub fn install_flight() {
    let guard = voltsense::telemetry::init_always_on("perfbench");
    Box::leak(Box::new(guard));
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Pins the environment: the program's defaults (thread count, no export,
/// no profiler, no endpoint), with every artifact under [`OUT_DIR`].
fn hermetic_env() {
    let knobs: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("VOLTSENSE_") || k.starts_with("TESTKIT_"))
        .collect();
    for k in knobs {
        std::env::remove_var(k);
    }
    std::env::set_var("VOLTSENSE_INCIDENT_DIR", format!("{OUT_DIR}/incidents"));
    std::env::set_var("TESTKIT_RESULTS_DIR", OUT_DIR);
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <paper_table2|budget_sweep|fleet_sku|fleet_ping> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    hermetic_env();
    let fleet_workload = match args.workload.as_str() {
        "fleet_sku" => Some(fleet::Fleet::Sku),
        "fleet_ping" => Some(fleet::Fleet::Ping),
        _ => None,
    };
    // A traced fleet run installs the recorder itself, after measuring a
    // window without it.
    if !(args.trace && fleet_workload.is_some()) {
        install_flight();
    }
    let measured = match (args.workload.as_str(), fleet_workload) {
        ("paper_table2", _) => offline::run(
            offline::Offline::PaperTable2,
            args.seed,
            args.seconds,
            args.trace,
        ),
        ("budget_sweep", _) => offline::run(
            offline::Offline::BudgetSweep,
            args.seed,
            args.seconds,
            args.trace,
        ),
        (_, Some(w)) => fleet::run(w, args.seed, args.seconds, args.trace),
        (other, None) => Err(format!("unknown workload {other:?}")),
    };
    let mut m = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    m.put("peak_rss_mb", sys::peak_rss_mb());
    m.put("failed_frac", m.failed as f64 / m.attempted.max(1) as f64);

    let declared: &[(&'static str, &'static str)] =
        if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<Metric> = declared
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: match m.values.get(name) {
                Some(&v) => v,
                None if args.trace => 0.0,
                None => panic!("workload did not measure {name}"),
            },
        })
        .collect();
    let result = RunResult {
        correct: m.failures.is_empty(),
        attempted: m.attempted,
        failed: m.failed,
        metrics,
    };

    let mut report = Vec::new();
    report.push(format!(
        "workload={} seed={} seconds={} trace={} {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::machine_context()
    ));
    report.extend(m.notes.iter().cloned());
    report.extend(m.ledger_lines.iter().cloned());
    report.push(format!("{:<30} {:>16} unit", "metric", "value"));
    for metric in &result.metrics {
        report.push(format!(
            "{:<30} {:>16.6} {}",
            metric.name, metric.value, metric.unit
        ));
    }
    if !args.trace {
        // The eleventh end-to-end figure; the record carries it as
        // `failed`/`attempted` because it is 0 on most workloads.
        report.push(format!(
            "{:<30} {:>16.6} ratio ({}/{} failed)",
            "failed_frac",
            m.values["failed_frac"],
            result.failed,
            result.attempted.max(1)
        ));
    }
    for f in &m.failures {
        report.push(format!("CHECK FAILED: {f}"));
    }
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    write_out(&format!("{stem}.txt"), &(report.join("\n") + "\n"));
    if let Some(spans) = &m.ledger {
        write_out(&format!("{stem}.spans.jsonl"), spans);
    }
    for line in &report {
        println!("{line}");
    }
    println!("{}", result.to_json());
    if !result.correct {
        std::process::exit(1);
    }
}

/// Writes `text` to `name` under [`OUT_DIR`]; a failure is reported, not
/// fatal.
pub fn write_out(name: &str, text: &str) {
    let dir = PathBuf::from(OUT_DIR);
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(name), text))
    {
        eprintln!("perfbench: cannot write {}: {e}", dir.join(name).display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltsense::telemetry::json;

    /// `BENCHMARK.json` declares exactly the metrics this program prints,
    /// in the same order and with the same units.
    #[test]
    fn manifest_matches_declared_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let manifest = json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            manifest
                .get(key)
                .and_then(json::Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field =
                        |f: &str| m.get(f).and_then(json::Value::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let declared = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), declared(&END_TO_END));
        assert_eq!(listed("per_layer"), declared(&PER_LAYER));
        let workloads: Vec<&str> = manifest
            .get("workloads")
            .and_then(json::Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(json::Value::as_str).unwrap())
            .collect();
        // `budget_sweep` and `fleet_ping` run by hand only: see
        // perfbench/README.md.
        assert_eq!(workloads, ["paper_table2", "fleet_sku"]);
    }
}
