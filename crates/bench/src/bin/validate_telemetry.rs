//! CI telemetry smoke validator.
//!
//! Usage: `validate_telemetry <snapshot.json> <trace.json>`
//!
//! Parses both telemetry exports with the in-tree JSON parser and asserts
//! the minimum content the CI gate promises: a well-formed
//! `voltsense-metrics-v1` snapshot with at least one span, one counter,
//! and one histogram, and a Chrome trace with at least one complete
//! (`"ph": "X"`) event. Exits non-zero with a message on any violation,
//! so `ci.sh` can run it directly after an instrumented example.

use std::process::ExitCode;

use voltsense::telemetry::json::{self, Value};
use voltsense_bench::fail;

const CHECK: &str = "telemetry validation";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [snapshot_path, trace_path] = args.as_slice() else {
        return fail(CHECK, "usage: validate_telemetry <snapshot.json> <trace.json>");
    };

    let snapshot = match std::fs::read_to_string(snapshot_path) {
        Ok(s) => s,
        Err(e) => return fail(CHECK, &format!("cannot read {snapshot_path}: {e}")),
    };
    let snapshot = match json::parse(&snapshot) {
        Ok(v) => v,
        Err(e) => return fail(CHECK, &format!("{snapshot_path}: {e}")),
    };
    if snapshot.get("schema").and_then(Value::as_str) != Some("voltsense-metrics-v1") {
        return fail(CHECK, &format!("{snapshot_path}: missing or wrong \"schema\" marker"));
    }
    let Some(metrics) = snapshot.get("metrics").and_then(Value::as_array) else {
        return fail(CHECK, &format!("{snapshot_path}: no \"metrics\" array"));
    };
    let count_kind = |kind: &str| {
        metrics
            .iter()
            .filter(|m| m.get("kind").and_then(Value::as_str) == Some(kind))
            .count()
    };
    let counters = count_kind("counter");
    let histograms = count_kind("histogram");
    if counters == 0 {
        return fail(CHECK, &format!("{snapshot_path}: no counter metrics"));
    }
    if histograms == 0 {
        return fail(CHECK, &format!("{snapshot_path}: no histogram metrics"));
    }
    for m in metrics {
        if m.get("name").and_then(Value::as_str).is_none()
            || m.get("unit").and_then(Value::as_str).is_none()
            || m.get("value").is_none()
        {
            return fail(CHECK, &format!(
                "{snapshot_path}: metric entry missing shared name/value/unit fields"
            ));
        }
    }
    let spans = snapshot
        .get("spans")
        .and_then(Value::as_array)
        .map_or(0, <[Value]>::len);
    if spans == 0 {
        return fail(CHECK, &format!("{snapshot_path}: no spans captured"));
    }

    let trace = match std::fs::read_to_string(trace_path) {
        Ok(s) => s,
        Err(e) => return fail(CHECK, &format!("cannot read {trace_path}: {e}")),
    };
    let trace = match json::parse(&trace) {
        Ok(v) => v,
        Err(e) => return fail(CHECK, &format!("{trace_path}: {e}")),
    };
    let Some(events) = trace.get("traceEvents").and_then(Value::as_array) else {
        return fail(CHECK, &format!("{trace_path}: no \"traceEvents\" array"));
    };
    let complete = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
        .count();
    if complete == 0 {
        return fail(CHECK, &format!("{trace_path}: no complete (ph=X) span events"));
    }

    println!(
        "telemetry validation passed: {spans} spans, {counters} counters, \
         {histograms} histograms, {} trace events ({complete} complete)",
        events.len()
    );
    ExitCode::SUCCESS
}
