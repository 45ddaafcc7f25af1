//! CI incident-snapshot validator.
//!
//! Usage: `validate_incident [flags] <incident.json>...`
//!
//! Validates every file as a `voltsense-incident-v1` document with the
//! in-tree JSON parser: the schema marker; a non-empty `kind`; `fields`
//! as a numeric object; `failed_sensors` / `gated_sensors` as integer
//! arrays; a `sampling` array of `{name, seen, kept, stride}` records; a
//! `ring` array whose entries carry `seq`/`name`/`at_ns`/`fields`; and an
//! embedded `metrics` object with the `voltsense-metrics-v1` marker.
//!
//! Cross-file expectations (what the CI smoke promises):
//!
//! * `--expect-kind <kind>` — at least one file has this kind (repeatable);
//! * `--expect-ring-event <name>` — some file's ring contains the event;
//! * `--expect-attribution` — some file names at least one failed sensor.

use std::process::ExitCode;

use voltsense::telemetry::json::{self, Value};
use voltsense_bench::fail;

const CHECK: &str = "incident validation";

/// Per-file structural check; returns `(kind, ring event names, failed sensor count)`.
fn validate_file(path: &str) -> Result<(String, Vec<String>, usize), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(Value::as_str) != Some("voltsense-incident-v1") {
        return Err(format!("{path}: missing or wrong \"schema\" marker"));
    }
    let kind = doc
        .get("kind")
        .and_then(Value::as_str)
        .filter(|k| !k.is_empty())
        .ok_or_else(|| format!("{path}: missing \"kind\""))?;
    for key in ["seq", "at_unix_ms"] {
        if doc.get(key).and_then(Value::as_f64).is_none() {
            return Err(format!("{path}: missing numeric \"{key}\""));
        }
    }
    let Some(Value::Object(fields)) = doc.get("fields") else {
        return Err(format!("{path}: \"fields\" is not an object"));
    };
    if fields.values().any(|v| !matches!(v, Value::Number(_) | Value::Null)) {
        return Err(format!("{path}: non-numeric incident field"));
    }

    let mut failed_sensors = 0;
    for key in ["failed_sensors", "gated_sensors"] {
        let arr = doc
            .get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("{path}: \"{key}\" is not an array"))?;
        if arr.iter().any(|v| v.as_f64().is_none_or(|n| n < 0.0 || n.fract() != 0.0)) {
            return Err(format!("{path}: \"{key}\" holds a non-index value"));
        }
        if key == "failed_sensors" {
            failed_sensors = arr.len();
        }
    }

    let sampling = doc
        .get("sampling")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{path}: no \"sampling\" array"))?;
    for s in sampling {
        if s.get("name").and_then(Value::as_str).is_none()
            || ["seen", "kept", "stride"]
                .iter()
                .any(|k| s.get(k).and_then(Value::as_f64).is_none())
        {
            return Err(format!("{path}: malformed sampling record"));
        }
    }

    let ring = doc
        .get("ring")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{path}: no \"ring\" array"))?;
    let mut ring_names = Vec::with_capacity(ring.len());
    for e in ring {
        let name = e
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: ring event without a name"))?;
        if e.get("seq").and_then(Value::as_f64).is_none()
            || e.get("at_ns").and_then(Value::as_f64).is_none()
            || !matches!(e.get("fields"), Some(Value::Object(_)))
        {
            return Err(format!("{path}: malformed ring event {name:?}"));
        }
        ring_names.push(name.to_string());
    }

    if doc
        .get("metrics")
        .and_then(|m| m.get("schema"))
        .and_then(Value::as_str)
        != Some("voltsense-metrics-v1")
    {
        return Err(format!("{path}: embedded \"metrics\" snapshot missing its schema marker"));
    }

    Ok((kind.to_string(), ring_names, failed_sensors))
}

fn main() -> ExitCode {
    let mut expect_kinds: Vec<String> = Vec::new();
    let mut expect_ring_events: Vec<String> = Vec::new();
    let mut expect_attribution = false;
    let mut paths: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--expect-kind" => match args.next() {
                Some(k) => expect_kinds.push(k),
                None => return fail(CHECK, "--expect-kind needs a value"),
            },
            "--expect-ring-event" => match args.next() {
                Some(n) => expect_ring_events.push(n),
                None => return fail(CHECK, "--expect-ring-event needs a value"),
            },
            "--expect-attribution" => expect_attribution = true,
            _ => paths.push(arg),
        }
    }
    if paths.is_empty() {
        return fail(CHECK, "usage: validate_incident [flags] <incident.json>...");
    }

    let mut seen_kinds: Vec<String> = Vec::new();
    let mut seen_ring_events: Vec<String> = Vec::new();
    let mut attributed_files = 0usize;
    let mut total_ring_events = 0usize;
    for path in &paths {
        match validate_file(path) {
            Ok((kind, ring_names, failed)) => {
                println!(
                    "  {path}: kind={kind}, {} ring events, {} failed sensor(s)",
                    ring_names.len(),
                    failed
                );
                total_ring_events += ring_names.len();
                seen_kinds.push(kind);
                seen_ring_events.extend(ring_names);
                if failed > 0 {
                    attributed_files += 1;
                }
            }
            Err(e) => return fail(CHECK, &e),
        }
    }

    for kind in &expect_kinds {
        if !seen_kinds.iter().any(|k| k == kind) {
            return fail(CHECK, &format!(
                "no incident of kind {kind:?} among {} file(s) (saw: {seen_kinds:?})",
                paths.len()
            ));
        }
    }
    for name in &expect_ring_events {
        if !seen_ring_events.iter().any(|n| n == name) {
            return fail(CHECK, &format!("no ring event named {name:?} in any incident file"));
        }
    }
    if expect_attribution && attributed_files == 0 {
        return fail(CHECK, "no incident file attributes a failed sensor");
    }

    println!(
        "incident validation passed: {} file(s), {} ring event(s), {} with failed-sensor attribution",
        paths.len(),
        total_ring_events,
        attributed_files
    );
    ExitCode::SUCCESS
}
