//! CI profile-endpoint validator.
//!
//! Usage: `validate_profile <addr | @addr-file> [--under <parent>]
//! [--expect-top <p>]...`
//!
//! Scrapes a live `telemetry::serve` endpoint (`<addr>` is `host:port`;
//! `@file` reads the address from the file written via
//! `VOLTSENSE_TELEMETRY_ADDR_FILE`, polling up to 60 s) and asserts what
//! the profiling smoke promises:
//!
//! * `GET /profile` answers 200 with a parseable `voltsense-profile-v1`
//!   document: positive `hz`, at least one sampled thread, a non-empty
//!   `stacks` array whose counts sum to `samples`, and the allocation
//!   accountant section reporting whether the counting allocator is
//!   installed;
//! * `GET /profile?format=collapsed` answers 200 with non-empty
//!   flamegraph-compatible text — every line round-trip parses as
//!   `frame;frame;leaf count`, counts descending;
//! * with `--expect-top <p>` (repeatable, any-of), the hottest sampled
//!   frame must start with one of the prefixes. `--under <parent>`
//!   scopes the tally to frames nested *below* a frame matching the
//!   parent prefix — CI passes `--under methodology. --expect-top gl.`
//!   on a seeded `table2_error_rates` run, pinning end-to-end
//!   attribution: the solver's hottest sampled callee must be one of
//!   the group-lasso solver spans (`gl.bcd.*` / `gl.fista.*`), not some
//!   untracked frame.
//!
//! The endpoint is polled until every assertion holds (the workload may
//! still be warming up on the first scrapes) or a 120 s deadline passes.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use voltsense::telemetry::json::{self, Value};
use voltsense_bench::{fail, http_get, resolve_addr};

const CHECK: &str = "profile validation";

/// Structural check of the `voltsense-profile-v1` JSON; returns the
/// reported total sample count.
fn validate_json(body: &str) -> Result<u64, String> {
    let doc = json::parse(body).map_err(|e| format!("/profile: {e}"))?;
    if doc.get("schema").and_then(Value::as_str) != Some("voltsense-profile-v1") {
        return Err("/profile: missing or wrong \"schema\" marker".into());
    }
    let hz = doc
        .get("hz")
        .and_then(Value::as_f64)
        .ok_or("/profile: missing numeric \"hz\"")?;
    if hz <= 0.0 || hz.is_nan() {
        return Err(format!("/profile: non-positive hz {hz}"));
    }
    for key in ["passes", "samples", "idle_samples", "unstable_reads"] {
        if doc.get(key).and_then(Value::as_f64).is_none() {
            return Err(format!("/profile: missing numeric \"{key}\""));
        }
    }
    let samples = doc.get("samples").and_then(Value::as_f64).unwrap_or(0.0) as u64;
    let Some(Value::Array(threads)) = doc.get("threads") else {
        return Err("/profile: \"threads\" is not an array".into());
    };
    if threads.is_empty() {
        return Err("/profile: no sampled threads".into());
    }
    let Some(Value::Array(stacks)) = doc.get("stacks") else {
        return Err("/profile: \"stacks\" is not an array".into());
    };
    let mut stack_sum = 0u64;
    for entry in stacks {
        let Some(Value::Array(frames)) = entry.get("stack") else {
            return Err("/profile: stack entry without a \"stack\" array".into());
        };
        if frames.iter().any(|f| f.as_str().is_none_or(str::is_empty)) {
            return Err("/profile: empty frame name in a stack".into());
        }
        stack_sum += entry
            .get("count")
            .and_then(Value::as_f64)
            .ok_or("/profile: stack entry without a count")? as u64;
    }
    let idle = doc.get("idle_samples").and_then(Value::as_f64).unwrap_or(0.0) as u64;
    if stack_sum + idle != samples {
        return Err(format!(
            "/profile: stack counts ({stack_sum}) + idle ({idle}) != samples ({samples})"
        ));
    }
    let Some(alloc) = doc.get("alloc") else {
        return Err("/profile: missing \"alloc\" section".into());
    };
    if alloc.get("allocator_installed").is_none() {
        return Err("/profile: alloc section lacks \"allocator_installed\"".into());
    }
    Ok(samples)
}

/// Parse one collapsed line into (stack, count).
fn parse_collapsed_line(line: &str) -> Result<(&str, u64), String> {
    let (stack, count) = line
        .rsplit_once(' ')
        .ok_or_else(|| format!("collapsed line without a count: {line:?}"))?;
    let count = count
        .parse::<u64>()
        .map_err(|_| format!("unparseable collapsed count: {line:?}"))?;
    if stack.is_empty() || stack.split(';').any(str::is_empty) {
        return Err(format!("empty frame in collapsed stack: {line:?}"));
    }
    Ok((stack, count))
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(addr_arg) = args.next() else {
        return fail(
            CHECK,
            "usage: validate_profile <addr | @addr-file> [--under <parent>] [--expect-top <p>]...",
        );
    };
    let mut under: Option<String> = None;
    let mut expect_top: Vec<String> = Vec::new();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--under" => match args.next() {
                Some(p) => under = Some(p),
                None => return fail(CHECK, "--under needs a value"),
            },
            "--expect-top" => match args.next() {
                Some(p) => expect_top.push(p),
                None => return fail(CHECK, "--expect-top needs a value"),
            },
            other => return fail(CHECK, &format!("unknown flag {other:?}")),
        }
    }
    let addr = match resolve_addr(&addr_arg) {
        Ok(a) => a,
        Err(e) => return fail(CHECK, &e),
    };

    // The endpoint comes up before the workload has run anything worth
    // sampling, so poll: keep scraping until every expectation holds (the
    // steady state once the workload finishes and the process lingers) or
    // the deadline passes — then report the last failure.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        match attempt(&addr, under.as_deref(), &expect_top) {
            Ok(summary) => {
                println!("{summary}");
                return ExitCode::SUCCESS;
            }
            Err(e) if Instant::now() >= deadline => return fail(CHECK, &e),
            Err(_) => std::thread::sleep(Duration::from_millis(500)),
        }
    }
}

/// One full scrape-and-validate pass; returns the success summary line.
fn attempt(addr: &str, under: Option<&str>, expect_top: &[String]) -> Result<String, String> {
    let (status, body) = http_get(addr, "/profile")?;
    if status != 200 {
        return Err(format!("/profile answered {status}"));
    }
    let samples = validate_json(&body)?;
    if samples == 0 {
        return Err("/profile reports zero samples — sampler never ran".into());
    }

    let (status, collapsed) = http_get(addr, "/profile?format=collapsed")?;
    if status != 200 {
        return Err(format!("/profile?format=collapsed answered {status}"));
    }
    let mut lines = 0u64;
    let mut prev_count = u64::MAX;
    // Per-frame inclusive sample tally, optionally scoped to frames
    // nested below a frame matching the `--under` prefix.
    let mut frame_counts: Vec<(String, u64)> = Vec::new();
    for line in collapsed.lines() {
        let (stack, count) = parse_collapsed_line(line)?;
        if count > prev_count {
            return Err(format!("collapsed counts not descending at {line:?}"));
        }
        prev_count = count;
        lines += 1;
        if stack == "(idle)" {
            continue;
        }
        let mut in_scope = under.is_none();
        for frame in stack.split(';') {
            if in_scope {
                match frame_counts.iter_mut().find(|(f, _)| f == frame) {
                    Some((_, c)) => *c += count,
                    None => frame_counts.push((frame.to_string(), count)),
                }
            }
            if let Some(parent) = under {
                if frame.starts_with(parent) {
                    in_scope = true;
                }
            }
        }
    }
    if lines == 0 {
        return Err("collapsed output is empty".into());
    }

    let hottest = frame_counts.iter().max_by_key(|(_, c)| *c);
    if !expect_top.is_empty() {
        let scope = under.unwrap_or("(root)");
        let Some((frame, _)) = hottest else {
            return Err(format!("no frames sampled under {scope:?}"));
        };
        if !expect_top.iter().any(|p| frame.starts_with(p.as_str())) {
            return Err(format!(
                "hottest frame under {scope:?} is {frame:?}, matches none of {expect_top:?}"
            ));
        }
    }

    Ok(format!(
        "profile endpoint OK: {samples} samples, {lines} collapsed stacks{}",
        match hottest {
            Some((frame, count)) => format!(
                ", hottest frame{} {frame} ({count} samples)",
                match under {
                    Some(p) => format!(" under {p}"),
                    None => String::new(),
                }
            ),
            None => String::new(),
        }
    ))
}
