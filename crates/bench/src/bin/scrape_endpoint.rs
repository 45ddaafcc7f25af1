//! CI live-endpoint scraper: a real HTTP client for the telemetry server.
//!
//! Usage: `scrape_endpoint <addr | @addr-file> [--fleet]`
//!
//! Performs `GET /metrics` and `GET /snapshot` against a running
//! `telemetry::serve` endpoint (`<addr>` is `host:port`; `@file` reads the
//! address from the file `telemetry::serve` wrote via
//! `VOLTSENSE_TELEMETRY_ADDR_FILE`, polling up to 60 s for it to appear)
//! and asserts what the CI gate promises:
//!
//! * `/metrics` answers 200 with valid Prometheus text exposition — every
//!   sample line round-trip parses as `name[{labels}] value`, and the
//!   document contains at least one counter (`_total`), one gauge, and
//!   one histogram quantile sample;
//! * `/snapshot` answers 200 with a parseable `voltsense-metrics-v1`
//!   JSON document (validated with the in-tree parser).
//!
//! With `--fleet` (scraping a fleet soak) it additionally requires:
//!
//! * `/trace` serves a `voltsense-trace-v1` document where at least one
//!   tenant holds a tail-sampled trace with a 16-hex trace ID, a positive
//!   total, and all five stage spans, and some tenant's deterministic
//!   1-in-k sample ring is non-empty;
//! * `/slo` serves a `voltsense-slo-v1` document with a non-zero burn
//!   rate and at least one fast-burn page across tenants;
//! * `/healthz` answers 200 with the structured fleet health body.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use voltsense::telemetry::json::{self, Value};
use voltsense_bench::{fail, http_get, resolve_addr};

const CHECK: &str = "endpoint scrape";

/// Round-trip parse of one exposition sample line:
/// `name[{label="value",...}] number`. Returns (metric name, has labels).
fn parse_sample_line(line: &str) -> Result<(String, bool), String> {
    let (name_part, value_part) = line
        .rsplit_once(' ')
        .ok_or_else(|| format!("sample line without a value: {line:?}"))?;
    let (name, labels) = match name_part.split_once('{') {
        Some((name, rest)) => {
            if !rest.ends_with('}') {
                return Err(format!("unterminated label set: {line:?}"));
            }
            (name, true)
        }
        None => (name_part, false),
    };
    if name.is_empty()
        || !name
            .chars()
            .enumerate()
            .all(|(i, c)| c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit()))
    {
        return Err(format!("invalid metric name {name:?} in {line:?}"));
    }
    let ok_value = matches!(value_part, "NaN" | "+Inf" | "-Inf")
        || value_part.parse::<f64>().is_ok();
    if !ok_value {
        return Err(format!("unparseable sample value {value_part:?} in {line:?}"));
    }
    Ok((name.to_string(), labels))
}

/// Why a `/metrics` attempt did not produce usable counts.
enum Scrape {
    /// Transient: connection refused, non-200, empty content — retryable.
    Unavailable(String),
    /// The server answered with invalid exposition text — fatal.
    Malformed(String),
}

/// One `/metrics` scrape, parsed; returns
/// `(counter TYPEs, gauge samples, quantile samples, total samples)`.
fn scrape_metrics(addr: &str) -> Result<(usize, usize, usize, usize), Scrape> {
    let (status, body) = http_get(addr, "/metrics").map_err(Scrape::Unavailable)?;
    if status != 200 {
        return Err(Scrape::Unavailable(format!("/metrics answered {status}")));
    }
    let (mut counters, mut gauges, mut quantiles, mut samples) = (0, 0, 0, 0);
    let mut gauge_names: Vec<String> = Vec::new();
    for line in body.lines().filter(|l| !l.is_empty()) {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let (name, kind) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
            match kind {
                "counter" => counters += 1,
                "gauge" => gauge_names.push(name.to_string()),
                _ => {}
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (name, _) = parse_sample_line(line).map_err(Scrape::Malformed)?;
        samples += 1;
        if line.contains("quantile=\"") {
            quantiles += 1;
        }
        if gauge_names.contains(&name) {
            gauges += 1;
        }
    }
    Ok((counters, gauges, quantiles, samples))
}

/// Stage names, in wire order, that every complete trace record carries.
const STAGES: [&str; 5] = ["decode", "shard", "predict", "decide", "respond"];

/// One `/trace` scrape: schema + record completeness. Returns the number
/// of complete slowest-N records. `Unavailable` while the buffer is still
/// empty (the soak may not have served a reading yet), `Malformed` if a
/// present record violates the document contract.
fn scrape_trace(addr: &str) -> Result<usize, Scrape> {
    let (status, body) = http_get(addr, "/trace").map_err(Scrape::Unavailable)?;
    if status != 200 {
        return Err(Scrape::Unavailable(format!("/trace answered {status}")));
    }
    let doc = json::parse(&body).map_err(|e| Scrape::Malformed(format!("/trace: {e}")))?;
    if doc.get("schema").and_then(Value::as_str) != Some("voltsense-trace-v1") {
        return Err(Scrape::Malformed("/trace: missing voltsense-trace-v1 schema".into()));
    }
    let mut complete = 0usize;
    let mut sampled_seen = false;
    for t in doc.get("tenants").and_then(Value::as_array).unwrap_or(&[]) {
        for rec in t.get("slowest").and_then(Value::as_array).unwrap_or(&[]) {
            let total = rec.get("total_ns").and_then(Value::as_f64).unwrap_or(0.0);
            let id_ok = rec
                .get("trace_id")
                .and_then(Value::as_str)
                .is_some_and(|s| s.len() == 16 && s.chars().all(|c| c.is_ascii_hexdigit()));
            let stages = rec.get("stages");
            let stages_ok = STAGES.iter().all(|s| {
                stages
                    .and_then(|v| v.get(s))
                    .and_then(|v| v.get("ns"))
                    .and_then(Value::as_f64)
                    .is_some()
            });
            if !(total > 0.0 && id_ok && stages_ok) {
                return Err(Scrape::Malformed(format!(
                    "/trace: incomplete record (total {total}, id_ok {id_ok}, stages_ok {stages_ok})"
                )));
            }
            complete += 1;
        }
        if !t.get("sampled").and_then(Value::as_array).unwrap_or(&[]).is_empty() {
            sampled_seen = true;
        }
    }
    if complete == 0 || !sampled_seen {
        return Err(Scrape::Unavailable(format!(
            "/trace has {complete} complete tail records, sample ring {}",
            if sampled_seen { "populated" } else { "empty" }
        )));
    }
    Ok(complete)
}

/// One `/slo` scrape: schema + evidence the burn engine is live. Returns
/// (total pages, max burn across tenants/windows). `Unavailable` until
/// some tenant burns budget and a fast-burn page has fired.
fn scrape_slo(addr: &str) -> Result<(u64, f64), Scrape> {
    let (status, body) = http_get(addr, "/slo").map_err(Scrape::Unavailable)?;
    if status != 200 {
        return Err(Scrape::Unavailable(format!("/slo answered {status}")));
    }
    let doc = json::parse(&body).map_err(|e| Scrape::Malformed(format!("/slo: {e}")))?;
    if doc.get("schema").and_then(Value::as_str) != Some("voltsense-slo-v1") {
        return Err(Scrape::Malformed("/slo: missing voltsense-slo-v1 schema".into()));
    }
    let mut pages = 0.0f64;
    let mut max_burn = 0.0f64;
    for t in doc.get("tenants").and_then(Value::as_array).unwrap_or(&[]) {
        pages += t.get("pages").and_then(Value::as_f64).unwrap_or(0.0);
        for sli in ["latency", "availability"] {
            for window in ["burn_5m", "burn_1h"] {
                let burn = t
                    .get(sli)
                    .and_then(|v| v.get(window))
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0);
                max_burn = max_burn.max(burn);
            }
        }
    }
    if pages < 1.0 || max_burn <= 0.0 {
        return Err(Scrape::Unavailable(format!(
            "/slo shows {pages:.0} pages, max burn {max_burn}"
        )));
    }
    Ok((pages as u64, max_burn))
}

fn scrape_msg(e: &Scrape) -> &str {
    match e {
        Scrape::Unavailable(m) | Scrape::Malformed(m) => m,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fleet = args.iter().any(|a| a == "--fleet");
    let Some(arg) = args.iter().find(|a| !a.starts_with("--")) else {
        return fail(CHECK, "usage: scrape_endpoint <addr | @addr-file> [--fleet]");
    };
    let addr = match resolve_addr(arg) {
        Ok(a) => a,
        Err(e) => return fail(CHECK, &e),
    };

    // --- /metrics ----------------------------------------------------
    // Retried: the endpoint comes up before the process records its first
    // signal, so an early scrape may see an (already valid) empty registry.
    // Malformed exposition output fails immediately; missing content is
    // given time to appear.
    let deadline = Instant::now() + Duration::from_secs(60);
    let (counters, gauges, quantiles, samples) = loop {
        match scrape_metrics(&addr) {
            Ok(counts @ (counters, gauges, quantiles, _)) => {
                if counters > 0 && gauges > 0 && quantiles > 0 {
                    break counts;
                }
                if Instant::now() >= deadline {
                    return fail(CHECK, &format!(
                        "/metrics never exposed a counter + gauge + quantile \
                         (saw {counters} counters, {gauges} gauge samples, {quantiles} quantiles)"
                    ));
                }
            }
            Err(Scrape::Malformed(e)) => return fail(CHECK, &e),
            Err(Scrape::Unavailable(e)) => {
                if Instant::now() >= deadline {
                    return fail(CHECK, &e);
                }
            }
        }
        std::thread::sleep(Duration::from_millis(200));
    };

    // --- /snapshot ---------------------------------------------------
    let (status, body) = match http_get(&addr, "/snapshot") {
        Ok(r) => r,
        Err(e) => return fail(CHECK, &e),
    };
    if status != 200 {
        return fail(CHECK, &format!("/snapshot answered {status}"));
    }
    let doc = match json::parse(&body) {
        Ok(v) => v,
        Err(e) => return fail(CHECK, &format!("/snapshot: {e}")),
    };
    if doc.get("schema").and_then(Value::as_str) != Some("voltsense-metrics-v1") {
        return fail(CHECK, "/snapshot: missing or wrong \"schema\" marker");
    }
    let events = doc
        .get("events")
        .and_then(Value::as_array)
        .map_or(0, <[Value]>::len);

    // --- fleet mode: /trace, /slo, /healthz --------------------------
    // Retried like /metrics: the routes answer valid empty documents
    // from the first request, and fill in as the soak serves readings
    // (traces), burns budget, and pages (SLO).
    if fleet {
        let deadline = Instant::now() + Duration::from_secs(60);
        let (tail_records, pages, max_burn) = loop {
            match (scrape_trace(&addr), scrape_slo(&addr)) {
                (Ok(n), Ok((pages, burn))) => break (n, pages, burn),
                (Err(e @ Scrape::Malformed(_)), _) | (_, Err(e @ Scrape::Malformed(_))) => {
                    return fail(CHECK, scrape_msg(&e));
                }
                (tr, sr) => {
                    if Instant::now() >= deadline {
                        let why: Vec<&str> =
                            [tr.as_ref().err(), sr.as_ref().err()].iter().flatten().map(|e| scrape_msg(e)).collect();
                        return fail(CHECK, &format!(
                            "fleet routes never became complete: {}",
                            why.join("; ")
                        ));
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(200));
        };
        let (status, body) = match http_get(&addr, "/healthz") {
            Ok(r) => r,
            Err(e) => return fail(CHECK, &e),
        };
        if status != 200 {
            return fail(CHECK, &format!("/healthz answered {status} during a healthy soak"));
        }
        let health_status = json::parse(&body)
            .ok()
            .and_then(|doc| doc.get("status").and_then(Value::as_str).map(str::to_string));
        if health_status.as_deref() != Some("ok") {
            return fail(CHECK, &format!(
                "/healthz did not serve the structured fleet body, got: {}",
                body.trim()
            ));
        }
        println!(
            "fleet routes passed: {tail_records} tail-sampled traces, \
             {pages} fast-burn pages, max burn {max_burn:.1}, healthz ok"
        );
    }

    println!(
        "endpoint scrape passed: {samples} exposition samples \
         ({counters} counters, {gauges} gauge samples, {quantiles} quantile samples), \
         snapshot with {events} ring events"
    );
    ExitCode::SUCCESS
}
