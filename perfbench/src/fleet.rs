//! The online path: frame encode → TCP → decode → shard → predict →
//! decide → respond, driven through `FleetServer` / `FleetClient`.
//!
//! Both workloads are closed loops on one connection from one thread:
//! `fleet_sku` keeps a fixed window of readings in flight across 64 chips
//! (well below the per-session shed threshold), `fleet_ping` keeps one.
//! Every reading must get exactly one decision, bit-equal to an offline
//! replay. The seed generates the model and the readings; which readings
//! droop below 0.85 V follows the paper-scale suite's own emergency
//! sequences (see [`crate::suite`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use voltsense::core::{CoreError, EmergencyMonitor, MonitorDecision, VoltageMapModel};
use voltsense::fleet::chaos::ChaosConfig;
use voltsense::fleet::client::{FleetClient, RetryPolicy};
use voltsense::fleet::frame::{decision_flags, Frame, FrameDecoder, DEFAULT_MAX_FRAME};
use voltsense::fleet::server::{FleetConfig, FleetServer, FleetStats, SessionFactory};
use voltsense::fleet::session::{ChipMonitor, SessionKey};
use voltsense::linalg::Matrix;
use voltsense::telemetry::flight;
use voltsense::workload::GaussianRng;

use crate::check::{expected_decisions, Decision, MonitorSettings, Tally};
use crate::ledger::Ledger;
use crate::sys::{self, Interval};
use crate::{stats, suite, Measured, Window, MIN_PASSES};

/// Sensors per chip.
const Q: usize = 56;
/// Critical nodes per chip.
const K: usize = 2048;
/// Chips of the product, all sharing one model (`fleet_ping` uses the
/// first [`PING_CHIPS`] of them).
const CHIPS: usize = 64;
const PING_CHIPS: usize = 32;
/// Readings per chip per pass (one window of a benchmark's consecutive
/// maps); a pass is `chips * STEPS` readings.
const STEPS: usize = 64;
/// In-flight window of `fleet_sku`: 4 readings per chip on average,
/// far below the 64-deep session queue where shedding starts.
const SKU_WINDOW: usize = 256;
/// A pass gives up on replies after this long without progress.
const STALL: Duration = Duration::from_secs(10);
/// Tenant id of the load generator.
const TENANT: u64 = 7;
/// Session shards of every server the benchmark starts. The default is one
/// per pool thread (`nproc`). Then two dispatching shards, the connection
/// reader and the client's loop all want the 2 vCPUs at once, and the
/// passes of one 100 s `fleet_sku` process spread 0.21 (IQR / median)
/// against 0.10 with one shard, which is slower (4.4 s against 3.2 s) but
/// steadier. One shard also gathers all of a product's sessions into one
/// batch plane.
const SHARDS: usize = 1;

const SETTINGS: MonitorSettings = MonitorSettings {
    threshold: 0.85,
    persistence: 2,
    release_margin: 0.01,
};

/// The two fleet workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fleet {
    /// 64 chips, a fixed window of readings in flight.
    Sku,
    /// The same chips, one reading in flight.
    Ping,
}

impl Fleet {
    fn window(self) -> usize {
        match self {
            Fleet::Sku => SKU_WINDOW,
            Fleet::Ping => 1,
        }
    }

    fn chips(self) -> usize {
        match self {
            Fleet::Sku => CHIPS,
            Fleet::Ping => PING_CHIPS,
        }
    }
}

/// The generated inputs: one shared model and a pass of readings.
struct Inputs {
    model: VoltageMapModel,
    /// Readings laid out chip-major: index `chip * STEPS + step`.
    readings: Vec<Vec<f64>>,
    /// Sensor voltages without measurement noise, same layout.
    clean: Vec<Vec<f64>>,
}

/// Model coefficients and readings from the seed, on `schedule` (one row
/// of [`STEPS`] emergency bits per chip, from [`suite::schedule`]): every
/// node a near-mean of the sensors, readings at a nominal ~0.935 V with
/// sensor noise, and on every emergency map a droop 100–140 mV deep. The
/// seed sets the model, each chip's level and sensor offsets, the droop
/// depths and the noise. The schedule alone decides which readings droop,
/// and the margins (a nominal reading predicts a minimum above 0.86 V, a
/// drooped one below 0.85 V) keep every seed's alarms on it, so every seed
/// asks the server for the same alarm edges. Every chip's window ends on a nominal map, so
/// each pass leaves every monitor clear and all passes decide identically.
fn generate(seed: u64, schedule: &[Vec<bool>]) -> Inputs {
    let mut rng = GaussianRng::seed_from_u64(seed ^ 0x5EED_F1EE);
    let mut coeffs = Matrix::zeros(K, Q);
    for v in coeffs.as_mut_slice() {
        *v = (1.0 + 0.05 * rng.sample()) / Q as f64;
    }
    let model = VoltageMapModel::from_parts((0..Q).collect(), Q, coeffs, vec![0.0; K], 0.001)
        .expect("generated model is well formed");
    let mut readings = Vec::with_capacity(schedule.len() * STEPS);
    let mut clean = Vec::with_capacity(schedule.len() * STEPS);
    for emergencies in schedule {
        let base = 0.935 + 0.004 * rng.sample().clamp(-2.0, 2.0);
        let offsets: Vec<f64> = (0..Q).map(|_| 0.004 * rng.sample()).collect();
        for &emergency in emergencies {
            let droop = if emergency {
                0.10 + 0.04 * rng.uniform()
            } else {
                0.0
            };
            let v: Vec<f64> = offsets.iter().map(|o| base - droop + o).collect();
            readings.push(v.iter().map(|x| x + 0.003 * rng.sample()).collect());
            clean.push(v);
        }
    }
    Inputs {
        model,
        readings,
        clean,
    }
}

/// Calls and thread CPU time of one monitor method, summed over sessions.
#[derive(Default)]
struct CallTotals {
    calls: AtomicU64,
    cpu_ns: AtomicU64,
}

impl CallTotals {
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = sys::thread_cpu_ns();
        let out = f();
        self.cpu_ns
            .fetch_add(sys::thread_cpu_ns() - t0, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn read(&self) -> (u64, u64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.cpu_ns.load(Ordering::Relaxed),
        )
    }
}

/// What the server's threads spent inside the monitor methods of a traced
/// rig's sessions: per-chip `observe` (predict + decide), `observe_prepared`
/// (decide after the batch plane's GEMM) and `checkpoint_json`.
#[derive(Default)]
pub struct ServerCalls {
    observe: CallTotals,
    prepared: CallTotals,
    checkpoint: CallTotals,
}

/// `(calls, cpu_ns)` of observe, observe_prepared and checkpoint_json.
type CallsSnapshot = [(u64, u64); 3];

impl ServerCalls {
    fn read(&self) -> CallsSnapshot {
        [
            self.observe.read(),
            self.prepared.read(),
            self.checkpoint.read(),
        ]
    }
}

/// An `EmergencyMonitor` whose public `ChipMonitor` methods are timed from
/// outside; every call is forwarded, batching included, so the server does
/// the same work it does for the bare monitor.
struct TimedMonitor {
    inner: EmergencyMonitor,
    calls: Arc<ServerCalls>,
}

impl ChipMonitor for TimedMonitor {
    fn observe(&mut self, readings: &[f64]) -> Result<MonitorDecision, CoreError> {
        self.calls
            .observe
            .time(|| ChipMonitor::observe(&mut self.inner, readings))
    }

    fn is_alarmed(&self) -> bool {
        ChipMonitor::is_alarmed(&self.inner)
    }

    fn checkpoint_json(&self, key: SessionKey) -> Option<String> {
        self.calls
            .checkpoint
            .time(|| ChipMonitor::checkpoint_json(&self.inner, key))
    }

    fn batch_model(&self) -> Option<&VoltageMapModel> {
        ChipMonitor::batch_model(&self.inner)
    }

    fn observe_prepared(&mut self, predicted: &[f64]) -> Result<MonitorDecision, CoreError> {
        self.calls
            .prepared
            .time(|| ChipMonitor::observe_prepared(&mut self.inner, predicted))
    }
}

fn factory(
    model: &VoltageMapModel,
    settings: MonitorSettings,
    timed: Option<Arc<ServerCalls>>,
) -> SessionFactory {
    let model = model.clone();
    Arc::new(move |_key| {
        let inner = settings.monitor(model.clone());
        Ok(match &timed {
            Some(calls) => Box::new(TimedMonitor {
                inner,
                calls: Arc::clone(calls),
            }) as Box<dyn ChipMonitor>,
            None => Box::new(inner) as Box<dyn ChipMonitor>,
        })
    })
}

/// A started server with one connected client that has opened every chip.
pub struct Rig {
    server: FleetServer,
    client: FleetClient,
}

impl Rig {
    /// A default-configured server (but for [`SHARDS`]) whose sessions all
    /// monitor `model`, with their monitor calls timed into `timed` when
    /// given.
    pub fn start(
        model: &VoltageMapModel,
        settings: MonitorSettings,
        chips: usize,
        timed: Option<Arc<ServerCalls>>,
    ) -> Result<Rig, String> {
        let config = FleetConfig {
            shards: SHARDS,
            ..FleetConfig::default()
        };
        let server = FleetServer::start(config, factory(model, settings, timed))
            .map_err(|e| format!("server start: {e}"))?;
        let mut client = FleetClient::new(
            server.addr(),
            TENANT,
            RetryPolicy::default(),
            ChaosConfig::quiet(TENANT),
        );
        for chip in 0..chips as u64 {
            client
                .hello(chip)
                .map_err(|e| format!("hello chip {chip}: {e}"))?;
        }
        Ok(Rig { server, client })
    }

    /// Stops the server (joining its threads) and returns its counters.
    pub fn stop(mut self) -> FleetStats {
        let stats = self.server.stats();
        self.server.stop();
        stats
    }
}

/// What one pass of readings got back, and how long it took.
pub struct PassOut {
    pub interval: Interval,
    pub tally: Tally,
    pub rtt_us: Vec<f64>,
}

/// One pass: every reading once, laid out chip-major with `steps` per
/// chip and sent step-major (each chip's readings stay in sequence), at
/// most `window` in flight. Sequence numbers continue across passes.
pub fn run_pass(
    rig: &mut Rig,
    readings: &[Vec<f64>],
    steps: usize,
    pass: u64,
    window: usize,
    ledger: Option<&Ledger>,
) -> PassOut {
    let chips = readings.len() / steps;
    let n = chips * steps;
    let mut tally = Tally::new(n);
    let mut sent_at = vec![None::<Instant>; n];
    let mut rtt_us = Vec::with_capacity(n);
    let client = &mut rig.client;
    let (_, interval) = sys::measure(|| {
        let (mut next, mut outstanding, mut replies) = (0usize, 0usize, 0usize);
        let mut progress = Instant::now();
        while replies < n {
            while next < n && outstanding < window {
                let (step, chip) = (next / chips, next % chips);
                let idx = chip * steps + step;
                let seq = pass * steps as u64 + step as u64;
                sent_at[idx] = Some(Instant::now());
                let mut send = || client.send_readings(chip as u64, seq, &readings[idx]);
                let sent = match ledger {
                    Some(l) => l.span("client.send", |_| send()),
                    None => send(),
                };
                if sent.is_err() {
                    replies += 1; // never reached the server: counted missing
                } else {
                    outstanding += 1;
                }
                next += 1;
            }
            let mut drain = || client.drain_responses(Duration::from_millis(1));
            let frames = match ledger {
                Some(l) => l.span("client.wait", |_| drain()),
                None => drain(),
            };
            let now = Instant::now();
            for f in frames {
                match f {
                    Frame::Decision {
                        chip,
                        seq,
                        flags,
                        predicted_min,
                    } => {
                        let step = (seq % steps as u64) as usize;
                        let idx = chip as usize * steps + step;
                        if let Some(d) = tally.decisions.get_mut(idx) {
                            if d.is_empty() {
                                replies += 1;
                                outstanding -= 1;
                                if let Some(t) = sent_at[idx] {
                                    rtt_us.push(now.duration_since(t).as_secs_f64() * 1e6);
                                }
                            }
                            d.push((flags, predicted_min));
                        }
                        progress = now;
                    }
                    Frame::Busy { .. } | Frame::Error { .. } => {
                        replies += 1;
                        outstanding = outstanding.saturating_sub(1);
                        progress = now;
                    }
                    _ => {}
                }
            }
            if now.duration_since(progress) > STALL {
                break; // the rest are missing
            }
        }
    });
    PassOut {
        interval,
        tally,
        rtt_us,
    }
}

/// Alarm edges served before timing starts: more than the flight
/// recorder's per-process incident allowance (`VOLTSENSE_INCIDENT_MAX`,
/// 16 per kind by default).
const WARM_UP_EDGES: usize = 64;

/// Spends the per-process incident allowance before timing starts. Each
/// of the first alarm edges writes an incident snapshot; later ones do
/// not, so without this the first timed pass would pay a cost that a
/// long-running server pays once, and no other pass pays.
pub fn warm_up() -> Result<(), String> {
    let identity = Matrix::from_rows(&[&[1.0]]).map_err(|e| format!("warm-up model: {e}"))?;
    let model = VoltageMapModel::from_parts(vec![0], 1, identity, vec![0.0], 0.001)
        .map_err(|e| format!("warm-up model: {e}"))?;
    let settings = MonitorSettings {
        threshold: SETTINGS.threshold,
        persistence: 1,
        release_margin: 0.0,
    };
    let readings: Vec<Vec<f64>> = (0..2 * WARM_UP_EDGES)
        .map(|i| vec![if i % 2 == 0 { 0.80 } else { 0.90 }])
        .collect();
    let mut rig = Rig::start(&model, settings, 1, None)?;
    let out = run_pass(&mut rig, &readings, readings.len(), 0, 1, None);
    rig.stop();
    match out.tally.failed() {
        0 => Ok(()),
        n => Err(format!("warm-up: {n} readings got no decision")),
    }
}

/// Per-call cost of the fleet's layers, timed one call at a time on this
/// workload's own model and readings.
struct Probes {
    encode_ns: f64,
    decode_ns: f64,
    matvec_ns: f64,
    observe_ns: f64,
    gemm_row_ns: f64,
}

fn per_call_ns(iters: usize, mut body: impl FnMut(usize)) -> f64 {
    let t0 = Instant::now();
    for i in 0..iters {
        body(i);
    }
    t0.elapsed().as_secs_f64() * 1e9 / iters as f64
}

fn probe_layers(inputs: &Inputs, batch: usize) -> Probes {
    let n = inputs.readings.len();
    let request = |i: usize| Frame::Readings {
        chip: (i / STEPS) as u64,
        seq: i as u64,
        trace: Some(i as u64 + 1),
        values: inputs.readings[i].clone(),
    };
    let reply = |i: usize| Frame::Decision {
        chip: (i / STEPS) as u64,
        seq: i as u64,
        flags: 0,
        predicted_min: 0.9,
    };
    // Both frames of a round trip are encoded once and decoded once.
    let requests: Vec<Frame> = (0..n).map(request).collect();
    let encode_ns = per_call_ns(n, |i| {
        std::hint::black_box(requests[i].encode());
        std::hint::black_box(reply(i).encode());
    });
    let wire: Vec<Vec<u8>> = (0..n)
        .map(|i| [request(i).encode(), reply(i).encode()].concat())
        .collect();
    let mut decoder = FrameDecoder::new(DEFAULT_MAX_FRAME);
    let decode_ns = per_call_ns(n, |i| {
        decoder.push(&wire[i]);
        while let Ok(Some(f)) = decoder.next() {
            if let Frame::Readings { values, .. } = f {
                decoder.recycle(values);
            }
        }
    });
    let mut out = vec![0.0; K];
    let matvec_ns = per_call_ns(n, |i| {
        inputs
            .model
            .predict_into(&inputs.readings[i], &mut out)
            .expect("predict");
    });
    let predicted: Vec<Vec<f64>> = inputs
        .readings
        .iter()
        .map(|r| inputs.model.predict_from_sensors(r).expect("predict"))
        .collect();
    let mut monitor: EmergencyMonitor = SETTINGS.monitor(inputs.model.clone());
    let observe_ns = per_call_ns(n, |i| {
        std::hint::black_box(monitor.observe_prepared(&predicted[i]).expect("decide"));
    });
    let batch = batch.clamp(1, n);
    let mut rows = Matrix::zeros(batch, Q);
    for b in 0..batch {
        rows.as_mut_slice()[b * Q..(b + 1) * Q].copy_from_slice(&inputs.readings[b]);
    }
    let mut gemm_out = Matrix::zeros(batch, K);
    let batches = (n / batch).max(8);
    let gemm_row_ns = per_call_ns(batches, |_| {
        inputs
            .model
            .predict_batch_into(&rows, &mut gemm_out)
            .expect("gemm");
    }) / batch as f64;
    Probes {
        encode_ns,
        decode_ns,
        matvec_ns,
        observe_ns,
        gemm_row_ns,
    }
}

/// The flight recorder's batch counters (zero while it is not installed).
fn gemm_counters() -> (u64, u64) {
    flight::current().map_or((0, 0), |f| {
        let s = f.snapshot("perfbench");
        (
            s.counter("fleet.gemm_batches_total").unwrap_or(0),
            s.counter("fleet.gemm_rows_total").unwrap_or(0),
        )
    })
}

/// Runs passes until the next one would overrun `seconds` of window (at
/// least `min_passes`).
fn window(
    rig: &mut Rig,
    inputs: &Inputs,
    which: Fleet,
    next_pass: &mut u64,
    seconds: f64,
    min_passes: usize,
    ledger: Option<&Ledger>,
) -> Vec<PassOut> {
    let started = Instant::now();
    let mut out = Vec::new();
    loop {
        let t0 = Instant::now();
        out.push(run_pass(
            rig,
            &inputs.readings,
            STEPS,
            *next_pass,
            which.window(),
            ledger,
        ));
        *next_pass += 1;
        let pass_s = t0.elapsed().as_secs_f64();
        if out.len() >= min_passes && started.elapsed().as_secs_f64() + pass_s > seconds {
            return out;
        }
    }
}

/// Median over passes of a per-reading figure, in microseconds.
fn per_reading_us(passes: &[PassOut], of: impl Fn(&Interval) -> f64) -> f64 {
    let per: Vec<f64> = passes
        .iter()
        .map(|p| 1e6 * of(&p.interval) / p.tally.decisions.len() as f64)
        .collect();
    stats::median(&per).expect("passes ran")
}

/// Set-up repetitions whose median is `setup_s`, and the pause before
/// each after the first. The host's speed changes within seconds, so the
/// repetitions are spread over a few seconds rather than run back to back
/// (~50 ms each), where they all sample one moment of the host.
const SETUP_REPS: usize = 9;
const SETUP_GAP: Duration = Duration::from_millis(400);

/// The windows a traced run measures besides the timed one.
struct TracedWindows {
    off: Vec<PassOut>,
    traced: Vec<PassOut>,
    ledger: Ledger,
    /// The flight recorder's batch counters over the traced window.
    gemm_batches: u64,
    gemm_rows: u64,
    /// Server-side monitor calls over the traced window.
    server_calls: CallsSnapshot,
}

/// The set-up a run times: the droop schedule from the committed suite
/// sequences, the seed's model and readings, and a started rig. Also
/// returns the emergency edges per map of the schedule and of the suite.
fn set_up(
    which: Fleet,
    seed: u64,
    timed: Option<Arc<ServerCalls>>,
) -> Result<(Rig, Inputs, [f64; 2]), String> {
    let seqs = suite::load()?;
    let schedule = suite::schedule(&seqs, which.chips(), STEPS)?;
    let edges = [suite::edges_per_map(&schedule), suite::edges_per_map(&seqs)];
    let inputs = generate(seed, &schedule);
    let rig = Rig::start(&inputs.model, SETTINGS, which.chips(), timed)?;
    Ok((rig, inputs, edges))
}

/// Runs one fleet workload for `seconds` and returns its measurements.
/// A traced run installs the flight recorder itself, after a window with
/// it off, so the recorder's cost is measured as a pair; its sessions'
/// monitor calls are timed throughout.
pub fn run(which: Fleet, seed: u64, seconds: f64, traced: bool) -> Result<Measured, String> {
    let server_calls = traced.then(|| Arc::new(ServerCalls::default()));
    let mut setup_times = Vec::new();
    let mut prepared: Option<(Rig, Inputs, [f64; 2])> = None;
    for _ in 0..SETUP_REPS {
        if let Some((old, _, _)) = prepared.take() {
            old.stop();
            std::thread::sleep(SETUP_GAP);
        }
        let t0 = Instant::now();
        prepared = Some(set_up(which, seed, server_calls.clone())?);
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let (mut rig, inputs, [schedule_edges, suite_edges]) = prepared.expect("set up");
    let setup_s = stats::median(&setup_times).expect("set-up ran");
    sys::reset_peak_rss()?;
    let expected = expected_decisions(&inputs.model, SETTINGS, &inputs.readings, STEPS);

    let mut next_pass = 0u64;
    // Warm-up: lazy per-model caches and the first alarm incidents.
    let mut unreported = window(&mut rig, &inputs, which, &mut next_pass, 0.0, 1, None);
    let (timed, extra) = match &server_calls {
        Some(calls) => {
            let quarter = seconds / 4.0;
            let off = window(&mut rig, &inputs, which, &mut next_pass, quarter, 2, None);
            crate::install_flight();
            unreported.extend(window(
                &mut rig,
                &inputs,
                which,
                &mut next_pass,
                0.0,
                1,
                None,
            ));
            let on = window(&mut rig, &inputs, which, &mut next_pass, quarter, 2, None);
            let ledger = Ledger::default();
            let (b0, r0) = gemm_counters();
            let c0 = calls.read();
            let traced = window(
                &mut rig,
                &inputs,
                which,
                &mut next_pass,
                quarter,
                2,
                Some(&ledger),
            );
            let c1 = calls.read();
            let (b1, r1) = gemm_counters();
            let w = TracedWindows {
                off,
                traced,
                ledger,
                gemm_batches: b1 - b0,
                gemm_rows: r1 - r0,
                server_calls: std::array::from_fn(|i| (c1[i].0 - c0[i].0, c1[i].1 - c0[i].1)),
            };
            (on, Some(w))
        }
        None => (
            window(
                &mut rig,
                &inputs,
                which,
                &mut next_pass,
                seconds,
                MIN_PASSES,
                None,
            ),
            None,
        ),
    };
    let server = rig.stop();

    let mut failures = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let extra_passes = extra
        .iter()
        .flat_map(|w| w.off.iter().chain(w.traced.iter()));
    for p in unreported.iter().chain(timed.iter()).chain(extra_passes) {
        attempted += p.tally.decisions.len() as u64;
        failed += p.tally.failed();
        let bad = p.tally.mismatches(&expected);
        if !bad.is_empty() {
            failures.push(format!(
                "{} decisions differ from the offline replay (first: reading {})",
                bad.len(),
                bad[0]
            ));
        }
    }
    if server.shed + server.rejected > 0 {
        failures.push(format!(
            "closed loop overloaded a session: {} shed, {} rejected",
            server.shed, server.rejected
        ));
    }
    let (te_pct, rel_err_pct) = quality(&inputs, &expected);

    let mut m = Measured::new(setup_s, failures);
    m.attempted = attempted;
    m.failed = failed;
    let walls: Vec<f64> = timed.iter().map(|p| p.interval.wall_s).collect();
    let cpus: Vec<f64> = timed.iter().map(|p| p.interval.cpu_s).collect();
    m.put("wall_s", stats::lower_quartile(&walls).expect("passes ran"));
    m.put("cpu_s", stats::lower_quartile(&cpus).expect("passes ran"));
    m.put("te_pct", te_pct);
    m.put("rel_err_pct", rel_err_pct);
    let windows: Vec<Window> = timed
        .iter()
        .map(|p| Window {
            readings: p.tally.decisions.len() as u64,
            interval: p.interval,
            latencies_us: &p.rtt_us,
        })
        .collect();
    m.put_readings(&windows)?;
    let alarms = expected
        .iter()
        .filter(|d| d.0 & decision_flags::RISING != 0)
        .count();
    m.notes.push(format!(
        "passes={} readings/pass={} window={} chips={} alarms/pass={alarms} emergency edges/map \
         {schedule_edges:.4} (suite {suite_edges:.4}) shed={} rejected={} decode_errors={} \
         wall_s by pass={walls:?}",
        timed.len(),
        expected.len(),
        which.window(),
        which.chips(),
        server.shed,
        server.rejected,
        server.decode_errors,
    ));
    if let Some(w) = extra {
        layer_metrics(&mut m, &inputs, &timed, &w, server);
    }
    Ok(m)
}

/// Largest share of a reading's CPU the probed and server-timed layers may
/// claim beyond what the process spent, before the run fails: more means
/// a layer's cost is counted wrongly.
const FLEET_OVERCLAIM_MAX_SHARE: f64 = 0.05;
/// Largest share of a reading's CPU that may stay in no layer: the rest
/// of a round trip (syscalls, wake-ups, the client's loop) lives there.
const FLEET_UNATTRIBUTED_MAX_SHARE: f64 = 0.5;

/// Failures of the fleet reconciliation of `layers_us` against the
/// measured `cpu_us` per reading.
fn fleet_reconcile_failures(layers_us: f64, cpu_us: f64) -> Vec<String> {
    let unattributed = cpu_us - layers_us;
    if unattributed < -FLEET_OVERCLAIM_MAX_SHARE * cpu_us {
        vec![format!(
            "fleet layers claim {layers_us:.3} us of CPU per reading, more than the {cpu_us:.3} us \
             measured"
        )]
    } else if unattributed > FLEET_UNATTRIBUTED_MAX_SHARE * cpu_us {
        vec![format!(
            "{unattributed:.3} of {cpu_us:.3} us of CPU per reading is in no fleet layer \
             (more than {:.0}%)",
            100.0 * FLEET_UNATTRIBUTED_MAX_SHARE
        )]
    } else {
        Vec::new()
    }
}

/// Per-layer metrics of a traced run and the per-reading reconciliation.
fn layer_metrics(
    m: &mut Measured,
    inputs: &Inputs,
    timed: &[PassOut],
    w: &TracedWindows,
    server: FleetStats,
) {
    let readings = w
        .traced
        .iter()
        .map(|p| p.tally.decisions.len())
        .sum::<usize>() as f64;
    let rows_per_batch = if w.gemm_batches > 0 {
        w.gemm_rows as f64 / w.gemm_batches as f64
    } else {
        0.0
    };
    let batched_frac = w.gemm_rows as f64 / readings;
    let probes = probe_layers(inputs, rows_per_batch.round().max(1.0) as usize);
    let cpu_off = per_reading_us(&w.off, |i| i.cpu_s);
    let cpu_on = per_reading_us(timed, |i| i.cpu_s);
    let [(observes, observe_ns), (prepared, prepared_ns), (checkpoints, checkpoint_ns)] =
        w.server_calls;
    m.put("frame.encode_ns", probes.encode_ns);
    m.put("frame.decode_ns", probes.decode_ns);
    m.put("predict.matvec_ns", probes.matvec_ns);
    m.put("monitor.observe_ns", probes.observe_ns);
    m.put("predict.gemm_row_ns", probes.gemm_row_ns);
    m.put("fleet.gemm_rows_per_batch", rows_per_batch);
    m.put("fleet.batched_frac", batched_frac);
    m.put(
        "telemetry.flight_overhead_pct",
        100.0 * (cpu_on - cpu_off) / cpu_off,
    );
    m.put("fleet.shed", server.shed as f64);
    m.put("fleet.rejected", server.rejected as f64);
    m.put("fleet.decode_errors", server.decode_errors as f64);
    m.put(
        "checkpoint.serialize_us",
        checkpoint_ns as f64 * 1e-3 / checkpoints.max(1) as f64,
    );
    m.put(
        "fleet.checkpoints_per_reading",
        checkpoints as f64 / readings,
    );

    // Per reading over the traced window: the layers' costs plus the
    // remainder no layer accounts for equal the measured CPU time. CPU,
    // not wall, is the budget they share: the server's shards run
    // concurrently, so on `fleet_sku` a reading's layers overlap others'.
    // The monitor calls are the server's own, timed on its threads; the
    // frames and the GEMM are probed one call at a time.
    let cpu_us = per_reading_us(&w.traced, |i| i.cpu_s);
    let wall_us = per_reading_us(&w.traced, |i| i.wall_s);
    let per_reading = |ns: u64| ns as f64 * 1e-3 / readings;
    let (frames_us, gemm_us) = (
        (probes.encode_ns + probes.decode_ns) * 1e-3,
        w.gemm_rows as f64 * probes.gemm_row_ns * 1e-3 / readings,
    );
    let (observe_us, prepared_us, checkpoint_us) = (
        per_reading(observe_ns),
        per_reading(prepared_ns),
        per_reading(checkpoint_ns),
    );
    let layers_us = frames_us + gemm_us + observe_us + prepared_us + checkpoint_us;
    m.put("fleet.reading_cpu_us", cpu_us);
    m.put("fleet.reading_wall_us", wall_us);
    m.put("fleet.unattributed_us", cpu_us - layers_us);
    let untraced_us = per_reading_us(timed, |i| i.wall_s);
    m.put(
        "trace.overhead_pct",
        100.0 * (wall_us - untraced_us) / untraced_us,
    );
    let sum = w.ledger.summary();
    let client_us = |n: &str| sum.get(n).map_or(0.0, |l| 1e6 * l.total_s / readings);
    m.put("client.send_us", client_us("client.send"));
    m.put("client.wait_us", client_us("client.wait"));
    m.ledger_lines.push(format!(
        "per reading (traced window, {readings} readings): cpu {cpu_us:.3} us = \
         frames {frames_us:.3} + batched GEMM {gemm_us:.3} ({batched_frac:.3} of rows) + \
         server observe {observe_us:.3} ({observes} calls) + observe_prepared {prepared_us:.3} \
         ({prepared} calls) + checkpoint {checkpoint_us:.3} ({checkpoints} serializations) + \
         unattributed {:.3} us; wall {wall_us:.3} us = client send {:.3} + wait {:.3} + \
         loop {:.3} us; cpu/reading flight off {cpu_off:.3} us, on {cpu_on:.3} us",
        cpu_us - layers_us,
        client_us("client.send"),
        client_us("client.wait"),
        wall_us - client_us("client.send") - client_us("client.wait"),
    ));
    m.failures
        .extend(fleet_reconcile_failures(layers_us, cpu_us));
    m.ledger = Some(w.ledger.to_jsonl());
}

/// TE and relative error of the served minimum against the noiseless
/// truth (the model applied to readings without sensor noise), in percent.
fn quality(inputs: &Inputs, served: &[Decision]) -> (f64, f64) {
    let mut wrong = 0usize;
    let mut rel = 0.0;
    for (clean, &(flags, predicted_min)) in inputs.clean.iter().zip(served) {
        let truth = inputs
            .model
            .predict_from_sensors(clean)
            .expect("predict")
            .into_iter()
            .fold(f64::INFINITY, f64::min);
        let alarmed = flags & decision_flags::ALARM != 0;
        wrong += usize::from(alarmed != (truth < SETTINGS.threshold));
        rel += (predicted_min - truth).abs() / truth;
    }
    let n = served.len() as f64;
    (100.0 * wrong as f64 / n, 100.0 * rel / n)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A schedule like the suite's: an emergency run of 1, one of 3, and
    /// a run of 2 right before the clear last map.
    fn schedule(chips: usize) -> Vec<Vec<bool>> {
        let mut row = vec![false; STEPS];
        for i in [3, 10, 11, 12, STEPS - 3, STEPS - 2] {
            row[i] = true;
        }
        vec![row; chips]
    }

    #[test]
    fn every_seed_alarms_on_the_schedule_and_ends_clear() {
        let sched = schedule(8);
        let flags = |seed: u64| -> Vec<u8> {
            let inputs = generate(seed, &sched);
            expected_decisions(&inputs.model, SETTINGS, &inputs.readings, STEPS)
                .iter()
                .map(|d| d.0)
                .collect()
        };
        let first = flags(0);
        let (alarm, rising) = (decision_flags::ALARM, decision_flags::RISING);
        // Persistence 2: the run of 1 never alarms; the others rise on
        // their second map and clear on the first nominal one.
        assert_eq!(first[11], alarm | rising);
        assert_eq!(first[12], alarm);
        assert_eq!(first[3] | first[10] | first[13], 0);
        assert_eq!(first[STEPS - 2], alarm | rising);
        assert_eq!(first[STEPS - 1], 0, "the window ends clear");
        for seed in 1..6 {
            assert_eq!(flags(seed), first, "seed {seed} decides like seed 0");
        }
        let inputs = generate(3, &sched);
        let exp = expected_decisions(&inputs.model, SETTINGS, &inputs.readings, STEPS);
        let (te, rel) = quality(&inputs, &exp);
        assert!(te > 0.0 && te < 20.0, "te {te}");
        assert!(rel > 0.0 && rel < 5.0, "rel {rel}");
    }

    #[test]
    fn fleet_reconciliation_fails_on_overclaim_or_a_large_remainder() {
        assert!(fleet_reconcile_failures(900.0, 1000.0).is_empty());
        assert_eq!(fleet_reconcile_failures(1100.0, 1000.0).len(), 1);
        assert_eq!(fleet_reconcile_failures(400.0, 1000.0).len(), 1);
    }
}
