//! The offline path: grid simulation → group-lasso placement → OLS refit →
//! Eagle-Eye baseline → ME/WAE/TE, then the held-out maps served through a
//! `FleetServer` running the fitted model.
//!
//! An untraced pass drives the public entry points only (`Scenario`,
//! `PerCoreModel`, `EagleEyePlacement`). A traced pass reaches the same
//! results through each layer's public functions, with a span around every
//! call, so the per-layer times reconcile to the pass's wall time; the two
//! must agree on every quality figure bit for bit.

use std::time::Instant;

use voltsense::core::{detection, metrics, MethodologyConfig, SelectionProblem, VoltageMapModel};
use voltsense::eagleeye::{EagleEyeConfig, EagleEyePlacement};
use voltsense::fleet::frame::decision_flags;
use voltsense::floorplan::CoreId;
use voltsense::linalg::Matrix;
use voltsense::powergrid::{sample_benchmark, TransientSimulator};
use voltsense::scenario::{CollectOptions, CorePartition, PerCoreModel, Scenario, ScenarioData};
use voltsense::workload::{GaussianRng, WorkloadTrace};

use crate::check::{expected_decisions, MonitorSettings};
use crate::fleet::{self, Rig};
use crate::ledger::Ledger;
use crate::suite;
use crate::sys::{self, Interval};
use crate::{stats, Measured, Window, MIN_PASSES};

/// Benchmarks in the shipped suite.
const NUM_BENCHMARKS: usize = 19;
/// The paper's Table 1 sensor budgets, per core.
pub const SWEEP_QS: [usize; 6] = [2, 4, 7, 10, 13, 16];
/// Table 2's per-core budget.
const TABLE2_Q: usize = 2;
/// Folds of the held-out evaluation: each map is held out by one of them.
const FOLDS: usize = 3;
/// Fewest readings one pass serves through the fleet.
const SERVED_READINGS: usize = 2048;

/// The two offline workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offline {
    /// Paper-scale collect + fit at 2 sensors per core + baseline + table.
    PaperTable2,
    /// Small-scale Q sweep over the Table 1 budgets (collected in set-up).
    BudgetSweep,
}

/// What set-up hands every pass.
struct Setup {
    scenario: Scenario,
    partition: CorePartition,
    /// Every fold's train/test sets, when set-up collects them (the
    /// budget sweep).
    folds: Option<Vec<(ScenarioData, ScenarioData)>>,
}

fn setup(which: Offline, seed: u64) -> Result<Setup, String> {
    let scenario = match which {
        Offline::PaperTable2 => Scenario::paper_scale(),
        Offline::BudgetSweep => Scenario::small(),
    }
    .map_err(|e| format!("scenario: {e}"))?;
    let partition = CorePartition::from_chip(scenario.chip());
    let folds = match which {
        Offline::PaperTable2 => None,
        Offline::BudgetSweep => {
            let data = scenario
                .collect(&all_benchmarks())
                .map_err(|e| format!("collect: {e}"))?;
            Some(folds(&data, seed))
        }
    };
    Ok(Setup {
        scenario,
        partition,
        folds,
    })
}

fn all_benchmarks() -> Vec<usize> {
    (0..NUM_BENCHMARKS).collect()
}

/// The seed's three-way fold of every map. Fold 0 is always the shipped
/// `split(3)` hold-out (every third map), so the timed fold-0 work is the
/// same for every seed. The seed splits the remaining maps between folds
/// 1 and 2: seed 0 by global index (`i % 3`), any other seed alternating
/// within each benchmark from a seeded starting offset, so every fold
/// stays interleaved in time like the shipped one.
fn fold_assignment(data: &ScenarioData, seed: u64) -> Vec<usize> {
    if seed == 0 {
        return (0..data.num_samples()).map(|i| i % FOLDS).collect();
    }
    let mut rng = GaussianRng::seed_from_u64(seed);
    let offsets: Vec<usize> = (0..NUM_BENCHMARKS).map(|_| rng.uniform_index(2)).collect();
    let mut position = [0usize; NUM_BENCHMARKS];
    data.sample_benchmark
        .iter()
        .enumerate()
        .map(|(i, &b)| {
            if i % FOLDS == 0 {
                return 0;
            }
            position[b] += 1;
            1 + (position[b] - 1 + offsets[b]) % 2
        })
        .collect()
}

/// Train/test sets of every fold; fold 0 is exactly
/// `ScenarioData::split(3)`.
pub fn folds(data: &ScenarioData, seed: u64) -> Vec<(ScenarioData, ScenarioData)> {
    let assignment = fold_assignment(data, seed);
    (0..FOLDS)
        .map(|f| {
            let (test, train): (Vec<usize>, Vec<usize>) =
                (0..data.num_samples()).partition(|&i| assignment[i] == f);
            (data.subset(&train), data.subset(&test))
        })
        .collect()
}

/// Held-out figures pooled over folds: every map is predicted once, by
/// the model that did not train on it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Pooled {
    errors: usize,
    samples: usize,
    diff_sq: f64,
    truth_sq: f64,
}

impl Pooled {
    fn add(
        &mut self,
        predicted: &Matrix,
        alarms: &[bool],
        test: &ScenarioData,
        threshold: f64,
    ) -> Result<(), String> {
        let rel =
            metrics::relative_error(predicted, &test.f).map_err(|e| format!("rel err: {e}"))?;
        let truth = detection::ground_truth(&test.f, threshold);
        let det = detection::evaluate(&truth, alarms).map_err(|e| format!("evaluate: {e}"))?;
        let norm = test.f.frobenius_norm();
        self.errors += det.misses + det.wrong_alarms;
        self.samples += det.samples;
        self.diff_sq += (rel * norm).powi(2);
        self.truth_sq += norm.powi(2);
        Ok(())
    }

    fn te_pct(&self) -> f64 {
        100.0 * self.errors as f64 / self.samples as f64
    }

    fn rel_err_pct(&self) -> f64 {
        100.0 * (self.diff_sq / self.truth_sq).sqrt()
    }
}

/// Quality figures of one pass; compared bit for bit across passes and
/// between traced and untraced passes.
#[derive(Debug, Clone, PartialEq)]
pub struct Quality {
    /// Held-out TE at the reporting budget, pooled over folds (%).
    pub te_pct: f64,
    /// Held-out relative error at the reporting budget, pooled (%).
    pub rel_err_pct: f64,
    /// Every per-core fit as (target, per-core counts).
    pub fits: Vec<(usize, Vec<usize>)>,
    /// Fold 0's held-out relative error at every budget (%).
    pub rel_err_by_q: Vec<f64>,
    /// Fold 0's held-out TE at every budget (%).
    pub te_by_q: Vec<f64>,
    /// Fold 0's held-out maps.
    pub held_out: usize,
    /// The collected suite's emergency sequences (paper_table2 only).
    pub suite: Vec<Vec<bool>>,
    /// Fold 0's Table 2 rows as printed (paper_table2 only).
    pub table_rows: Vec<String>,
    /// Table 2 shape verdict: (proposed TE ≤ Eagle-Eye TE, comparable).
    pub wins: (usize, usize),
    /// The served decisions all checked out (see [`serve`]).
    pub served_agrees: bool,
}

/// The held-out maps served through the fleet: every reading's round
/// trip, the interval, and whether every decision checked out.
#[derive(Debug, Clone)]
struct Served {
    latencies_us: Vec<f64>,
    interval: Interval,
    agrees: bool,
}

/// One pass's outputs.
struct Pass {
    interval: Interval,
    quality: Quality,
    served: Served,
}

fn config() -> MethodologyConfig {
    MethodologyConfig::default()
}

/// Formats a rate like the paper's tables (and `results/table2_error_rates.txt`).
fn fmt_rate(r: f64) -> String {
    if r == 0.0 {
        "0".to_string()
    } else {
        format!("{r:.4}")
    }
}

/// Per-benchmark Table 2 rows and the shape verdict.
fn table2_rows(
    test: &ScenarioData,
    threshold: f64,
    eagle: &EagleEyePlacement,
    proposed_alarms: &dyn Fn(&Matrix) -> Result<Vec<bool>, String>,
) -> Result<(Vec<String>, (usize, usize)), String> {
    let (mut rows, mut wins, mut comparable) = (Vec::new(), 0, 0);
    for bm in 0..NUM_BENCHMARKS {
        let sub = test.benchmark_subset(bm);
        if sub.num_samples() == 0 {
            continue;
        }
        let truth = detection::ground_truth(&sub.f, threshold);
        let e_alarms = eagle
            .detect_matrix(&sub.x)
            .map_err(|e| format!("eagle detect: {e}"))?;
        let p_alarms = proposed_alarms(&sub.x)?;
        let e = detection::evaluate(&truth, &e_alarms).map_err(|e| format!("evaluate: {e}"))?;
        let p = detection::evaluate(&truth, &p_alarms).map_err(|e| format!("evaluate: {e}"))?;
        rows.push(format!(
            "BM{:<4} {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9}   {:>6}",
            bm + 1,
            fmt_rate(e.miss_rate),
            fmt_rate(e.wrong_alarm_rate),
            fmt_rate(e.total_error_rate),
            fmt_rate(p.miss_rate),
            fmt_rate(p.wrong_alarm_rate),
            fmt_rate(p.total_error_rate),
            e.emergencies,
        ));
        if e.emergencies > 0 {
            comparable += 1;
            if p.total_error_rate <= e.total_error_rate {
                wins += 1;
            }
        }
    }
    Ok((rows, (wins, comparable)))
}

/// Serves the held-out maps, as one chip's sensor readings, to a
/// default-configured `FleetServer` monitoring `model`, one reading in
/// flight: the runtime half of the method on the model the offline half
/// just fitted. Small held-out sets are served several times over, so a
/// pass holds at least [`SERVED_READINGS`]. Every reading must get
/// exactly one decision, bit-equal to an offline `EmergencyMonitor`
/// replay; with persistence 1 and no hysteresis its alarm must also equal
/// `detect_matrix` on every map.
fn serve(model: &VoltageMapModel, test: &ScenarioData, threshold: f64) -> Result<Served, String> {
    let detected = model
        .detect_matrix(&test.x, threshold)
        .map_err(|e| format!("detect: {e}"))?;
    let n = test.num_samples();
    let reps = SERVED_READINGS.div_ceil(n);
    let alarms: Vec<bool> = detected.iter().copied().cycle().take(n * reps).collect();
    let sensors = model.sensor_indices();
    let readings: Vec<Vec<f64>> = (0..n * reps)
        .map(|i| sensors.iter().map(|&r| test.x[(r, i % n)]).collect())
        .collect();
    let settings = MonitorSettings {
        threshold,
        persistence: 1,
        release_margin: 0.0,
    };
    let mut rig = Rig::start(model, settings, 1, None)?;
    let out = fleet::run_pass(&mut rig, &readings, readings.len(), 0, 1, None);
    rig.stop();
    let expected = expected_decisions(model, settings, &readings, readings.len());
    let agrees = out.tally.failed() == 0
        && out.tally.mismatches(&expected).is_empty()
        && expected
            .iter()
            .zip(&alarms)
            .all(|(d, &a)| (d.0 & decision_flags::ALARM != 0) == a);
    Ok(Served {
        latencies_us: out.rtt_us,
        interval: out.interval,
        agrees,
    })
}

/// The budgets fitted on fold 0 (the other folds fit the first only).
fn budgets(which: Offline) -> &'static [usize] {
    match which {
        Offline::PaperTable2 => &[TABLE2_Q],
        Offline::BudgetSweep => &SWEEP_QS,
    }
}

// --- untraced passes: public entry points only ----------------------------

fn untraced_pass(which: Offline, s: &Setup, seed: u64) -> Result<Pass, String> {
    let cfg = config();
    let thr = cfg.emergency_threshold;
    let (result, interval) = sys::measure(|| -> Result<(Quality, Served), String> {
        let collected;
        let mut suite = Vec::new();
        let folds = match &s.folds {
            Some(f) => f,
            None => {
                let data = s
                    .scenario
                    .collect(&all_benchmarks())
                    .map_err(|e| format!("collect: {e}"))?;
                suite = suite::derive(&data, thr, NUM_BENCHMARKS);
                collected = folds(&data, seed);
                &collected
            }
        };
        let mut models = Vec::new();
        let (mut rel_err_by_q, mut te_by_q) = (Vec::new(), Vec::new());
        let (train, test) = &folds[0];
        match which {
            Offline::PaperTable2 => {
                let m = PerCoreModel::fit_with_sensor_count(train, &s.partition, TABLE2_Q, &cfg);
                models.push(m.map_err(|e| format!("fit: {e}"))?);
            }
            Offline::BudgetSweep => {
                let sweep =
                    PerCoreModel::fit_with_sensor_count_sweep(train, &s.partition, &SWEEP_QS, &cfg);
                models = sweep.map_err(|e| format!("sweep: {e}"))?;
                for m in &models {
                    let r = m.evaluate(test).map_err(|e| format!("evaluate: {e}"))?;
                    rel_err_by_q.push(100.0 * r.relative_error);
                    te_by_q.push(100.0 * r.detection.total_error_rate);
                }
            }
        }
        let mut pooled = Pooled::default();
        let mut fits: Vec<(usize, Vec<usize>)> = budgets(which)
            .iter()
            .zip(&models)
            .map(|(q, m)| (*q, per_core_counts(m)))
            .collect();
        for (f, (train, test)) in folds.iter().enumerate() {
            let model = if f == 0 {
                models[0].clone()
            } else {
                PerCoreModel::fit_with_sensor_count(train, &s.partition, budgets(which)[0], &cfg)
                    .map_err(|e| format!("fold {f} fit: {e}"))?
            };
            let predicted = model
                .predict_matrix(&test.x)
                .map_err(|e| format!("predict: {e}"))?;
            let alarms = model
                .detect_matrix(&test.x)
                .map_err(|e| format!("detect: {e}"))?;
            pooled.add(&predicted, &alarms, test, thr)?;
            if f > 0 {
                fits.push((budgets(which)[0], per_core_counts(&model)));
            }
        }
        let (table_rows, wins) = match which {
            Offline::PaperTable2 => {
                let eagle = EagleEyePlacement::place(
                    &train.x,
                    &train.f,
                    models[0].total_sensors(),
                    &EagleEyeConfig::default(),
                )
                .map_err(|e| format!("eagle-eye: {e}"))?;
                table2_rows(test, thr, &eagle, &|x| {
                    models[0]
                        .detect_matrix(x)
                        .map_err(|e| format!("detect: {e}"))
                })?
            }
            Offline::BudgetSweep => (Vec::new(), (0, 0)),
        };
        let served = serve(models[0].global_model(), test, thr)?;
        Ok((
            Quality {
                te_pct: pooled.te_pct(),
                rel_err_pct: pooled.rel_err_pct(),
                fits,
                rel_err_by_q,
                te_by_q,
                held_out: test.num_samples(),
                suite,
                table_rows,
                wins,
                served_agrees: served.agrees,
            },
            served,
        ))
    });
    let (quality, served) = result?;
    Ok(Pass {
        interval,
        quality,
        served,
    })
}

fn per_core_counts(model: &PerCoreModel) -> Vec<usize> {
    model
        .fits()
        .iter()
        .map(|f| f.fitted.sensors().len())
        .collect()
}

// --- traced passes: the same results, one span per layer call -------------

/// The paper's Eq. 17 refit over the union of per-core sensors, as
/// `PerCoreModel` performs it.
fn global_refit(
    ledger: &Ledger,
    train: &ScenarioData,
    partition: &CorePartition,
    local: &[Vec<usize>],
) -> Result<VoltageMapModel, String> {
    let mut sensors: Vec<usize> = local
        .iter()
        .enumerate()
        .flat_map(|(c, sel)| {
            let rows = partition.candidates_of(CoreId(c));
            sel.iter().map(move |&l| rows[l])
        })
        .collect();
    sensors.sort_unstable();
    sensors.dedup();
    ledger
        .span("predict.refit", |_| {
            VoltageMapModel::fit(&train.x, &train.f, &sensors)
        })
        .map_err(|e| format!("global refit: {e}"))
}

/// Per-core selection at every target in `qs` through one warm homotopy
/// per core; returns `selected[q_index][core]` (local candidate indices).
fn traced_select(
    ledger: &Ledger,
    train: &ScenarioData,
    partition: &CorePartition,
    qs: &[usize],
    cfg: &MethodologyConfig,
) -> Result<Vec<Vec<Vec<usize>>>, String> {
    let mut selected = vec![Vec::new(); qs.len()];
    for c in 0..partition.num_cores() {
        let core = CoreId(c);
        let sub = ledger.span("scenario.assemble", |_| {
            train.restrict(partition.candidates_of(core), partition.blocks_of(core))
        });
        let prepared = ledger
            .span("selection.reduce", |_| {
                SelectionProblem::new(&sub.x, &sub.f)
            })
            .map_err(|e| format!("core {c} reduce: {e}"))?;
        let mut sweep = prepared
            .homotopy(cfg.gl_options.clone())
            .map_err(|e| format!("homotopy: {e}"))?;
        for (i, &q) in qs.iter().enumerate() {
            let sel = ledger
                .span("grouplasso.solve", |_| {
                    sweep.select_with_count(q, cfg.threshold)
                })
                .map_err(|e| format!("core {c} q {q}: {e}"))?;
            // The per-core model Methodology fits alongside the selection.
            ledger
                .span("predict.refit", |_| {
                    VoltageMapModel::fit(&sub.x, &sub.f, &sel.selected)
                })
                .map_err(|e| format!("core {c} refit: {e}"))?;
            selected[i].push(sel.selected);
        }
        ledger.count("grouplasso.solves", sweep.num_solves() as f64);
    }
    Ok(selected)
}

/// Paper-scale collect, one span per layer call per benchmark, fanned out
/// over the pool exactly like `Scenario::collect`.
fn traced_collect(ledger: &Ledger, scenario: &Scenario) -> Result<ScenarioData, String> {
    let maps = ledger.span("parallel.collect", |collect| {
        voltsense::parallel::par_map(&all_benchmarks(), |&b| {
            ledger.span_under(Some(collect), "benchmark", |_| {
                let trace = ledger
                    .span("workload.generate", |_| {
                        WorkloadTrace::generate(
                            &scenario.suite()[b],
                            scenario.chip().blocks(),
                            scenario.trace_config(),
                        )
                    })
                    .map_err(|e| format!("trace {b}: {e}"))?;
                // Factorization probe: the same TransientSimulator::new
                // that sample_benchmark performs first, timed alone.
                let initial: Vec<f64> = (0..trace.num_blocks())
                    .map(|k| trace.current(k, 0))
                    .collect();
                ledger
                    .span("powergrid.factor", |_| {
                        TransientSimulator::new(scenario.grid(), trace.dt_ns(), &initial)
                            .map(|_| ())
                    })
                    .map_err(|e| format!("factor {b}: {e}"))?;
                let maps = ledger
                    .span("powergrid.sample", |_| {
                        sample_benchmark(scenario.grid(), &trace, scenario.sample_config())
                    })
                    .map_err(|e| format!("sample {b}: {e}"))?;
                let steps = maps.sample_steps().last().map_or(0, |&s| s + 1);
                ledger.count("powergrid.steps", steps as f64);
                Ok((b, maps))
            })
        })
        .into_iter()
        .collect::<Result<Vec<_>, String>>()
    })?;
    ledger
        .span("scenario.assemble", |_| {
            ScenarioData::assemble_with(scenario.chip(), &maps, &CollectOptions::default())
        })
        .map_err(|e| format!("assemble: {e}"))
}

fn traced_pass(which: Offline, s: &Setup, seed: u64, ledger: &Ledger) -> Result<Pass, String> {
    let cfg = config();
    let thr = cfg.emergency_threshold;
    let (result, interval) = sys::measure(|| {
        ledger.span("pass", |_| -> Result<(Quality, Served), String> {
            let collected;
            let mut suite = Vec::new();
            let folds = match &s.folds {
                Some(f) => f,
                None => {
                    let data = traced_collect(ledger, &s.scenario)?;
                    suite = ledger.span("detection.evaluate", |_| {
                        suite::derive(&data, thr, NUM_BENCHMARKS)
                    });
                    collected = ledger.span("scenario.assemble", |_| folds(&data, seed));
                    &collected
                }
            };
            let mut pooled = Pooled::default();
            let mut fits: Vec<(usize, Vec<usize>)> = Vec::new();
            let (mut rel_err_by_q, mut te_by_q) = (Vec::new(), Vec::new());
            let mut fold0 = Vec::new();
            for (f, (train, test)) in folds.iter().enumerate() {
                let qs = if f == 0 {
                    budgets(which)
                } else {
                    &budgets(which)[..1]
                };
                let selected = traced_select(ledger, train, &s.partition, qs, &cfg)?;
                let models = selected
                    .iter()
                    .map(|local| global_refit(ledger, train, &s.partition, local))
                    .collect::<Result<Vec<_>, _>>()?;
                for (q, per_core) in qs.iter().zip(&selected) {
                    fits.push((*q, per_core.iter().map(Vec::len).collect()));
                }
                ledger.span("detection.evaluate", |_| -> Result<(), String> {
                    let predicted = models[0]
                        .predict_matrix(&test.x)
                        .map_err(|e| format!("predict: {e}"))?;
                    let alarms = models[0]
                        .detect_matrix(&test.x, thr)
                        .map_err(|e| format!("detect: {e}"))?;
                    pooled.add(&predicted, &alarms, test, thr)?;
                    if f == 0 && which == Offline::BudgetSweep {
                        let truth = detection::ground_truth(&test.f, thr);
                        for m in &models {
                            let p = m
                                .predict_matrix(&test.x)
                                .map_err(|e| format!("predict: {e}"))?;
                            let rel = metrics::relative_error(&p, &test.f)
                                .map_err(|e| format!("rel: {e}"))?;
                            rel_err_by_q.push(100.0 * rel);
                            let alarms = m
                                .detect_matrix(&test.x, thr)
                                .map_err(|e| format!("detect: {e}"))?;
                            let det = detection::evaluate(&truth, &alarms)
                                .map_err(|e| format!("evaluate: {e}"))?;
                            te_by_q.push(100.0 * det.total_error_rate);
                        }
                    }
                    Ok(())
                })?;
                if f == 0 {
                    fold0 = models;
                }
            }
            let (train, test) = &folds[0];
            let (table_rows, wins) = match which {
                Offline::PaperTable2 => {
                    let q_total: usize = fits[0].1.iter().sum();
                    let eagle = ledger
                        .span("eagleeye.place", |_| {
                            EagleEyePlacement::place(
                                &train.x,
                                &train.f,
                                q_total,
                                &EagleEyeConfig::default(),
                            )
                        })
                        .map_err(|e| format!("eagle-eye: {e}"))?;
                    ledger.span("detection.evaluate", |_| {
                        table2_rows(test, thr, &eagle, &|x| {
                            fold0[0]
                                .detect_matrix(x, thr)
                                .map_err(|e| format!("detect: {e}"))
                        })
                    })?
                }
                Offline::BudgetSweep => (Vec::new(), (0, 0)),
            };
            let served = ledger.span("fleet.serve", |_| serve(&fold0[0], test, thr))?;
            Ok((
                Quality {
                    te_pct: pooled.te_pct(),
                    rel_err_pct: pooled.rel_err_pct(),
                    fits,
                    rel_err_by_q,
                    te_by_q,
                    held_out: test.num_samples(),
                    suite,
                    table_rows,
                    wins,
                    served_agrees: served.agrees,
                },
                served,
            ))
        })
    });
    let (quality, served) = result?;
    Ok(Pass {
        interval,
        quality,
        served,
    })
}

// --- checks -----------------------------------------------------------------

/// Rows of the committed Table 2 reference (`BMn ...` lines).
fn reference_table2_rows() -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string("results/table2_error_rates.txt")
        .map_err(|e| format!("cannot read results/table2_error_rates.txt: {e}"))?;
    let is_row = |l: &&str| {
        l.strip_prefix("BM")
            .is_some_and(|r| r.starts_with(|c: char| c.is_ascii_digit()))
    };
    Ok(text.lines().filter(is_row).map(str::to_string).collect())
}

/// `budget_sweep`'s committed fold-0 errors by budget, relative to the
/// repository root.
const BUDGET_REFERENCE: &str = "perfbench/data/budget_sweep_fold0.txt";
/// Share by which fold-0 relative error may exceed its reference. Fold 0
/// is the same maps for every seed, so only a change in the fit moves it.
const REL_ERR_SLACK: f64 = 0.02;

/// Fold-0 error by budget in [`BUDGET_REFERENCE`]'s format.
fn format_budget_reference(q: &Quality) -> String {
    let mut out = String::from(
        "# Fold-0 held-out error of budget_sweep (small set, the shipped split(3)\n\
         # hold-out) by per-core sensor budget. Written by every budget_sweep run\n\
         # to perfbench/out/budget_sweep_fold0.txt.\n\
         # q rel_err_pct te_pct held_out\n",
    );
    for ((qs, rel), te) in SWEEP_QS.iter().zip(&q.rel_err_by_q).zip(&q.te_by_q) {
        out.push_str(&format!("{qs} {rel} {te} {}\n", q.held_out));
    }
    out
}

/// Failures of fold 0 against the committed reference: relative error may
/// exceed it by [`REL_ERR_SLACK`], TE by one held-out map. Lower is fine.
fn check_budget_reference(q: &Quality, reference: &str) -> Vec<String> {
    let rows: Vec<Vec<f64>> = reference
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            l.split_whitespace()
                .filter_map(|v| v.parse().ok())
                .collect()
        })
        .collect();
    let current: Vec<(f64, f64)> = q
        .rel_err_by_q
        .iter()
        .copied()
        .zip(q.te_by_q.iter().copied())
        .collect();
    if rows.len() != SWEEP_QS.len()
        || rows.iter().any(|r| r.len() != 4)
        || current.len() != rows.len()
    {
        return vec![format!("{BUDGET_REFERENCE} does not list every budget")];
    }
    let one_map = 100.0 / q.held_out.max(1) as f64;
    let mut failures = Vec::new();
    for ((row, &(rel, te)), qs) in rows.iter().zip(&current).zip(SWEEP_QS) {
        if row[0] != qs as f64 {
            failures.push(format!(
                "{BUDGET_REFERENCE}: expected Q={qs}, found {}",
                row[0]
            ));
        } else if rel > row[1] * (1.0 + REL_ERR_SLACK) || te > row[2] + one_map {
            failures.push(format!(
                "fold-0 error at Q={qs} rose above {BUDGET_REFERENCE}: rel err {rel:.5}% \
                 (reference {:.5}%), TE {te:.4}% (reference {:.4}%)",
                row[1], row[2]
            ));
        }
    }
    failures
}

fn check_quality(which: Offline, q: &Quality, failures: &mut Vec<String>) {
    if !q.served_agrees {
        failures
            .push("served held-out decisions are missing or differ from the offline replay".into());
    }
    match which {
        Offline::PaperTable2 => {
            let (wins, comparable) = q.wins;
            if 2 * wins <= comparable {
                failures.push(format!(
                    "table2 shape: proposed TE <= Eagle-Eye TE on only {wins}/{comparable} benchmarks"
                ));
            }
            match reference_table2_rows() {
                Ok(reference) if reference == q.table_rows => {}
                Ok(_) => {
                    failures.push("fold 0 does not reproduce results/table2_error_rates.txt".into())
                }
                Err(e) => failures.push(e),
            }
            match suite::load() {
                Ok(committed) if committed == q.suite => {}
                Ok(_) => failures.push(format!(
                    "the collected suite's emergency sequences differ from {}",
                    suite::SUITE_EMERGENCIES
                )),
                Err(e) => failures.push(e),
            }
        }
        Offline::BudgetSweep => {
            match std::fs::read_to_string(BUDGET_REFERENCE) {
                Ok(text) => failures.extend(check_budget_reference(q, &text)),
                Err(e) => failures.push(format!("cannot read {BUDGET_REFERENCE}: {e}")),
            }
            for pair in q.rel_err_by_q.windows(2) {
                if pair[1] > pair[0] {
                    failures.push(format!(
                        "relative error rose with Q: {:.5}% -> {:.5}%",
                        pair[0], pair[1]
                    ));
                }
            }
        }
    }
}

/// Per-core fits attempted and those that missed their target.
fn fit_outcomes(q: &Quality) -> (u64, u64) {
    let mut attempted = 0;
    let mut missed = 0;
    for (target, per_core) in &q.fits {
        for &n in per_core {
            attempted += 1;
            missed += u64::from(n != *target);
        }
    }
    (attempted, missed)
}

// --- running a workload ------------------------------------------------------

/// Set-up repetitions whose median is `setup_s`: how many run before
/// timing, and how many more after every pass. The paper's scenario takes
/// ~2 ms, and the host's speed changes within seconds (the medians of
/// back-to-back batches of 31, 1.6 s apart, ranged 1.5–3.2 ms), so its
/// set-ups are spread over the run the way its passes are. Repeating the sweep's
/// collect between passes would add to its peak RSS, so all of its
/// set-ups run before timing.
fn setup_reps(which: Offline) -> (usize, usize) {
    match which {
        Offline::PaperTable2 => (7, 6),
        Offline::BudgetSweep => (5, 0),
    }
}

/// Runs one offline workload for `seconds` and returns its measurements.
pub fn run(which: Offline, seed: u64, seconds: f64, traced: bool) -> Result<Measured, String> {
    let (before, between) = setup_reps(which);
    let mut setup_times = Vec::new();
    let mut timed_setup = || -> Result<Setup, String> {
        let t0 = Instant::now();
        let s = setup(which, seed)?;
        setup_times.push(t0.elapsed().as_secs_f64());
        Ok(s)
    };
    let mut s = timed_setup()?;
    for _ in 1..before {
        s = timed_setup()?;
    }
    sys::reset_peak_rss()?;
    fleet::warm_up()?;

    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut traced_passes: Vec<(Pass, Ledger)> = Vec::new();
    // Passes run until the next one would overrun the window: at least
    // [`MIN_PASSES`] untraced passes, or one round of an untraced and a
    // traced pass.
    let min_passes = if traced { 1 } else { MIN_PASSES };
    loop {
        let t0 = Instant::now();
        passes.push(untraced_pass(which, &s, seed)?);
        if traced {
            let ledger = Ledger::default();
            let pass = traced_pass(which, &s, seed, &ledger)?;
            traced_passes.push((pass, ledger));
        }
        for _ in 0..between {
            timed_setup()?;
        }
        let round = t0.elapsed().as_secs_f64();
        if passes.len() >= min_passes && started.elapsed().as_secs_f64() + round > seconds {
            break;
        }
    }

    let mut failures = Vec::new();
    let reference = passes[0].quality.clone();
    for p in passes
        .iter()
        .skip(1)
        .chain(traced_passes.iter().map(|(p, _)| p))
    {
        if p.quality != reference {
            failures.push("quality figures differ between passes (or traced vs untraced)".into());
            break;
        }
    }
    check_quality(which, &reference, &mut failures);
    match which {
        Offline::PaperTable2 => {
            crate::write_out("suite_emergencies.txt", &suite::format(&reference.suite))
        }
        Offline::BudgetSweep => crate::write_out(
            "budget_sweep_fold0.txt",
            &format_budget_reference(&reference),
        ),
    }
    let (fits, misses) = fit_outcomes(&reference);

    let setup_s = stats::median(&setup_times).expect("set-up ran");
    let mut m = Measured::new(setup_s, failures);
    m.attempted = fits * passes.len() as u64;
    m.failed = misses * passes.len() as u64;
    let walls: Vec<f64> = passes.iter().map(|p| p.interval.wall_s).collect();
    let cpus: Vec<f64> = passes.iter().map(|p| p.interval.cpu_s).collect();
    m.put("wall_s", stats::lower_quartile(&walls).expect("passes ran"));
    m.put("cpu_s", stats::lower_quartile(&cpus).expect("passes ran"));
    m.put("te_pct", reference.te_pct);
    m.put("rel_err_pct", reference.rel_err_pct);
    let windows: Vec<Window> = passes
        .iter()
        .map(|p| Window {
            readings: p.served.latencies_us.len() as u64,
            interval: p.served.interval,
            latencies_us: &p.served.latencies_us,
        })
        .collect();
    if !traced {
        m.put_readings(&windows)?;
    }
    m.notes.push(format!(
        "passes={} wall_s={:?} (target, per-core counts)={:?} fold-0 rel_err_pct by Q={:?}",
        passes.len(),
        walls,
        reference.fits,
        reference.rel_err_by_q
    ));
    for row in &reference.table_rows {
        m.notes.push(row.clone());
    }
    if traced {
        layer_metrics(&mut m, &passes, &traced_passes);
    }
    Ok(m)
}

/// Per-layer metrics from the fastest traced pass.
fn layer_metrics(m: &mut Measured, untraced: &[Pass], traced: &[(Pass, Ledger)]) {
    let (pass, ledger) = traced
        .iter()
        .min_by(|a, b| a.0.interval.wall_s.total_cmp(&b.0.interval.wall_s))
        .expect("a traced run has traced passes");
    let sum = ledger.summary();
    let total = |n: &str| sum.get(n).map_or(0.0, |l| l.total_s);
    let calls = |n: &str| sum.get(n).map_or(0, |l| l.calls);
    let threads = voltsense::parallel::configured_threads() as f64;

    let steps = ledger.counted("powergrid.steps");
    m.put("workload.generate_s", total("workload.generate"));
    m.put("powergrid.factor_s", total("powergrid.factor"));
    m.put("powergrid.sample_s", total("powergrid.sample"));
    m.put("powergrid.steps", steps);
    let step_s = total("powergrid.sample") - total("powergrid.factor");
    m.put(
        "powergrid.step_us",
        if steps > 0.0 {
            1e6 * step_s / steps
        } else {
            0.0
        },
    );
    m.put("scenario.assemble_s", total("scenario.assemble"));
    let simulate =
        total("workload.generate") + total("powergrid.factor") + total("powergrid.sample");
    let collect_wall = total("parallel.collect");
    m.put(
        "parallel.collect_efficiency",
        if collect_wall > 0.0 {
            simulate / (collect_wall * threads)
        } else {
            0.0
        },
    );
    m.put("selection.reduce_s", total("selection.reduce"));
    m.put("grouplasso.solve_s", total("grouplasso.solve"));
    m.put("grouplasso.solves", ledger.counted("grouplasso.solves"));
    m.put("predict.refit_s", total("predict.refit"));
    m.put("eagleeye.place_s", total("eagleeye.place"));
    m.put("detection.evaluate_s", total("detection.evaluate"));
    m.put("fleet.serve_s", total("fleet.serve"));
    let unattributed = sum.get("pass").map_or(0.0, |l| l.self_s);
    m.put("unattributed_s", unattributed);
    let untraced_wall = stats::median(
        &untraced
            .iter()
            .map(|p| p.interval.wall_s)
            .collect::<Vec<_>>(),
    )
    .expect("ran");
    m.put("trace.wall_s", pass.interval.wall_s);
    m.put(
        "trace.overhead_pct",
        100.0 * (pass.interval.wall_s - untraced_wall) / untraced_wall,
    );

    // The reconciliation: top-level layers + unattributed against the
    // pass's wall time measured by its own clock, outside the ledger.
    let spans = ledger.spans();
    let root = spans
        .iter()
        .find(|s| s.name == "pass")
        .expect("pass span")
        .id;
    let top: f64 = spans
        .iter()
        .filter(|s| s.parent == Some(root))
        .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
        .sum();
    let pass_total = total("pass");
    m.ledger_lines.push(format!(
        "{:<22} {:>7} {:>12} {:>12}",
        "layer", "calls", "total_s", "self_s"
    ));
    for (name, l) in &sum {
        m.ledger_lines.push(format!(
            "{name:<22} {:>7} {:>12.6} {:>12.6}",
            l.calls, l.total_s, l.self_s
        ));
    }
    let wall = pass.interval.wall_s;
    m.ledger_lines.push(format!(
        "reconcile: top-level layers {top:.6} s + unattributed {unattributed:.6} s = {:.6} s \
         against measured wall {wall:.6} s (pass span {pass_total:.6} s); unattributed is \
         {:.2}% of wall; {} calls to grouplasso.solve",
        top + unattributed,
        100.0 * unattributed / wall,
        calls("grouplasso.solve"),
    ));
    m.failures
        .extend(reconcile_failures(top + unattributed, unattributed, wall));
    m.ledger = Some(ledger.to_jsonl());
}

/// Largest gap allowed between the traced layers' sum and the measured
/// pass wall, as a share of the wall.
const RECONCILE_TOLERANCE: f64 = 0.01;
/// Largest share of the pass wall no layer span may claim. More means a
/// layer call of the pass is not traced.
const UNATTRIBUTED_MAX_SHARE: f64 = 0.02;

/// Failures of the offline reconciliation: layer totals plus the
/// unattributed remainder must match the independently measured wall, and
/// the remainder must stay a small share of it.
fn reconcile_failures(layers_plus_unattributed: f64, unattributed: f64, wall: f64) -> Vec<String> {
    let mut failures = Vec::new();
    if (layers_plus_unattributed - wall).abs() > RECONCILE_TOLERANCE * wall {
        failures.push(format!(
            "traced layers plus unattributed ({layers_plus_unattributed:.6} s) differ from the \
             measured pass wall ({wall:.6} s) by more than {:.0}%",
            100.0 * RECONCILE_TOLERANCE
        ));
    }
    if unattributed > UNATTRIBUTED_MAX_SHARE * wall {
        failures.push(format!(
            "{unattributed:.6} s of the {wall:.6} s traced pass is in no layer span \
             (more than {:.0}%)",
            100.0 * UNATTRIBUTED_MAX_SHARE
        ));
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quality(fits: Vec<(usize, Vec<usize>)>, rel: Vec<f64>, te: Vec<f64>) -> Quality {
        Quality {
            te_pct: 1.0,
            rel_err_pct: 1.0,
            fits,
            rel_err_by_q: rel,
            te_by_q: te,
            held_out: 200,
            suite: vec![],
            table_rows: vec![],
            wins: (0, 0),
            served_agrees: true,
        }
    }

    #[test]
    fn target_misses_count_as_failed_fits() {
        let fits = [[2, 2], [4, 4], [7, 7], [9, 10], [13, 11], [15, 16]]
            .iter()
            .zip(SWEEP_QS)
            .map(|(c, q)| (q, c.to_vec()))
            .collect();
        assert_eq!(fit_outcomes(&quality(fits, vec![], vec![])), (12, 3));
    }

    #[test]
    fn budget_reference_catches_a_rise_in_fold0_error() {
        let rel = vec![0.22, 0.14, 0.12, 0.095, 0.085, 0.07];
        let te = vec![4.0, 3.0, 2.5, 2.0, 2.0, 1.5];
        let reference = format_budget_reference(&quality(vec![], rel.clone(), te.clone()));
        let same = quality(vec![], rel.clone(), te.clone());
        assert!(check_budget_reference(&same, &reference).is_empty());
        // Lower error is never a failure.
        let better = quality(vec![], rel.iter().map(|r| r * 0.9).collect(), vec![0.0; 6]);
        assert!(check_budget_reference(&better, &reference).is_empty());
        // A 15% rise in TE at Q=2 (0.6 points, more than one 0.5-point map).
        let mut worse_te = te.clone();
        worse_te[0] *= 1.15;
        let failures = check_budget_reference(&quality(vec![], rel.clone(), worse_te), &reference);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("Q=2"));
        // A 5% rise in relative error at Q=16.
        let mut worse_rel = rel.clone();
        worse_rel[5] *= 1.05;
        let failures = check_budget_reference(&quality(vec![], worse_rel, te), &reference);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("Q=16"));
        assert!(!check_budget_reference(&same, "2 0.1 1 200\n").is_empty());
    }

    #[test]
    fn reconciliation_fails_on_a_gap_or_an_untraced_layer() {
        assert!(reconcile_failures(10.0, 0.1, 10.02).is_empty());
        // Spans that miss 5% of the measured wall.
        assert_eq!(reconcile_failures(9.5, 0.1, 10.0).len(), 1);
        // A layer call outside every span shows as unattributed time.
        assert_eq!(reconcile_failures(10.0, 0.5, 10.0).len(), 1);
    }
}
