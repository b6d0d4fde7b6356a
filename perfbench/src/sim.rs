//! `sim-control`: the paper's reliability scenario on the simulator.  Set
//! up: a monitored training run with slowdown pulses on every count
//! worker, then a `DrnnPredictor` fit.  Measured: a run under
//! `ControlMode::Predictive` in which one count worker at a time is slowed
//! 10× for a fault window, at an offered rate high enough that the event
//! engine carries most of the wall time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use drnn::optim::OptimizerKind;
use drnn::train::{EarlyStopping, TrainConfig};
use dsdps::config::EngineConfig;
use dsdps::metrics::MetricsSnapshot;
use dsdps::scheduler::{even_placement, WorkerId};
use dsdps::sim::{Fault, SimRuntime};
use dsdps::topology::Topology;
use stream_control::controller::{
    control_hook, ControlEvent, ControlMode, Controller, ControllerConfig,
};
use stream_control::detector::DetectorConfig;
use stream_control::error::Result as ControlResult;
use stream_control::features::FeatureSpec;
use stream_control::predictor::{DrnnPredictor, DrnnPredictorConfig, PerformancePredictor};

use crate::ledger::{self, Kind};
use crate::outcome::Outcome;
use crate::stats::{median, quantile, sorted, Dist};
use crate::wuc::{self, Inputs, Pacing, SourceCtl, SourceSide, Spec, VirtualWindow};
use crate::{drive, layers, Args};

/// Offered rate, tuples per virtual second.
pub const RATE: f64 = 20_000.0;
const SLOWDOWN: f64 = 10.0;
/// Virtual seconds before the first fault (controller warm-up).
const LEAD_S: f64 = 30.0;
const FAULT_S: f64 = 15.0;
/// One fault per period, on the next count worker each time.
const PERIOD_S: f64 = 30.0;
/// Faults per measured second requested on the command line.
const FAULTS_PER_SECOND: f64 = 0.8;
const TRAIN_S: f64 = 60.0;
/// Virtual time allowed after the last scheduled emission for the stream
/// to finish.
const DRAIN_S: f64 = 120.0;
const SETUP_REPS: usize = 3;
/// Virtual seconds per throughput slice.
const SLICE_S: f64 = 2.0;
const N_URLS: usize = 5_000;
const WINDOW: u64 = 1 << 16;
const COUNT_TASKS: usize = 4;

/// Four machines of three workers: one worker per task, so a slowed count
/// worker slows nothing else.
fn cluster(seed: u64) -> EngineConfig {
    EngineConfig::default()
        .with_cluster(4, 3, 4)
        .with_seed(seed)
}

fn spec(trace: bool, virt: Option<VirtualWindow>) -> Spec {
    Spec {
        parse: 4,
        count: COUNT_TASKS,
        window: WINDOW,
        trace,
        virt,
    }
}

struct Job {
    topology: Topology,
    ctl: Arc<SourceCtl>,
    report: Arc<Mutex<Option<wuc::ReportState>>>,
    count_workers: Vec<WorkerId>,
}

fn job(inputs: &Arc<Inputs>, spec: &Spec, cfg: &EngineConfig, total: u64) -> Result<Job, String> {
    let ctl = SourceCtl::new();
    let report = Arc::new(Mutex::new(None));
    let side = SourceSide {
        inputs: Arc::clone(inputs),
        ctl: Arc::clone(&ctl),
        pacing: Pacing::Virtual { rate: RATE, total },
    };
    let topology = wuc::build(spec, Some(&side), Arc::clone(&report)).map_err(|e| e.to_string())?;
    let placement = even_placement(&topology, cfg).map_err(|e| e.to_string())?;
    let mut count_workers: Vec<WorkerId> = topology
        .component_by_name("count")
        .ok_or("no count stage")?
        .tasks()
        .map(|t| placement.worker_of(t))
        .collect();
    count_workers.sort();
    count_workers.dedup();
    Ok(Job {
        topology,
        ctl,
        report,
        count_workers,
    })
}

/// The set-up: a monitored run with 10× slowdown pulses on every count
/// worker in turn, then the DRNN fit on it.  Returns the predictor and
/// the fit's share of the time.
fn train(inputs: &Arc<Inputs>, seed: u64) -> Result<(DrnnPredictor, f64), String> {
    let cfg = cluster(seed);
    let job = job(inputs, &spec(false, None), &cfg, (RATE * TRAIN_S) as u64)?;
    let mut engine = SimRuntime::new(job.topology, cfg).map_err(|e| e.to_string())?;
    for (i, w) in job.count_workers.iter().enumerate() {
        let mut t = 12.0 + 6.0 * i as f64;
        while t + 5.0 < TRAIN_S {
            engine
                .inject_fault(Fault::WorkerSlowdown {
                    worker: w.0,
                    factor: SLOWDOWN,
                    from_s: t,
                    until_s: t + 5.0,
                })
                .map_err(|e| e.to_string())?;
            t += 6.0 * job.count_workers.len() as f64;
        }
    }
    engine.run_until(TRAIN_S);
    let history: Vec<MetricsSnapshot> = engine.history().iter().cloned().collect();
    drop(engine);
    let t0 = Instant::now();
    let mut predictor = DrnnPredictor::new(DrnnPredictorConfig {
        features: FeatureSpec::full(),
        lookback: 8,
        horizon: 1,
        hidden: vec![16, 16],
        train: TrainConfig {
            epochs: 40,
            batch_size: 32,
            optimizer: OptimizerKind::adam(3e-3),
            validation_fraction: 0.1,
            early_stopping: Some(EarlyStopping {
                patience: 8,
                min_delta: 1e-5,
            }),
            seed,
            ..TrainConfig::default()
        },
        seed,
        ..DrnnPredictorConfig::default()
    });
    let refs: Vec<&MetricsSnapshot> = history.iter().collect();
    predictor
        .fit(&refs, &job.count_workers)
        .map_err(|e| format!("DRNN fit: {e}"))?;
    Ok((predictor, t0.elapsed().as_secs_f64()))
}

/// The predictor, with every `predict` call timed.
struct TimedPredictor {
    inner: DrnnPredictor,
    calls_us: Arc<Mutex<Vec<f64>>>,
    total_ns: Arc<AtomicU64>,
}

impl PerformancePredictor for TimedPredictor {
    fn fit(&mut self, history: &[&MetricsSnapshot], workers: &[WorkerId]) -> ControlResult<()> {
        self.inner.fit(history, workers)
    }

    fn predict(&self, history: &[&MetricsSnapshot], worker: WorkerId) -> Option<f64> {
        let t0 = Instant::now();
        let p = self.inner.predict(history, worker);
        let ns = t0.elapsed().as_nanos() as u64;
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.calls_us
            .lock()
            .expect("predict lock")
            .push(ns as f64 * 1e-3);
        p
    }

    fn horizon(&self) -> usize {
        self.inner.horizon()
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

struct Controlled {
    ctl: Arc<SourceCtl>,
    state: Option<wuc::ReportState>,
    wall_s: f64,
    /// Simulated tuples acked per wall second, p90 over slices.
    tput: f64,
    slices: usize,
    hook_s: f64,
    events: u64,
    /// Simulated tuples acked per virtual second inside fault windows.
    fault_tput: f64,
    flags: usize,
    epochs_us: Vec<f64>,
    predict_us: Vec<f64>,
    busy: [f64; 3],
}

fn controlled(
    inputs: &Arc<Inputs>,
    predictor: DrnnPredictor,
    seed: u64,
    faults: u32,
    trace: bool,
) -> Result<Controlled, String> {
    let virt = VirtualWindow {
        rate: RATE,
        from_s: LEAD_S,
        len_s: FAULT_S,
        period_s: PERIOD_S,
        faults,
    };
    let emit_s = virt.end_s() + (PERIOD_S - FAULT_S);
    let cfg = cluster(seed);
    let job = job(
        inputs,
        &spec(trace, Some(virt)),
        &cfg,
        (RATE * emit_s) as u64,
    )?;
    let placement = even_placement(&job.topology, &cfg).map_err(|e| e.to_string())?;
    let calls_us = Arc::new(Mutex::new(Vec::new()));
    let predict_ns = Arc::new(AtomicU64::new(0));
    let mode = ControlMode::Predictive(Box::new(TimedPredictor {
        inner: predictor,
        calls_us: Arc::clone(&calls_us),
        total_ns: Arc::clone(&predict_ns),
    }));
    let controller = Controller::for_topology(
        &job.topology,
        &placement,
        ControllerConfig {
            detector: DetectorConfig {
                trigger_factor: 2.5,
                trigger_consecutive: 2,
                recover_factor: 1.4,
                recover_consecutive: 4,
            },
            warmup_intervals: 20,
            ..ControllerConfig::default()
        },
        mode,
    )
    .map_err(|e| e.to_string())?;
    let controller = Arc::new(parking_lot::Mutex::new(controller));
    let mut engine = SimRuntime::new(job.topology, cfg).map_err(|e| e.to_string())?;
    for i in 0..faults {
        let from_s = LEAD_S + PERIOD_S * f64::from(i);
        engine
            .inject_fault(Fault::WorkerSlowdown {
                worker: job.count_workers[i as usize % job.count_workers.len()].0,
                factor: SLOWDOWN,
                from_s,
                until_s: from_s + FAULT_S,
            })
            .map_err(|e| e.to_string())?;
    }
    let hook_ns = Arc::new(AtomicU64::new(0));
    let epochs = Arc::new(Mutex::new(Vec::new()));
    {
        let mut inner = control_hook(Arc::clone(&controller));
        let (hook_ns, epochs, predict_ns) = (
            Arc::clone(&hook_ns),
            Arc::clone(&epochs),
            Arc::clone(&predict_ns),
        );
        engine.add_control_hook(Box::new(move |snap| {
            let p0 = predict_ns.load(Ordering::Relaxed);
            let t0 = Instant::now();
            inner(snap);
            let ns = t0.elapsed().as_nanos() as u64;
            hook_ns.fetch_add(ns, Ordering::Relaxed);
            let own = ns.saturating_sub(predict_ns.load(Ordering::Relaxed) - p0);
            epochs.lock().expect("epoch lock").push(own as f64 * 1e-3);
        }));
    }
    // Simulated acks per wall second in each slice of the emission.  Other
    // tenants of a shared host only slow a slice down, and their spells
    // come and go within a run, so the run reports the slices' p90.
    let t0 = Instant::now();
    let mut rates = Vec::new();
    let mut acked = 0;
    while engine.now() < emit_s {
        let w0 = Instant::now();
        let r = engine.run_until((engine.now() + SLICE_S).min(emit_s));
        rates.push((r.acked - acked) as f64 / w0.elapsed().as_secs_f64());
        acked = r.acked;
    }
    let mut report = engine.report();
    while !job.ctl.eos_acked.load(Ordering::Acquire) && engine.now() < emit_s + DRAIN_S {
        report = engine.run_until(engine.now() + 1.0);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let history: Vec<MetricsSnapshot> = engine.history().iter().cloned().collect();
    drop(engine);
    let state = job.report.lock().expect("report slot").take();
    // Offered vs acked over the intervals inside fault windows.
    let (mut acked_in, mut fault_s) = (0u64, 0.0);
    for s in &history {
        if virt.in_fault(s.time_s - s.interval_s * 0.5) {
            acked_in += s.topology.acked;
            fault_s += s.interval_s;
        }
    }
    let mut busy = [0.0; 3];
    for (i, stage) in ["parse", "count", "report"].iter().enumerate() {
        let caps: Vec<f64> = history
            .iter()
            .flat_map(|s| &s.tasks)
            .filter(|t| t.component == *stage)
            .map(|t| t.capacity)
            .collect();
        busy[i] = caps.iter().sum::<f64>() / caps.len().max(1) as f64;
    }
    let flags = controller
        .lock()
        .events()
        .iter()
        .filter(|e| matches!(e, ControlEvent::Flagged { .. }))
        .count();
    let epochs_us = epochs.lock().expect("epoch lock").clone();
    let predict_us = calls_us.lock().expect("predict lock").clone();
    Ok(Controlled {
        ctl: job.ctl,
        state,
        wall_s,
        tput: quantile(&sorted(&rates), 0.9),
        slices: rates.len(),
        hook_s: hook_ns.load(Ordering::Relaxed) as f64 * 1e-9,
        events: report.events,
        fault_tput: acked_in as f64 / fault_s,
        flags,
        epochs_us,
        predict_us,
        busy,
    })
}

fn faults_for(seconds: f64) -> u32 {
    ((seconds * FAULTS_PER_SECOND).round() as u32).max(1)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let inputs = Arc::new(Inputs::generate(args.seed, N_URLS, 1.1, 1 << 20));
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut fits = Vec::new();
    let mut predictor = None;
    let reps = if args.trace { 1 } else { SETUP_REPS };
    for _ in 0..reps {
        let t0 = Instant::now();
        let (p, fit_s) = train(&inputs, args.seed)?;
        setups.push(t0.elapsed().as_secs_f64());
        fits.push(fit_s);
        predictor = Some(p);
    }
    let predictor = predictor.expect("at least one set-up");
    if !args.trace {
        let run = controlled(
            &inputs,
            predictor,
            args.seed,
            faults_for(args.seconds),
            false,
        )?;
        drive::check(
            &inputs,
            &run.ctl,
            run.state.as_ref(),
            COUNT_TASKS,
            0,
            WINDOW,
            &mut out,
        );
        let lat = Dist::of(&ledger::take().values_of(Kind::VirtLatMs));
        out.metric("tput", run.fault_tput, "tuples/s", None);
        out.metric("lat_p50_ms", lat.p50, "ms", Some(lat.n));
        out.metric("lat_p99_ms", lat.p99, "ms", Some(lat.n));
        out.metric("setup_s", median(&setups), "s", Some(setups.len()));
        out.metric(
            "peak_rss_mb",
            crate::peak_rss_mb(std::process::id()).unwrap_or(f64::NAN),
            "MB",
            None,
        );
        out.metric("kept_pct", 100.0 * run.fault_tput / RATE, "%", None);
        out.detail("sim.wall_tput", run.tput, "tuples/s", Some(run.slices));
        out.detail(
            &format!("virt_lat_ms_p{}", lat.tail_p),
            lat.tail,
            "ms",
            Some(lat.n),
        );
        out.detail("control.flags", run.flags as f64, "count", None);
        out.detail("predictor.fit_s", median(&fits), "s", Some(fits.len()));
        return Ok(out);
    }
    // Traced: an untraced baseline for the overhead, then the traced run.
    let (baseline, _) = train(&inputs, args.seed)?;
    let faults = faults_for(args.seconds / 2.0);
    let base = controlled(&inputs, baseline, args.seed, faults, false)?;
    let _ = ledger::take();
    let run = controlled(&inputs, predictor, args.seed, faults, true)?;
    let ref_rate = drive::check(
        &inputs,
        &run.ctl,
        run.state.as_ref(),
        COUNT_TASKS,
        0,
        WINDOW,
        &mut out,
    );
    let store = ledger::take();
    drive::operator_costs_into(&mut out, &store, &run.ctl);
    layers::replay_into(&mut out, &inputs, COUNT_TASKS);
    out.metric("ref.tuples_per_s", ref_rate, "tuples/s", None);
    out.metric(
        "telemetry.trace_overhead_pct",
        100.0 * (1.0 - run.tput / base.tput),
        "%",
        None,
    );
    for (i, stage) in ["parse", "count", "report"].iter().enumerate() {
        out.metric(&format!("busy_frac.{stage}"), run.busy[i], "fraction", None);
    }
    out.metric("control.flags", run.flags as f64, "count", None);
    let engine_s = run.wall_s - run.hook_s;
    out.metric(
        "sim.events_per_s",
        run.events as f64 / engine_s,
        "1/s",
        None,
    );
    drive::zero_layers(
        &mut out,
        &[
            "rt.batch_fill",
            "transport.tuples_per_frame",
            "dist.outstanding_window_max",
            "dist.pending_trees_max",
            "checkpoint.count",
            "checkpoint.bytes_per_ckpt",
            "ledger.unattributed_pct",
        ],
    );
    let epochs = Dist::of(&run.epochs_us);
    let predict = Dist::of(&run.predict_us);
    out.detail("sim.engine_s", engine_s, "s", None);
    out.detail("sim.hook_s", run.hook_s, "s", None);
    out.detail("control.epoch_us_p50", epochs.p50, "us", Some(epochs.n));
    out.detail(
        "predictor.predict_us_p50",
        predict.p50,
        "us",
        Some(predict.n),
    );
    out.detail("predictor.fit_s", median(&fits), "s", Some(fits.len()));
    out.detail("traced.tput", run.tput, "tuples/s", None);
    out.detail("untraced.tput", base.tput, "tuples/s", None);
    Ok(out)
}
