//! `wuc-threads`: the job on the threaded runtime (`rt::submit_full`),
//! with the controller attached in monitor mode through `rt_control_hook`.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dsdps::config::EngineConfig;
use dsdps::rt::{self, MetricsHook, RtConfig};
use dsdps::scheduler::even_placement;
use dsdps::telemetry::SpanKind;
use stream_control::controller::{
    rt_control_hook, ControlEvent, ControlMode, Controller, ControllerConfig,
};

use crate::drive::{self, Plan};
use crate::outcome::Outcome;
use crate::stats::{self, Dist};
use crate::wuc::{self, Command, Inputs, Pacing, ReportState, SourceCtl, SourceSide, Spec};
use crate::{layers, ledger, Args};

/// Open-loop rate, tuples/s: about half the closed-loop rate of the parent
/// commit on a 2-core host.
pub const OPEN_RATE: f64 = 300_000.0;
/// In-flight window (`max_spout_pending`, tuple trees) of the closed loop.
pub const MAX_PENDING: usize = 4096;
const SETUP_PROBES: usize = 2;
const N_URLS: usize = 5_000;
const WINDOW: u64 = 1 << 16;

fn spec(trace: bool) -> Spec {
    Spec {
        parse: 1,
        count: 2,
        window: WINDOW,
        trace,
        virt: None,
    }
}

fn engine() -> EngineConfig {
    EngineConfig {
        max_spout_pending: MAX_PENDING,
        message_timeout_s: 60.0,
        ..EngineConfig::default()
    }
}

/// Times every control epoch of the monitor-mode controller.
fn timed_hook(
    controller: Arc<parking_lot::Mutex<Controller>>,
    epochs: Arc<Mutex<Vec<f64>>>,
) -> MetricsHook {
    let mut inner = rt_control_hook(controller);
    Box::new(move |snap| {
        let t0 = Instant::now();
        inner(snap);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        epochs.lock().expect("epoch lock").push(us);
    })
}

struct Run {
    ctl: Arc<SourceCtl>,
    phases: drive::Phases,
    report: rt::ThreadedReport,
    history: Vec<dsdps::metrics::MetricsSnapshot>,
    final_state: Option<ReportState>,
    setup_s: f64,
    rss_mb: f64,
    scrape: Vec<stats::Sample>,
    epochs_us: Vec<f64>,
    flags: usize,
}

fn one_run(inputs: &Arc<Inputs>, plan: &Plan, trace: bool) -> Result<Run, String> {
    let ctl = SourceCtl::new();
    let slot = Arc::new(Mutex::new(None));
    let side = SourceSide {
        inputs: Arc::clone(inputs),
        ctl: Arc::clone(&ctl),
        pacing: Pacing::Driven,
    };
    let topology =
        wuc::build(&spec(trace), Some(&side), Arc::clone(&slot)).map_err(|e| e.to_string())?;
    let placement = even_placement(&topology, &engine()).map_err(|e| e.to_string())?;
    let controller = Controller::for_topology(
        &topology,
        &placement,
        ControllerConfig::default(),
        ControlMode::Monitor,
    )
    .map_err(|e| e.to_string())?;
    let controller = Arc::new(parking_lot::Mutex::new(controller));
    let epochs = Arc::new(Mutex::new(Vec::new()));
    let mut rt_cfg = RtConfig::default().with_batch_size(64);
    if trace {
        rt_cfg = rt_cfg.with_trace_sample_rate(0.05);
    }
    let submit_ns = ctl.now_ns();
    let running = rt::submit_full(
        topology,
        engine(),
        rt_cfg,
        Some(timed_hook(Arc::clone(&controller), Arc::clone(&epochs))),
    )
    .map_err(|e| e.to_string())?;
    let registry = running.registry();
    // Task capacity is a per-interval gauge: the last scrape of the closed
    // loop reads an interval that ran at saturation.
    let mut scrape = String::new();
    let phases = drive::run_loops(&ctl, plan, || scrape = registry.render())?;
    let scrape = stats::parse_prometheus(&scrape);
    drive::finish_stream(&ctl)?;
    let rss_mb = crate::peak_rss_mb(std::process::id()).unwrap_or(f64::NAN);
    let (history, report) = running.shutdown();
    let final_state = slot.lock().expect("report slot").take();
    let first_ack = ctl.first_ack_ns.load(std::sync::atomic::Ordering::Acquire);
    let flags = controller
        .lock()
        .events()
        .iter()
        .filter(|e| matches!(e, ControlEvent::Flagged { .. }))
        .count();
    let epochs_us = epochs.lock().expect("epoch lock").clone();
    Ok(Run {
        setup_s: first_ack.saturating_sub(submit_ns) as f64 * 1e-9,
        ctl,
        phases,
        report,
        history: history.iter().cloned().collect(),
        final_state,
        rss_mb,
        scrape,
        epochs_us,
        flags,
    })
}

/// Submit → first ack of a fresh topology, s.
fn setup_probe(inputs: &Arc<Inputs>) -> Result<f64, String> {
    let ctl = SourceCtl::new();
    let side = SourceSide {
        inputs: Arc::clone(inputs),
        ctl: Arc::clone(&ctl),
        pacing: Pacing::Driven,
    };
    let topology = wuc::build(&spec(false), Some(&side), Arc::new(Mutex::new(None)))
        .map_err(|e| e.to_string())?;
    let t0 = ctl.now_ns();
    let running = rt::submit_full(
        topology,
        engine(),
        RtConfig::default().with_batch_size(64),
        None,
    )
    .map_err(|e| e.to_string())?;
    ctl.set(Command::Open {
        rate: 1000.0,
        start_ns: t0,
        record: false,
    });
    let ok = drive::wait_until(Duration::from_secs(30), || {
        ctl.first_ack_ns.load(std::sync::atomic::Ordering::Acquire) > 0
    });
    ctl.set(Command::Idle);
    let first = ctl.first_ack_ns.load(std::sync::atomic::Ordering::Acquire);
    drive::wait_until(Duration::from_secs(10), || ctl.in_flight() == 0);
    drop(running.shutdown());
    if !ok {
        return Err("setup probe: no ack within 30 s".into());
    }
    Ok(first.saturating_sub(t0) as f64 * 1e-9)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let inputs = Arc::new(Inputs::generate(args.seed, N_URLS, 1.1, 1 << 20));
    let mut out = Outcome::default();
    if !args.trace {
        let mut setups = Vec::new();
        for _ in 0..SETUP_PROBES {
            setups.push(setup_probe(&inputs)?);
        }
        let plan = Plan::new(OPEN_RATE, args.seconds / drive::REPS as f64);
        let mut reps = Vec::new();
        let mut rss_mb = 0.0f64;
        for _ in 0..drive::REPS {
            let run = one_run(&inputs, &plan, false)?;
            setups.push(run.setup_s);
            rss_mb = rss_mb.max(run.rss_mb);
            let r = &run.report;
            drive::check(
                &inputs,
                &run.ctl,
                run.final_state.as_ref(),
                2,
                r.timed_out + r.shed_tuples + r.permanently_failed,
                WINDOW,
                &mut out,
            );
            let rec = run.ctl.record.lock().expect("record lock");
            reps.push(drive::Rep {
                rates: run.phases.closed_rates(),
                open: drive::open_stats(&rec, &plan, &run.phases),
            });
        }
        drive::e2e_into(&mut out, &reps, &setups, rss_mb);
        return Ok(out);
    }
    // Traced: an untraced pass for the overhead baseline, then the traced
    // pass every layer metric comes from.
    let half = Plan::new(OPEN_RATE, args.seconds / 2.0);
    let base = one_run(&inputs, &half, false)?;
    let run = one_run(&inputs, &half, true)?;
    let r = &run.report;
    let ref_rate = drive::check(
        &inputs,
        &run.ctl,
        run.final_state.as_ref(),
        2,
        r.timed_out + r.shed_tuples + r.permanently_failed,
        WINDOW,
        &mut out,
    );
    let store = ledger::take();
    let rec = run.ctl.record.lock().expect("record lock");
    let open = drive::open_stats(&rec, &half, &run.phases);
    drive::operator_costs_into(&mut out, &store, &run.ctl);
    layers::replay_into(&mut out, &inputs, 2);
    out.metric("ref.tuples_per_s", ref_rate, "tuples/s", None);
    out.metric(
        "telemetry.trace_overhead_pct",
        100.0 * (1.0 - run.phases.closed_tput() / base.phases.closed_tput()),
        "%",
        None,
    );
    for stage in ["parse", "count", "report"] {
        let caps: Vec<f64> = run
            .scrape
            .iter()
            .filter(|s| s.name == "dsdps_task_capacity" && s.label("component") == Some(stage))
            .map(|s| s.value)
            .collect();
        out.metric(
            &format!("busy_frac.{stage}"),
            caps.iter().sum::<f64>() / caps.len().max(1) as f64,
            "fraction",
            Some(caps.len()),
        );
    }
    let (emitted, batches) = run
        .history
        .iter()
        .flat_map(|s| &s.tasks)
        .fold((0u64, 0u64), |a, t| {
            (a.0 + t.emitted, a.1 + t.batches_flushed)
        });
    out.metric(
        "rt.batch_fill",
        emitted as f64 / batches.max(1) as f64,
        "tuples",
        None,
    );
    out.metric("control.flags", run.flags as f64, "count", None);
    drive::zero_layers(
        &mut out,
        &[
            "transport.tuples_per_frame",
            "dist.outstanding_window_max",
            "dist.pending_trees_max",
            "checkpoint.count",
            "checkpoint.bytes_per_ckpt",
            "sim.events_per_s",
        ],
    );
    drive::ledger_into(
        &mut out,
        &store,
        &rec,
        &half,
        [
            "source.lag_us_p50",
            "rt.hop1_us_p50",
            "operator.parse_us_p50",
            "rt.hop2_us_p50",
            "operator.count_us_p50",
            "acker.ack_us_p50",
        ],
    );
    let waits: Vec<f64> = run
        .report
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Hop)
        .map(|s| s.queue_wait_us as f64)
        .collect();
    let waits = Dist::of(&waits);
    out.detail("rt.queue_wait_us_p50", waits.p50, "us", Some(waits.n));
    out.detail("rt.queue_wait_us_p99", waits.p99, "us", Some(waits.n));
    let epochs = Dist::of(&run.epochs_us);
    out.detail("control.epoch_us_p50", epochs.p50, "us", Some(epochs.n));
    out.detail(
        "traced.lat_p50_ms",
        open.lat_ms.p50,
        "ms",
        Some(open.lat_ms.n),
    );
    out.detail("traced.tput", run.phases.closed_tput(), "tuples/s", None);
    out.detail("untraced.tput", base.phases.closed_tput(), "tuples/s", None);
    drive::open_details(&mut out, &open, "");
    Ok(out)
}
