//! `wuc-dist`: the job on the multi-process backend (`dist::submit`) with
//! a coordinator and two worker processes, checkpoints under the
//! exactly-once-effect guarantee, and a worker SIGKILLed after the
//! measured loops.  This binary hosts the registry, so the workers are
//! this same executable.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dsdps::config::EngineConfig;
use dsdps::dist::{self, DistConfig, DistReport, TopologyRegistry};
use dsdps::rt::{RecoveryMode, RtConfig};

use crate::drive::{self, Plan};
use crate::outcome::Outcome;
use crate::stats::{self, family_sum};
use crate::wuc::{self, Command, Inputs, Pacing, ReportState, SourceCtl, SourceSide, Spec};
use crate::{layers, ledger, Args};

const TOPOLOGY: &str = "perfbench-wuc";
/// Open-loop rate, tuples/s: about half the closed-loop rate of the parent
/// commit on a 2-core host.
pub const OPEN_RATE: f64 = 35_000.0;
/// In-flight window (`max_spout_pending`, tuple trees) of the closed loop.
pub const MAX_PENDING: usize = 4096;
/// Rate of the paced stream that follows the kill, tuples/s.
const KILL_RATE: f64 = 10_000.0;
/// Acks of stateful tasks are deferred until a checkpoint covers them, so
/// the closed loop runs at about `MAX_PENDING / CHECKPOINT_INTERVAL`.
/// Shorter intervals (25–50 ms with an 8192-tuple window) saturate the
/// sockets and hit the coordinator's socket-buffer deadlock (readers block
/// writing to a worker while holding its slot lock).
const CHECKPOINT_INTERVAL: Duration = Duration::from_millis(50);
const SETUP_PROBES: usize = 2;
const N_URLS: usize = 100_000;
const WINDOW: u64 = 1 << 14;
const WORKERS: usize = 2;
/// The worker slot killed: with round-robin placement it hosts a parse, a
/// count and the report task, so both stateful operators restore.
const KILLED_SLOT: usize = 1;

fn spec(trace: bool) -> Spec {
    Spec {
        parse: 2,
        count: 2,
        window: WINDOW,
        trace,
        virt: None,
    }
}

/// The topology registry.  Workers build it without a source (spouts run on
/// the coordinator only).
pub fn registry(source: Option<Arc<SourceSide>>) -> TopologyRegistry {
    let mut r = TopologyRegistry::new();
    r.register(TOPOLOGY, move |args| {
        let spec = Spec::from_args(args)?;
        wuc::build(&spec, source.as_deref(), Arc::new(Mutex::new(None)))
    });
    r
}

fn engine() -> EngineConfig {
    EngineConfig {
        max_spout_pending: MAX_PENDING,
        message_timeout_s: 60.0,
        ..EngineConfig::default()
    }
}

fn rt_config(trace: bool) -> RtConfig {
    let rt = RtConfig::default()
        .with_batch_size(64)
        .with_checkpoints(CHECKPOINT_INTERVAL)
        .with_recovery_mode(RecoveryMode::ExactlyOnceEffect)
        .with_max_replays(20)
        .with_metrics_addr(SocketAddr::from(([127, 0, 0, 1], 0)));
    if trace {
        rt.with_trace_sample_rate(0.05)
    } else {
        rt
    }
}

fn submit(
    inputs: &Arc<Inputs>,
    ctl: &Arc<SourceCtl>,
    trace: bool,
) -> Result<dist::RunningDist, String> {
    let side = Arc::new(SourceSide {
        inputs: Arc::clone(inputs),
        ctl: Arc::clone(ctl),
        pacing: Pacing::Driven,
    });
    dist::submit(
        &registry(Some(side)),
        TOPOLOGY,
        &spec(trace).to_args(),
        engine(),
        rt_config(trace),
        DistConfig::new(WORKERS, dist::self_worker_cmd()),
    )
    .map_err(|e| format!("dist submit: {e}"))
}

/// One scrape of the coordinator's Prometheus endpoint.
fn scrape(addr: Option<SocketAddr>) -> Vec<stats::Sample> {
    let Some(addr) = addr else {
        return Vec::new();
    };
    let mut text = String::new();
    let ok = TcpStream::connect_timeout(&addr, Duration::from_secs(2)).and_then(|mut s| {
        s.set_read_timeout(Some(Duration::from_secs(2)))?;
        s.write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")?;
        s.read_to_string(&mut text)
    });
    if ok.is_err() {
        return Vec::new();
    }
    let body = text.split_once("\r\n\r\n").map_or("", |(_, b)| b);
    stats::parse_prometheus(body)
}

struct Run {
    ctl: Arc<SourceCtl>,
    phases: drive::Phases,
    report: DistReport,
    final_state: Option<ReportState>,
    setup_s: f64,
    rss_mb: f64,
    /// Endpoint scrape right after the closed loop.
    scrape: Vec<stats::Sample>,
    outstanding_max: f64,
    pending_max: usize,
    restore_ms: f64,
}

/// What the run observed before shutting the fleet down.
struct Measured {
    phases: drive::Phases,
    /// Endpoint scrape right after the closed loop.
    scrape: Vec<stats::Sample>,
    rss_mb: f64,
    outstanding_max: f64,
    pending_max: usize,
    /// Coordinator uptime at the kill (NaN without one).
    kill_at_s: f64,
}

/// The loops, the optional kill, and the end of the stream.
fn measure(
    running: &dist::RunningDist,
    ctl: &SourceCtl,
    plan: &Plan,
    kill: bool,
) -> Result<Measured, String> {
    let addr = running.metrics_addr();
    let mut pending_max = 0;
    let mut outstanding_max = 0.0f64;
    let mut last_scrape = Instant::now();
    let phases = drive::run_loops(ctl, plan, || {
        pending_max = pending_max.max(running.pending_trees());
        if last_scrape.elapsed() >= Duration::from_millis(250) {
            last_scrape = Instant::now();
            for s in scrape(addr) {
                if s.name == "dsdps_dist_outstanding_window" {
                    outstanding_max = outstanding_max.max(s.value);
                }
            }
        }
    })?;
    let after_closed = scrape(addr);
    let rss_mb = crate::peak_rss_mb(std::process::id()).unwrap_or(f64::NAN)
        + running
            .worker_pids()
            .iter()
            .map(|&p| crate::peak_rss_mb(p).unwrap_or(f64::NAN))
            .sum::<f64>();
    let mut kill_at_s = f64::NAN;
    if kill {
        // Killed while no tree is in flight: every applied input is then
        // covered by a deposited checkpoint, so the run checks restore
        // exactly.  Under load the check fails now and then: bolt-to-bolt
        // deliveries carry no replay-dedup id, so a replayed tree can apply
        // a flushed window twice (see README.md).
        let old_pid = running.worker_pids()[KILLED_SLOT];
        kill_at_s = running.uptime_s();
        running
            .kill_worker(KILLED_SLOT)
            .map_err(|e| format!("kill worker: {e}"))?;
        let back = drive::wait_until(Duration::from_secs(10), || {
            let pid = running.worker_pids()[KILLED_SLOT];
            pid != 0 && pid != old_pid
        });
        if !back {
            return Err("killed worker not respawned within 10 s".into());
        }
        ctl.set(Command::Open {
            rate: KILL_RATE,
            start_ns: ctl.now_ns(),
            record: false,
        });
        std::thread::sleep(Duration::from_secs(1));
        drive::drain(ctl, "after the kill")?;
    }
    drive::finish_stream(ctl)?;
    // The report's final state is read from its checkpoint: let periodic
    // checkpoints cover the end of the stream first.
    std::thread::sleep(CHECKPOINT_INTERVAL * 3);
    Ok(Measured {
        phases,
        scrape: after_closed,
        rss_mb,
        outstanding_max,
        pending_max,
        kill_at_s,
    })
}

fn one_run(inputs: &Arc<Inputs>, plan: &Plan, trace: bool, kill: bool) -> Result<Run, String> {
    let ctl = SourceCtl::new();
    let submit_ns = ctl.now_ns();
    let running = submit(inputs, &ctl, trace)?;
    // Every exit path shuts the fleet down, so no worker outlives the run.
    let measured = measure(&running, &ctl, plan, kill);
    let report = running.shutdown();
    let Measured {
        phases,
        scrape: after_closed,
        rss_mb,
        outstanding_max,
        pending_max,
        kill_at_s,
    } = measured?;
    let report_task = wuc::build(&spec(trace), None, Arc::new(Mutex::new(None)))
        .ok()
        .and_then(|t| t.component_by_name("report").and_then(|c| c.tasks().next()))
        .ok_or("report task not found")?;
    let final_state = report
        .final_snapshots
        .get(report_task.0)
        .and_then(Option::as_ref)
        .map(ReportState::from_snapshot)
        .transpose()?;
    let restore_ms = report
        .journal_of_kind("state_restored")
        .iter()
        .map(|e| e.time_s())
        .find(|&t| t >= kill_at_s)
        .map_or(f64::NAN, |t| (t - kill_at_s) * 1e3);
    let first_ack = ctl.first_ack_ns.load(std::sync::atomic::Ordering::Acquire);
    Ok(Run {
        setup_s: first_ack.saturating_sub(submit_ns) as f64 * 1e-9,
        ctl,
        phases,
        report,
        final_state,
        rss_mb,
        scrape: after_closed,
        outstanding_max,
        pending_max,
        restore_ms,
    })
}

/// Submit (spawning the workers and their handshake) → first ack, s.
fn setup_probe(inputs: &Arc<Inputs>) -> Result<f64, String> {
    let ctl = SourceCtl::new();
    let t0 = ctl.now_ns();
    let running = submit(inputs, &ctl, false)?;
    ctl.set(Command::Open {
        rate: 1000.0,
        start_ns: ctl.now_ns(),
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

fn runtime_failures(r: &DistReport) -> u64 {
    r.permanently_failed + r.in_flight
}

pub fn run(args: &Args, tmp: &Path) -> Result<Outcome, String> {
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
        for i in 0..drive::REPS {
            // The worker is killed in the last repetition only.
            let kill = i + 1 == drive::REPS;
            let run = one_run(&inputs, &plan, false, kill)?;
            setups.push(run.setup_s);
            rss_mb = rss_mb.max(run.rss_mb);
            drive::check(
                &inputs,
                &run.ctl,
                run.final_state.as_ref(),
                2,
                runtime_failures(&run.report),
                WINDOW,
                &mut out,
            );
            let rec = run.ctl.record.lock().expect("record lock");
            reps.push(drive::Rep {
                rates: run.phases.closed_rates(),
                open: drive::open_stats(&rec, &plan, &run.phases),
            });
            if kill {
                out.detail("dist.restore_ms", run.restore_ms, "ms", None);
                out.detail(
                    "dist.worker_restarts",
                    run.report.worker_restarts as f64,
                    "count",
                    None,
                );
            }
        }
        drive::e2e_into(&mut out, &reps, &setups, rss_mb);
        return Ok(out);
    }
    let half = Plan::new(OPEN_RATE, args.seconds / 2.0);
    let base = one_run(&inputs, &half, false, false)?;
    // Worker ledgers of the baseline pass are not traced; drop them.
    let _ = ledger::collect(tmp);
    let run = one_run(&inputs, &half, true, true)?;
    let ref_rate = drive::check(
        &inputs,
        &run.ctl,
        run.final_state.as_ref(),
        2,
        runtime_failures(&run.report),
        WINDOW,
        &mut out,
    );
    let store = ledger::collect(tmp);
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
    let r = &run.report;
    let frames = family_sum(&run.scrape, "dsdps_dist_conn_frames_out_total");
    let executed = family_sum(&run.scrape, "dsdps_worker_executed_total");
    out.metric(
        "transport.tuples_per_frame",
        executed / frames.max(1.0),
        "tuples",
        None,
    );
    out.metric(
        "dist.outstanding_window_max",
        run.outstanding_max,
        "tuples",
        None,
    );
    out.metric(
        "dist.pending_trees_max",
        run.pending_max as f64,
        "count",
        None,
    );
    out.metric(
        "checkpoint.count",
        r.checkpoints_taken as f64,
        "count",
        None,
    );
    out.metric(
        "checkpoint.bytes_per_ckpt",
        r.snapshot_bytes as f64 / r.checkpoints_taken.max(1) as f64,
        "B",
        None,
    );
    drive::zero_layers(
        &mut out,
        &[
            "busy_frac.parse",
            "busy_frac.count",
            "busy_frac.report",
            "rt.batch_fill",
            "control.flags",
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
            "dist.hop_us_p50",
            "operator.parse_us_p50",
            "dist.hop2_us_p50",
            "operator.count_us_p50",
            "acker.ack_us_p50",
        ],
    );
    out.detail(
        "transport.write_block_us_per_frame",
        family_sum(&run.scrape, "dsdps_dist_conn_write_block_us_total") / frames.max(1.0),
        "us",
        None,
    );
    out.detail(
        "dist.wire_bytes_per_tuple",
        r.bytes_sent as f64 / executed.max(1.0),
        "B",
        None,
    );
    out.detail("dist.restore_ms", run.restore_ms, "ms", None);
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
