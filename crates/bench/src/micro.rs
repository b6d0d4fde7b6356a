//! Kernel microbenchmarks with machine-readable output.
//!
//! A small self-contained adaptive timing harness (no external bench
//! framework) measures the performance-critical kernels:
//!
//! * `gemm`           — the drnn blocked matrix-multiply at 32/64/128
//! * `gemm_at_b` etc. — the transpose-free BPTT kernels (`AᵀB`, `ABᵀ`)
//!   and the tiled transpose
//! * `lstm`           — LSTM forward and forward+backward over a
//!   batch-32 / seq-16 sequence at hidden 64 and 128 (the paper-scale
//!   predictor shapes), using the reusable-workspace API
//! * `grouping`       — per-tuple routing decision for every grouping type
//! * `acker`          — tuple-tree track/emit/ack cycle
//! * `engine`         — simulated-runtime event throughput
//! * `forecast_fit`   — ARIMA and SVR fit time
//! * `control_epoch`  — one controller epoch (snapshot → plan → actuate)
//! * `rt_batching`    — threaded-runtime tuple throughput on a 3-stage
//!   shuffle-grouped topology at several batch sizes
//! * `rt_overload`    — queue-wait quantiles at a 4×-overload point
//!   (spout offered rate four times the sink's service capacity) with and
//!   without the adaptive spout throttle, feeding the CI backpressure gate
//!
//! Every measurement is recorded in a [`MicroResults`] and written as
//! `BENCH_kernels.json` and `BENCH_rt.json` at the repository root through
//! [`crate::report`], so CI and the results tables consume the same numbers
//! that are printed.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use drnn::layer::lstm::{LstmCache, LstmLayer};
use drnn::matrix::Matrix;
use dsdps::acker::Acker;
use dsdps::component::{Bolt, BoltOutput};
use dsdps::config::EngineConfig;
use dsdps::grouping::dynamic::{DynamicGrouping, DynamicGroupingHandle, SplitRatio};
use dsdps::grouping::{AllGrouping, FieldsGrouping, GlobalGrouping, Grouping, ShuffleGrouping};
use dsdps::rt::{self, RtConfig};
use dsdps::sim::SimRuntime;
use dsdps::topology::{CostModel, TaskId, TopologyBuilder};
use dsdps::tuple::{Fields, Tuple, Value};
use forecast::arima::{Arima, ArimaOrder};
use forecast::forecaster::Forecaster;
use forecast::svr::{Svr, SvrParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{JsonValue, Serialize};

use crate::fixtures::{BenchSpout, Blackhole, Relay};
use crate::report::{self, doc, fixed, fmt_num, obj, Gate};

/// Key path of the single-worker batch-64 point in `BENCH_rt.json`, the
/// throughput the rt baseline gate compares.
const W1_B64: [&str; 2] = ["acked_tuples_per_s", "w1_b64"];

/// Collected measurements of one microbench run.
#[derive(Default)]
pub struct MicroResults {
    /// `"smoke"` or `"full"`.
    pub mode: &'static str,
    /// `std::thread::available_parallelism()` of the bench host, stamped
    /// into `BENCH_rt.json` so scaling numbers can be read against the
    /// cores that produced them.
    pub host_parallelism: usize,
    /// `"w{W}_b{B}"` keys of scaling points whose thread demand exceeded
    /// the host's parallelism — measured anyway, but flagged because the
    /// point reflects oversubscription, not the runtime's scaling.
    pub oversubscribed: Vec<String>,
    /// `(benchmark name, ns/iter)` in execution order.
    pub ns_per_iter: Vec<(String, f64)>,
    /// `(batch_size, acked tuples/s)` of the threaded-runtime throughput
    /// sweep.
    pub rt_acked_tuples_per_s: Vec<(usize, f64)>,
    /// `(workers, batch_size, acked tuples/s)` of the threaded-runtime
    /// worker-scaling sweep (written to `BENCH_rt.json`).
    pub rt_scaling: Vec<(usize, usize, f64)>,
    /// Queue-wait quantiles at the 4×-overload point, with and without the
    /// adaptive spout throttle (also written to `BENCH_rt.json`).
    pub rt_overload: Option<RtOverload>,
}

/// Queue-wait measurements of one overloaded run pair (µs).
pub struct RtOverload {
    /// Steady-state (last metrics interval) queue-wait p99 with the AIMD
    /// throttle enabled.
    pub throttled_p99_us: f64,
    /// Steady-state queue-wait p99 with the throttle off — the queues sit
    /// full, so this is the channel-capacity-sized plateau.
    pub unthrottled_p99_us: f64,
    /// Whole-run queue-wait median of the unthrottled run; the CI gate's
    /// reference point.
    pub unthrottled_p50_us: f64,
}

impl MicroResults {
    fn new(mode: &'static str) -> Self {
        MicroResults {
            mode,
            host_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            ..MicroResults::default()
        }
    }

    /// Times `f` with [`time_ns`], then records and prints ns/iter.
    fn bench<R, F: FnMut() -> R>(&mut self, name: &str, target: Duration, f: F) {
        let (ns, iters) = time_ns(target, f);
        println!("{name:<44} {:>14} ns/iter   ({iters} iters)", fmt_num(ns));
        self.ns_per_iter.push((name.to_owned(), ns));
    }

    /// The `BENCH_kernels.json` document (`bench_kernels/v1`).
    pub fn kernels_doc(&self) -> JsonValue {
        let entries = [
            ("ns_per_iter", report::numbers(&self.ns_per_iter)),
            (
                "rt_acked_tuples_per_s",
                report::numbers(&self.rt_acked_tuples_per_s),
            ),
        ];
        doc("bench_kernels/v1", self.mode, entries)
    }

    /// The `BENCH_rt.json` document (`bench_rt/v1`): the worker-scaling
    /// sweep keyed `"w{workers}_b{batch}"`, the format CI's regression gate
    /// reads, plus the `overload_queue_wait_us` section when the overload
    /// point ran.
    pub fn rt_doc(&self) -> JsonValue {
        let mut entries = vec![("host_parallelism", self.host_parallelism.serialize_value())];
        if !self.oversubscribed.is_empty() {
            entries.push(("oversubscribed", self.oversubscribed.serialize_value()));
        }
        entries.push(("acked_tuples_per_s", report::scaling(&self.rt_scaling)));
        if let Some(o) = &self.rt_overload {
            entries.push((
                "overload_queue_wait_us",
                obj([
                    ("throttled_p99", fixed(o.throttled_p99_us, 1)),
                    ("unthrottled_p99", fixed(o.unthrottled_p99_us, 1)),
                    ("unthrottled_p50", fixed(o.unthrottled_p50_us, 1)),
                ]),
            ));
        }
        doc("bench_rt/v1", self.mode, entries)
    }
}

/// Times `f` adaptively: doubles the iteration count until the measured
/// run exceeds `target`, then returns ns/iter over the final run and its
/// iteration count.
pub(crate) fn time_ns<R>(target: Duration, mut f: impl FnMut() -> R) -> (f64, u64) {
    // Warm-up.
    std::hint::black_box(f());
    let mut iters: u64 = 1;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        let elapsed = t0.elapsed();
        if elapsed >= target || iters >= 1 << 30 {
            return (elapsed.as_nanos() as f64 / iters as f64, iters);
        }
        iters = if elapsed.is_zero() {
            iters * 8
        } else {
            // Aim straight for the target with 20% headroom.
            let scale = target.as_secs_f64() / elapsed.as_secs_f64() * 1.2;
            (iters as f64 * scale).ceil() as u64
        };
    }
}

fn square(n: usize, seed: usize) -> Matrix {
    Matrix::from_vec(
        n,
        n,
        (0..n * n)
            .map(|i| ((i + seed) % 17) as f64 / 17.0 - 0.4)
            .collect(),
    )
}

fn bench_gemm(res: &mut MicroResults, target: Duration) {
    for &n in &[32usize, 64, 128] {
        let a = square(n, 1);
        let b = square(n, 5);
        res.bench(&format!("gemm/{n}x{n}"), target, || a.matmul(&b));
    }
    // Transpose-free BPTT kernels at the gradient-accumulation shape.
    let n = 128;
    let a = square(n, 1);
    let b = square(n, 5);
    let mut out = Matrix::zeros(n, n);
    res.bench(&format!("gemm_at_b/{n}x{n}"), target, || {
        out.zero_in_place();
        a.matmul_at_b_into(&b, &mut out);
        out.get(0, 0)
    });
    let mut out2 = Matrix::zeros(n, n);
    res.bench(&format!("gemm_a_bt/{n}x{n}"), target, || {
        a.matmul_a_bt_into(&b, &mut out2);
        out2.get(0, 0)
    });
    res.bench(&format!("transpose/{n}x{n}"), target, || a.transpose());
}

fn bench_lstm(res: &mut MicroResults, target: Duration) {
    let mut rng = StdRng::seed_from_u64(1);
    let xs: Vec<Matrix> = (0..16)
        .map(|t| {
            Matrix::from_vec(
                32,
                16,
                (0..32 * 16).map(|i| ((t + i) % 7) as f64 / 7.0).collect(),
            )
        })
        .collect();
    for &hidden in &[64usize, 128] {
        let mut layer = LstmLayer::new(16, hidden, &mut rng);
        let suffix = if hidden == 64 {
            String::new()
        } else {
            format!("_h{hidden}")
        };
        let mut hs: Vec<Matrix> = Vec::new();
        let mut cache = LstmCache::default();
        res.bench(
            &format!("lstm/forward_seq16_batch32{suffix}"),
            target,
            || {
                layer.forward_into(&xs, &mut hs, &mut cache);
                hs.last().unwrap().get(0, 0)
            },
        );
        let dhs: Vec<Matrix> = (0..16).map(|_| Matrix::full(32, hidden, 1.0)).collect();
        let mut dxs: Vec<Matrix> = Vec::new();
        res.bench(
            &format!("lstm/forward_backward_seq16_batch32{suffix}"),
            target,
            || {
                layer.forward_into(&xs, &mut hs, &mut cache);
                layer.zero_grads();
                layer.backward_into(&xs, &hs, &cache, &dhs, &mut dxs);
                dxs.last().unwrap().get(0, 0)
            },
        );
    }
}

fn bench_grouping(res: &mut MicroResults, target: Duration) {
    let schema = Fields::new(["key", "seq"]);
    let tuple = Tuple::with_fields([Value::from("k42"), Value::from(42i64)], schema.clone());
    let mut out = Vec::with_capacity(8);
    let mut run = |res: &mut MicroResults, name: &str, g: &mut dyn Grouping| {
        res.bench(name, target, || {
            out.clear();
            g.select(&tuple, &mut out);
            out.first().copied()
        });
    };
    run(res, "grouping/shuffle", &mut ShuffleGrouping::new(8, 0));
    run(
        res,
        "grouping/fields",
        &mut FieldsGrouping::new(8, &["key".into()], &schema).unwrap(),
    );
    run(res, "grouping/global", &mut GlobalGrouping::new(8));
    run(res, "grouping/all", &mut AllGrouping::new(8));
    let handle = DynamicGroupingHandle::new(SplitRatio::uniform(8));
    run(res, "grouping/dynamic", &mut DynamicGrouping::new(handle));
}

fn bench_acker(res: &mut MicroResults, target: Duration) {
    let mut acker = Acker::new();
    let mut root = 0u64;
    res.bench("acker/track_emit_ack_cycle", target, || {
        root += 1;
        let e0 = acker.new_edge_id();
        acker.track(root, e0, TaskId(0), root, 0.0);
        let e1 = acker.new_edge_id();
        acker.on_emit(root, e1);
        acker.on_ack(root, e0, 0.1);
        acker.on_ack(root, e1, 0.2);
        acker.drain_outcomes().len()
    });
}

fn bench_engine(res: &mut MicroResults, target: Duration, sim_horizon_s: f64) {
    res.bench("engine/sim_5000tps_pipeline", target, || {
        let mut builder = TopologyBuilder::new("bench");
        builder
            .set_spout("src", 1, || BenchSpout::paced(5000.0, 32))
            .unwrap()
            .cost(CostModel {
                base_service_time_us: 5.0,
                jitter: 0.0,
            });
        builder
            .set_bolt("sink", 4, || Blackhole)
            .unwrap()
            .shuffle_grouping("src")
            .unwrap()
            .cost(CostModel {
                base_service_time_us: 50.0,
                jitter: 0.0,
            });
        let topo = builder.build().unwrap();
        let mut engine =
            SimRuntime::new(topo, EngineConfig::default().with_cluster(2, 2, 4)).unwrap();
        engine.run_until(sim_horizon_s).acked
    });
}

fn bench_forecast_fit(res: &mut MicroResults, target: Duration) {
    let series: Vec<f64> = {
        let mut state = 9u64;
        let mut prev = 0.0;
        (0..400)
            .map(|t| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let e = ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
                prev = 0.7 * prev + e + (t as f64 / 20.0).sin();
                prev
            })
            .collect()
    };
    res.bench("forecast/arima_2_0_1_fit_400", target, || {
        let mut m = Arima::new(ArimaOrder::new(2, 0, 1));
        m.fit(&series).unwrap();
        m.aic()
    });
    let x: Vec<Vec<f64>> = series.windows(8).map(|w| w[..7].to_vec()).collect();
    let y: Vec<f64> = series.windows(8).map(|w| w[7]).collect();
    res.bench("forecast/svr_rbf_fit_400", target, || {
        let mut svr = Svr::new(SvrParams::default()).unwrap();
        svr.fit(&x, &y).unwrap();
        svr.support_count()
    });
}

fn bench_control_epoch(res: &mut MicroResults, target: Duration) {
    use stream_control::planner::{plan_ratio, PlanPolicy};
    let tasks: Vec<TaskId> = (0..8).map(TaskId).collect();
    let placement: HashMap<TaskId, dsdps::scheduler::WorkerId> = tasks
        .iter()
        .map(|&t| (t, dsdps::scheduler::WorkerId(t.0)))
        .collect();
    let mut rng = StdRng::seed_from_u64(3);
    let lat: HashMap<dsdps::scheduler::WorkerId, f64> = (0..8)
        .map(|i| (dsdps::scheduler::WorkerId(i), rng.gen_range(100.0..1000.0)))
        .collect();
    res.bench("control/plan_ratio_8tasks", target, || {
        plan_ratio(
            PlanPolicy::CapacityProportional { alpha: 1.0 },
            &tasks,
            &placement,
            &[dsdps::scheduler::WorkerId(3)],
            &lat,
            0.02,
        )
        .unwrap()
    });
}

// --- Threaded-runtime throughput ----------------------------------------

/// Runs a `spout → relay ×workers → sink ×workers` shuffle pipeline on a
/// `machines × workers` cluster for `run_s` seconds at the given batch size
/// and returns acked tuple trees per second.
pub fn rt_pipeline(machines: usize, workers: usize, batch_size: usize, run_s: f64) -> f64 {
    let stop = Arc::new(AtomicBool::new(false));
    let s2 = stop.clone();
    let mut b = TopologyBuilder::new("rt-pipeline-bench");
    b.set_spout("src", 1, move || BenchSpout::flood(32).until(s2.clone()))
        .unwrap();
    b.set_bolt("relay", workers, || Relay)
        .unwrap()
        .shuffle_grouping("src")
        .unwrap();
    b.set_bolt("sink", workers, || Blackhole)
        .unwrap()
        .shuffle_grouping("relay")
        .unwrap();
    let topo = b.build().unwrap();
    let mut cfg = EngineConfig::default().with_cluster(machines, workers, 4);
    // Batching raises per-tree completion latency (tuples wait for a full
    // batch at each hop), so the in-flight window must grow with the batch
    // size or the spout throttles on max_spout_pending instead of measuring
    // channel throughput — the same tuning rule as Storm's
    // topology.max.spout.pending.
    cfg.max_spout_pending = 16 * 1024;
    let rt_cfg = RtConfig::default().with_batch_size(batch_size);
    let running = rt::submit_with(topo, cfg, rt_cfg).unwrap();
    std::thread::sleep(Duration::from_secs_f64(run_s));
    stop.store(true, Ordering::Relaxed);
    let (_, report) = running.shutdown();
    report.acked as f64 / report.uptime_s
}

/// The data-plane scaling sweep: worker counts {1, 2, 4, 8} × batch sizes
/// {1, 64}, recorded into [`MicroResults::rt_scaling`] / `BENCH_rt.json`.
fn bench_rt_scaling(res: &mut MicroResults, run_s: f64) {
    println!(
        "\nrt_scaling: spout -> relay xW -> sink xW shuffle pipeline, {run_s:.1}s per point \
         (host parallelism {})",
        res.host_parallelism
    );
    for &workers in &[1usize, 2, 4, 8] {
        for &batch in &[1usize, 64] {
            // The point runs spout + relay xW + sink xW task threads; when
            // that exceeds the host's cores the measurement reflects
            // oversubscription, so it is stamped as such in the JSON and
            // never used as a scaling claim.
            let oversubscribed = 2 * workers + 1 > res.host_parallelism;
            let tput = rt_pipeline(1, workers, batch, run_s);
            res.rt_scaling.push((workers, batch, tput));
            let mut note = "";
            if oversubscribed {
                res.oversubscribed.push(format!("w{workers}_b{batch}"));
                note = "   (oversubscribed)";
            }
            let tput_s = fmt_num(tput);
            println!("  workers {workers}  batch {batch:>3}: {tput_s:>12} acked tuples/s{note}");
        }
    }
}

fn bench_rt_batching(res: &mut MicroResults, run_s: f64) {
    println!("\nrt_batching: 3-stage shuffle topology (src -> relay x2 -> sink x2), {run_s:.1}s per point");
    for &bs in &[1usize, 8, 64] {
        let tput = rt_pipeline(2, 2, bs, run_s);
        res.rt_acked_tuples_per_s.push((bs, tput));
        println!(
            "  batch_size {bs:>3}: {:>12} acked tuples/s   ({:.2}x vs batch 1)",
            fmt_num(tput),
            tput / res.rt_acked_tuples_per_s[0].1
        );
    }
}

// --- Threaded-runtime overload point -----------------------------------

/// Sink whose service time is a real sleep, so the overload is genuine
/// occupancy rather than a simulated cost (and a single-core bench host is
/// not starved by busy-spinning).
struct SleepySink {
    service: Duration,
}

impl Bolt for SleepySink {
    fn execute(&mut self, _t: &Tuple, _o: &mut BoltOutput) {
        std::thread::sleep(self.service);
    }
}

/// Runs the overload point — spout offered rate 4× the sink stage's nominal
/// service capacity — for `run_s` seconds and returns the report.  Credit
/// flow is on in both variants (window = channel capacity, so credits never
/// bind tighter than the queues); `throttle` additionally arms the AIMD
/// spout throttle with its default 5 ms queue-wait target.
fn rt_overload_report(throttle: bool, run_s: f64) -> rt::ThreadedReport {
    const SINK_WORKERS: usize = 2;
    const SERVICE_US: u64 = 400;
    // Nominal capacity = workers / service_time; offer four times that.
    let offered = 4.0 * SINK_WORKERS as f64 * 1e6 / SERVICE_US as f64;
    let stop = Arc::new(AtomicBool::new(false));
    let s2 = stop.clone();
    let mut b = TopologyBuilder::new("rt-overload-bench");
    b.set_spout("src", 1, move || {
        BenchSpout::paced(offered, 256).until(s2.clone())
    })
    .unwrap();
    b.set_bolt("sink", SINK_WORKERS, || SleepySink {
        service: Duration::from_micros(SERVICE_US),
    })
    .unwrap()
    .shuffle_grouping("src")
    .unwrap();
    let topo = b.build().unwrap();
    let mut cfg = EngineConfig::default().with_cluster(1, SINK_WORKERS, 4);
    // Let the queue-level machinery (credits + throttle) do the work: the
    // in-flight tree gate must not engage first.
    cfg.max_spout_pending = 1_000_000;
    cfg.metrics_interval_s = 0.25;
    let mut rt_cfg = RtConfig::default().with_credit_flow(cfg.queue_capacity);
    if throttle {
        rt_cfg = rt_cfg.with_adaptive_throttle(Duration::from_millis(5));
    }
    let running = rt::submit_with(topo, cfg, rt_cfg).unwrap();
    std::thread::sleep(Duration::from_secs_f64(run_s));
    stop.store(true, Ordering::Relaxed);
    running.shutdown().1
}

/// Measures the overload pair (throttled, then unthrottled) and records the
/// queue-wait quantiles into [`MicroResults::rt_overload`] / `BENCH_rt.json`.
fn bench_rt_overload(res: &mut MicroResults, run_s: f64) {
    println!(
        "\nrt_overload: paced spout at 4x sink capacity, {run_s:.1}s per variant, \
         steady-state queue-wait p99"
    );
    let throttled = rt_overload_report(true, run_s);
    let unthrottled = rt_overload_report(false, run_s);
    let point = RtOverload {
        throttled_p99_us: throttled.queue_wait_last_p99_us,
        unthrottled_p99_us: unthrottled.queue_wait_last_p99_us,
        unthrottled_p50_us: unthrottled.queue_wait_p50_us,
    };
    println!(
        "  throttled   p99 {:>10} us (final rate cap {})",
        fmt_num(point.throttled_p99_us),
        throttled
            .rate_cap
            .map_or("none".to_string(), |c| format!("{} tuples/s", fmt_num(c)))
    );
    println!(
        "  unthrottled p99 {:>10} us, median {:>10} us",
        fmt_num(point.unthrottled_p99_us),
        fmt_num(point.unthrottled_p50_us)
    );
    res.rt_overload = Some(point);
}

/// CI backpressure gate: at the 4×-overload point, the throttled run's
/// steady-state queue-wait p99 must stay within 5× the unthrottled run's
/// median.  Also fails when the unthrottled run never actually queued
/// (median below the 5 ms throttle target) — that means the bench lost its
/// overload and the comparison is meaningless.
fn check_overload_gate(res: &MicroResults) -> Result<(), String> {
    const RATIO: f64 = 5.0;
    const MIN_UNTHROTTLED_P50_US: f64 = 5_000.0;
    let o = res
        .rt_overload
        .as_ref()
        .ok_or("overload gate: the rt_overload point was not measured")?;
    println!(
        "\nrt overload gate: throttled p99 {} us vs {RATIO:.0}x unthrottled median {} us",
        fmt_num(o.throttled_p99_us),
        fmt_num(o.unthrottled_p50_us)
    );
    if o.unthrottled_p50_us < MIN_UNTHROTTLED_P50_US {
        return Err(format!(
            "overload gate: unthrottled median queue-wait {:.0} us is below {:.0} us — \
             the 4x overload point no longer overloads, so the throttle comparison is void",
            o.unthrottled_p50_us, MIN_UNTHROTTLED_P50_US
        ));
    }
    if o.throttled_p99_us > RATIO * o.unthrottled_p50_us {
        return Err(format!(
            "overload gate: throttled steady-state queue-wait p99 {:.0} us exceeds \
             {RATIO:.0}x the unthrottled median {:.0} us — the adaptive throttle is \
             no longer holding the tail down",
            o.throttled_p99_us, o.unthrottled_p50_us
        ));
    }
    Ok(())
}

/// Runs the full microbenchmark suite.  Smoke mode (used under
/// `cargo test`, which passes `--test` to harness-less bench targets)
/// shrinks every budget so the suite just proves it still runs end to end.
pub fn run(smoke: bool) -> MicroResults {
    let target = Duration::from_millis(if smoke { 1 } else { 300 });
    let mut res = MicroResults::new(if smoke { "smoke" } else { "full" });
    println!("microbench ({} mode)\n", res.mode);
    bench_gemm(&mut res, target);
    bench_lstm(&mut res, target);
    bench_grouping(&mut res, target);
    bench_acker(&mut res, target);
    bench_engine(&mut res, target, if smoke { 0.5 } else { 5.0 });
    bench_forecast_fit(&mut res, target);
    bench_control_epoch(&mut res, target);
    bench_rt_batching(&mut res, if smoke { 0.3 } else { 3.0 });
    bench_rt_scaling(&mut res, if smoke { 0.5 } else { 2.5 });
    // The AIMD throttle needs several 0.25 s metrics intervals to converge,
    // so even smoke mode runs the overload pair for a few seconds.
    bench_rt_overload(&mut res, if smoke { 2.5 } else { 5.0 });
    res
}

/// Shared entry point for the `microbench` bin and bench targets: runs the
/// suites, writes their `BENCH_*.json` files at the repository root, then
/// runs every gate requested on the command line.
///
/// `--test` shrinks every budget (smoke mode); `--dist-only` runs only the
/// multi-process suite and `--sim-only` only the simulator sweep.  The gates
/// are `--check-rt-baseline <path>`, `--check-overload-gate`,
/// `--check-recovery-gate`, `--check-sim-baseline <path>`,
/// `--check-dist-baseline <path>`, `--check-telemetry-overhead
/// <stripped-bin>` and `--check-dist-telemetry-overhead <stripped-bin>`,
/// each documented at its check function.  Every requested gate runs even
/// when an earlier one fails, and the process exits 1 if any failed.
/// `--rt-point W B SECS REPS`, `--dist-point W B SECS REPS` and `--sim-point
/// WORKERS TUPLES` run one point instead, for A/B-ing builds.
pub fn main_entry() {
    // A re-exec of this binary with `DSDPS_DIST_ADDR` set is a distributed
    // worker for the dist_scaling bench, not a fresh suite run.
    if crate::dist_bench::maybe_worker() {
        return;
    }
    let args: Vec<String> = std::env::args().collect();
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let after = |flag: &str| args.iter().position(|a| a == flag).map(|i| &args[i + 1..]);
    let flag_path = |flag: &str| {
        after(flag).map(|rest| {
            rest.first()
                .cloned()
                .unwrap_or_else(|| panic!("{flag} requires a path argument"))
        })
    };
    if let Some(rest) = after("--dist-point") {
        report::DIST.point_mode(rest);
        return;
    }
    if let Some(rest) = after("--rt-point") {
        report::RT.point_mode(rest);
        return;
    }
    if let Some(rest) = after("--sim-point") {
        let n = |k: usize| -> f64 {
            rest.get(k)
                .and_then(|a| a.parse().ok())
                .expect("--sim-point WORKERS TUPLES")
        };
        let p = crate::sim_scaling::run_point(n(0) as usize, n(1) as u64);
        println!(
            "sim-point {}: {:.2}M processed/s (wall {:.3}s, virtual {:.3}s, acked {})",
            p.key,
            p.processed_per_wall_s / 1e6,
            p.wall_s,
            p.virtual_s,
            p.acked
        );
        return;
    }

    let smoke = has("--test");
    let mode = if smoke { "smoke" } else { "full" };
    let (dist_only, sim_only) = (has("--dist-only"), has("--sim-only"));
    let all = !dist_only && !sim_only;
    let res = all.then(|| run(smoke));
    if let Some(res) = &res {
        println!();
        report::write_at_repo_root("BENCH_kernels.json", &res.kernels_doc());
        report::write_at_repo_root("BENCH_rt.json", &res.rt_doc());
    }
    let recovery = all.then(|| crate::recovery::run(smoke));
    if let Some(recovery) = &recovery {
        report::write_at_repo_root("BENCH_recovery.json", &recovery.doc());
    }
    let sim = (all || sim_only).then(|| crate::sim_scaling::run(smoke));
    if let Some(sim) = &sim {
        report::write_at_repo_root("BENCH_sim.json", &sim.doc());
    }
    let dist = (all || dist_only).then(|| crate::dist_bench::run(smoke));
    if let Some(dist) = &dist {
        report::write_at_repo_root("BENCH_dist.json", &dist.doc());
    }

    let mut gates: Vec<Gate> = Vec::new();
    if let Some(res) = &res {
        if let Some(path) = flag_path("--check-rt-baseline") {
            // CI regression gate: single-worker batch-64 throughput.
            gates.push(Box::new(move || {
                report::throughput_floor("rt", &res.rt_doc(), &report::read(&path)?, &W1_B64)
            }));
        }
        if has("--check-overload-gate") {
            gates.push(Box::new(move || check_overload_gate(res)));
        }
    }
    if let Some(recovery) = recovery.as_ref().filter(|_| has("--check-recovery-gate")) {
        gates.push(Box::new(move || {
            crate::recovery::check_recovery_gate(recovery)
        }));
    }
    if let (Some(sim), Some(path)) = (&sim, flag_path("--check-sim-baseline")) {
        gates.push(Box::new(move || {
            crate::sim_scaling::check_sim_baseline(&sim.doc(), &report::read(&path)?)
        }));
    }
    if let (Some(dist), Some(path)) = (&dist, flag_path("--check-dist-baseline")) {
        gates.push(Box::new(move || {
            crate::dist_bench::check_dist_baseline(dist, &report::read(&path)?)
        }));
    }
    if let (true, Some(bin)) = (all, flag_path("--check-telemetry-overhead")) {
        gates.push(Box::new(move || {
            report::check_telemetry_overhead(&report::RT, mode, smoke, &bin)
        }));
    }
    if let (true, Some(bin)) = (dist.is_some(), flag_path("--check-dist-telemetry-overhead")) {
        gates.push(Box::new(move || {
            report::check_telemetry_overhead(&report::DIST, mode, smoke, &bin)
        }));
    }
    if !report::run_gates(gates).is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::number;

    fn results_with_overload(thr_p99: f64, unthr_p99: f64, unthr_p50: f64) -> MicroResults {
        let mut res = MicroResults::new("smoke");
        res.rt_scaling.push((1, 64, 120_000.0));
        res.rt_overload = Some(RtOverload {
            throttled_p99_us: thr_p99,
            unthrottled_p99_us: unthr_p99,
            unthrottled_p50_us: unthr_p50,
        });
        res
    }

    #[test]
    fn overload_gate_passes_when_throttle_holds_the_tail() {
        let res = results_with_overload(20_000.0, 900_000.0, 400_000.0);
        check_overload_gate(&res).unwrap();
    }

    #[test]
    fn overload_gate_fails_when_throttled_tail_blows_past_five_x_median() {
        let res = results_with_overload(2_500_000.0, 900_000.0, 400_000.0);
        let err = check_overload_gate(&res).unwrap_err();
        assert!(err.contains("exceeds"), "unexpected message: {err}");
    }

    #[test]
    fn overload_gate_fails_when_the_bench_never_overloaded() {
        let res = results_with_overload(1_000.0, 2_000.0, 1_500.0);
        let err = check_overload_gate(&res).unwrap_err();
        assert!(
            err.contains("no longer overloads"),
            "unexpected message: {err}"
        );
    }

    #[test]
    fn overload_gate_fails_without_a_measurement() {
        let res = MicroResults::new("smoke");
        assert!(check_overload_gate(&res).is_err());
    }

    #[test]
    fn rt_json_with_overload_block_still_parses_for_the_baseline_gate() {
        let res = results_with_overload(20_000.0, 900_000.0, 400_000.0);
        let doc = res.rt_doc();
        let throttled = ["overload_queue_wait_us", "throttled_p99"];
        assert_eq!(number(&doc, &throttled), Some(20_000.0));
        // The throughput-regression gate must keep reading the document.
        assert_eq!(number(&doc, &W1_B64), Some(120_000.0));
        report::tests::assert_round_trips(&doc);
    }

    #[test]
    fn rt_json_without_overload_block_matches_the_legacy_shape() {
        let mut res = MicroResults::new("smoke");
        res.rt_scaling.push((1, 64, 120_000.0));
        let doc = res.rt_doc();
        assert!(report::get(&doc, &["overload_queue_wait_us"]).is_none());
        assert_eq!(number(&doc, &W1_B64), Some(120_000.0));
    }

    #[test]
    fn kernels_json_round_trips() {
        let mut res = MicroResults::new("smoke");
        res.ns_per_iter.push(("gemm/32x32".into(), 3_026.5));
        res.rt_acked_tuples_per_s = vec![(1, 454_837.8), (8, 1_012_532.3), (64, 1_532_409.4)];
        report::tests::assert_round_trips(&res.kernels_doc());
    }
}
