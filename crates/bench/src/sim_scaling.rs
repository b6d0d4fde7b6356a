//! Simulator scaling sweep: a `workers × tuples` grid on the discrete-event
//! engine, emitting `BENCH_sim.json` (schema `bench_sim/v1`).
//!
//! Each point runs a finite firehose (`src` spouts → `sink` bolts over a
//! shuffle grouping) on a `workers`-machine cluster until every tuple tree is
//! acked, and reports how many task executions the simulator advanced per
//! second of *wall* time.  Virtual throughput is a free parameter (it is set
//! by the cost model); wall throughput is the quantity the rebuild targets,
//! so that controller sweeps can afford thousands of simulated runs.
//!
//! `processed` counts task executions: every spout emission plus every bolt
//! execution.  On this one-hop topology that is exactly `2 × tuples` once all
//! trees ack, which the regression gate uses as an anti-vacuity floor.

use std::time::Instant;

use dsdps::config::EngineConfig;
use dsdps::rt::RtConfig;
use dsdps::sim::SimRuntime;
use dsdps::topology::{CostModel, TopologyBuilder};
use dsdps::tuple::{Fields, Tuple, Value};
use serde::{JsonValue, Serialize};

use crate::fixtures::{BenchSpout, Blackhole};
use crate::report::{doc, fixed, number, obj};

/// Worker counts swept by the grid.
pub const WORKER_POINTS: [usize; 3] = [10, 100, 1000];
/// Tuple counts swept by the grid.
pub const TUPLE_POINTS: [u64; 2] = [1_000_000, 10_000_000];

/// Batch size handed to the engine via [`RtConfig::with_batch_size`]; one
/// simulator event advances up to this many tuples at a task.
const BATCH_SIZE: usize = 128;

/// One measured point of the sweep.
#[derive(Debug, Clone)]
pub struct SimPoint {
    /// Point key, e.g. `w100_t1e7`.
    pub key: String,
    /// Workers (and machines) in the simulated cluster.
    pub workers: usize,
    /// Tuple trees the firehose emits in total.
    pub tuples: u64,
    /// Tuple trees fully acked when the run stopped.
    pub acked: u64,
    /// Task executions advanced (spout emissions + bolt executions).
    pub processed: u64,
    /// Wall-clock seconds the run took.
    pub wall_s: f64,
    /// Virtual seconds the simulation covered.
    pub virtual_s: f64,
    /// `processed / wall_s` — the headline number.
    pub processed_per_wall_s: f64,
}

/// All points of one sweep.
#[derive(Debug, Clone, Default)]
pub struct SimResults {
    /// `"smoke"` or `"full"` (same grid; recorded for provenance).
    pub mode: String,
    /// Measured points in sweep order.
    pub points: Vec<SimPoint>,
}

/// Runs one grid point and returns its measurements.
pub fn run_point(workers: usize, tuples: u64) -> SimPoint {
    // One spout per ten workers keeps the spout side from becoming the
    // virtual-time bottleneck while the grid scales the bolt side.
    let spouts = (workers / 10).max(1);
    let share = tuples / spouts as u64;
    let schema = Fields::new(["v"]);
    let proto = Tuple::with_fields([Value::from(1i64)], schema.clone());

    let mut b = TopologyBuilder::new("sim-scaling");
    b.set_spout("src", spouts, move || {
        BenchSpout::flood(1).bounded(share).emitting(proto.clone())
    })
    .unwrap()
    .output_fields(schema)
    .cost(CostModel {
        base_service_time_us: 1.0,
        jitter: 0.0,
    });
    b.set_bolt("sink", workers, || Blackhole)
        .unwrap()
        .shuffle_grouping("src")
        .unwrap()
        .cost(CostModel {
            base_service_time_us: 4.0,
            jitter: 0.0,
        });
    let topo = b.build().unwrap();

    let mut cfg = EngineConfig::default()
        .with_cluster(workers, 1, 4)
        .with_seed(42);
    // A deep in-flight window so the spouts stream instead of throttling on
    // max_spout_pending while trees cross the (virtual) network.
    cfg.max_spout_pending = 4096;
    cfg.queue_capacity = 8192;
    let rt_cfg = RtConfig::default().with_batch_size(BATCH_SIZE);
    let mut engine = SimRuntime::with_rt_config(topo, cfg, rt_cfg).expect("engine");

    let start = Instant::now();
    let mut horizon = 0.0;
    let mut report = engine.report();
    while report.acked < tuples && horizon < 10_000.0 {
        horizon += 1.0;
        report = engine.run_until(horizon);
    }
    let wall_s = start.elapsed().as_secs_f64();

    let processed = report.spout_emitted + report.acked;
    SimPoint {
        key: point_key(workers, tuples),
        workers,
        tuples,
        acked: report.acked,
        processed,
        wall_s,
        virtual_s: engine.now(),
        processed_per_wall_s: processed as f64 / wall_s.max(1e-9),
    }
}

/// Key for one grid point, e.g. `w100_t1e7`.
pub fn point_key(workers: usize, tuples: u64) -> String {
    let exp = (tuples as f64).log10().round() as u32;
    format!("w{workers}_t1e{exp}")
}

/// Runs the full grid.  The grid is identical in smoke and full mode — the
/// sweep is bounded by wall time, not virtual time, and the rebuilt engine
/// keeps every point cheap enough for CI.
pub fn run(smoke: bool) -> SimResults {
    let mut res = SimResults {
        mode: if smoke { "smoke" } else { "full" }.to_owned(),
        points: Vec::new(),
    };
    println!("\n== simulator scaling sweep (workers x tuples) ==");
    for &workers in &WORKER_POINTS {
        for &tuples in &TUPLE_POINTS {
            let p = run_point(workers, tuples);
            println!(
                "{:<44} {:>10.2}M processed/s  (wall {:.2}s, virtual {:.2}s, acked {})",
                format!("sim/{}", p.key),
                p.processed_per_wall_s / 1e6,
                p.wall_s,
                p.virtual_s,
                p.acked,
            );
            res.points.push(p);
        }
    }
    res
}

impl SimResults {
    /// The `BENCH_sim.json` document (`bench_sim/v1`).
    pub fn doc(&self) -> JsonValue {
        let points = self.points.iter().map(|p| {
            let point = obj([
                ("workers", p.workers.serialize_value()),
                ("tuples", p.tuples.serialize_value()),
                ("acked", p.acked.serialize_value()),
                ("processed", p.processed.serialize_value()),
                ("wall_s", fixed(p.wall_s, 4)),
                ("virtual_s", fixed(p.virtual_s, 4)),
                ("processed_per_wall_s", fixed(p.processed_per_wall_s, 1)),
            ]);
            (p.key.as_str(), point)
        });
        doc("bench_sim/v1", &self.mode, [("points", obj(points))])
    }
}

/// The gate point: the acceptance headline is measured at `w100 × 1e7`.
pub const GATE_POINT: &str = "w100_t1e7";

/// Regression gate for CI: fails if the fresh `w100_t1e7` wall throughput is
/// more than 20 % below the checked-in smoke baseline, or if the run did not
/// actually ack every tuple (which would make the throughput claim void).
pub fn check_sim_baseline(fresh: &JsonValue, baseline: &JsonValue) -> Result<(), String> {
    let stat = |key| number(fresh, &["points", GATE_POINT, key]);
    let (Some(acked), Some(tuples)) = (stat("acked"), stat("tuples")) else {
        return Err(format!(
            "sim gate: fresh BENCH_sim.json is missing point {GATE_POINT}"
        ));
    };
    if tuples == 0.0 || acked < tuples {
        return Err(format!(
            "sim gate: only {acked}/{tuples} tuples acked at {GATE_POINT} — \
             the throughput comparison is void"
        ));
    }
    crate::report::throughput_floor(
        "sim",
        fresh,
        baseline,
        &["points", GATE_POINT, "processed_per_wall_s"],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(rate: f64, acked: u64, tuples: u64) -> JsonValue {
        let res = SimResults {
            mode: "smoke".to_owned(),
            points: vec![SimPoint {
                key: GATE_POINT.to_owned(),
                workers: 100,
                tuples,
                acked,
                processed: acked * 2,
                wall_s: 1.0,
                virtual_s: 1.0,
                processed_per_wall_s: rate,
            }],
        };
        res.doc()
    }

    #[test]
    fn gate_passes_at_or_above_floor() {
        let base = doc(10e6, 10_000_000, 10_000_000);
        assert!(check_sim_baseline(&doc(9e6, 10_000_000, 10_000_000), &base).is_ok());
        assert!(check_sim_baseline(&doc(8e6, 10_000_000, 10_000_000), &base).is_ok());
    }

    #[test]
    fn gate_fails_below_floor() {
        let base = doc(10e6, 10_000_000, 10_000_000);
        let err = check_sim_baseline(&doc(7.9e6, 10_000_000, 10_000_000), &base).unwrap_err();
        assert!(err.contains("below the smoke baseline"), "{err}");
    }

    #[test]
    fn gate_rejects_vacuous_run() {
        let base = doc(10e6, 10_000_000, 10_000_000);
        let err = check_sim_baseline(&doc(50e6, 9_999_999, 10_000_000), &base).unwrap_err();
        assert!(err.contains("void"), "{err}");
    }

    #[test]
    fn gate_reports_missing_point() {
        let empty = obj::<&str>([]);
        let err = check_sim_baseline(&empty, &empty).unwrap_err();
        assert!(err.contains(GATE_POINT), "{err}");
    }

    #[test]
    fn point_keys_use_exponent_notation() {
        assert_eq!(point_key(100, 10_000_000), "w100_t1e7");
        assert_eq!(point_key(10, 1_000_000), "w10_t1e6");
    }

    #[test]
    fn json_round_trips_through_gate_parser() {
        let doc = doc(12.5e6, 10_000_000, 10_000_000);
        let point = |key| number(&doc, &["points", GATE_POINT, key]);
        assert_eq!(point("processed_per_wall_s"), Some(12.5e6));
        assert_eq!(point("acked"), Some(10_000_000.0));
        assert_eq!(point("tuples"), Some(10_000_000.0));
        crate::report::tests::assert_round_trips(&doc);
    }
}
