//! Distributed-runtime benchmarks (`dist_scaling`): the compact binary wire
//! codec against its JSON reference, multi-process throughput scaling, and
//! a kill-one-worker recovery point.
//!
//! Three measurements feed `BENCH_dist.json` (`bench_dist/v1`) at the
//! repository root:
//!
//! * **codec** — encode+decode round-trip time of a `TupleBatch` frame
//!   through the hand-rolled binary codec versus the serde-shim JSON
//!   baseline ([`dsdps::dist::codec::json`]), at batch sizes 1 and 64.
//!   The CI gate requires the binary codec to win by **≥ 5×** at batch 64
//!   (the acceptance criterion of the wire-codec work), alongside the
//!   serialized-size comparison.
//! * **dist_scaling** — acked-tuples/s of a `spout → relay ×W → sink ×W`
//!   shuffle pipeline run on the multi-process backend at worker counts
//!   {1, 2, 4} × batch sizes {1, 64}, keyed `"w{W}_b{B}"` exactly like the
//!   threaded sweep in `BENCH_rt.json` so the two backends are directly
//!   comparable.
//! * **recovery** — a paced run into a checkpointed counting bolt whose
//!   worker process is SIGKILLed mid-stream; records kill→`state_restored`
//!   wall clock, respawns, restores and whether every message was still
//!   acked with conservation intact.
//!
//! The bench binary is its own worker fleet: `main_entry` calls
//! [`maybe_worker`] first, so a re-exec of the current executable with
//! `DSDPS_DIST_ADDR` set turns into a worker instead of re-running the
//! suite ([`dsdps::dist::self_worker_cmd`]).

use std::time::Duration;

use dsdps::config::EngineConfig;
use dsdps::dist::{self, codec, DistConfig, TopologyRegistry};
use dsdps::error::Result;
use dsdps::rt::{RecoveryMode, RtConfig};
use dsdps::topology::{Topology, TopologyBuilder};
use dsdps::tuple::Value;
use serde::{JsonValue, Serialize};

use crate::fixtures::{ms_until_first, wait_until, BenchSpout, Blackhole, Relay, StatefulCounter};
use crate::micro::time_ns;
use crate::report::{self, doc, fixed, obj};

/// Codec round-trip measurements at one batch size.
pub struct CodecPoint {
    /// Tuples per `TupleBatch` frame.
    pub batch: usize,
    /// Binary encode+decode round trip, ns per frame.
    pub binary_ns: f64,
    /// JSON-reference encode+decode round trip, ns per frame.
    pub json_ns: f64,
    /// Serialized frame body size, bytes (binary).
    pub binary_bytes: usize,
    /// Serialized frame size, bytes (JSON text).
    pub json_bytes: usize,
}

impl CodecPoint {
    /// JSON-time over binary-time: how many times faster the binary codec
    /// round-trips the same frame.
    pub fn speedup(&self) -> f64 {
        self.json_ns / self.binary_ns
    }
}

/// Kill-one-worker recovery measurements.
pub struct DistRecovery {
    /// Worker processes in the fleet.
    pub workers: usize,
    /// Wall clock from the SIGKILL to the replacement's `state_restored`
    /// journal event, milliseconds.
    pub kill_to_restore_ms: f64,
    /// Worker respawns performed by the supervisor.
    pub worker_restarts: u64,
    /// Checkpoint restores performed by restarted workers.
    pub restores: u64,
    /// Messages acked by the end of the run.
    pub acked: u64,
    /// Messages the spout emitted (the target).
    pub expected: u64,
    /// Whether `tracked == acked + permanently_failed + in_flight` held at
    /// shutdown.
    pub conservation: bool,
}

/// Collected measurements of one `dist_scaling` bench run.
#[derive(Default)]
pub struct DistResults {
    /// `"smoke"` or `"full"`.
    pub mode: &'static str,
    /// Codec round-trip points, one per batch size.
    pub codec: Vec<CodecPoint>,
    /// `(workers, batch_size, acked tuples/s)` of the multi-process sweep.
    pub scaling: Vec<(usize, usize, f64)>,
    /// The kill-one-worker point, when it ran.
    pub recovery: Option<DistRecovery>,
}

impl DistResults {
    /// The `BENCH_dist.json` document (`bench_dist/v1`).
    pub fn doc(&self) -> JsonValue {
        let codec = self.codec.iter().map(|p| {
            let point = obj([
                ("binary_ns_per_frame", fixed(p.binary_ns, 1)),
                ("json_ns_per_frame", fixed(p.json_ns, 1)),
                ("binary_bytes", p.binary_bytes.serialize_value()),
                ("json_bytes", p.json_bytes.serialize_value()),
                ("speedup", fixed(p.speedup(), 2)),
            ]);
            (format!("b{}", p.batch), point)
        });
        let points = report::scaling(&self.scaling);
        let mut entries = vec![("codec", obj(codec)), ("acked_tuples_per_s", points)];
        if let Some(r) = &self.recovery {
            entries.push((
                "recovery",
                obj([
                    ("workers", r.workers.serialize_value()),
                    ("kill_to_restore_ms", fixed(r.kill_to_restore_ms, 2)),
                    ("worker_restarts", r.worker_restarts.serialize_value()),
                    ("restores", r.restores.serialize_value()),
                    ("acked", r.acked.serialize_value()),
                    ("expected", r.expected.serialize_value()),
                    ("conservation", r.conservation.serialize_value()),
                ]),
            ));
        }
        doc("bench_dist/v1", self.mode, entries)
    }
}

// --- codec round trip ---------------------------------------------------

/// A representative `TupleBatch` payload: mixed value types, occasional
/// dedup ids, several destination tasks and streams — the shape the
/// transport actually moves, not a best-case all-integer batch.
fn sample_batch(n: usize) -> Vec<codec::WireTuple> {
    (0..n)
        .map(|i| codec::WireTuple {
            token: 1_000 + i as u64 * 17,
            dest_task: (i % 7) as u32,
            stream: (i % 3) as u32,
            dedup: if i % 4 == 0 { Some(i as u64 + 1) } else { None },
            trace_root: if i % 8 == 0 {
                Some(i as u64 * 3 + 7)
            } else {
                None
            },
            values: vec![
                Value::from(i as i64 * 37 - 5),
                Value::from(format!("sensor-{:04}", i % 50)),
                Value::from(0.5 + i as f64 * 0.25),
                Value::from(i % 2 == 0),
            ],
        })
        .collect()
}

/// Round-trips one `TupleBatch` frame through both codecs at `batch`
/// tuples and returns the comparison point.
fn codec_point(batch: usize, target: Duration) -> CodecPoint {
    let items = sample_batch(batch);
    let frame = codec::Frame::TupleBatch {
        items: items.clone(),
    };

    let mut body = Vec::new();
    codec::encode_frame_body(&frame, &mut body);
    let binary_bytes = body.len();
    let json_text = codec::json::tuple_batch_to_string(&items);
    let json_bytes = json_text.len();

    // The binary side reuses its buffer across frames, exactly like the
    // transport's batching writer; the JSON reference allocates a fresh
    // string per frame, exactly like a serde-based shim would.
    let mut buf = Vec::with_capacity(binary_bytes);
    let (binary_ns, _) = time_ns(target, || {
        buf.clear();
        codec::encode_frame_body(&frame, &mut buf);
        codec::decode_frame(&buf).expect("binary round trip")
    });
    let (json_ns, _) = time_ns(target, || {
        let text = codec::json::tuple_batch_to_string(&items);
        codec::json::tuple_batch_from_str(&text).expect("json round trip")
    });

    CodecPoint {
        batch,
        binary_ns,
        json_ns,
        binary_bytes,
        json_bytes,
    }
}

fn bench_codec(res: &mut DistResults, target: Duration) {
    println!("\ncodec: TupleBatch encode+decode round trip, binary vs serde-JSON reference");
    for &batch in &[1usize, 64] {
        let p = codec_point(batch, target);
        println!(
            "  batch {batch:>3}: binary {:>10.0} ns/frame ({} B)   json {:>10.0} ns/frame \
             ({} B)   {:.1}x",
            p.binary_ns,
            p.binary_bytes,
            p.json_ns,
            p.json_bytes,
            p.speedup()
        );
        res.codec.push(p);
    }
}

// --- shared topologies (coordinator and re-exec'd workers) --------------

/// `spout → relay ×W → sink ×W` shuffle pipeline; `args` carries `W`.
fn build_relay(args: &str) -> Result<Topology> {
    let workers: usize = args.parse().unwrap_or(1);
    let mut b = TopologyBuilder::new("dist-scaling-bench");
    b.set_spout("src", 1, || BenchSpout::flood(32))?;
    b.set_bolt("relay", workers, || Relay)?
        .shuffle_grouping("src")?;
    b.set_bolt("sink", workers, || Blackhole)?
        .shuffle_grouping("relay")?;
    b.build()
}

/// Paced spout into one checkpointed counter; `args` is `"n:rate"`.
fn build_state(args: &str) -> Result<Topology> {
    let mut it = args.split(':');
    let n: u64 = it.next().and_then(|s| s.parse().ok()).unwrap_or(400);
    let rate: f64 = it.next().and_then(|s| s.parse().ok()).unwrap_or(1_000.0);
    let mut b = TopologyBuilder::new("dist-recovery-bench");
    // One tuple per call at most, so the stream is still flowing when the
    // bench kills a worker mid-run.
    b.set_spout("src", 1, move || BenchSpout::paced(rate, 1).bounded(n))?;
    b.set_bolt("count", 1, StatefulCounter::default)?
        .global_grouping("src")?;
    b.build()
}

fn registry() -> TopologyRegistry {
    let mut r = TopologyRegistry::new();
    r.register("relay", build_relay);
    r.register("state", build_state);
    r
}

/// Worker dispatch for the bench binary: call this at the very top of the
/// entry point and return immediately when it yields `true` — the process
/// was re-executed as a distributed worker and has already served its
/// assignment.
pub fn maybe_worker() -> bool {
    dist::maybe_worker_from_env(&registry())
}

// --- dist_scaling sweep -------------------------------------------------

/// Runs the relay pipeline on `workers` worker processes for `run_s`
/// seconds and returns acked tuple trees per second: the sweep's points,
/// `--dist-point` samples and the dist telemetry-overhead gate's samples.
pub fn dist_throughput(workers: usize, batch_size: usize, run_s: f64) -> f64 {
    let cfg = EngineConfig {
        max_spout_pending: 16 * 1024,
        ..EngineConfig::default()
    };
    // Credit flow on: the production shape of the distributed transport,
    // and the end-to-end bound that keeps a flooded run's outstanding
    // bytes under the kernel socket buffers (DESIGN.md §15.4).
    let running = dist::submit(
        &registry(),
        "relay",
        &workers.to_string(),
        cfg,
        RtConfig::default()
            .with_batch_size(batch_size)
            .with_credit_flow(32),
        DistConfig::new(workers, dist::self_worker_cmd()),
    )
    .expect("dist submit");
    std::thread::sleep(Duration::from_secs_f64(run_s));
    let report = running.shutdown();
    report.acked as f64 / report.uptime_s
}

fn bench_dist_scaling(res: &mut DistResults, run_s: f64) {
    println!(
        "\ndist_scaling: spout -> relay xW -> sink xW over W worker processes, \
         {run_s:.1}s per point"
    );
    for &workers in &[1usize, 2, 4] {
        for &batch in &[1usize, 64] {
            let tput = dist_throughput(workers, batch, run_s);
            res.scaling.push((workers, batch, tput));
            println!("  workers {workers}  batch {batch:>3}: {tput:>12.0} acked tuples/s");
        }
    }
}

// --- kill-one-worker recovery point -------------------------------------

fn bench_dist_recovery(res: &mut DistResults, n: u64, rate: f64) {
    println!("\ndist_recovery: {n} tuples at {rate:.0}/s, SIGKILL the stateful worker mid-run");
    let engine = EngineConfig {
        message_timeout_s: 2.0,
        ..EngineConfig::default()
    };
    let rt_config = RtConfig::default()
        .with_batch_size(8)
        .with_max_replays(10)
        .with_replay_backoff(Duration::from_millis(20))
        .with_checkpoints(Duration::from_millis(50))
        .with_recovery_mode(RecoveryMode::ExactlyOnceEffect);
    let running = dist::submit(
        &registry(),
        "state",
        &format!("{n}:{rate}"),
        engine,
        rt_config,
        DistConfig::new(2, dist::self_worker_cmd()),
    )
    .expect("dist submit");

    let poll = Duration::from_millis(5);
    wait_until(Duration::from_secs(20), poll, || running.acked() >= n / 4);
    let kill_t = running.uptime_s();
    running.kill_worker(0).expect("kill worker 0");

    wait_until(Duration::from_secs(30), poll, || running.acked() >= n);
    let report = running.shutdown();

    // Kill → restore wall clock on the journal's clock (seconds since
    // submit): the first `state_restored` event after the kill.
    let kill_to_restore_ms = ms_until_first(&report.journal_of_kind("state_restored"), kill_t);

    let r = DistRecovery {
        workers: 2,
        kill_to_restore_ms,
        worker_restarts: report.worker_restarts,
        restores: report.restores,
        acked: report.acked,
        expected: n,
        conservation: report.conservation_holds(),
    };
    println!(
        "  kill -> state_restored {:.1} ms  ({} respawns, {} restores, acked {}/{}, \
         conservation {})",
        r.kill_to_restore_ms, r.worker_restarts, r.restores, r.acked, r.expected, r.conservation
    );
    res.recovery = Some(r);
}

/// Runs the distributed bench suite.  Smoke mode shrinks every budget so
/// the suite proves the multi-process path end to end without dominating
/// the test run.
pub fn run(smoke: bool) -> DistResults {
    let mut res = DistResults {
        mode: if smoke { "smoke" } else { "full" },
        ..DistResults::default()
    };
    bench_codec(&mut res, Duration::from_millis(if smoke { 5 } else { 300 }));
    bench_dist_scaling(&mut res, if smoke { 0.4 } else { 2.0 });
    let (n, rate) = if smoke {
        (400, 1_600.0)
    } else {
        (2_000, 5_000.0)
    };
    bench_dist_recovery(&mut res, n, rate);
    res
}

// --- CI gate ------------------------------------------------------------

/// Minimum binary-over-JSON codec speedup at batch 64 — the wire-codec
/// acceptance criterion, enforced unconditionally by the gate.
pub const MIN_CODEC_SPEEDUP_B64: f64 = 5.0;

/// CI regression gate for the distributed backend: the fresh `w2_b64`
/// throughput must stay within 20% of the checked-in baseline, the binary
/// codec must hold its ≥5× batch-64 speedup over the JSON reference, and
/// the kill-one-worker point must have recovered every message with
/// conservation intact.
pub fn check_dist_baseline(
    res: &DistResults,
    baseline: &JsonValue,
) -> std::result::Result<(), String> {
    let speedup = (res.codec.iter())
        .find(|p| p.batch == 64)
        .map(CodecPoint::speedup)
        .ok_or("dist gate: the batch-64 codec point was not measured")?;
    println!(
        "\ndist codec gate: binary {speedup:.1}x over JSON at batch 64 \
         (floor {MIN_CODEC_SPEEDUP_B64:.0}x)"
    );
    if speedup < MIN_CODEC_SPEEDUP_B64 {
        return Err(format!(
            "dist codec regression: binary codec is only {speedup:.2}x faster than the \
             JSON reference at batch 64 (floor {MIN_CODEC_SPEEDUP_B64:.0}x)"
        ));
    }
    let r = res
        .recovery
        .as_ref()
        .ok_or("dist gate: the kill-one-worker recovery point was not measured")?;
    if r.acked != r.expected || !r.conservation || r.restores == 0 {
        return Err(format!(
            "dist recovery regression: acked {}/{} after the worker kill \
             ({} restores, conservation {})",
            r.acked, r.expected, r.restores, r.conservation
        ));
    }
    report::throughput_floor(
        "dist",
        &res.doc(),
        baseline,
        &["acked_tuples_per_s", "w2_b64"],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results() -> DistResults {
        DistResults {
            mode: "smoke",
            codec: vec![
                CodecPoint {
                    batch: 1,
                    binary_ns: 100.0,
                    json_ns: 1_500.0,
                    binary_bytes: 40,
                    json_bytes: 160,
                },
                CodecPoint {
                    batch: 64,
                    binary_ns: 2_000.0,
                    json_ns: 40_000.0,
                    binary_bytes: 2_100,
                    json_bytes: 9_800,
                },
            ],
            scaling: vec![
                (1, 1, 9_000.0),
                (1, 64, 50_000.0),
                (2, 64, 80_000.0),
                (4, 64, 120_000.0),
            ],
            recovery: Some(DistRecovery {
                workers: 2,
                kill_to_restore_ms: 120.0,
                worker_restarts: 1,
                restores: 1,
                acked: 400,
                expected: 400,
                conservation: true,
            }),
        }
    }

    fn baseline(w2_b64: f64) -> JsonValue {
        serde_json::parse(&format!(
            "{{\n  \"schema\": \"bench_dist/v1\",\n  \"acked_tuples_per_s\": {{\n    \
             \"w2_b64\": {w2_b64:.1}\n  }}\n}}\n"
        ))
        .unwrap()
    }

    #[test]
    fn json_is_well_shaped() {
        let doc = results().doc();
        let at = |path: &[&str]| report::number(&doc, path);
        assert_eq!(at(&["codec", "b64", "speedup"]), Some(20.0));
        assert_eq!(at(&["acked_tuples_per_s", "w2_b64"]), Some(80_000.0));
        assert_eq!(at(&["recovery", "kill_to_restore_ms"]), Some(120.0));
        // Resolving the gate keys of `bench_dist/v1` also pins the schema.
        report::tests::assert_round_trips(&doc);
    }

    #[test]
    fn gate_passes_on_healthy_results() {
        check_dist_baseline(&results(), &baseline(80_000.0)).unwrap();
    }

    #[test]
    fn gate_fails_on_throughput_regression() {
        let err = check_dist_baseline(&results(), &baseline(120_000.0)).unwrap_err();
        assert!(err.contains("regression"), "unexpected message: {err}");
    }

    #[test]
    fn gate_fails_when_codec_speedup_collapses() {
        let mut res = results();
        res.codec[1].binary_ns = 15_000.0;
        let err = check_dist_baseline(&res, &baseline(80_000.0)).unwrap_err();
        assert!(err.contains("codec"), "unexpected message: {err}");
    }

    #[test]
    fn gate_fails_when_recovery_lost_messages() {
        let mut res = results();
        res.recovery.as_mut().unwrap().acked = 399;
        let err = check_dist_baseline(&res, &baseline(80_000.0)).unwrap_err();
        assert!(err.contains("recovery"), "unexpected message: {err}");
    }

    #[test]
    fn codec_round_trip_point_is_consistent() {
        let p = codec_point(8, Duration::from_millis(1));
        assert!(p.binary_ns > 0.0 && p.json_ns > 0.0);
        assert!(p.binary_bytes > 0 && p.json_bytes > p.binary_bytes);
    }
}
