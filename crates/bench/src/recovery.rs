//! Fault-recovery benchmark (`rt_recovery`): kill a stateful bolt mid-run
//! under each recovery guarantee and measure how checkpointed state comes
//! back.
//!
//! One arm per [`RecoveryMode`] runs a paced spout into a checkpointed
//! counting bolt, panics the bolt mid-stream, and extracts from the run's
//! journal and report:
//!
//! * **recovery time** — wall clock from the injected panic to the restarted
//!   task's `state_restored` journal event,
//! * **restore latency** — snapshot load + decode + input-log re-execution,
//! * **post-fault throughput dip** — acked-tuples/s in the 250 ms after the
//!   panic versus the 250 ms before it,
//! * **result error** — the operator's final count versus the emitted
//!   stream, checked against what each guarantee promises.
//!
//! A final *recompute* arm rebuilds the same state factory-fresh: it replays
//! the full pre-crash input prefix through an identical topology with
//! checkpoints off.  The CI gate ([`check_recovery_gate`]) requires the
//! exactly-once restore to beat that recompute, with anti-vacuity floors on
//! both sides so a trivially small snapshot or a trivially cheap recompute
//! voids the comparison instead of passing it.
//!
//! Results are written as `BENCH_recovery.json` (`bench_recovery/v1`) at the
//! repository root by the shared `microbench` entry point.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use dsdps::config::EngineConfig;
use dsdps::rt::{self, RecoveryMode, RtConfig, RtFault, RtFaultPlan};
use dsdps::topology::TopologyBuilder;
use serde::{JsonValue, Serialize};

use crate::fixtures::{ms_until_first, wait_until, BenchSpout, CounterProbe, StatefulCounter};
use crate::report::{doc, fixed, obj};

/// Measurements of one fault arm (one run under one recovery guarantee).
pub struct RecoveryArm {
    /// Guarantee name: `"exactly_once_effect"`, `"at_least_once"` or
    /// `"approximate"`.
    pub mode: &'static str,
    /// Wall clock from the injected panic to the restarted task's
    /// `state_restored` event, milliseconds (journal clock).
    pub recovery_ms: f64,
    /// Restore latency (snapshot load + decode + input-log re-execution),
    /// milliseconds; max over the run's restores.
    pub restore_ms: f64,
    /// Snapshot restores performed by restarted incarnations.
    pub restores: u64,
    /// Checkpoints deposited over the run.
    pub checkpoints: u64,
    /// Serialized snapshot bytes deposited over the run.
    pub snapshot_bytes: u64,
    /// Acked tuples/s over the 250 ms before the fault.
    pub pre_fault_rate: f64,
    /// Throughput drop over the 250 ms after the fault, as a percentage of
    /// the pre-fault rate (negative means the post-fault burst was faster).
    pub post_fault_dip_pct: f64,
    /// |operator count − emitted stream| as a percentage of the stream.
    pub result_error_pct: f64,
    /// Tuples the approximate guarantee reported as skipped (its error
    /// bound); zero under the other guarantees.
    pub approx_skipped: u64,
    /// Whether the final result respects the mode's promise: exact count
    /// for exactly-once, no loss for at-least-once, loss within
    /// `approx_skipped` for approximate.
    pub within_bound: bool,
    /// Operator count carried by the restored snapshot — the state the
    /// recompute arm has to rebuild from scratch.
    pub restored_count: u64,
}

/// Collected measurements of one `rt_recovery` run: three fault arms plus
/// the factory-fresh recompute reference.
pub struct RecoveryResults {
    /// `"smoke"` or `"full"`.
    pub mode: &'static str,
    /// One entry per recovery guarantee, in enum order.
    pub arms: Vec<RecoveryArm>,
    /// Input prefix the recompute arm replayed (the exactly-once arm's
    /// restored count).
    pub recompute_prefix: u64,
    /// Wall clock for the recompute arm to re-ack that whole prefix through
    /// a fresh checkpoint-free topology, milliseconds.
    pub recompute_rebuild_ms: f64,
    /// Average serialized snapshot size per checkpoint with the default
    /// binary encoding (the exactly-once arm's deposits).
    pub snapshot_binary_bytes_per_ckpt: f64,
    /// Average serialized snapshot size per checkpoint with the JSON
    /// fallback ([`RtConfig::with_json_snapshots`]) on an otherwise
    /// identical exactly-once run.
    pub snapshot_json_bytes_per_ckpt: f64,
}

impl RecoveryResults {
    /// Percentage by which the binary snapshot encoding shrinks the average
    /// checkpoint against the JSON fallback.
    pub fn snapshot_reduction_pct(&self) -> f64 {
        if self.snapshot_json_bytes_per_ckpt <= 0.0 {
            return 0.0;
        }
        (1.0 - self.snapshot_binary_bytes_per_ckpt / self.snapshot_json_bytes_per_ckpt) * 100.0
    }

    /// The `BENCH_recovery.json` document (`bench_recovery/v1`).
    pub fn doc(&self) -> JsonValue {
        let arms = self.arms.iter().map(|a| {
            let arm = obj([
                ("recovery_ms", fixed(a.recovery_ms, 2)),
                ("restore_ms", fixed(a.restore_ms, 3)),
                ("restores", a.restores.serialize_value()),
                ("checkpoints", a.checkpoints.serialize_value()),
                ("snapshot_bytes", a.snapshot_bytes.serialize_value()),
                ("pre_fault_rate_tuples_per_s", fixed(a.pre_fault_rate, 1)),
                ("post_fault_dip_pct", fixed(a.post_fault_dip_pct, 1)),
                ("result_error_pct", fixed(a.result_error_pct, 3)),
                ("approx_skipped", a.approx_skipped.serialize_value()),
                ("within_bound", a.within_bound.serialize_value()),
                ("restored_count", a.restored_count.serialize_value()),
            ]);
            (a.mode, arm)
        });
        let recompute = obj([
            ("prefix_tuples", self.recompute_prefix.serialize_value()),
            ("rebuild_ms", fixed(self.recompute_rebuild_ms, 2)),
        ]);
        let (binary, json) = (
            self.snapshot_binary_bytes_per_ckpt,
            self.snapshot_json_bytes_per_ckpt,
        );
        let encoding = obj([
            ("binary_bytes_per_ckpt", fixed(binary, 1)),
            ("json_bytes_per_ckpt", fixed(json, 1)),
            ("reduction_pct", fixed(self.snapshot_reduction_pct(), 1)),
        ]);
        doc(
            "bench_recovery/v1",
            self.mode,
            [
                ("arms", obj(arms)),
                ("recompute", recompute),
                ("snapshot_encoding", encoding),
            ],
        )
    }
}

/// Linear interpolation of the acked count at time `t` over the sampled
/// `(seconds-since-submit, acked)` series.
fn acked_at(samples: &[(f64, u64)], t: f64) -> f64 {
    match samples.iter().position(|(s, _)| *s >= t) {
        None => samples.last().map(|(_, a)| *a as f64).unwrap_or(0.0),
        Some(0) => samples[0].1 as f64,
        Some(i) => {
            let (t0, a0) = samples[i - 1];
            let (t1, a1) = samples[i];
            let w = ((t - t0) / (t1 - t0)).clamp(0.0, 1.0);
            a0 as f64 + w * (a1 as f64 - a0 as f64)
        }
    }
}

fn fault_arm(
    mode: RecoveryMode,
    n: u64,
    rate: f64,
    panic_at_s: f64,
    json_snapshots: bool,
) -> RecoveryArm {
    let probe = CounterProbe::default();
    let p2 = probe.clone();
    let mut b = TopologyBuilder::new("rt-recovery");
    // Paced, one tuple per call at most, so the stream is still flowing
    // when the wall-clock-scheduled panic fires.
    b.set_spout("src", 1, move || BenchSpout::paced(rate, 1).bounded(n))
        .unwrap();
    b.set_bolt("state", 1, move || StatefulCounter::observed(p2.clone()))
        .unwrap()
        .shuffle_grouping("src")
        .unwrap();
    let topo = b.build().unwrap();

    let mut cfg = EngineConfig::default().with_cluster(1, 2, 4);
    cfg.metrics_interval_s = 0.25;
    cfg.message_timeout_s = 1.0;
    cfg.max_spout_pending = 16 * 1024;
    let plan = RtFaultPlan::new().with(RtFault::TaskPanic {
        task: 1,
        at_s: panic_at_s,
    });
    let rt_cfg = RtConfig::default()
        .with_checkpoints(Duration::from_millis(100))
        .with_recovery_mode(mode)
        .with_max_replays(8)
        .with_replay_backoff(Duration::from_millis(50))
        .with_json_snapshots(json_snapshots);

    let t0 = Instant::now();
    let running = rt::submit_faulty(topo, cfg, rt_cfg, plan, None).unwrap();
    // Sample the acked count at ~5 ms so the 250 ms windows around the
    // panic carry enough points for a throughput estimate.
    let mut samples: Vec<(f64, u64)> = Vec::with_capacity(4096);
    wait_until(Duration::from_secs(30), Duration::from_millis(5), || {
        samples.push((t0.elapsed().as_secs_f64(), running.acked()));
        running.acked() + running.permanently_failed() >= n
    });
    let (_, report) = running.shutdown();

    // Panic → restored wall clock, from the journal.  The nominal
    // `panic_at_s` is only the schedule; the journal records when the fault
    // actually fired.
    let fault_t = report
        .journal_of_kind("fault_injected")
        .first()
        .map(|e| e.time_s())
        .unwrap_or(panic_at_s);
    let restores = report.journal_of_kind("state_restored");
    let recovery_ms = ms_until_first(&restores, fault_t);
    let restore_ms = restores
        .iter()
        .filter_map(|e| match e {
            dsdps::telemetry::JournalEvent::StateRestored { latency_us, .. } => Some(*latency_us),
            _ => None,
        })
        .max()
        .unwrap_or(0) as f64
        / 1_000.0;

    let pre = (acked_at(&samples, fault_t) - acked_at(&samples, fault_t - 0.25)) / 0.25;
    let post = (acked_at(&samples, fault_t + 0.25) - acked_at(&samples, fault_t)) / 0.25;
    let dip_pct = if pre > 0.0 {
        (1.0 - post / pre) * 100.0
    } else {
        0.0
    };

    let final_count = probe.delivered.load(Ordering::Relaxed);
    let error_pct = (final_count as f64 - n as f64).abs() / n as f64 * 100.0;
    let within_bound = match mode {
        RecoveryMode::ExactlyOnceEffect => final_count == n,
        RecoveryMode::AtLeastOnce => final_count >= n,
        RecoveryMode::Approximate => n.saturating_sub(final_count) <= report.approx_skipped,
    };

    println!(
        "  {:<20} recovery {:>8.1} ms  restore {:>7.3} ms  dip {:>6.1}%  \
         error {:>6.3}%  ({} ckpts, {} restores, {} skipped)",
        mode.as_str(),
        recovery_ms,
        restore_ms,
        dip_pct,
        error_pct,
        report.checkpoints_taken,
        report.restores,
        report.approx_skipped,
    );

    RecoveryArm {
        mode: mode.as_str(),
        recovery_ms,
        restore_ms,
        restores: report.restores,
        checkpoints: report.checkpoints_taken,
        snapshot_bytes: report.snapshot_bytes,
        pre_fault_rate: pre,
        post_fault_dip_pct: dip_pct,
        result_error_pct: error_pct,
        approx_skipped: report.approx_skipped,
        within_bound,
        restored_count: probe.restored.load(Ordering::Relaxed),
    }
}

/// Factory-fresh recompute reference: rebuild the exactly-once arm's
/// restored state by re-acking the whole input prefix through an identical
/// topology with checkpoints off.  This is what recovery costs without a
/// snapshot to restore from.
fn recompute_rebuild(prefix: u64) -> f64 {
    let mut b = TopologyBuilder::new("rt-recompute");
    b.set_spout("src", 1, move || BenchSpout::flood(1).bounded(prefix))
        .unwrap();
    b.set_bolt("state", 1, StatefulCounter::default)
        .unwrap()
        .shuffle_grouping("src")
        .unwrap();
    let topo = b.build().unwrap();
    let mut cfg = EngineConfig::default().with_cluster(1, 2, 4);
    cfg.max_spout_pending = 16 * 1024;

    let t0 = Instant::now();
    let running = rt::submit_with(topo, cfg, RtConfig::default()).unwrap();
    wait_until(Duration::from_secs(30), Duration::from_millis(1), || {
        running.acked() >= prefix
    });
    let rebuild_ms = t0.elapsed().as_secs_f64() * 1_000.0;
    running.shutdown();
    rebuild_ms
}

/// Runs the `rt_recovery` bench: one fault arm per guarantee, then the
/// recompute reference sized to the exactly-once arm's restored state.
pub fn run(smoke: bool) -> RecoveryResults {
    // Sized so the pre-crash prefix is five-figure: the recompute reference
    // then takes tens of milliseconds, keeping the gate's anti-vacuity
    // floor comfortably cleared on any machine that can run the suite.
    let (n, rate, panic_at_s) = if smoke {
        (25_000u64, 25_000.0, 0.5)
    } else {
        (60_000u64, 40_000.0, 0.75)
    };
    println!(
        "\nrt_recovery: {n} tuples at {rate:.0}/s, stateful bolt panics at {panic_at_s:.2}s \
         (checkpoints every 100 ms)"
    );
    let arms: Vec<RecoveryArm> = [
        RecoveryMode::ExactlyOnceEffect,
        RecoveryMode::AtLeastOnce,
        RecoveryMode::Approximate,
    ]
    .into_iter()
    .map(|mode| fault_arm(mode, n, rate, panic_at_s, false))
    .collect();

    // Snapshot-encoding comparison: re-run the exactly-once arm with the
    // JSON snapshot fallback and compare average bytes per checkpoint
    // against the default binary encoding above.
    let json_arm = fault_arm(RecoveryMode::ExactlyOnceEffect, n, rate, panic_at_s, true);
    let per_ckpt = |a: &RecoveryArm| a.snapshot_bytes as f64 / a.checkpoints.max(1) as f64;
    let exact = arms.iter().find(|a| a.mode == "exactly_once_effect");
    let binary_bytes_per_ckpt = exact.map_or(0.0, per_ckpt);
    let prefix = exact.map_or(0, |a| a.restored_count).max(1);
    let res = RecoveryResults {
        mode: if smoke { "smoke" } else { "full" },
        arms,
        recompute_prefix: prefix,
        recompute_rebuild_ms: recompute_rebuild(prefix),
        snapshot_binary_bytes_per_ckpt: binary_bytes_per_ckpt,
        snapshot_json_bytes_per_ckpt: per_ckpt(&json_arm),
    };
    println!(
        "  {:<20} binary {:.1} B/ckpt vs json {:.1} B/ckpt ({:.1}% smaller)",
        "snapshot encoding",
        res.snapshot_binary_bytes_per_ckpt,
        res.snapshot_json_bytes_per_ckpt,
        res.snapshot_reduction_pct()
    );
    println!(
        "  {:<20} rebuild  {:>8.1} ms  ({prefix} tuples re-acked, checkpoints off)",
        "recompute", res.recompute_rebuild_ms
    );
    res
}

/// CI recovery gate: every guarantee must actually checkpoint, restore and
/// keep its promise, and the exactly-once restore must beat the
/// factory-fresh recompute.  Anti-vacuity floors void the comparison when
/// the snapshot carried trivially little state or the recompute was
/// trivially cheap — a pass must mean the restore path earned it.
pub fn check_recovery_gate(res: &RecoveryResults) -> Result<(), String> {
    const MIN_RECOMPUTE_MS: f64 = 5.0;
    const MIN_RESTORED_TUPLES: u64 = 1_000;
    for want in ["exactly_once_effect", "at_least_once", "approximate"] {
        let arm = res
            .arms
            .iter()
            .find(|a| a.mode == want)
            .ok_or_else(|| format!("recovery gate: no {want} arm was measured"))?;
        if arm.checkpoints == 0 || arm.restores == 0 {
            return Err(format!(
                "recovery gate: the {want} arm never exercised the checkpoint path \
                 ({} checkpoints, {} restores)",
                arm.checkpoints, arm.restores
            ));
        }
        if !arm.within_bound {
            return Err(format!(
                "recovery gate: the {want} arm broke its guarantee \
                 (result error {:.3}%, {} reported skipped)",
                arm.result_error_pct, arm.approx_skipped
            ));
        }
    }
    let exact = res
        .arms
        .iter()
        .find(|a| a.mode == "exactly_once_effect")
        .expect("checked above");
    println!(
        "\nrecovery gate: exactly-once restore {:.3} ms vs factory-fresh recompute {:.1} ms \
         ({} restored tuples)",
        exact.restore_ms, res.recompute_rebuild_ms, exact.restored_count
    );
    if exact.restored_count < MIN_RESTORED_TUPLES {
        return Err(format!(
            "recovery gate: the restored snapshot carried only {} tuples \
             (< {MIN_RESTORED_TUPLES}) — the restore-vs-recompute comparison is void",
            exact.restored_count
        ));
    }
    if res.recompute_rebuild_ms < MIN_RECOMPUTE_MS {
        return Err(format!(
            "recovery gate: the factory-fresh recompute took only {:.2} ms \
             (< {MIN_RECOMPUTE_MS:.0} ms) — the restore-vs-recompute comparison is void",
            res.recompute_rebuild_ms
        ));
    }
    if exact.restore_ms >= res.recompute_rebuild_ms {
        return Err(format!(
            "recovery gate: exactly-once restore {:.3} ms did not beat the \
             factory-fresh recompute {:.2} ms — checkpointed recovery is not \
             paying for itself",
            exact.restore_ms, res.recompute_rebuild_ms
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arm(mode: &'static str) -> RecoveryArm {
        RecoveryArm {
            mode,
            recovery_ms: 12.0,
            restore_ms: 0.4,
            restores: 1,
            checkpoints: 6,
            snapshot_bytes: 512,
            pre_fault_rate: 11_000.0,
            post_fault_dip_pct: 40.0,
            result_error_pct: 0.0,
            approx_skipped: 0,
            within_bound: true,
            restored_count: 4_000,
        }
    }

    fn passing_results() -> RecoveryResults {
        RecoveryResults {
            mode: "smoke",
            arms: vec![
                arm("exactly_once_effect"),
                arm("at_least_once"),
                arm("approximate"),
            ],
            recompute_prefix: 4_000,
            recompute_rebuild_ms: 35.0,
            snapshot_binary_bytes_per_ckpt: 18.0,
            snapshot_json_bytes_per_ckpt: 42.0,
        }
    }

    #[test]
    fn gate_passes_when_restore_beats_recompute() {
        check_recovery_gate(&passing_results()).unwrap();
    }

    #[test]
    fn gate_fails_when_restore_is_slower_than_recompute() {
        let mut res = passing_results();
        res.arms[0].restore_ms = 50.0;
        let err = check_recovery_gate(&res).unwrap_err();
        assert!(err.contains("did not beat"), "unexpected message: {err}");
    }

    #[test]
    fn gate_is_void_when_recompute_is_trivially_cheap() {
        let mut res = passing_results();
        res.recompute_rebuild_ms = 1.0;
        res.arms[0].restore_ms = 0.1;
        let err = check_recovery_gate(&res).unwrap_err();
        assert!(err.contains("void"), "unexpected message: {err}");
    }

    #[test]
    fn gate_is_void_when_the_snapshot_carried_no_state() {
        let mut res = passing_results();
        res.arms[0].restored_count = 10;
        let err = check_recovery_gate(&res).unwrap_err();
        assert!(err.contains("void"), "unexpected message: {err}");
    }

    #[test]
    fn gate_fails_when_an_arm_never_restored() {
        let mut res = passing_results();
        res.arms[1].restores = 0;
        let err = check_recovery_gate(&res).unwrap_err();
        assert!(err.contains("never exercised"), "unexpected message: {err}");
    }

    #[test]
    fn gate_fails_when_a_guarantee_is_broken() {
        let mut res = passing_results();
        res.arms[2].within_bound = false;
        res.arms[2].result_error_pct = 9.0;
        let err = check_recovery_gate(&res).unwrap_err();
        assert!(err.contains("broke its guarantee"), "unexpected: {err}");
    }

    #[test]
    fn gate_fails_when_an_arm_is_missing() {
        let mut res = passing_results();
        res.arms.remove(1);
        let err = check_recovery_gate(&res).unwrap_err();
        assert!(err.contains("no at_least_once arm"), "unexpected: {err}");
    }

    #[test]
    fn json_is_well_shaped() {
        use crate::report::{get, number};
        let doc = passing_results().doc();
        let within = get(&doc, &["arms", "exactly_once_effect", "within_bound"]);
        assert_eq!(within, Some(&JsonValue::Bool(true)));
        assert_eq!(number(&doc, &["recompute", "rebuild_ms"]), Some(35.0));
        let reduction = number(&doc, &["snapshot_encoding", "reduction_pct"]);
        assert_eq!(reduction, Some(57.1));
        // Resolving the gate keys of `bench_recovery/v1` also pins the schema.
        crate::report::tests::assert_round_trips(&doc);
    }

    #[test]
    fn acked_at_interpolates_between_samples() {
        let samples = [(0.0, 0u64), (1.0, 1_000), (2.0, 1_000)];
        assert_eq!(acked_at(&samples, 0.5), 500.0);
        assert_eq!(acked_at(&samples, 1.5), 1_000.0);
        assert_eq!(acked_at(&samples, 5.0), 1_000.0);
        assert_eq!(acked_at(&samples, -1.0), 0.0);
    }
}
