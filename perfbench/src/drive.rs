//! The phases both `wuc-*` workloads run through the source: an open loop
//! at a fixed rate, a closed loop bounded by the in-flight window, and the
//! end-of-stream tuple; plus the analysis of the open loop's record.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use crate::ledger::{Kind, Store};
use crate::outcome::Outcome;
use crate::stats::{median, trimmed_mean, Dist, Ledger};
use crate::wuc::{self, Command, Inputs, OpenRecord, ReportState, SourceCtl};

/// Largest `|ledger.unattributed_pct|` for a complete ledger.
pub const LEDGER_BOUND_PCT: f64 = 25.0;
/// Generator lag p99 above which the open loop's latencies do not count.
pub const LAG_LIMIT_MS: f64 = 5.0;

/// Rates and durations of one run's phases.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Offered rate of the open loop, tuples/s.
    pub open_rate: f64,
    /// Unmeasured lead-in of each phase, s.
    pub warm_s: f64,
    pub open_s: f64,
    pub closed_s: f64,
}

impl Plan {
    /// Splits the measured time evenly between the two loops.
    pub fn new(open_rate: f64, seconds: f64) -> Self {
        Plan {
            open_rate,
            warm_s: 0.5,
            open_s: seconds / 2.0,
            closed_s: seconds / 2.0,
        }
    }
}

/// Polls `done` every millisecond until it holds or `timeout` passes.
pub fn wait_until(timeout: Duration, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    done()
}

/// How long a phase's in-flight tuples may take to complete.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// Stops emitting and waits until every emitted tuple has completed.
pub fn drain(ctl: &SourceCtl, what: &str) -> Result<(), String> {
    ctl.set(Command::Idle);
    if wait_until(DRAIN_TIMEOUT, || ctl.in_flight() == 0) {
        Ok(())
    } else {
        Err(format!(
            "{what}: {} tuples still in flight after {DRAIN_TIMEOUT:?}",
            ctl.in_flight()
        ))
    }
}

/// What the run saw while the loops ran.
#[derive(Debug, Default)]
pub struct Phases {
    /// Tuples in flight, sampled every 50 ms over the measured open loop.
    pub open_in_flight: Vec<u64>,
    /// Due-but-unsent tuples of the generator, sampled likewise.
    pub open_backlog: Vec<u64>,
    /// `(seconds since the measured closed loop began, acks so far)`,
    /// every 50 ms.
    pub closed_acks: Vec<(f64, u64)>,
}

/// Length of the slices the closed loop's rate is taken over, s.
pub const SLICE_S: f64 = 0.5;
/// Tuples per slice the open loop's p99 is taken over (consecutive by
/// scheduled send time).  A host stall of a few ms sets the p99 of any
/// slice it falls in; short slices keep most slices free of one, so their
/// median tracks the system's own tail.  The whole-loop tail is on the
/// `detail` line.
pub const P99_SLICE_TUPLES: usize = 6000;

impl Phases {
    /// Closed-loop acks per second in each slice.
    pub fn closed_rates(&self) -> Vec<f64> {
        let per = (SLICE_S / 0.05).round() as usize;
        self.closed_acks
            .windows(per + 1)
            .step_by(per)
            .map(|w| (w[per].1 - w[0].1) as f64 / (w[per].0 - w[0].0))
            .collect()
    }

    /// Closed-loop throughput: the median of the slice rates.
    pub fn closed_tput(&self) -> f64 {
        median(&self.closed_rates())
    }
}

/// Runs the open loop then the closed loop; `sample` runs every 50 ms of
/// the measured closed loop (for gauges that only exist while it runs).
pub fn run_loops(ctl: &SourceCtl, plan: &Plan, mut sample: impl FnMut()) -> Result<Phases, String> {
    let mut ph = Phases::default();
    let start_ns = ctl.now_ns();
    ctl.set(Command::Open {
        rate: plan.open_rate,
        start_ns,
        record: true,
    });
    let measure_from = start_ns + (plan.warm_s * 1e9) as u64;
    let end = start_ns + ((plan.warm_s + plan.open_s) * 1e9) as u64;
    while ctl.now_ns() < end {
        std::thread::sleep(Duration::from_millis(50));
        let now = ctl.now_ns();
        if now >= measure_from {
            let first = ctl.record.lock().expect("record lock").first_seq;
            let due = (now - start_ns) as f64 * 1e-9 * plan.open_rate;
            let sent = ctl.emitted.load(Ordering::Acquire).saturating_sub(first);
            ph.open_backlog.push((due as u64).saturating_sub(sent));
            ph.open_in_flight.push(ctl.in_flight());
        }
    }
    drain(ctl, "open loop")?;
    ctl.set(Command::Closed);
    std::thread::sleep(Duration::from_secs_f64(plan.warm_s));
    let t0 = Instant::now();
    let mut next = t0;
    ph.closed_acks
        .push((0.0, ctl.acked.load(Ordering::Acquire)));
    while next < t0 + Duration::from_secs_f64(plan.closed_s) {
        next += Duration::from_millis(50);
        std::thread::sleep(next.saturating_duration_since(Instant::now()));
        ph.closed_acks.push((
            t0.elapsed().as_secs_f64(),
            ctl.acked.load(Ordering::Acquire),
        ));
        sample();
    }
    drain(ctl, "closed loop")?;
    Ok(ph)
}

/// Sends the end-of-stream tuple and waits for its tree to complete.
pub fn finish_stream(ctl: &SourceCtl) -> Result<(), String> {
    ctl.set(Command::Eos);
    if wait_until(DRAIN_TIMEOUT, || ctl.eos_acked.load(Ordering::Acquire)) {
        Ok(())
    } else {
        Err(format!(
            "end-of-stream tuple not acked within {DRAIN_TIMEOUT:?}"
        ))
    }
}

/// Open-loop latency and generator lag of the measured part of the
/// record (after the warm-up).
pub struct OpenStats {
    pub lat_ms: Dist,
    /// Median over [`P99_SLICE_TUPLES`] slices of each slice's p99, ms.
    pub p99_ms: f64,
    /// Each slice's p99, ms.
    pub slice_p99_ms: Vec<f64>,
    pub lag_ms: Dist,
    /// Recorded tuples never acked.
    pub unacked: usize,
    pub valid: bool,
    pub why_invalid: Vec<String>,
}

/// Whether the backlog grew: the last quarter of the samples averages more
/// than twice the first quarter plus one batch.
pub fn backlog_grew(samples: &[u64]) -> bool {
    let q = samples.len() / 4;
    if q == 0 {
        return false;
    }
    let mean = |s: &[u64]| s.iter().sum::<u64>() as f64 / s.len() as f64;
    mean(&samples[samples.len() - q..]) > 2.0 * mean(&samples[..q]) + 64.0
}

pub fn open_stats(rec: &OpenRecord, plan: &Plan, ph: &Phases) -> OpenStats {
    let skip = (plan.warm_s * plan.open_rate) as usize;
    let lat: Vec<f64> = rec
        .lat_us
        .iter()
        .skip(skip)
        .map(|&v| f64::from(v) * 1e-3)
        .collect();
    let unacked = lat.iter().filter(|v| v.is_nan()).count();
    let lag: Vec<f64> = rec
        .lag_us
        .iter()
        .skip(skip)
        .map(|&v| f64::from(v) * 1e-3)
        .collect();
    let lat_ms = Dist::of(&lat);
    let lag_ms = Dist::of(&lag);
    let per = P99_SLICE_TUPLES;
    let slice_p99: Vec<f64> = lat
        .chunks(per.max(1))
        .filter(|c| c.len() == per)
        .map(|c| Dist::of(c).p99)
        .collect();
    let mut why = Vec::new();
    if lag_ms.p99.is_nan() || lag_ms.p99 > LAG_LIMIT_MS {
        why.push(format!(
            "generator lag p99 {:.3} ms exceeds {LAG_LIMIT_MS} ms",
            lag_ms.p99
        ));
    }
    if backlog_grew(&ph.open_backlog) {
        why.push("generator backlog grew during the open loop".into());
    }
    if backlog_grew(&ph.open_in_flight) {
        why.push("in-flight backlog grew during the open loop".into());
    }
    if slice_p99.iter().any(|p| p.is_nan()) || slice_p99.is_empty() {
        why.push(format!(
            "{per} latency samples per slice cannot support p99"
        ));
    }
    OpenStats {
        lat_ms,
        p99_ms: median(&slice_p99),
        slice_p99_ms: slice_p99,
        lag_ms,
        unacked,
        valid: why.is_empty(),
        why_invalid: why,
    }
}

/// Repetitions of the loops in one untraced run: each submits a fresh
/// topology, and the run reports the least-disturbed one per timing.
pub const REPS: usize = 4;

/// One repetition's end-to-end figures.
pub struct Rep {
    /// Closed-loop acks/s per slice.
    pub rates: Vec<f64>,
    pub open: OpenStats,
}

/// Adds the end-to-end metrics of a run's repetitions to `out`.  Other
/// tenants of a shared host only ever slow a repetition down, so each
/// timing is the least-disturbed repetition's: the highest `tput` (median
/// of its slice rates), the lowest `lat_p50_ms` and `lat_p99_ms` (median of
/// its slice p99s).  Every repetition is on the `detail` line; `setup_s`
/// is the median of every set-up sample.
pub fn e2e_into(out: &mut Outcome, reps: &[Rep], setups: &[f64], rss_mb: f64) {
    let best = |f: &dyn Fn(&Rep) -> f64, lower: bool| {
        let v = reps.iter().map(f);
        if lower {
            v.fold(f64::INFINITY, f64::min)
        } else {
            v.fold(f64::NEG_INFINITY, f64::max)
        }
    };
    let slices = reps.iter().map(|r| r.rates.len()).sum();
    let p99_slices = reps.iter().map(|r| r.open.slice_p99_ms.len()).sum();
    let lat_n = reps.iter().map(|r| r.open.lat_ms.n).sum();
    out.metric(
        "tput",
        best(&|r| median(&r.rates), false),
        "tuples/s",
        Some(slices),
    );
    out.metric(
        "lat_p50_ms",
        best(&|r| r.open.lat_ms.p50, true),
        "ms",
        Some(lat_n),
    );
    out.metric(
        "lat_p99_ms",
        best(&|r| r.open.p99_ms, true),
        "ms",
        Some(p99_slices),
    );
    out.metric("setup_s", median(setups), "s", Some(setups.len()));
    out.metric("peak_rss_mb", rss_mb, "MB", None);
    let kept = 100.0 * (out.attempted - out.failed.min(out.attempted)) as f64
        / out.attempted.max(1) as f64;
    out.metric("kept_pct", kept, "%", Some(out.attempted as usize));
    for (i, r) in reps.iter().enumerate() {
        out.detail(
            &format!("rep{i}.tput"),
            median(&r.rates),
            "tuples/s",
            Some(r.rates.len()),
        );
        out.detail(
            &format!("rep{i}.lat_p99_ms"),
            r.open.p99_ms,
            "ms",
            Some(r.open.slice_p99_ms.len()),
        );
        open_details(out, &r.open, &format!("rep{i}."));
    }
}

/// Generator lag and validity of an open loop.
pub fn open_details(out: &mut Outcome, open: &OpenStats, prefix: &str) {
    out.detail(
        &format!("{prefix}open.lag_ms_p50"),
        open.lag_ms.p50,
        "ms",
        Some(open.lag_ms.n),
    );
    out.detail(
        &format!("{prefix}open.lag_ms_p99"),
        open.lag_ms.p99,
        "ms",
        Some(open.lag_ms.n),
    );
    out.detail(
        &format!("{prefix}open.lat_ms_p{}", open.lat_ms.tail_p),
        open.lat_ms.tail,
        "ms",
        Some(open.lat_ms.n),
    );
    out.detail(
        &format!("{prefix}open.unacked"),
        open.unacked as f64,
        "count",
        None,
    );
    out.detail(
        &format!("{prefix}open.lat_valid"),
        open.valid as u8 as f64,
        "bool",
        None,
    );
    for why in &open.why_invalid {
        out.notes
            .push(format!("{prefix}open-loop latency invalid: {why}"));
    }
}

/// Median duration of each segment of a sampled tuple's path, µs, from
/// the ledger's boundary events, joined by sequence number.  Only tuples
/// of the recorded open loop (after warm-up) with every boundary count.
pub fn segments(store: &Store, rec: &OpenRecord, plan: &Plan) -> Vec<(&'static str, Vec<f64>)> {
    let lo = rec.first_seq + (plan.warm_s * plan.open_rate) as u64;
    let hi = rec.first_seq + rec.lat_us.len() as u64;
    let names = ["hop1", "parse", "hop2", "count", "ack"];
    let mut out: Vec<(&'static str, Vec<f64>)> = vec![
        ("lag", Vec::new()),
        ("hop1", Vec::new()),
        ("parse", Vec::new()),
        ("hop2", Vec::new()),
        ("count", Vec::new()),
        ("ack", Vec::new()),
        ("total", Vec::new()),
    ];
    for (seq, path) in store.paths() {
        if !(lo..hi).contains(&seq) {
            continue;
        }
        let Some(t) = path.iter().copied().collect::<Option<Vec<i64>>>() else {
            continue;
        };
        let k = (seq - rec.first_seq) as usize;
        let (lag, total) = (f64::from(rec.lag_us[k]), f64::from(rec.lat_us[k]));
        if total.is_nan() {
            continue;
        }
        out[0].1.push(lag);
        for (i, _) in names.iter().enumerate() {
            out[i + 1].1.push((t[i + 1] - t[i]) as f64 * 1e-3);
        }
        out[6].1.push(total);
    }
    out
}

/// Adds the latency ledger of a traced open loop to `out`: one detail
/// metric per segment (named by `layer_names`), the residual, and a note
/// when the residual is over its bound.
pub fn ledger_into(
    out: &mut Outcome,
    store: &Store,
    rec: &OpenRecord,
    plan: &Plan,
    layer_names: [&str; 6],
) {
    let segs = segments(store, rec, plan);
    let n = segs[6].1.len();
    let p50: Vec<f64> = segs.iter().map(|(_, v)| median(v)).collect();
    for (i, name) in layer_names.iter().enumerate() {
        out.detail(name, p50[i], "us", Some(n));
    }
    let ledger = Ledger::new(
        p50[6],
        segs[..6]
            .iter()
            .zip(&p50)
            .map(|((s, _), v)| (*s, *v))
            .collect(),
        LEDGER_BOUND_PCT,
    );
    out.metric(
        "ledger.unattributed_pct",
        if n > 0 {
            ledger.unattributed_pct
        } else {
            100.0
        },
        "%",
        Some(n),
    );
    out.detail("ledger.total_p50_us", p50[6], "us", Some(n));
    if n == 0 || !ledger.complete {
        out.notes.push(format!(
            "ledger incomplete: segments leave {:.1}% of the p50 latency unattributed \
             (bound {LEDGER_BOUND_PCT}%, {n} joined tuples)",
            ledger.unattributed_pct
        ));
    }
}

/// Operator self times and generator cost of a traced run.
pub fn operator_costs_into(out: &mut Outcome, store: &Store, ctl: &SourceCtl) {
    let parse = store.values_of(Kind::ParseNs);
    let count = store.values_of(Kind::CountNs);
    let gen_t = ctl.gen_tuples.load(Ordering::Relaxed).max(1);
    out.metric(
        "source.ns_per_tuple",
        ctl.gen_ns.load(Ordering::Relaxed) as f64 / gen_t as f64,
        "ns",
        None,
    );
    out.metric(
        "operator.parse_ns",
        trimmed_mean(&parse),
        "ns",
        Some(parse.len()),
    );
    out.metric(
        "operator.count_ns",
        trimmed_mean(&count),
        "ns",
        Some(count.len()),
    );
}

/// Checks a run's results against the reference, adding to the outcome's
/// attempted and failed counts; returns the reference's rate, tuples/s.
pub fn check(
    inputs: &Inputs,
    ctl: &SourceCtl,
    state: Option<&ReportState>,
    count_tasks: usize,
    runtime_failures: u64,
    window: u64,
    out: &mut Outcome,
) -> f64 {
    use std::sync::atomic::Ordering::Acquire;
    let n = ctl.emitted.load(Acquire);
    let t0 = Instant::now();
    let expected = wuc::reference(inputs, n, window);
    let ref_rate = n as f64 / t0.elapsed().as_secs_f64();
    let lost = n.saturating_sub(ctl.acked.load(Acquire)) + ctl.failed.load(Acquire);
    let bad_rows = match state {
        Some(s) => {
            if s.eos_seen != count_tasks as u64 {
                out.notes.push(format!(
                    "report saw {} of {count_tasks} end-of-stream markers",
                    s.eos_seen
                ));
            }
            wuc::mismatched_rows(&expected, &s.rows) + (s.eos_seen != count_tasks as u64) as u64
        }
        None => {
            out.notes.push("no final report state".into());
            expected.len() as u64
        }
    };
    if bad_rows > 0 {
        out.notes
            .push(format!("{bad_rows} result rows differ from the reference"));
    }
    out.attempted += n + expected.len() as u64;
    out.failed += lost + runtime_failures + bad_rows;
    out.correct = out.failed == 0;
    ref_rate
}

/// Per-layer metrics whose layer does not run in this workload: a count of
/// zero work.
pub fn zero_layers(out: &mut Outcome, names: &[&str]) {
    for name in names {
        out.metric(name, 0.0, crate::unit_of(name), None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backlog_growth_compares_first_and_last_quarters() {
        assert!(!backlog_grew(&[]));
        assert!(!backlog_grew(&[10, 12, 9, 11, 10, 13, 8, 12]));
        assert!(!backlog_grew(&[10, 10, 10, 10, 10, 10, 70, 70]));
        assert!(backlog_grew(&[10, 10, 50, 100, 200, 300, 400, 500]));
    }
}
