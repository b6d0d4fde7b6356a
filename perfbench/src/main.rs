//! One benchmark for the three backends of `dsdps`.
//!
//! ```text
//! perfbench --workload <wuc-threads|wuc-dist|sim-control> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Every run generates its inputs from the seed, drives the system through
//! its public APIs only, checks the job's results against a single-threaded
//! reference computation, and prints a table followed by one JSON line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! traced run with `--trace 1`.  The process exits non-zero when any result
//! differs from the reference.  `perfbench/README.md` documents the
//! workloads and metrics.

mod dist;
mod drive;
mod layers;
mod ledger;
mod outcome;
mod sim;
mod stats;
mod threads;
mod wuc;

use std::path::PathBuf;
use std::process::ExitCode;

use outcome::Outcome;

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err(format!("--seconds must be in [1, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Temporary directory of this run, inside the working directory (the
/// checkout): unix sockets of the dist backend and the worker processes'
/// ledger files live here.
fn tmp_dir() -> PathBuf {
    PathBuf::from(".perfbench-tmp").join(std::process::id().to_string())
}

fn main() -> ExitCode {
    // A worker process of the dist backend re-runs this binary; it must
    // turn into a worker before anything else happens.
    if std::env::var_os("DSDPS_DIST_ADDR").is_some() {
        if dsdps::dist::maybe_worker_from_env(&dist::registry(None)) {
            let path = std::env::temp_dir().join(format!("ledger-{}.txt", std::process::id()));
            if let Err(e) = ledger::dump(&path) {
                eprintln!("perfbench worker: writing {}: {e}", path.display());
            }
        }
        return ExitCode::SUCCESS;
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <wuc-threads|wuc-dist|sim-control> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let tmp = tmp_dir();
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: creating {}: {e}", tmp.display());
        return ExitCode::from(2);
    }
    // Set while this process is still single-threaded; the dist backend's
    // sockets and the workers (which inherit it) then stay in the checkout.
    std::env::set_var("TMPDIR", &tmp);
    let result = match args.workload.as_str() {
        "wuc-threads" => threads::run(&args),
        "wuc-dist" => dist::run(&args, &tmp),
        "sim-control" => sim::run(&args),
        other => Err(format!("unknown workload {other}")),
    };
    let _ = std::fs::remove_dir_all(&tmp);
    if let Some(parent) = tmp.parent() {
        // Removes the parent only once no other run is using it.
        let _ = std::fs::remove_dir(parent);
    }
    let result = result.and_then(|mut o| match conform(&mut o, args.trace) {
        Ok(()) => Ok(o),
        Err(e) => {
            eprintln!("{o:#?}");
            Err(e)
        }
    });
    match result {
        Ok(outcome) => {
            outcome.print(&args);
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: results differ from the reference");
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// End-to-end metrics (`--trace 0`) and their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("tput", "tuples/s"),
    ("lat_p50_ms", "ms"),
    ("lat_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("kept_pct", "%"),
];

/// Per-layer metrics (`--trace 1`) and their units.  Each is measured on
/// every workload; a layer that does not run in a workload reports a zero
/// count.  Timings that exist on one backend only are on the `detail` line.
pub const PER_LAYER: [(&str, &str); 22] = [
    ("source.ns_per_tuple", "ns"),
    ("operator.parse_ns", "ns"),
    ("operator.count_ns", "ns"),
    ("acker.cycle_ns", "ns"),
    ("grouping.dynamic_ns", "ns"),
    ("codec.encode_ns_per_tuple", "ns"),
    ("codec.decode_ns_per_tuple", "ns"),
    ("codec.bytes_per_tuple", "B"),
    ("ref.tuples_per_s", "tuples/s"),
    ("telemetry.trace_overhead_pct", "%"),
    ("busy_frac.parse", "fraction"),
    ("busy_frac.count", "fraction"),
    ("busy_frac.report", "fraction"),
    ("rt.batch_fill", "tuples"),
    ("control.flags", "count"),
    ("transport.tuples_per_frame", "tuples"),
    ("dist.outstanding_window_max", "tuples"),
    ("dist.pending_trees_max", "count"),
    ("checkpoint.count", "count"),
    ("checkpoint.bytes_per_ckpt", "B"),
    ("sim.events_per_s", "1/s"),
    ("ledger.unattributed_pct", "%"),
];

/// Unit of a result-line metric.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map_or("count", |(_, u)| u)
}

/// Orders the result-line metrics as the tables above and checks that
/// exactly those are present with those units.
fn conform(outcome: &mut Outcome, trace: bool) -> Result<(), String> {
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut ordered = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let i = outcome
            .metrics
            .iter()
            .position(|m| m.name == *name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        let m = outcome.metrics.swap_remove(i);
        if m.unit != *unit {
            return Err(format!("metric {name} has unit {} not {unit}", m.unit));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {name} is not a number ({})", m.value));
        }
        ordered.push(m);
    }
    if let Some(extra) = outcome.metrics.first() {
        return Err(format!("unexpected metric {}", extra.name));
    }
    outcome.metrics = ordered;
    Ok(())
}

/// Host parallelism stamped into every result.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident memory of process `pid` (`VmHWM`), MB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split(' ').map(String::from).collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"better\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn arguments_are_all_required_and_checked() {
        let a = parse_args(&argv(
            "--workload wuc-threads --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("wuc-threads", 7, 10.0, true)
        );
        assert!(parse_args(&argv("--workload x --seed 7 --seconds 10")).is_err());
        assert!(parse_args(&argv("--workload x --seed 7 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload x --seed -1 --seconds 5 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload x --seed 1 --seconds 5 --trace 2")).is_err());
        assert!(parse_args(&argv("--bogus 1")).is_err());
    }
}
