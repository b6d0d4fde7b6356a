//! One reporting path for every `BENCH_*.json` file: the writer that builds
//! and renders each document, the reader the gates look keys up with, and
//! the runner that executes the CI gates.
//!
//! * **Writer** — each results type builds its document as a
//!   [`JsonValue`] with [`doc`], [`obj`] and [`fixed`];
//!   [`write_at_repo_root`] renders it with [`render`].
//! * **Reader** — [`read`] parses a committed baseline and [`number`] looks
//!   up a key path such as `["acked_tuples_per_s", "w1_b64"]`;
//!   [`throughput_floor`] is the shared ≤20 % regression gate on top.
//! * **Gate runner** — [`run_gates`] runs every requested gate and reports
//!   every failure; [`check_telemetry_overhead`] is the interleaved min-pair
//!   overhead gate of both the threaded and the distributed backend.

use std::path::PathBuf;

use serde::{JsonValue, Serialize};

/// Largest drop below a committed baseline that the throughput gates accept.
pub const MAX_DROP: f64 = 0.2;

/// Largest disabled-telemetry throughput loss against a `strip-telemetry`
/// build that the overhead gates accept.
pub const TELEMETRY_TOLERANCE: f64 = 0.03;

// --- writer -------------------------------------------------------------

/// A JSON object whose keys keep the given order.
pub fn obj<K: Into<String>>(entries: impl IntoIterator<Item = (K, JsonValue)>) -> JsonValue {
    JsonValue::Object(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A BENCH document: `schema` and `mode` first, then `entries`.
pub fn doc<K: Into<String>>(
    schema: &str,
    mode: &str,
    entries: impl IntoIterator<Item = (K, JsonValue)>,
) -> JsonValue {
    let head = [("schema", schema), ("mode", mode)].map(|(k, v)| (k.into(), v.serialize_value()));
    obj(head
        .into_iter()
        .chain(entries.into_iter().map(|(k, v)| (k.into(), v))))
}

/// An object of measurements keyed by their labels, to one decimal place.
pub fn numbers<K: ToString>(points: &[(K, f64)]) -> JsonValue {
    obj(points.iter().map(|(k, v)| (k.to_string(), fixed(*v, 1))))
}

/// Throughput points keyed `"w{workers}_b{batch}"`, the shape the rt and
/// dist baseline gates read.
pub fn scaling(points: &[(usize, usize, f64)]) -> JsonValue {
    obj(points
        .iter()
        .map(|(w, b, v)| (format!("w{w}_b{b}"), fixed(*v, 1))))
}

/// `v` rounded to `decimals` places, so documents carry no more digits than
/// the measurement deserves.
pub fn fixed(v: f64, decimals: i32) -> JsonValue {
    let scale = 10f64.powi(decimals);
    JsonValue::F64((v * scale).round() / scale)
}

/// Renders a document as indented JSON text: one key per line, arrays and
/// scalars inline, a trailing newline.
pub fn render(doc: &JsonValue) -> String {
    fn write(v: &JsonValue, depth: usize, out: &mut String) {
        match v {
            JsonValue::Object(entries) if !entries.is_empty() => {
                out.push_str("{\n");
                for (i, (k, e)) in entries.iter().enumerate() {
                    out.push_str(&"  ".repeat(depth + 1));
                    out.push_str(&serde_json::to_string(k.as_str()).expect("key"));
                    out.push_str(": ");
                    write(e, depth + 1, out);
                    out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
                }
                out.push_str(&"  ".repeat(depth));
                out.push('}');
            }
            leaf => out.push_str(&serde_json::to_string(leaf).expect("leaf")),
        }
    }
    let mut out = String::with_capacity(1024);
    write(doc, 0, &mut out);
    out.push('\n');
    out
}

/// Path of `name` at the repository root.
fn repo_root_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name)
}

/// Writes `doc` to `name` at the repository root and prints where it went
/// (or why it could not).
pub fn write_at_repo_root(name: &str, doc: &JsonValue) {
    let path = repo_root_path(name);
    match std::fs::write(&path, render(doc)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write {name}: {e}"),
    }
}

// --- reader -------------------------------------------------------------

/// Reads and parses a JSON document.
pub fn read(path: impl AsRef<std::path::Path>) -> Result<JsonValue, String> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::parse(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

/// The value at `path` (one object key per step), if every step exists.
pub fn get<'a>(doc: &'a JsonValue, path: &[&str]) -> Option<&'a JsonValue> {
    path.iter().try_fold(doc, |v, key| {
        v.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    })
}

/// The number at `path`; `None` when a step is missing or the value is not
/// a finite number.
pub fn number(doc: &JsonValue, path: &[&str]) -> Option<f64> {
    get(doc, path)?.as_f64().filter(|v| v.is_finite())
}

/// Shared throughput gate: fails when the fresh document's value at `path`
/// is more than [`MAX_DROP`] below the baseline document's.
pub fn throughput_floor(
    gate: &str,
    fresh: &JsonValue,
    baseline: &JsonValue,
    path: &[&str],
) -> Result<(), String> {
    let key = path.join(".");
    let fresh =
        number(fresh, path).ok_or_else(|| format!("{gate} gate: fresh run has no {key}"))?;
    let base =
        number(baseline, path).ok_or_else(|| format!("{gate} gate: baseline has no {key}"))?;
    println!(
        "\n{gate} baseline check: {key} fresh {} vs baseline {} ({:+.1}%)",
        fmt_num(fresh),
        fmt_num(base),
        (fresh / base - 1.0) * 100.0
    );
    if fresh < base * (1.0 - MAX_DROP) {
        return Err(format!(
            "{gate} throughput regression: {key} {} is more than {:.0}% below the smoke \
             baseline {}",
            fmt_num(fresh),
            MAX_DROP * 100.0,
            fmt_num(base)
        ));
    }
    Ok(())
}

/// Human-readable magnitude: `1.5M`, `312.4k`, `2.10e9`.
pub fn fmt_num(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.2}e9", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.1}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.1}")
    }
}

// --- gate runner --------------------------------------------------------

/// One requested CI gate.
pub type Gate<'a> = Box<dyn FnOnce() -> Result<(), String> + 'a>;

/// Runs every gate in order, printing each failure as it happens, and
/// returns the failure messages; one failing gate never hides a later one.
pub fn run_gates(gates: Vec<Gate<'_>>) -> Vec<String> {
    let total = gates.len();
    let failures: Vec<String> = gates
        .into_iter()
        .filter_map(|gate| gate().err().inspect(|msg| eprintln!("{msg}")))
        .collect();
    if !failures.is_empty() {
        eprintln!("{} of {total} gates failed", failures.len());
    }
    failures
}

/// What a telemetry-overhead gate and its `--{rt,dist}-point` sample mode
/// measure: [`RT`] or [`DIST`].
pub struct Backend {
    name: &'static str,
    label: &'static str,
    gate_flag: &'static str,
    /// Seconds per gate sample in smoke mode (full mode samples 2 s).
    smoke_secs: f64,
    /// Key of this backend's section of `BENCH_telemetry.json`; `None`
    /// owns the top level.
    section: Option<&'static str>,
    /// Acked tuples/s of one `spout → relay ×W → sink ×W` run on this
    /// build, given `(workers, batch, secs)`.
    sample: fn(usize, usize, f64) -> f64,
}

/// The threaded runtime, in process.
pub const RT: Backend = Backend {
    name: "rt",
    label: "telemetry overhead",
    gate_flag: "--check-telemetry-overhead",
    smoke_secs: 1.0,
    section: None,
    sample: |workers, batch, secs| crate::micro::rt_pipeline(1, workers, batch, secs),
};

/// The multi-process runtime; a stripped binary spawns its own fleet.
pub const DIST: Backend = Backend {
    name: "dist",
    label: "dist telemetry overhead",
    gate_flag: "--check-dist-telemetry-overhead",
    smoke_secs: 0.6,
    section: Some("dist"),
    sample: crate::dist_bench::dist_throughput,
};

impl Backend {
    /// `--rt-point W B SECS REPS` / `--dist-point W B SECS REPS`: repeats one
    /// scaling point, printing each sample on a machine-readable
    /// `{rt,dist}_point_sample:` line — the stripped reference binary's side
    /// of [`check_telemetry_overhead`], and a quick A/B tool.
    pub fn point_mode(&self, args: &[String]) {
        let usage = format!("--{}-point W B SECS REPS", self.name);
        let n = |k: usize| -> f64 { args.get(k).and_then(|a| a.parse().ok()).expect(&usage) };
        let (w, b, secs, reps) = (n(0) as usize, n(1) as usize, n(2), n(3) as usize);
        println!(
            "{}-point w{w} b{b} {secs}s x{reps} (telemetry_compiled: {})",
            self.name,
            dsdps::telemetry::HOT_PATH_TELEMETRY
        );
        for r in 0..reps {
            let tput = (self.sample)(w, b, secs);
            println!("{}_point_sample: {tput:.1}", self.name);
            println!("  rep {r}: {:>12} acked tuples/s", fmt_num(tput));
        }
    }

    /// One `w1_b64` sample from the `strip-telemetry` reference binary `bin`,
    /// verifying it really was built without hot-path telemetry.
    fn stripped_sample(&self, bin: &str, secs: f64) -> Result<f64, String> {
        let out = std::process::Command::new(bin)
            .args([format!("--{}-point", self.name), "1".into(), "64".into()])
            .args([format!("{secs}"), "1".into()])
            .output()
            .map_err(|e| format!("cannot run stripped reference {bin}: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        if text.contains("telemetry_compiled: true") {
            return Err(format!(
                "{bin} was built WITH telemetry compiled in; rebuild it with --features \
                 strip-telemetry"
            ));
        }
        let line = format!("{}_point_sample:", self.name);
        text.lines()
            .find_map(|l| l.strip_prefix(&line)?.trim().parse().ok())
            .ok_or_else(|| format!("no {line} line in output of {bin}:\n{text}"))
    }
}

/// CI telemetry-overhead gate: with telemetry compiled in but *disabled*
/// (the default [`RtConfig`](dsdps::rt::RtConfig): sample rate 0, no metrics
/// address), `w1_b64` throughput must stay within [`TELEMETRY_TOLERANCE`]
/// of a `strip-telemetry` build's.
///
/// Samples of the stripped reference binary interleave with this build's,
/// pair by pair: the machine's ceiling drifts ±10 % over minutes and even
/// adjacent samples swing ±15 %, but a *real* hot-path cost depresses every
/// pair while noise flips sign between pairs.  The gate therefore fails
/// only when this build lost by more than the tolerance in **all** pairs
/// (<1 % likely under noise alone over six pairs).  The comparison goes
/// into `BENCH_telemetry.json` whatever the verdict; see [`merge_telemetry`].
pub fn check_telemetry_overhead(
    backend: &Backend,
    mode: &str,
    smoke: bool,
    stripped_bin: &str,
) -> Result<(), String> {
    let label = backend.label;
    if !dsdps::telemetry::HOT_PATH_TELEMETRY {
        return Err(format!(
            "{} must run on a build WITHOUT strip-telemetry (this build has the feature \
             enabled, so there is nothing to measure)",
            backend.gate_flag
        ));
    }
    let (reps, secs) = if smoke {
        (6, backend.smoke_secs)
    } else {
        (5, 2.0)
    };
    println!("\n{label} gate: {reps} interleaved w1_b64 pairs, {secs}s each");
    let (mut stripped, mut fresh) = (0.0f64, 0.0f64);
    let mut min_pair = f64::INFINITY;
    for r in 0..reps {
        let s = backend.stripped_sample(stripped_bin, secs)?;
        let f = (backend.sample)(1, 64, secs);
        let pair = (1.0 - f / s) * 100.0;
        println!(
            "  pair {r}: stripped {:>10}  instrumented-disabled {:>10} acked tuples/s \
             ({pair:+.1}%)",
            fmt_num(s),
            fmt_num(f)
        );
        stripped = stripped.max(s);
        fresh = fresh.max(f);
        min_pair = min_pair.min(pair);
    }
    let overhead = (1.0 - fresh / stripped) * 100.0;
    let tolerance = TELEMETRY_TOLERANCE * 100.0;
    println!(
        "{label} check: best w1_b64 instrumented-disabled {} vs stripped {} \
         ({overhead:+.1}% best-of, {min_pair:+.1}% min pair, tolerance {tolerance:.0}%)",
        fmt_num(fresh),
        fmt_num(stripped)
    );
    let tput = [
        ("w1_b64_stripped", stripped),
        ("w1_b64_instrumented_disabled", fresh),
    ];
    let section = vec![
        ("acked_tuples_per_s", numbers(&tput)),
        ("overhead_pct", fixed(overhead, 2)),
        ("min_pair_overhead_pct", fixed(min_pair, 2)),
        ("tolerance_pct", fixed(tolerance, 1)),
    ];
    let name = "BENCH_telemetry.json";
    let existing = read(repo_root_path(name)).ok();
    let merged = merge_telemetry(existing, backend.section, mode, section);
    write_at_repo_root(name, &merged);
    if min_pair > tolerance {
        return Err(format!(
            "{label} regression: disabled-telemetry throughput lost to the stripped build by \
             more than {tolerance:.0}% in every one of {reps} interleaved pairs (min pair \
             overhead {min_pair:+.1}%)"
        ));
    }
    Ok(())
}

/// Folds one backend's overhead `section` into the existing
/// `BENCH_telemetry.json` document (`None` or a non-object starts afresh):
/// under `key`, or, for `None`, as the new top level that keeps the
/// existing `dist` section.
fn merge_telemetry(
    existing: Option<JsonValue>,
    key: Option<&str>,
    mode: &str,
    section: Vec<(&str, JsonValue)>,
) -> JsonValue {
    let mut old = match existing {
        Some(JsonValue::Object(entries)) => entries,
        _ => Vec::new(),
    };
    let Some(key) = key else {
        let entries = section.into_iter().map(|(k, v)| (k.to_string(), v));
        let kept = old.into_iter().filter(|(k, _)| k == "dist");
        return doc("bench_telemetry/v1", mode, entries.chain(kept));
    };
    old.retain(|(k, _)| k != key);
    if !old.iter().any(|(k, _)| k == "schema") {
        old.insert(0, ("schema".into(), "bench_telemetry/v1".serialize_value()));
    }
    old.push((key.into(), obj(section)));
    JsonValue::Object(old)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Key paths (dot-separated) that a gate reads, or the docs quote, in
    /// each BENCH schema; every one must hold a finite positive number.
    const GATE_KEYS: &[(&str, &str)] = &[
        ("bench_kernels/v1", "rt_acked_tuples_per_s.1"),
        ("bench_kernels/v1", "rt_acked_tuples_per_s.64"),
        ("bench_rt/v1", "acked_tuples_per_s.w1_b64"),
        ("bench_dist/v1", "acked_tuples_per_s.w2_b64"),
        ("bench_dist/v1", "codec.b64.speedup"),
        ("bench_dist/v1", "recovery.acked"),
        ("bench_dist/v1", "recovery.expected"),
        ("bench_dist/v1", "recovery.restores"),
        ("bench_sim/v1", "points.w100_t1e7.processed_per_wall_s"),
        ("bench_sim/v1", "points.w100_t1e7.acked"),
        ("bench_sim/v1", "points.w100_t1e7.tuples"),
        ("bench_recovery/v1", "arms.exactly_once_effect.restore_ms"),
        (
            "bench_recovery/v1",
            "arms.exactly_once_effect.restored_count",
        ),
        ("bench_recovery/v1", "recompute.rebuild_ms"),
        ("bench_telemetry/v1", "acked_tuples_per_s.w1_b64_stripped"),
        (
            "bench_telemetry/v1",
            "acked_tuples_per_s.w1_b64_instrumented_disabled",
        ),
        ("bench_telemetry/v1", "tolerance_pct"),
    ];

    /// The gate key paths of `doc`'s schema.
    fn gate_keys(doc: &JsonValue) -> Vec<Vec<&'static str>> {
        let schema = get(doc, &["schema"]).and_then(JsonValue::as_str).unwrap();
        let keys: Vec<_> = GATE_KEYS
            .iter()
            .filter(|(s, _)| *s == schema)
            .map(|(_, key)| key.split('.').collect())
            .collect();
        assert!(!keys.is_empty(), "no gate keys listed for {schema}");
        keys
    }

    #[test]
    fn committed_bench_files_resolve_every_gate_key() {
        let root = repo_root_path("");
        let mut files: Vec<PathBuf> = std::fs::read_dir(&root)
            .unwrap()
            .chain(std::fs::read_dir(root.join("crates/bench/baselines")).unwrap())
            .map(|e| e.unwrap().path())
            .filter(|p| {
                let name = p.file_name().unwrap().to_string_lossy();
                name.starts_with("BENCH_") && name.ends_with(".json")
            })
            .collect();
        files.sort();
        assert!(files.len() >= 9, "six BENCH files and three baselines");
        for path in &files {
            let doc = read(path).unwrap();
            for key in gate_keys(&doc) {
                let v = number(&doc, &key);
                assert!(
                    v > Some(0.0),
                    "{}: {} = {v:?}",
                    path.display(),
                    key.join(".")
                );
            }
        }
    }

    /// Renders `doc`, reads it back, and checks every gate key of its schema
    /// against the document before rendering.
    pub(crate) fn assert_round_trips(doc: &JsonValue) {
        let back = serde_json::parse(&render(doc)).unwrap();
        assert_eq!(&back, doc);
        for key in gate_keys(doc) {
            let before = number(doc, &key);
            assert!(before > Some(0.0), "{} = {before:?}", key.join("."));
            assert_eq!(before, number(&back, &key), "{}", key.join("."));
        }
    }

    fn section(overhead: f64) -> Vec<(&'static str, JsonValue)> {
        let tput = [
            ("w1_b64_stripped", 1e6),
            ("w1_b64_instrumented_disabled", 0.99e6),
        ];
        vec![
            ("acked_tuples_per_s", numbers(&tput)),
            ("overhead_pct", fixed(overhead, 2)),
            ("min_pair_overhead_pct", fixed(-4.0, 2)),
            ("tolerance_pct", fixed(3.0, 1)),
        ]
    }

    #[test]
    fn telemetry_halves_merge_as_objects() {
        let rt = merge_telemetry(None, RT.section, "smoke", section(1.0));
        assert_round_trips(&rt);
        let merged = merge_telemetry(Some(rt), DIST.section, "smoke", section(2.0));
        assert_eq!(number(&merged, &["overhead_pct"]), Some(1.0));
        assert_eq!(number(&merged, &["dist", "overhead_pct"]), Some(2.0));

        // Re-merging replaces the dist section instead of stacking a second,
        // and rewriting the rt half keeps it, last.
        let merged = merge_telemetry(Some(merged), DIST.section, "smoke", section(3.0));
        let merged = merge_telemetry(Some(merged), RT.section, "full", section(4.0));
        assert_eq!(number(&merged, &["overhead_pct"]), Some(4.0));
        assert_eq!(number(&merged, &["dist", "overhead_pct"]), Some(3.0));
        let keys: Vec<_> = merged.as_object().unwrap().iter().map(|(k, _)| k).collect();
        assert_eq!(keys.iter().filter(|k| **k == "dist").count(), 1);
        assert_eq!(keys.last().unwrap().as_str(), "dist");

        // A missing or mangled document degrades to a fresh skeleton.
        for existing in [None, Some(JsonValue::Null), Some(obj::<&str>([]))] {
            let doc = merge_telemetry(existing, DIST.section, "smoke", section(2.0));
            let schema = get(&doc, &["schema"]).and_then(JsonValue::as_str);
            assert_eq!(schema, Some("bench_telemetry/v1"));
            assert_eq!(number(&doc, &["dist", "overhead_pct"]), Some(2.0));
        }
    }

    #[test]
    fn reader_walks_key_paths() {
        let s = "x".serialize_value();
        let d = obj([
            ("a", obj([("b", fixed(1.25, 2)), ("s", s)])),
            ("n", JsonValue::Null),
            ("i", 7u64.serialize_value()),
        ]);
        assert_eq!(number(&d, &["a", "b"]), Some(1.25));
        assert_eq!(number(&d, &["i"]), Some(7.0));
        assert_eq!(number(&d, &["a", "s"]), None, "strings are not numbers");
        assert_eq!(number(&d, &["n"]), None, "null is not a finite number");
        assert_eq!(number(&d, &["a", "missing"]), None);
        assert_eq!(number(&d, &["i", "deeper"]), None);
        assert_eq!(get(&d, &[]), Some(&d));
    }

    #[test]
    fn writer_rounds_and_indents() {
        assert_eq!(fixed(454_837.849, 1), JsonValue::F64(454_837.8));
        assert_eq!(fixed(12.534, 2), JsonValue::F64(12.53));
        let d = doc(
            "bench_x/v1",
            "smoke",
            [
                ("list", vec!["a".to_string(), "b".into()].serialize_value()),
                ("empty", obj::<&str>([])),
                ("nested", obj([("v", fixed(0.0004, 3))])),
            ],
        );
        assert_eq!(
            render(&d),
            "{\n  \"schema\": \"bench_x/v1\",\n  \"mode\": \"smoke\",\n  \
             \"list\": [\"a\",\"b\"],\n  \"empty\": {},\n  \"nested\": {\n    \
             \"v\": 0.0\n  }\n}\n"
        );
    }

    #[test]
    fn throughput_floor_allows_twenty_percent() {
        let d = |v: f64| obj([("t", obj([("w1_b64", fixed(v, 1))]))]);
        let path = ["t", "w1_b64"];
        assert!(throughput_floor("rt", &d(80.0), &d(100.0), &path).is_ok());
        let err = throughput_floor("rt", &d(79.0), &d(100.0), &path).unwrap_err();
        assert!(err.contains("rt throughput regression"), "{err}");
        let err = throughput_floor("rt", &obj::<&str>([]), &d(100.0), &path).unwrap_err();
        assert!(err.contains("fresh run has no t.w1_b64"), "{err}");
        let err = throughput_floor("rt", &d(100.0), &obj::<&str>([]), &path).unwrap_err();
        assert!(err.contains("baseline has no t.w1_b64"), "{err}");
    }

    #[test]
    fn gate_runner_reports_every_failure() {
        let ran = &std::cell::Cell::new(0);
        let gate = |fail: bool| -> Gate<'_> {
            Box::new(move || {
                ran.set(ran.get() + 1);
                if fail {
                    Err(format!("gate {} failed", ran.get()))
                } else {
                    Ok(())
                }
            })
        };
        let failures = run_gates(vec![gate(true), gate(false), gate(true)]);
        assert_eq!(ran.get(), 3, "a failing gate must not stop later gates");
        assert_eq!(failures, ["gate 1 failed", "gate 3 failed"]);
        assert!(run_gates(Vec::new()).is_empty());
    }
}
