//! What one run reports, and how it is printed.

use crate::Args;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value, where it is an order statistic.
    pub samples: Option<usize>,
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics of the final JSON line: end-to-end ones, or with
    /// `--trace 1` the per-layer ones.
    pub metrics: Vec<Metric>,
    /// Measurements only some workloads have (printed on the `detail`
    /// line, not part of the result line).
    pub detail: Vec<Metric>,
    /// Validity notes: open-loop generator behind, ledger incomplete, ….
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        self.detail.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    pub fn print(&self, args: &Args) {
        println!(
            "perfbench workload={} seed={} seconds={} trace={} host_parallelism={}",
            args.workload,
            args.seed,
            args.seconds,
            args.trace as u8,
            crate::host_parallelism()
        );
        println!(
            "correct={} attempted={} failed={}",
            self.correct, self.attempted, self.failed
        );
        for m in self.metrics.iter().chain(&self.detail) {
            let n = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
            println!("  {:<34} {:>16.6} {}{n}", m.name, m.value, m.unit);
        }
        for note in &self.notes {
            println!("  note: {note}");
        }
        let detail: Vec<String> = self
            .detail
            .iter()
            .map(|m| format!("\"{}\": {}", m.name, metric_json(m)))
            .collect();
        let notes: Vec<String> = self.notes.iter().map(|n| json_str(n)).collect();
        println!(
            "detail {{\"host_parallelism\": {}, \"metrics\": {{{}}}, \"notes\": [{}]}}",
            crate::host_parallelism(),
            detail.join(", "),
            notes.join(", ")
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| format!("\"{}\": {}", m.name, metric_json(m)))
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

fn metric_json(m: &Metric) -> String {
    format!(
        "{{\"value\": {}, \"unit\": {}}}",
        json_num(m.value),
        json_str(m.unit)
    )
}

/// A JSON number with all its digits (non-finite values become 0 and are
/// flagged in the notes by the caller's checks).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_keeps_every_digit_and_escapes_strings() {
        assert_eq!(json_num(1.2034567891234), "1.2034567891234");
        assert_eq!(json_num(3.0), "3.0");
        assert_eq!(json_num(f64::NAN), "0.0");
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
