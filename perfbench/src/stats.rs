//! Order statistics, the Prometheus text scrape parser, and the latency
//! ledger's arithmetic.

/// Quantile `q ∈ [0, 1]` of ascending `sorted` data, interpolating
/// linearly between the two closest ranks.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// Mean of the values at or below their p99: a per-call cost without the
/// rare calls a preemption landed in.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let s = sorted(values);
    let cut = quantile(&s, 0.99);
    let kept: Vec<f64> = s.into_iter().filter(|&v| v <= cut).collect();
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Percentiles a tail is reported at, highest first.
const TAILS: [f64; 4] = [99.99, 99.9, 99.0, 90.0];

/// The highest percentile with at least ten samples beyond it, out of
/// `n` samples; `None` below 100 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAILS
        .iter()
        .copied()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
}

/// A latency distribution as reported: median, p99, and the highest
/// percentile the sample count supports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    pub n: usize,
    pub p50: f64,
    /// NaN when fewer than 1000 samples support it.
    pub p99: f64,
    pub tail_p: f64,
    pub tail: f64,
}

impl Dist {
    pub fn of(values: &[f64]) -> Dist {
        let s = sorted(values);
        let n = s.len();
        let tail_p = tail_percentile(n).unwrap_or(50.0);
        Dist {
            n,
            p50: quantile(&s, 0.5),
            p99: if tail_percentile(n).is_some_and(|p| p >= 99.0) {
                quantile(&s, 0.99)
            } else {
                f64::NAN
            },
            tail_p,
            tail: quantile(&s, tail_p / 100.0),
        }
    }
}

/// One sample line of the Prometheus text exposition format.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

impl Sample {
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Parses Prometheus text exposition.  Comment and malformed lines are
/// skipped; label values are unescaped.
pub fn parse_prometheus(text: &str) -> Vec<Sample> {
    text.lines().filter_map(parse_sample).collect()
}

fn parse_sample(line: &str) -> Option<Sample> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return None;
    }
    let name_end = line.find(['{', ' '])?;
    let name = line[..name_end].to_string();
    let mut rest = &line[name_end..];
    let mut labels = Vec::new();
    if let Some(body) = rest.strip_prefix('{') {
        let mut chars = body.char_indices();
        let mut key = String::new();
        let close = loop {
            let (i, c) = chars.next()?;
            match c {
                '}' => break i,
                ',' | ' ' => {}
                '=' => {
                    if chars.next()?.1 != '"' {
                        return None;
                    }
                    let mut value = String::new();
                    loop {
                        match chars.next()?.1 {
                            '"' => break,
                            '\\' => match chars.next()?.1 {
                                'n' => value.push('\n'),
                                other => value.push(other),
                            },
                            other => value.push(other),
                        }
                    }
                    labels.push((std::mem::take(&mut key), value));
                }
                c => key.push(c),
            }
        };
        rest = &body[close + 1..];
    }
    let value = rest.split_whitespace().next()?.parse().ok()?;
    Some(Sample {
        name,
        labels,
        value,
    })
}

/// Sum of every sample of family `name`.
pub fn family_sum(samples: &[Sample], name: &str) -> f64 {
    samples
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.value)
        .sum()
}

/// The latency ledger of one run: the median of each measured segment of
/// a tuple's path against the median end-to-end latency.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    pub total_p50_us: f64,
    pub segments: Vec<(&'static str, f64)>,
    /// `100 · (total − Σ segments) / total`.
    pub unattributed_pct: f64,
    /// Whether `|unattributed_pct|` is within the stated bound.
    pub complete: bool,
}

impl Ledger {
    pub fn new(total_p50_us: f64, segments: Vec<(&'static str, f64)>, bound_pct: f64) -> Self {
        let sum: f64 = segments.iter().map(|(_, v)| v).sum();
        let unattributed_pct = 100.0 * (total_p50_us - sum) / total_p50_us;
        Ledger {
            total_p50_us,
            segments,
            unattributed_pct,
            complete: unattributed_pct.abs() <= bound_pct,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.1), 1.4);
        assert!(quantile(&[], 0.5).is_nan());
        assert_eq!(median(&[3.0, f64::NAN, 1.0, 2.0]), 2.0);
        let mut costs = vec![10.0; 99];
        costs.push(1e6);
        assert_eq!(trimmed_mean(&costs), 10.0);
        assert!(trimmed_mean(&[]).is_nan());
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert_eq!(tail_percentile(10_000_000), Some(99.99));
        let d = Dist::of(&(0..2000).map(f64::from).collect::<Vec<_>>());
        assert_eq!((d.n, d.tail_p), (2000, 99.0));
        assert_eq!(d.p99, d.tail);
        assert!(Dist::of(&[1.0; 500]).p99.is_nan());
    }

    #[test]
    fn prometheus_text_parses_with_labels_and_escapes() {
        let text = "# TYPE dsdps_task_capacity gauge\n\
            dsdps_task_capacity{component=\"parse\",task=\"1\"} 0.25\n\
            dsdps_task_capacity{component=\"count\",task=\"3\"} 0.5\n\
            dsdps_acked_total 1200\n\
            odd{path=\"a\\\"b\\\\c\"} 3 1700000000\n\
            broken{x=\"1\" \n\
            \n";
        let s = parse_prometheus(text);
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].name, "dsdps_task_capacity");
        assert_eq!(s[0].label("component"), Some("parse"));
        assert_eq!(s[0].label("task"), Some("1"));
        assert_eq!(s[0].value, 0.25);
        assert_eq!(s[2].labels, vec![]);
        assert_eq!(s[2].value, 1200.0);
        assert_eq!(s[3].label("path"), Some("a\"b\\c"));
        assert_eq!(family_sum(&s, "dsdps_task_capacity"), 0.75);
        assert_eq!(family_sum(&s, "missing"), 0.0);
    }

    #[test]
    fn ledger_residual_is_what_the_segments_leave_unexplained() {
        let l = Ledger::new(1000.0, vec![("a", 300.0), ("b", 600.0)], 20.0);
        assert!((l.unattributed_pct - 10.0).abs() < 1e-12);
        assert!(l.complete);
        let over = Ledger::new(1000.0, vec![("a", 1300.0)], 20.0);
        assert!((over.unattributed_pct + 30.0).abs() < 1e-12);
        assert!(!over.complete);
        let under = Ledger::new(1000.0, vec![("a", 100.0)], 20.0);
        assert!(!under.complete);
    }
}
