//! Sample statistics and the result lines the benchmark prints.

use std::fmt::Write as _;

/// Median of `samples` (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_unstable_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Mean of `samples` (0 for none).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Mean of whole-number samples (0 for none).
pub fn mean_u64(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<u64>() as f64 / samples.len() as f64
    }
}

/// The highest nearest-rank percentile that still has at least
/// [`TAIL_BEYOND`] samples above it: `(value, percentile)`.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let mut s = samples.to_vec();
    s.sort_unstable_by(f64::total_cmp);
    if s.is_empty() {
        return (0.0, 0.0);
    }
    let rank = s.len().saturating_sub(TAIL_BEYOND).max(1);
    (s[rank - 1], 100.0 * rank as f64 / s.len() as f64)
}

/// Samples the tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Every end-to-end metric of an untraced run.
pub fn end_to_end(
    m: &mut Metrics,
    setup_s: &[f64],
    setup_io: u64,
    lat_ms: &[f64],
    io: &[u64],
    wall_s: f64,
    rss_mb: f64,
) {
    m.put("setup_s", median(setup_s), "s");
    m.put("setup_io_blocks", setup_io as f64, "blocks");
    m.put("queries_per_s", lat_ms.len() as f64 / wall_s, "1/s");
    m.put("query_p50_ms", median(lat_ms), "ms");
    m.put("query_tail_ms", tail(lat_ms).0, "ms");
    m.put("io_blocks_per_query", mean_u64(io), "blocks");
    m.put("peak_rss_mb", rss_mb, "MB");
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Ordered `name → metric` list that renders as a JSON object.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.retain(|m| m.name != name);
        self.0.push(Metric { name, value, unit });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            );
        }
        out.push('}');
        out
    }
}

/// A JSON number; non-finite values (never expected) render as 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Key/value pairs rendered as a flat JSON object (values pre-rendered).
#[derive(Debug, Default)]
pub struct Record(Vec<(String, String)>);

impl Record {
    pub fn num(&mut self, key: &str, v: f64) -> &mut Self {
        self.0.push((key.to_string(), num(v)));
        self
    }

    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.0.push((key.to_string(), string(v)));
        self
    }

    pub fn raw(&mut self, key: &str, json: String) -> &mut Self {
        self.0.push((key.to_string(), json));
        self
    }

    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}: {v}", string(k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// What one workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations (queries and writes) attempted.
    pub attempted: u64,
    /// Errors, wrong answers and shed or refused operations.
    pub failed: u64,
    /// Failed answer or accounting checks that are not single operations
    /// (for example a traced decomposition whose I/O does not reconcile).
    pub check_failures: Vec<String>,
    pub metrics: Metrics,
    /// Run facts printed on the provenance line.
    pub provenance: Record,
    /// Exact counts that must repeat between two runs of one seed.
    pub exact: Record,
}

impl Outcome {
    pub fn fail(&mut self, what: String) {
        eprintln!("check failed: {what}");
        self.check_failures.push(what);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check_failures.is_empty()
    }

    /// The last line of standard output.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            self.metrics.json()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&s), (90.0, 90.0));
        let s: Vec<f64> = (1..=33).map(f64::from).collect();
        let (v, p) = tail(&s);
        assert_eq!(v, 23.0);
        assert!((p - 100.0 * 23.0 / 33.0).abs() < 1e-12);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
