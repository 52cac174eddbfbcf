//! The run's report: metric values with units and their base counts, the
//! output checks, and the one-line JSON result the last stdout line
//! carries.

use crate::stats;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count or base counts, printed beside the value.
    pub basis: String,
}

/// Everything a workload run produces.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Operations attempted and failed (designs, cells or requests).
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks, one line each.
    pub problems: Vec<String>,
    /// Free-form lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, basis: impl Into<String>) {
        debug_assert!(value.is_finite(), "{name} is not finite");
        self.metrics.push(Metric {
            name: name.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            basis: basis.into(),
        });
    }

    /// A ratio together with its base counts.
    pub fn put_ratio(&mut self, name: &str, part: u64, whole: u64, what: &str) {
        self.put(
            name,
            stats::ratio(part, whole),
            "ratio",
            format!("{part} of {whole} {what}"),
        );
    }

    /// Median and tail percentile of timing samples; the tail is named
    /// by `p95_name` and must be p95 with ten samples beyond it.
    pub fn put_latency(&mut self, p50_name: &str, p95_name: &str, samples_ms: &[f64]) {
        let sorted = stats::sorted(samples_ms);
        let n = sorted.len();
        let (p50, _) = stats::percentile(&sorted, 50.0).unwrap_or((0.0, 0));
        let (p95, beyond) = stats::percentile(&sorted, 95.0).unwrap_or((0.0, 0));
        let tail = match stats::tail_percentile(&sorted) {
            Some((p, v, b)) => {
                format!("highest tail with >=10 beyond: p{p} = {v:.4} ms ({b} beyond)")
            }
            None => "fewer than 20 samples".to_string(),
        };
        self.put(p50_name, p50, "ms", format!("n={n}"));
        self.put(
            p95_name,
            p95,
            "ms",
            format!("n={n}, {beyond} beyond; {tail}"),
        );
        if beyond < stats::MIN_BEYOND {
            self.problem(format!(
                "{p95_name}: only {beyond} of {n} samples beyond p95 (need {})",
                stats::MIN_BEYOND
            ));
        }
    }

    /// `setup_s`: the median of a run's set-ups.
    pub fn put_setup(&mut self, samples_s: &[f64], what: &str) {
        let v = stats::sorted(samples_s);
        let each: Vec<String> = v.iter().map(|s| format!("{s:.4}")).collect();
        self.put(
            "setup_s",
            stats::median(&v),
            "s",
            format!(
                "median of {} set-ups ({} s): {what}",
                v.len(),
                each.join(" ")
            ),
        );
    }

    /// Tracing overhead: traced operation time over the same kind of
    /// operation untraced, minus one, in percent.
    pub fn put_overhead(&mut self, traced_s: f64, plain_s: f64, what: &str) {
        let pct = if plain_s > 0.0 {
            (traced_s / plain_s - 1.0) * 100.0
        } else {
            0.0
        };
        self.put(
            "trace.overhead_pct",
            pct,
            "%",
            format!("{traced_s:.4} s traced vs {plain_s:.4} s untraced: {what}"),
        );
    }

    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Keeps exactly the metrics listed in `keep`, in that order, adding
    /// a zero for any the workload does not exercise. A metric reported
    /// with another unit than listed, or listed in neither `keep` nor
    /// `other`, is a failed check.
    pub fn select(&mut self, keep: &[(&str, &'static str)], other: &[(&str, &'static str)]) {
        let mut out = Vec::with_capacity(keep.len());
        for &(name, unit) in keep {
            match self.metrics.iter().position(|m| m.name == name) {
                Some(i) => {
                    let m = self.metrics.swap_remove(i);
                    if m.unit != unit {
                        self.problem(format!(
                            "{name} reported in {} but listed in {unit}",
                            m.unit
                        ));
                    }
                    out.push(m);
                }
                None => out.push(Metric {
                    name: name.to_string(),
                    value: 0.0,
                    unit,
                    basis: "not exercised by this workload".to_string(),
                }),
            }
        }
        let unlisted: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| !other.iter().any(|(n, _)| *n == m.name))
            .map(|m| m.name.clone())
            .collect();
        for name in unlisted {
            self.problem(format!("{name} is not a listed metric"));
        }
        self.metrics = out;
    }

    /// The result object of the benchmark contract.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Human-readable lines: notes, each metric with unit and basis, and
    /// every failed check.
    pub fn lines(&self) -> Vec<String> {
        let mut out = self.notes.clone();
        for m in &self.metrics {
            out.push(format!(
                "{:<28} {:>14.6} {:<6} {}",
                m.name, m.value, m.unit, m.basis
            ));
        }
        out.push(format!(
            "operations: {} attempted, {} failed",
            self.attempted, self.failed
        ));
        for p in &self.problems {
            out.push(format!("CHECK FAILED: {p}"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_orders_and_fills_missing_metrics() {
        let mut r = Report::default();
        r.put("b", 2.0, "s", "n=1");
        r.put("a", 1.5, "ms", "n=2");
        r.put("d", 1.0, "s", "n=1");
        r.select(&[("a", "ms"), ("b", "s"), ("c", "count")], &[("d", "s")]);
        assert!(r.correct());
        let names: Vec<_> = r.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
        assert_eq!(r.metrics[2].value, 0.0);
        assert_eq!(
            r.result_json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 2, \"unit\": \"s\"}, \"c\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
        // A unit mismatch and an unlisted metric are failed checks.
        let mut r = Report::default();
        r.put("a", 1.0, "ms", "n=1");
        r.put("e", 1.0, "ms", "n=1");
        r.select(&[("a", "s")], &[]);
        assert_eq!(r.problems.len(), 2, "{:?}", r.problems);
    }
}
