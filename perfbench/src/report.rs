//! Repetition control, per-repetition samples, output checks, and the
//! JSON record one benchmark process prints.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::json::Value;

use crate::stats::{self, median};

/// End-to-end metrics every workload reports, with their units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("time_to_estimate_s", "s"),
    ("exchanges_per_s", "1/s"),
    ("cpu_us_per_exchange", "us"),
    ("estimate_coverage", "ratio"),
    ("exchange_success_frac", "ratio"),
    ("bytes_per_node_round", "B"),
    ("peak_rss_mb", "MB"),
];

/// Set-ups per process, so that `setup_s` is a median even when a single
/// measured repetition fills the time budget. Every repetition's set-up is
/// timed, so the samples span the whole run, as the other metrics do; set-ups
/// timed back to back in one burst read the host's speed of that moment
/// only, and moved `setup_s` by up to 1.6× between runs.
const MIN_SETUPS: usize = 3;

/// FNV-1a over 64-bit words: a bit-exact digest of a run's outputs.
pub struct Fingerprint(u64);

impl Fingerprint {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn mix(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Accuracy a simulator workload must keep, so that no speed-up can
/// pass by degrading its output. Each ceiling is twice the largest value
/// seen over seeds 101–110, rounded up to one significant digit.
pub struct Ceilings {
    pub err_a: f64,
    /// On fault-free runs only; under churn N̂ trails the live count.
    pub n_hat_rel_err: Option<f64>,
}

impl Ceilings {
    /// Checks every repetition's Err_a and N̂ error against the ceilings.
    pub fn check(&self, report: &mut Report, err_a: &[f64], n_hat_rel_err: &[f64]) {
        let worst = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
        report.check(
            "err_a_within_ceiling",
            worst(err_a) <= self.err_a,
            format!("worst {:.4e} vs ceiling {:.1e}", worst(err_a), self.err_a),
        );
        if let Some(ceiling) = self.n_hat_rel_err {
            report.check(
                "n_hat_rel_err_within_ceiling",
                worst(n_hat_rel_err) <= ceiling,
                format!(
                    "worst {:.4e} vs ceiling {ceiling:.1e}",
                    worst(n_hat_rel_err)
                ),
            );
        }
    }
}

/// Median and tail (percentile, value) of `values`; the tail falls back
/// to the maximum when fewer than ten samples lie beyond the median.
pub fn p50_and_tail(values: &[f64]) -> (f64, (f64, f64)) {
    let p50 = median(values).unwrap_or(0.0);
    let tail = stats::tail(values).unwrap_or((100.0, stats::quantile(values, 1.0).unwrap_or(0.0)));
    (p50, tail)
}

/// Drives the repetitions of one workload within its time budget and
/// collects their samples.
pub struct Run {
    workload: &'static str,
    budget_s: f64,
    started: Instant,
    setups: usize,
    measured: usize,
    peak_rss_mb: Option<f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    setup_layers: BTreeMap<&'static str, Vec<f64>>,
    fingerprints: Vec<u64>,
}

impl Run {
    pub fn new(workload: &'static str, budget_s: f64) -> Self {
        Self {
            workload,
            budget_s,
            started: Instant::now(),
            setups: 0,
            measured: 0,
            peak_rss_mb: None,
            samples: BTreeMap::new(),
            setup_layers: BTreeMap::new(),
            fingerprints: Vec::new(),
        }
    }

    fn in_budget(&self) -> bool {
        self.measured == 0 || self.started.elapsed().as_secs_f64() < self.budget_s
    }

    /// Whether to set up again: while the budget lasts, and until enough
    /// set-ups were timed.
    pub fn wants_rep(&self) -> bool {
        self.in_budget() || self.setups < MIN_SETUPS
    }

    /// Whether the set-up just made should also be measured.
    pub fn wants_measure(&mut self) -> bool {
        let yes = self.in_budget();
        if yes {
            self.measured += 1;
        }
        yes
    }

    /// Marks the end of a measured repetition. Peak RSS is read after the
    /// first one: later repetitions reallocate the same state, and where
    /// the allocator places it again varies from run to run.
    pub fn rep_done(&mut self) {
        if self.peak_rss_mb.is_none() {
            self.peak_rss_mb = Some(stats::peak_rss_bytes() as f64 / 1e6);
        }
    }

    /// Records one set-up; `parts` are its layer components, in seconds.
    pub fn setup_done(&mut self, parts: &[(&'static str, f64)]) {
        self.setups += 1;
        let total: f64 = parts.iter().map(|(_, s)| s).sum();
        self.sample("setup_s", total);
        for (name, s) in parts {
            self.setup_layers.entry(name).or_default().push(*s);
        }
    }

    pub fn sample(&mut self, metric: &'static str, value: f64) {
        self.samples.entry(metric).or_default().push(value);
    }

    pub fn fingerprint(&mut self, fp: u64) {
        self.fingerprints.push(fp);
    }

    pub fn finish(self, attempted: u64, failed: u64) -> Report {
        let mut report = Report {
            workload: self.workload,
            attempted,
            failed,
            fingerprints: self.fingerprints,
            samples: self.samples,
            layers: Vec::new(),
            notes: Vec::new(),
            checks: Vec::new(),
        };
        let rss = self
            .peak_rss_mb
            .unwrap_or_else(|| stats::peak_rss_bytes() as f64 / 1e6);
        report.samples.insert("peak_rss_mb", vec![rss]);
        for (name, values) in &self.setup_layers {
            report.layer(name, "s", median(values).unwrap_or(0.0));
        }
        if report.fingerprints.len() > 1 {
            let first = report.fingerprints[0];
            let same = report.fingerprints.iter().all(|&f| f == first);
            report.check(
                "fingerprint_repeats",
                same,
                format!("{} repetitions of one seed", report.fingerprints.len()),
            );
        }
        report
    }
}

/// Everything one benchmark process measured.
pub struct Report {
    workload: &'static str,
    attempted: u64,
    failed: u64,
    fingerprints: Vec<u64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    layers: Vec<(String, &'static str, f64)>,
    notes: Vec<(String, f64)>,
    checks: Vec<(String, bool, String)>,
}

impl Report {
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push((name.to_string(), ok, detail));
    }

    pub fn layer(&mut self, name: &str, unit: &'static str, value: f64) {
        self.layers.push((name.to_string(), unit, value));
    }

    /// A supporting number printed with the run but not a metric.
    pub fn note(&mut self, name: &str, value: f64) {
        self.notes.push((name.to_string(), value));
    }

    pub fn to_json(&self, manifest: Value) -> String {
        let num = Value::Number;
        let mut e2e = Vec::new();
        for (name, unit) in END_TO_END {
            let raw = self.samples.get(name).cloned().unwrap_or_default();
            let mut fields = vec![("unit".to_string(), Value::String(unit.into()))];
            if let Some(m) = median(&raw) {
                fields.push(("value".into(), num(m)));
                fields.push(("min".into(), num(stats::quantile(&raw, 0.0).unwrap_or(m))));
                fields.push(("median".into(), num(m)));
                fields.push(("max".into(), num(stats::quantile(&raw, 1.0).unwrap_or(m))));
            }
            fields.push((
                "raw".into(),
                Value::Array(raw.into_iter().map(num).collect()),
            ));
            e2e.push((name.to_string(), Value::Object(fields)));
        }
        let layers = self
            .layers
            .iter()
            .map(|(name, unit, v)| {
                (
                    name.clone(),
                    Value::Object(vec![
                        ("value".into(), num(*v)),
                        ("unit".into(), Value::String((*unit).into())),
                    ]),
                )
            })
            .collect();
        let notes = self
            .notes
            .iter()
            .map(|(name, v)| (name.clone(), num(*v)))
            .collect();
        let checks = self
            .checks
            .iter()
            .map(|(name, ok, detail)| {
                Value::Object(vec![
                    ("name".into(), Value::String(name.clone())),
                    ("ok".into(), Value::Bool(*ok)),
                    ("detail".into(), Value::String(detail.clone())),
                ])
            })
            .collect();
        Value::Object(vec![
            ("workload".into(), Value::String(self.workload.into())),
            ("manifest".into(), manifest),
            ("attempted".into(), Value::Uint(self.attempted)),
            ("failed".into(), Value::Uint(self.failed)),
            (
                "fingerprints".into(),
                Value::Array(
                    self.fingerprints
                        .iter()
                        .map(|f| Value::String(format!("{f:016x}")))
                        .collect(),
                ),
            ),
            ("checks".into(), Value::Array(checks)),
            ("end_to_end".into(), Value::Object(e2e)),
            ("per_layer".into(), Value::Object(layers)),
            ("notes".into(), Value::Object(notes)),
        ])
        .to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_setup_is_timed_and_an_exhausted_budget_tops_up_to_three() {
        let mut run = Run::new("test", 0.0);
        let mut measured = Vec::new();
        while run.wants_rep() {
            run.setup_done(&[("part", 0.25)]);
            measured.push(run.wants_measure());
        }
        // The one measured repetition an exhausted budget still allows,
        // then set-ups alone until three were timed.
        assert_eq!(measured, [true, false, false]);
        assert_eq!(run.samples["setup_s"], [0.25, 0.25, 0.25]);
        assert_eq!(run.setup_layers["part"].len(), 3);
    }
}
