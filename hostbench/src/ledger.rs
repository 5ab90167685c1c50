//! Command-line arguments, sample statistics and the metric printout.

use std::time::Duration;

/// The arguments every run takes.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed of the machine and of the workload's content.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Print the fingerprint rows instead of measuring.
    pub fingerprint: bool,
}

impl Args {
    /// Parses `--workload W [--seed N] [--seconds S] [--fingerprint]`.
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut fingerprint = false;
        let mut it = argv.into_iter();
        while let Some(a) = it.next() {
            let mut value = || it.next().ok_or(format!("{a} needs a value"));
            match a.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                    seconds = Some(s);
                }
                "--fingerprint" => fingerprint = true,
                other => return Err(format!("unexpected argument {other:?}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(crate::DEFAULT_SEED),
            seconds: seconds.unwrap_or(10.0),
            fingerprint,
        })
    }

    /// The measuring time as a duration.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Median of `xs` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The nearest-rank 10th percentile of `xs`: the run time the host
/// delivers when co-tenants leave it alone. On a shared host, interference
/// adds 10–50% to runs in bursts, which moves a median from run to run;
/// it cannot make a run faster than its work. 0 when empty.
pub fn fastest_tenth(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[(xs.len() as f64 * 0.1).ceil().max(1.0) as usize - 1]
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value was taken over (1 for an exact count).
    pub samples: usize,
}

/// The metrics of one run, printed as a table on stderr and as the
/// one-line JSON result on stdout.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Metrics in insertion order.
    pub metrics: Vec<Metric>,
}

impl Ledger {
    /// Adds a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// The human-readable table.
    pub fn table(&self) -> String {
        let mut s = format!(
            "{:<26} {:>16} {:<12} {:>7}\n",
            "metric", "value", "unit", "samples"
        );
        for m in &self.metrics {
            s.push_str(&format!(
                "{:<26} {:>16.6} {:<12} {:>7}\n",
                m.name, m.value, m.unit, m.samples
            ));
        }
        s
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    /// A value that is not finite is written as `null`, which the result
    /// reader refuses, rather than as invalid JSON.
    pub fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() {
                    format!("{}", m.value)
                } else {
                    "null".into()
                };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}
