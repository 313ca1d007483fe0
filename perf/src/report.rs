//! Metric tables, summary statistics and the result line.

use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("model_cpu_ms.p50", "ms"),
    ("model_cpu_ms.p90", "ms"),
    ("err_truth.digits", "digits"),
    ("err_fit.digits", "digits"),
    ("stable_pole_share", "ratio"),
    ("success_rate", "ratio"),
    ("heap_peak_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). A layer
/// the workload never calls reports 0 and is listed under
/// `not_exercised` in the run's context line.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.build_ms", "ms"),
    ("loewner.build_ms", "ms"),
    ("realify.ms", "ms"),
    ("svd.detect_ms", "ms"),
    ("realize.stacked_ms", "ms"),
    ("svd.accumulate_ms", "ms"),
    ("mfti.fit_ms", "ms"),
    ("mfti.unattributed_ms", "ms"),
    ("mfti.span_coverage", "ratio"),
    ("descriptor.sweep_ms", "ms"),
    ("descriptor.sweep_warm_ms", "ms"),
    ("descriptor.poles_ms", "ms"),
    ("descriptor.rhp_poles", "count"),
    ("session.append_ms", "ms"),
    ("session.realize_ms", "ms"),
    ("session.append_flatness", "ratio"),
    ("fit.K", "count"),
    ("fit.order", "count"),
    ("fit.dense", "ratio"),
    ("fit.svd_fallbacks", "count"),
    ("session.retained_share", "ratio"),
    ("session.refreshes", "count"),
    ("session.quarantines", "count"),
    ("session.reanchor.shadow", "count"),
    ("session.reanchor.fresh", "count"),
    ("session.reanchor.gk", "count"),
    ("session.peak_K", "count"),
    ("session.evicted_pairs", "count"),
    ("kernel.gemm_gflops", "GFLOP/s"),
    ("svd.detect_gflops", "GFLOP/s"),
    ("realize.stacked_gflops", "GFLOP/s"),
    ("svd.detect_peak_share", "ratio"),
    ("realize.stacked_peak_share", "ratio"),
    ("error_rate", "ratio"),
];

/// What one measured run produced.
#[derive(Debug, Default)]
pub struct Run {
    /// Operations attempted.
    pub attempted: usize,
    /// Operations that returned a typed error.
    pub failed: usize,
    /// Output checks that did not hold; any entry fails the run.
    pub failures: Vec<String>,
    pub end_to_end: Vec<(&'static str, f64)>,
    pub per_layer: Vec<(&'static str, f64)>,
    /// Figures for the context line: the paper's ERR behind the
    /// `*.digits` metrics and the wall-clock latencies.
    pub context: Vec<(&'static str, f64)>,
}

impl Run {
    /// Records a failed check.
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.failures.push(what());
        }
    }

    /// Successful operations over attempted ones.
    pub fn success_rate(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }

    /// Failed operations over attempted ones.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted as f64
    }
}

/// Cost of the successful operations of a run: wall-clock latency as
/// measured, CPU time rescaled to the reference host's speed (see
/// `host::Calibration`), and the heap high-water mark.
#[derive(Debug, Default)]
pub struct OpCosts {
    ms: Vec<f64>,
    cpu_ms: Vec<f64>,
    heap_mb: Vec<f64>,
}

impl OpCosts {
    pub fn push(&mut self, ms: f64, cpu_ms: f64, probe_ms: f64, heap_mb: f64) {
        self.ms.push(ms);
        self.cpu_ms
            .push(cpu_ms * crate::host::REFERENCE_PROBE_MS / probe_ms);
        self.heap_mb.push(heap_mb);
    }

    /// The end-to-end cost metrics.
    pub fn end_to_end(&self) -> [(&'static str, f64); 3] {
        [
            ("model_cpu_ms.p50", median(&self.cpu_ms)),
            ("model_cpu_ms.p90", percentile(&self.cpu_ms, 0.9)),
            ("heap_peak_mb", median(&self.heap_mb)),
        ]
    }

    /// The absolute latencies, for the context line.
    pub fn context(&self) -> [(&'static str, f64); 2] {
        [
            ("model_ms.p50", median(&self.ms)),
            ("model_ms.p90", percentile(&self.ms, 0.9)),
        ]
    }
}

/// Values being collected against one of the tables above.
#[derive(Debug)]
pub struct Metrics {
    table: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
}

impl Metrics {
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        Metrics {
            table,
            values: vec![None; table.len()],
        }
    }

    /// Records `name`; a name outside the table is an error, so a typo
    /// cannot silently report 0.
    pub fn set(&mut self, name: &str, value: f64) -> Result<(), String> {
        let i = self
            .table
            .iter()
            .position(|(n, _)| *n == name)
            .ok_or_else(|| format!("metric `{name}` is not declared"))?;
        self.values[i] = Some(value);
        Ok(())
    }

    /// Every metric of the table with its unit. Unset metrics are an
    /// error unless `fill_unset`, which reports them as 0 and returns
    /// their names.
    pub fn finish(self, fill_unset: bool) -> Result<(String, Vec<&'static str>), String> {
        let mut unset = Vec::new();
        let mut body = String::from("{");
        for (i, ((name, unit), value)) in self.table.iter().zip(&self.values).enumerate() {
            let v = match value {
                Some(v) => *v,
                None if fill_unset => {
                    unset.push(*name);
                    0.0
                }
                None => return Err(format!("metric `{name}` was not measured")),
            };
            if !v.is_finite() {
                return Err(format!("metric `{name}` is not finite ({v})"));
            }
            if i > 0 {
                body.push_str(", ");
            }
            let _ = write!(
                body,
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        body.push('}');
        Ok((body, unset))
    }
}

/// The result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(attempted: usize, failed: usize, metrics_json: &str) -> String {
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {metrics_json}}}"
    )
}

/// Median (mean of the two middle values for even lengths); NaN for an
/// empty slice, which the finiteness check then refuses.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile `p ∈ (0, 1]`; NaN for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Arithmetic mean; NaN for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// FNV-1a over 64-bit words: a digest for "this repeat produced the
/// same bits as the first".
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    pub fn floats(&mut self, xs: impl IntoIterator<Item = f64>) {
        for x in xs {
            self.word(x.to_bits());
        }
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}
