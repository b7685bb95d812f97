//! What one run reports: named metrics with units, sample statistics taken
//! from the benchmark's own samples, and the one-line JSON result a run
//! ends with.

use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value summarizes, when it is a statistic.
    pub samples: Option<usize>,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            samples: None,
        }
    }

    pub fn with_samples(mut self, n: usize) -> Metric {
        self.samples = Some(n);
        self
    }
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Seconds per repetition of the workload's set-up.
    pub setup_s: Vec<f64>,
    /// Seconds per pass over the workload's fixed batch of operations.
    pub pass_s: Vec<f64>,
    /// Latency of each completed operation, in microseconds.
    pub op_us: Vec<f64>,
    /// Operations attempted and operations that failed or mismatched.
    pub attempted: u64,
    pub failed: u64,
    /// Failure descriptions, printed to stderr (first few only).
    pub errors: Vec<String>,
}

impl Measured {
    /// Records one failed operation with its reason.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(reason);
        }
    }
}

/// The median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Nearest-rank quantile of `xs` (0 for an empty slice): the smallest
/// sample with at least `q` of all samples at or below it.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The process's peak resident set size in MiB.
#[cfg(target_os = "linux")]
pub fn peak_rss_mb() -> f64 {
    // `struct rusage` on 64-bit Linux: two `struct timeval`s (two longs
    // each) followed by fourteen longs, the first of which is `ru_maxrss`
    // in KiB.
    #[repr(C)]
    struct Rusage([i64; 18]);
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage([0; 18]);
    // SAFETY: `usage` is a live, writable buffer of exactly the size and
    // alignment of `struct rusage` on this target, and `RUSAGE_SELF` is a
    // valid `who`; getrusage writes only inside the buffer.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage.0[4] as f64 / 1024.0
}

#[cfg(not(target_os = "linux"))]
pub fn peak_rss_mb() -> f64 {
    0.0
}

/// Operations per latency batch: the fewest that give a p99 with ten
/// samples beyond it.
const LATENCY_BATCH: usize = 1000;

/// The mean of `xs` (0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// The `q`-quantile of operation latency: the mean over consecutive batches
/// of `LATENCY_BATCH` operations of each batch's quantile. A burst of
/// interference from outside the program moves one batch, which moves the
/// result by its share of the batches. A run with fewer operations than
/// one batch takes the quantile of all of them.
fn latency_quantile(op_us: &[f64], q: f64) -> f64 {
    if op_us.len() < LATENCY_BATCH {
        return quantile(op_us, q);
    }
    let per_batch: Vec<f64> = op_us
        .chunks_exact(LATENCY_BATCH)
        .map(|batch| quantile(batch, q))
        .collect();
    mean(&per_batch)
}

/// The end-to-end metrics of an untraced run, in `BENCHMARK.json` order.
///
/// Pass times and batch latencies are averaged, not their medians taken:
/// on a shared host the machine's speed swings by a quarter over a few
/// seconds, and an average follows the share of slow time smoothly where a
/// median jumps between the fast and the slow speed.
pub fn end_to_end(m: &Measured) -> Vec<Metric> {
    let ok = m.attempted.saturating_sub(m.failed) as f64 / m.attempted.max(1) as f64;
    let ops = m.op_us.len();
    vec![
        Metric::new("setup_s", median(&m.setup_s), "s").with_samples(m.setup_s.len()),
        Metric::new("ok_frac", ok, "ratio").with_samples(m.attempted as usize),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"),
        Metric::new("wall_s", mean(&m.pass_s), "s").with_samples(m.pass_s.len()),
        Metric::new("op_p50_us", latency_quantile(&m.op_us, 0.50), "us").with_samples(ops),
        Metric::new("op_p99_us", latency_quantile(&m.op_us, 0.99), "us").with_samples(ops),
    ]
}

/// Prints the human-readable table and then, as the last line of stdout,
/// the result object.
pub fn print(workload: &str, seed: u64, trace: bool, m: &Measured, metrics: &[Metric]) {
    println!(
        "# perfbench workload={workload} seed={seed} trace={} cpus={}",
        u8::from(trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!(
        "{:<36} {:>18} {:<8} {:>9}",
        "metric", "value", "unit", "samples"
    );
    for metric in metrics {
        let samples = metric.samples.map_or(String::new(), |n| n.to_string());
        println!(
            "{:<36} {:>18.6} {:<8} {:>9}",
            metric.name, metric.value, metric.unit, samples
        );
    }
    for error in &m.errors {
        eprintln!("perfbench: {workload}: {error}");
    }
    let mut line = String::new();
    let _ = write!(
        line,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        m.failed == 0,
        m.attempted,
        m.failed
    );
    for (i, metric) in metrics.iter().enumerate() {
        let value = if metric.value.is_finite() {
            metric.value
        } else {
            0.0
        };
        let _ = write!(
            line,
            "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            if i > 0 { ", " } else { "" },
            metric.name,
            value,
            metric.unit
        );
    }
    line.push_str("}}");
    println!("{line}");
}
