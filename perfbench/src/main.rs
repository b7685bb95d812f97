//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <fig-cold|compile-mix|serve-pipelined|all>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload makes its inputs from `--seed`, measures for `--seconds`,
//! checks every output, and prints a table followed by one JSON result line
//! (the last line of stdout). `--trace 0` reports the end-to-end metrics;
//! `--trace 1` spends the first half of the time untraced and the second
//! half wrapping each layer call in a span, and reports the per-layer
//! metrics. Spans and the dp-obs registry snapshot of a traced run are
//! written under `.perfbench/trace/`. The exit code is non-zero when any
//! output was wrong. See `perfbench/README.md`.

mod compile_mix;
mod fig_cold;
mod report;
mod serve;
mod spans;

use report::{end_to_end, mean, Measured, Metric};
use spans::Tracer;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Worker budget of every workload: the benchmark is sized for two CPUs,
/// and pinning it keeps runs comparable across hosts.
pub const JOBS: usize = 2;
/// Set-ups timed before each pass of a batch workload; the first after a
/// pass runs with cold caches, the rest show the set-up work itself.
pub const SETUPS_PER_PASS: usize = 5;
/// The seed a run uses when none is given.
const DEFAULT_SEED: u64 = 42;
/// Where runs keep their scratch files and traces, under the working
/// directory.
const WORK_DIR: &str = ".perfbench";

const WORKLOADS: [&str; 3] = ["fig-cold", "compile-mix", "serve-pipelined"];

/// Every per-layer metric, in `BENCHMARK.json` order. A traced run prints
/// all of them; a layer its workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("vm.exec_s", "s"),
    ("vm.exec_share", "ratio"),
    ("vm.exec_s.BFS", "s"),
    ("vm.exec_s.BT", "s"),
    ("vm.exec_s.MSTF", "s"),
    ("vm.exec_s.MSTV", "s"),
    ("vm.exec_s.SP", "s"),
    ("vm.exec_s.SSSP", "s"),
    ("vm.exec_s.TC", "s"),
    ("vm.instr_per_s", "1/s"),
    ("vm.spec_blocks", "count"),
    ("vm.spec_conflict_blocks", "count"),
    ("vm.spec_useful_ratio", "ratio"),
    ("vm.instructions", "count"),
    ("vm.device_launches", "count"),
    ("pool.queue_wait_mean_us", "us"),
    ("pool.jobs_queued", "count"),
    ("pool.steals", "count"),
    ("pool.yields", "count"),
    ("sim.replay_ms", "ms"),
    ("sim.speedup_tca_over_cdp", "x"),
    ("sim.speedup_tca_over_nocdp", "x"),
    ("sim.speedup_tca_over_klap", "x"),
    ("workloads.dataset_ms", "ms"),
    ("sweep.cache_store_ms", "ms"),
    ("sweep.cell_p50_ms", "ms"),
    ("sweep.cell_p90_ms", "ms"),
    ("frontend.parse_us", "us"),
    ("frontend.print_us", "us"),
    ("transform.pipeline_us", "us"),
    ("transform.out_bytes", "bytes"),
    ("transform.declined_sites", "count"),
    ("vm.lower_us", "us"),
    ("vm.bytecode_ops", "count"),
    ("vm.fused_ops", "count"),
    ("serve.op_mean_us.execute", "us"),
    ("serve.op_mean_us.transform", "us"),
    ("serve.op_mean_us.sweep-cell", "us"),
    ("serve.overhead_mean_us", "us"),
    ("serve.overhead_share", "ratio"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.disk_cache_hit_ratio", "ratio"),
    ("serve.bytes_written_per_req", "bytes"),
    ("obs.trace_overhead_frac", "ratio"),
];

/// The measurement deadline of one run (or one half of a traced run).
pub struct Mode {
    deadline: Instant,
}

impl Mode {
    fn for_secs(seconds: f64) -> Mode {
        Mode {
            deadline: Instant::now() + Duration::from_secs_f64(seconds),
        }
    }

    pub fn expired(&self) -> bool {
        Instant::now() >= self.deadline
    }
}

/// SplitMix64: the benchmark's seeded generator.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn trace_dir() -> PathBuf {
    Path::new(WORK_DIR).join("trace")
}

/// Writes the spans under `root` (the last traced pass) to the trace
/// directory.
pub fn write_trace(tracer: &Tracer, root: u64, workload: &str) {
    let path = trace_dir().join(format!("{workload}.spans.jsonl"));
    if let Err(e) =
        std::fs::create_dir_all(trace_dir()).and_then(|()| tracer.write_tree(root, &path))
    {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

/// One workload's state across a run.
enum Workload {
    FigCold(fig_cold::FigCold),
    CompileMix(compile_mix::CompileMix),
    Serve(serve::ServePipelined),
}

impl Workload {
    fn setup(name: &str, seed: u64, m: &mut Measured) -> Workload {
        let work = Path::new(WORK_DIR).join(name);
        match name {
            "fig-cold" => Workload::FigCold(fig_cold::FigCold::setup(seed, &work)),
            "compile-mix" => Workload::CompileMix(compile_mix::CompileMix::setup(seed)),
            "serve-pipelined" => {
                std::fs::create_dir_all(&work).expect("create the serve work directory");
                Workload::Serve(serve::ServePipelined::setup(seed, &work, m))
            }
            other => unreachable!("workload `{other}` was validated"),
        }
    }

    /// Measures untraced until the deadline (at least one pass).
    fn measure(&mut self, mode: &Mode, m: &mut Measured) {
        loop {
            match self {
                Workload::FigCold(fig) => fig.pass(m),
                Workload::CompileMix(mix) => mix.pass(m),
                Workload::Serve(serve) => return serve.measure(mode, None, m),
            }
            if mode.expired() {
                return;
            }
        }
    }

    /// Measures traced until the deadline and returns the layers' metrics.
    fn trace(&mut self, tracer: &Tracer, mode: &Mode, m: &mut Measured) -> Vec<Metric> {
        match self {
            Workload::FigCold(fig) => fig_cold::trace_layers(fig, tracer, mode, m),
            Workload::CompileMix(mix) => mix.trace_layers(tracer, mode, m),
            Workload::Serve(serve) => serve.trace_layers(tracer, mode, m),
        }
    }

    fn finish(self, m: &mut Measured) {
        if let Workload::Serve(serve) = self {
            serve.finish(m);
        }
    }
}

/// Pool counters from the dp-obs registry and the shared pool's own
/// statistics, as differences between two points of the run.
fn pool_layers(before: &(dp_obs::metrics::Snapshot, dp_pool::pool::PoolStats)) -> Vec<Metric> {
    let after = dp_obs::metrics::snapshot();
    let stats = dp_pool::Pool::shared().stats();
    let wait = |s: &dp_obs::metrics::Snapshot| {
        s.histograms
            .get("pool.queue_wait_us")
            .map_or((0, 0), |h| (h.count, h.sum_us))
    };
    let (n0, sum0) = wait(&before.0);
    let (n1, sum1) = wait(&after);
    let jobs = (n1 - n0) as f64;
    vec![
        Metric::new(
            "pool.queue_wait_mean_us",
            if jobs > 0.0 {
                (sum1 - sum0) as f64 / jobs
            } else {
                0.0
            },
            "us",
        )
        .with_samples(jobs as usize),
        Metric::new("pool.jobs_queued", jobs, "count"),
        Metric::new(
            "pool.steals",
            (stats.steals - before.1.steals) as f64,
            "count",
        ),
        Metric::new(
            "pool.yields",
            (stats.yields - before.1.yields) as f64,
            "count",
        ),
    ]
}

/// Runs one workload and prints its report. Returns whether every output
/// was correct.
fn run(name: &str, seed: u64, seconds: f64, trace: bool) -> bool {
    let mut m = Measured::default();
    let mut workload = Workload::setup(name, seed, &mut m);
    let metrics = if trace {
        workload.measure(&Mode::for_secs(seconds / 2.0), &mut m);
        let untraced_wall = mean(&m.pass_s);
        // The registry has no off switch, so it is turned on only now,
        // after the untraced half.
        dp_obs::metrics::enable();
        let before = (dp_obs::metrics::snapshot(), dp_pool::Pool::shared().stats());
        let tracer = Tracer::new();
        let mut traced = Measured::default();
        let mut layers = workload.trace(&tracer, &Mode::for_secs(seconds / 2.0), &mut traced);
        layers.extend(pool_layers(&before));
        layers.push(Metric::new(
            "obs.trace_overhead_frac",
            mean(&traced.pass_s) / untraced_wall - 1.0,
            "ratio",
        ));
        let registry = trace_dir().join(format!("{name}.registry.json"));
        if let Err(e) = std::fs::write(&registry, dp_obs::metrics::snapshot().to_json_string()) {
            eprintln!("perfbench: cannot write {}: {e}", registry.display());
        }
        m.attempted += traced.attempted;
        m.failed += traced.failed;
        m.errors.extend(traced.errors);
        PER_LAYER
            .iter()
            .map(|&(metric, unit)| {
                layers
                    .iter()
                    .find(|l| l.name == metric)
                    .cloned()
                    .unwrap_or_else(|| Metric::new(metric, 0.0, unit))
            })
            .collect()
    } else {
        workload.measure(&Mode::for_secs(seconds), &mut m);
        end_to_end(&m)
    };
    workload.finish(&mut m);
    let _ = std::fs::remove_dir_all(Path::new(WORK_DIR).join(name));
    report::print(name, seed, trace, &m, &metrics);
    m.failed == 0
}

fn usage(problem: &str) -> ! {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut workload: Option<String> = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = value
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes an integer"))
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .unwrap_or_else(|| usage("--seconds takes a positive number"))
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let names: Vec<&str> = match workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        name if WORKLOADS.contains(&name) => vec![name],
        other => usage(&format!("unknown workload `{other}`")),
    };
    dp_pool::jobs::resolve_jobs(Some(JOBS));
    let mut correct = true;
    for name in names {
        correct &= run(name, seed, seconds, trace);
    }
    if !correct {
        std::process::exit(1);
    }
}
