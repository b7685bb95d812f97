//! `fig-cold`: the full Fig. 9 reproduction, cold, as a researcher runs it.
//!
//! One pass is `dp_sweep::run_sweep` over `dp_bench::figures::fig9_spec`
//! (7 benchmarks x 2 Table-I datasets x 9 variants = 126 cells) on 2
//! workers, with the result cache on and pointed at a fresh empty
//! directory, so every cell executes and is stored. VM execution is nearly
//! all of a pass; compile time is a few milliseconds of it.
//!
//! The traced pass drives the same 126 cells itself on `Pool::shared()` at
//! the same worker count, calling each layer's public function inside a
//! span: `DatasetId::instantiate`, `Compiler::compile`, `Benchmark::run`,
//! `RunReport::simulate` and `dp_sweep::cache::store`.

use crate::report::{median, quantile, Measured, Metric};
use crate::spans::{durations_us, per_root_sum_s, Tracer};
use crate::{Mode, JOBS, SETUPS_PER_PASS};
use dp_bench::figures::{bench_names, fig9_spec};
use dp_bench::{geomean, Harness};
use dp_core::{Compiler, SharedCompiled, TimingParams};
use dp_sweep::{CellSummary, DatasetSpec, SweepOptions, SweepSpec};
use dp_workloads::benchmarks::{all_benchmarks, Benchmark, Variant};
use dp_workloads::BenchInput;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Dataset scale: small enough for several cold passes in one run, large
/// enough that VM execution, not fixed cost, dominates a pass.
pub const SCALE: f64 = 0.002;
/// The exact outcome of one cell, which must repeat across passes and
/// between the engine's pass and the traced pass.
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    instructions: u64,
    device_launches: u64,
    total_us_bits: u64,
}

impl Fingerprint {
    fn of(cell: &CellSummary) -> Fingerprint {
        Fingerprint {
            instructions: cell.instructions,
            device_launches: cell.device_launches,
            total_us_bits: cell.total_us.to_bits(),
        }
    }
}

/// State carried from pass to pass.
pub struct FigCold {
    seed: u64,
    spec: SweepSpec,
    /// Each cell's cache key, by series and variant.
    keys: Vec<Vec<u64>>,
    work: PathBuf,
    reference: Option<Vec<Vec<Fingerprint>>>,
    passes: usize,
}

/// Waits (up to a few seconds) for the shared pool's workers to park. A
/// sweep sizes its helpers from the pool's idle workers, so a pass that
/// started while a worker was still coming up (or still leaving the last
/// pass's job) would run its generation on one thread.
fn wait_for_idle_pool() {
    let pool = dp_pool::Pool::shared();
    let started = Instant::now();
    while pool.available_workers() < pool.threads() && started.elapsed().as_secs() < 5 {
        std::thread::yield_now();
    }
}

/// The set-up of one pass: the Fig. 9 spec and its cell keys.
fn build(seed: u64) -> (SweepSpec, Vec<Vec<u64>>) {
    let harness = Harness {
        scale: SCALE,
        seed,
        timing: TimingParams::default(),
    };
    let spec = fig9_spec(&harness, &bench_names());
    let cells = dp_sweep::enumerate_cells(&spec).expect("fig9 names known benchmarks");
    assert_eq!(cells.len(), 126, "Fig. 9 is 7 x 2 x 9 cells");
    let mut keys: Vec<Vec<u64>> = spec.series.iter().map(|_| Vec::new()).collect();
    for cell in cells {
        keys[cell.series_idx].push(cell.key);
    }
    (spec, keys)
}

impl FigCold {
    /// Clears the work directory. Each pass sets itself up, timed, so
    /// `setup_s` samples spread over the whole run.
    pub fn setup(seed: u64, work: &Path) -> FigCold {
        let _ = std::fs::remove_dir_all(work);
        std::fs::create_dir_all(work).expect("create the fig-cold work directory");
        FigCold {
            seed,
            spec: SweepSpec { series: Vec::new() },
            keys: Vec::new(),
            work: work.to_path_buf(),
            reference: None,
            passes: 0,
        }
    }

    /// Waits for the pool, builds the pass's spec `SETUPS_PER_PASS` times,
    /// each timed as set-up, and names a fresh cache directory.
    fn start_pass(&mut self, m: &mut Measured) -> PathBuf {
        wait_for_idle_pool();
        for _ in 0..SETUPS_PER_PASS {
            let started = Instant::now();
            (self.spec, self.keys) = build(self.seed);
            m.setup_s.push(started.elapsed().as_secs_f64());
        }
        self.fresh_cache_dir()
    }

    fn fresh_cache_dir(&mut self) -> PathBuf {
        self.passes += 1;
        let dir = self.work.join(format!("cache-{}", self.passes));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Checks one pass's cells: every cell verified against its series'
    /// No-CDP output, exact results equal to the first pass's, and every
    /// cell stored in the cache.
    fn check(&mut self, series: &[Vec<CellSummary>], dir: &Path, m: &mut Measured) {
        let prints: Vec<Vec<Fingerprint>> = series
            .iter()
            .map(|cells| cells.iter().map(Fingerprint::of).collect())
            .collect();
        let reference = self.reference.get_or_insert_with(|| prints.clone());
        for (s, cells) in series.iter().enumerate() {
            let name = format!(
                "{}/{}",
                self.spec.series[s].benchmark,
                self.spec.series[s].dataset.name()
            );
            for (c, cell) in cells.iter().enumerate() {
                m.attempted += 1;
                if !cell.verified {
                    m.fail(format!(
                        "{name} [{}]: output differs from No CDP",
                        cell.label
                    ));
                } else if prints[s][c] != reference[s][c] {
                    m.fail(format!(
                        "{name} [{}]: {:?} differs from the first pass's {:?}",
                        cell.label, prints[s][c], reference[s][c]
                    ));
                }
            }
        }
        let stored = dp_sweep::cache::list_keys(dir).map_or(0, |keys| keys.len());
        if stored != self.spec.cell_count() {
            m.fail(format!(
                "cache holds {stored} of {} cells",
                self.spec.cell_count()
            ));
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    /// One cold pass through the sweep engine.
    pub fn pass(&mut self, m: &mut Measured) {
        let dir = self.start_pass(m);
        let opts = SweepOptions {
            jobs: JOBS,
            cache: true,
            cache_dir: Some(dir.clone()),
            quiet: true,
        };
        let started = Instant::now();
        let result = dp_sweep::run_sweep(&self.spec, &opts);
        let wall = started.elapsed().as_secs_f64();
        m.pass_s.push(wall);
        m.op_us.push(wall * 1e6);
        if result.cache.hits != 0 {
            m.fail(format!(
                "{} cells came from the cache of a cold pass",
                result.cache.hits
            ));
        }
        let cells: Vec<Vec<CellSummary>> = result.series.into_iter().map(|s| s.cells).collect();
        self.check(&cells, &dir, m);
    }

    /// One cold pass driven cell by cell, each layer call in a span.
    pub fn traced_pass(&mut self, tracer: &Tracer, m: &mut Measured) -> TracedPass {
        let dir = self.start_pass(m);
        let started = Instant::now();
        let root = tracer.span("fig.pass");
        let root_id = root.id();
        let outcome = drive_cells(&self.spec, &self.keys, &dir, tracer);
        drop(root);
        let wall = started.elapsed().as_secs_f64();
        m.pass_s.push(wall);
        m.op_us.push(wall * 1e6);
        let mut series = Vec::new();
        for (s, cells) in outcome.cells.into_iter().enumerate() {
            let mut done = Vec::new();
            for (c, cell) in cells.into_iter().enumerate() {
                match cell {
                    Ok(cell) => done.push(cell),
                    Err(e) => {
                        m.attempted += self.spec.cell_count() as u64;
                        m.fail(format!("{} cell {c}: {e}", self.spec.series[s].benchmark));
                        let _ = std::fs::remove_dir_all(&dir);
                        return TracedPass::default();
                    }
                }
            }
            // Verify against the series' first variant, as the engine's
            // merge does.
            let reference = done[0].output();
            for cell in &mut done {
                cell.verified = cell.output().approx_eq(&reference, 1e-6);
            }
            series.push(done);
        }
        self.check(&series, &dir, m);
        TracedPass {
            root: root_id,
            instructions: series.iter().flatten().map(|c| c.instructions).sum(),
            device_launches: series.iter().flatten().map(|c| c.device_launches).sum(),
            speedups: speedups(&self.spec, &series),
            spec_blocks: outcome.spec_blocks,
            conflict_blocks: outcome.conflict_blocks,
        }
    }
}

/// What one traced pass yields for the per-layer report.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct TracedPass {
    root: u64,
    instructions: u64,
    device_launches: u64,
    speedups: [u64; 3],
    spec_blocks: u64,
    conflict_blocks: u64,
}

/// Geomean speedups of CDP+T+C+A over CDP, No CDP and KLAP across the
/// series, as exact bit patterns.
fn speedups(spec: &SweepSpec, series: &[Vec<CellSummary>]) -> [u64; 3] {
    let mut ratios = [Vec::new(), Vec::new(), Vec::new()];
    for (s, cells) in series.iter().enumerate() {
        let time = |label: &str| {
            let i = spec.series[s]
                .variants
                .iter()
                .position(|v| v.label == label)
                .unwrap_or_else(|| panic!("Fig. 9 has a `{label}` variant"));
            cells[i].total_us
        };
        let tca = time("CDP+T+C+A");
        for (k, base) in ["CDP", "No CDP", "KLAP (CDP+A)"].iter().enumerate() {
            ratios[k].push(time(base) / tca);
        }
    }
    ratios.map(|r| geomean(&r).to_bits())
}

struct Driven {
    cells: Vec<Vec<Result<CellSummary, String>>>,
    spec_blocks: u64,
    conflict_blocks: u64,
}

/// Runs `work` on the calling thread plus up to `JOBS - 1` idle shared-pool
/// workers, as the sweep engine schedules its generations.
fn on_pool(items: usize, work: &(dyn Fn() + Sync)) {
    let pool = dp_pool::Pool::shared();
    pool.scope(|scope| {
        let helpers = pool
            .available_workers()
            .min(JOBS - 1)
            .min(items.saturating_sub(1));
        for _ in 0..helpers {
            scope.spawn_as(dp_pool::JobClass::Bulk, work);
        }
        work();
    });
}

fn drive_cells(spec: &SweepSpec, keys: &[Vec<u64>], dir: &Path, tracer: &Tracer) -> Driven {
    let registry: HashMap<&str, Box<dyn Benchmark>> = all_benchmarks()
        .into_iter()
        .map(|b| (b.name(), b))
        .collect();
    let root = tracer.current();

    // Each distinct dataset once, as the engine materializes them.
    let mut distinct: Vec<&DatasetSpec> = Vec::new();
    let mut slot_of: HashMap<String, usize> = HashMap::new();
    let dataset_of: Vec<usize> = spec
        .series
        .iter()
        .map(|s| {
            *slot_of
                .entry(dp_sweep::key::canonical_dataset(&s.dataset))
                .or_insert_with(|| {
                    distinct.push(&s.dataset);
                    distinct.len() - 1
                })
        })
        .collect();
    let inputs: Vec<Mutex<Option<Arc<BenchInput>>>> =
        distinct.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    on_pool(distinct.len(), &|| {
        let _ctx = tracer.enter(root);
        loop {
            dp_pool::checkpoint();
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(dataset) = distinct.get(i) else {
                return;
            };
            let DatasetSpec::Table { id, scale, seed } = dataset else {
                unreachable!("Fig. 9 uses Table-I datasets")
            };
            let input = {
                let _span = tracer.span("workloads.instantiate");
                id.instantiate(*scale, *seed)
            };
            *inputs[i].lock().expect("dataset slot") = Some(Arc::new(input));
        }
    });
    let inputs: Vec<Arc<BenchInput>> = inputs
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("dataset slot")
                .expect("dataset instantiated")
        })
        .collect();

    let order: Vec<(usize, usize)> = spec
        .series
        .iter()
        .enumerate()
        .flat_map(|(s, series)| (0..series.variants.len()).map(move |c| (s, c)))
        .collect();
    let results: Vec<Mutex<Option<Result<CellSummary, String>>>> =
        order.iter().map(|_| Mutex::new(None)).collect();
    let compiled: Mutex<HashMap<String, SharedCompiled>> = Mutex::new(HashMap::new());
    let spec_blocks = AtomicU64::new(0);
    let conflict_blocks = AtomicU64::new(0);
    let next = AtomicUsize::new(0);
    on_pool(order.len(), &|| {
        let _ctx = tracer.enter(root);
        loop {
            dp_pool::checkpoint();
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(&(s, c)) = order.get(i) else { return };
            let series = &spec.series[s];
            let vspec = &series.variants[c];
            let bench = registry[series.benchmark.as_str()].as_ref();
            let _cell = tracer.span_with("sweep.cell", bench.name());
            let (source, config) = match vspec.variant {
                Variant::NoCdp => (bench.no_cdp_source(), dp_core::OptConfig::none()),
                Variant::Cdp(config) => (bench.cdp_source(), config),
            };
            let program = {
                let mut cache = compiled.lock().expect("compile cache");
                let key = format!("{}|{:?}", bench.name(), vspec.variant);
                match cache.get(&key) {
                    Some(p) => Ok(Arc::clone(p)),
                    None => {
                        let _span = tracer.span("core.compile");
                        Compiler::new()
                            .config(config)
                            .cost_model(series.cost.clone())
                            .compile(source)
                            .map(|p| Arc::clone(cache.entry(key).or_insert(p.into_shared())))
                    }
                }
            };
            let result = program.map_err(|e| e.to_string()).and_then(|program| {
                let input = &inputs[dataset_of[s]];
                let mut exec = program.executor();
                let output = {
                    let _span = tracer.span_with("vm.run", bench.name());
                    bench.run(&mut exec, input).map_err(|e| e.to_string())?
                };
                let parallel = exec.machine_mut().parallel_stats();
                spec_blocks.fetch_add(parallel.speculated_blocks, Ordering::Relaxed);
                conflict_blocks.fetch_add(parallel.conflict_blocks, Ordering::Relaxed);
                let report = exec.finish();
                let sim = {
                    let _span = tracer.span("sim.simulate");
                    report.simulate(&series.timing)
                };
                let summary = {
                    let _span = tracer.span("sweep.summarize");
                    dp_sweep::summarize_run(&vspec.label, output, &report, &series.timing)
                };
                if summary.total_us.to_bits() != sim.total_us.to_bits() {
                    return Err("summary and replay disagree on simulated time".to_string());
                }
                let _span = tracer.span("sweep.cache_store");
                match dp_sweep::cache::store(dir, keys[s][c], &summary) {
                    dp_sweep::cache::StoreOutcome::Stored => Ok(summary),
                    other => Err(format!("cache store: {other:?}")),
                }
            });
            *results[i].lock().expect("result slot") = Some(result);
        }
    });

    let mut cells: Vec<Vec<Result<CellSummary, String>>> =
        spec.series.iter().map(|_| Vec::new()).collect();
    for (&(s, _), slot) in order.iter().zip(results) {
        cells[s].push(slot.into_inner().expect("result slot").expect("cell ran"));
    }
    Driven {
        cells,
        spec_blocks: spec_blocks.into_inner(),
        conflict_blocks: conflict_blocks.into_inner(),
    }
}

/// Runs traced passes until `deadline` and reports the per-layer metrics.
pub fn trace_layers(
    fig: &mut FigCold,
    tracer: &Tracer,
    mode: &Mode,
    m: &mut Measured,
) -> Vec<Metric> {
    let mut passes: Vec<TracedPass> = Vec::new();
    while passes.is_empty() || !mode.expired() {
        let pass = fig.traced_pass(tracer, m);
        if let Some(first) = passes.first() {
            let exact = |p: &TracedPass| (p.instructions, p.device_launches, p.speedups);
            if exact(first) != exact(&pass) {
                m.fail("traced passes disagree on exact counts".to_string());
            }
        }
        passes.push(pass);
    }
    let spans = tracer.spans();
    let roots: Vec<u64> = passes.iter().map(|p| p.root).collect();
    let sum = |name: &str, attr: Option<&str>| median(&per_root_sum_s(&spans, &roots, name, attr));
    let first = passes[0].clone();
    let exec_s = sum("vm.run", None);
    let layers_s: f64 = [
        "workloads.instantiate",
        "core.compile",
        "vm.run",
        "sim.simulate",
        "sweep.summarize",
        "sweep.cache_store",
    ]
    .iter()
    .map(|name| sum(name, None))
    .sum();
    let spec_blocks = median(
        &passes
            .iter()
            .map(|p| p.spec_blocks as f64)
            .collect::<Vec<_>>(),
    );
    let conflicts = median(
        &passes
            .iter()
            .map(|p| p.conflict_blocks as f64)
            .collect::<Vec<_>>(),
    );
    let cells_ms: Vec<f64> = durations_us(&spans, "sweep.cell")
        .iter()
        .map(|us| us / 1e3)
        .collect();
    let n = passes.len();
    let mut out = vec![
        Metric::new("vm.exec_s", exec_s, "s").with_samples(n),
        Metric::new("vm.exec_share", exec_s / layers_s, "ratio").with_samples(n),
    ];
    for bench in bench_names() {
        out.push(
            Metric::new(
                format!("vm.exec_s.{bench}"),
                sum("vm.run", Some(bench)),
                "s",
            )
            .with_samples(n),
        );
    }
    out.extend([
        Metric::new("vm.instr_per_s", first.instructions as f64 / exec_s, "1/s").with_samples(n),
        Metric::new("vm.spec_blocks", spec_blocks, "count").with_samples(n),
        Metric::new("vm.spec_conflict_blocks", conflicts, "count").with_samples(n),
        Metric::new(
            "vm.spec_useful_ratio",
            if spec_blocks > 0.0 {
                (spec_blocks - conflicts) / spec_blocks
            } else {
                0.0
            },
            "ratio",
        ),
        Metric::new("vm.instructions", first.instructions as f64, "count"),
        Metric::new("vm.device_launches", first.device_launches as f64, "count"),
        Metric::new("sim.replay_ms", sum("sim.simulate", None) * 1e3, "ms").with_samples(n),
        Metric::new(
            "sim.speedup_tca_over_cdp",
            f64::from_bits(first.speedups[0]),
            "x",
        ),
        Metric::new(
            "sim.speedup_tca_over_nocdp",
            f64::from_bits(first.speedups[1]),
            "x",
        ),
        Metric::new(
            "sim.speedup_tca_over_klap",
            f64::from_bits(first.speedups[2]),
            "x",
        ),
        Metric::new(
            "workloads.dataset_ms",
            sum("workloads.instantiate", None) * 1e3,
            "ms",
        )
        .with_samples(n),
        Metric::new(
            "sweep.cache_store_ms",
            sum("sweep.cache_store", None) * 1e3,
            "ms",
        )
        .with_samples(n),
        Metric::new("sweep.cell_p50_ms", quantile(&cells_ms, 0.50), "ms")
            .with_samples(cells_ms.len()),
        Metric::new("sweep.cell_p90_ms", quantile(&cells_ms, 0.90), "ms")
            .with_samples(cells_ms.len()),
    ]);
    if let Some(last) = passes.last() {
        crate::write_trace(tracer, last.root, "fig-cold");
    }
    out
}
