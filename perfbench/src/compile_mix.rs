//! `compile-mix`: one thread calls `dp_core::Compiler::compile` on a seeded
//! stream of distinct programs.
//!
//! One pass compiles every distinct pair of the Fig. 9 and Fig. 11 grids
//! (each benchmark's No-CDP source, and its CDP source under every
//! threshold, coarsening factor and aggregation granularity the figures
//! use) in a seeded order. Every source text starts with a `#define` of a
//! seeded 18-digit constant that differs per compile, so a
//! content-addressed cache cannot turn the stream into hits. Passes differ
//! only in order and salts, so every seed does the same work. No VM runs.
//!
//! The traced pass calls the layers `Compiler::compile` is made of, each in
//! a span: `dp_frontend::parse`, `dp_transform::apply_pipeline`,
//! `dp_frontend::print_program` and `dp_vm::lower::compile_program_with`.

use crate::report::{median, Measured, Metric};
use crate::spans::{durations_us, Tracer};
use crate::{splitmix64, Mode, SETUPS_PER_PASS};
use dp_bench::figures::{bench_names, fig11_spec, fig9_spec};
use dp_bench::Harness;
use dp_core::{Compiler, OptConfig, TimingParams};
use dp_vm::lower::{compile_program_with, LowerOptions};
use dp_workloads::benchmarks::{all_benchmarks, Variant};
use std::collections::HashSet;
use std::time::Instant;

/// The salt is this many decimal digits, so every pass prints the same
/// number of bytes.
const SALT_MIN: u64 = 100_000_000_000_000_000;
const SALT_SPAN: u64 = 900_000_000_000_000_000;

/// One stream entry: the source text without its salt line, and the
/// configuration to compile it under.
struct Entry {
    source: &'static str,
    config: OptConfig,
}

/// What must repeat for an entry in every pass: the transformed source with
/// the salt masked, and each lowered function's length.
#[derive(Debug, Clone, PartialEq)]
struct Digest {
    transformed: u64,
    code_lens: Vec<usize>,
}

pub struct CompileMix {
    seed: u64,
    stream: Vec<Entry>,
    /// Each entry's digest from the first pass that compiled it.
    reference: Vec<Option<Digest>>,
    passes: u64,
}

/// Every distinct (source, configuration) pair of the Fig. 9 and Fig. 11
/// grids.
fn grid() -> Vec<Entry> {
    let harness = Harness {
        scale: 0.01,
        seed: 0,
        timing: TimingParams::default(),
    };
    let benches = all_benchmarks();
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for spec in [
        fig9_spec(&harness, &bench_names()),
        fig11_spec(&harness, &bench_names()),
    ] {
        for series in &spec.series {
            let bench = benches
                .iter()
                .find(|b| b.name() == series.benchmark)
                .expect("figure specs name registry benchmarks");
            for variant in &series.variants {
                let (source, config) = match variant.variant {
                    Variant::NoCdp => (bench.no_cdp_source(), OptConfig::none()),
                    Variant::Cdp(config) => (bench.cdp_source(), config),
                };
                if seen.insert(format!("{}|{:?}", bench.name(), variant.variant)) {
                    out.push(Entry { source, config });
                }
            }
        }
    }
    out
}

/// The grid in the seed's order.
fn stream(seed: u64) -> Vec<Entry> {
    let mut stream = grid();
    let mut state = seed;
    for i in (1..stream.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        stream.swap(i, j);
    }
    stream
}

fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

impl CompileMix {
    /// Each pass builds the stream itself, timed, so `setup_s` samples
    /// spread over the whole run.
    pub fn setup(seed: u64) -> CompileMix {
        CompileMix {
            seed,
            stream: Vec::new(),
            reference: Vec::new(),
            passes: 0,
        }
    }

    /// Sets the next pass up: builds the stream (each of several builds
    /// timed as set-up) and salts each source text.
    fn sources(&mut self, m: &mut Measured) -> Vec<(String, String)> {
        for _ in 0..SETUPS_PER_PASS {
            let started = Instant::now();
            self.stream = stream(self.seed);
            m.setup_s.push(started.elapsed().as_secs_f64());
        }
        self.reference.resize(self.stream.len(), None);
        self.passes += 1;
        let mut state = self.seed ^ self.passes.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.stream
            .iter()
            .map(|e| {
                let salt = (SALT_MIN + splitmix64(&mut state) % SALT_SPAN).to_string();
                (format!("#define PERFBENCH_SALT {salt}\n{}", e.source), salt)
            })
            .collect()
    }

    /// Checks one compile's output: the transformed source re-parses, and
    /// its digest equals the first pass's for the same entry.
    fn check(
        &mut self,
        i: usize,
        transformed: &str,
        salt: &str,
        code_lens: Vec<usize>,
        m: &mut Measured,
    ) {
        if let Err(e) = dp_frontend::parse(transformed) {
            m.fail(format!(
                "entry {i}: transformed source does not re-parse: {e}"
            ));
            return;
        }
        let digest = Digest {
            transformed: fnv1a(
                transformed.replace(salt, "SALT").as_bytes(),
                0xcbf2_9ce4_8422_2325,
            ),
            code_lens,
        };
        match &self.reference[i] {
            None => self.reference[i] = Some(digest),
            Some(first) if *first != digest => {
                m.fail(format!("entry {i}: output differs from the first pass's"))
            }
            Some(_) => {}
        }
    }

    /// One pass over the stream through `Compiler::compile`.
    pub fn pass(&mut self, m: &mut Measured) {
        let sources = self.sources(m);
        let started = Instant::now();
        let mut outputs = Vec::with_capacity(sources.len());
        for (entry, (source, _)) in self.stream.iter().zip(&sources) {
            let t = Instant::now();
            let result = Compiler::new().config(entry.config).compile(source);
            m.op_us.push(t.elapsed().as_secs_f64() * 1e6);
            outputs.push(result);
        }
        m.pass_s.push(started.elapsed().as_secs_f64());
        for (i, (result, (_, salt))) in outputs.into_iter().zip(&sources).enumerate() {
            m.attempted += 1;
            match result {
                Ok(compiled) => {
                    let lens = compiled
                        .module()
                        .functions
                        .iter()
                        .map(|f| f.code.len())
                        .collect();
                    self.check(i, compiled.transformed_source(), salt, lens, m);
                }
                Err(e) => m.fail(format!("entry {i}: compile failed: {e}")),
            }
        }
    }

    /// One pass calling the compiler's layers one by one, each in a span.
    /// Returns the pass's exact totals.
    fn traced_pass(&mut self, tracer: &Tracer, m: &mut Measured) -> (u64, [u64; 4]) {
        let sources = self.sources(m);
        let started = Instant::now();
        let root = tracer.span("compile.pass");
        let root_id = root.id();
        let mut outputs = Vec::with_capacity(sources.len());
        for (entry, (source, _)) in self.stream.iter().zip(&sources) {
            let t = Instant::now();
            let _compile = tracer.span("core.compile");
            let parsed = {
                let _span = tracer.span("frontend.parse");
                dp_frontend::parse(source)
            };
            let result = parsed.map_err(|e| e.to_string()).and_then(|mut program| {
                let manifest = {
                    let _span = tracer.span("transform.apply_pipeline");
                    dp_transform::apply_pipeline(&mut program, &entry.config)
                };
                let printed = {
                    let _span = tracer.span("frontend.print");
                    dp_frontend::print_program(&program)
                };
                let module = {
                    let _span = tracer.span("vm.lower");
                    compile_program_with(&program, LowerOptions::default())
                };
                module
                    .map(|module| (printed, manifest, module))
                    .map_err(|e| e.to_string())
            });
            drop(_compile);
            m.op_us.push(t.elapsed().as_secs_f64() * 1e6);
            outputs.push(result);
        }
        drop(root);
        m.pass_s.push(started.elapsed().as_secs_f64());
        // out bytes, declined sites, bytecode ops, fused ops
        let mut totals = [0u64; 4];
        for (i, (result, (_, salt))) in outputs.into_iter().zip(&sources).enumerate() {
            m.attempted += 1;
            match result {
                Ok((printed, manifest, module)) => {
                    totals[0] += printed.len() as u64;
                    totals[1] += manifest.diagnostics.len() as u64;
                    for f in &module.functions {
                        totals[2] += f.code.len() as u64;
                        totals[3] +=
                            f.code.iter().filter(|op| op.expansion().is_some()).count() as u64;
                    }
                    let lens = module.functions.iter().map(|f| f.code.len()).collect();
                    self.check(i, &printed, salt, lens, m);
                }
                Err(e) => m.fail(format!("entry {i}: compile failed: {e}")),
            }
        }
        (root_id, totals)
    }

    /// Runs traced passes until the deadline and reports the per-layer
    /// metrics.
    pub fn trace_layers(&mut self, tracer: &Tracer, mode: &Mode, m: &mut Measured) -> Vec<Metric> {
        let mut totals: Option<[u64; 4]> = None;
        let mut last_root = 0;
        while totals.is_none() || !mode.expired() {
            let (root, pass_totals) = self.traced_pass(tracer, m);
            if totals.is_some_and(|t| t != pass_totals) {
                m.fail("traced passes disagree on exact counts".to_string());
            }
            totals = Some(pass_totals);
            last_root = root;
        }
        let totals = totals.expect("at least one traced pass");
        let spans = tracer.spans();
        let per_compile = |name: &str| {
            let us = durations_us(&spans, name);
            (median(&us), us.len())
        };
        let (parse, n) = per_compile("frontend.parse");
        let (print, _) = per_compile("frontend.print");
        let (pipeline, _) = per_compile("transform.apply_pipeline");
        let (lower, _) = per_compile("vm.lower");
        crate::write_trace(tracer, last_root, "compile-mix");
        vec![
            Metric::new("frontend.parse_us", parse, "us").with_samples(n),
            Metric::new("frontend.print_us", print, "us").with_samples(n),
            Metric::new("transform.pipeline_us", pipeline, "us").with_samples(n),
            Metric::new("transform.out_bytes", totals[0] as f64, "bytes"),
            Metric::new("transform.declined_sites", totals[1] as f64, "count"),
            Metric::new("vm.lower_us", lower, "us").with_samples(n),
            Metric::new("vm.bytecode_ops", totals[2] as f64, "count"),
            Metric::new("vm.fused_ops", totals[3] as f64, "count"),
        ]
    }
}
