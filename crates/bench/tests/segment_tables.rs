//! The threaded dispatcher charges accounting once per straight-line
//! segment (see `dp_vm::machine`'s module docs). This suite walks every
//! Fig. 9 program — each benchmark's No-CDP source and its CDP source
//! under every Fig. 9 variant — twice:
//!
//! - it checks each pc's segment in the dispatch tables against the
//!   bytecode: it never runs past a control-flow op or an origin change,
//!   it ends at one of those or at the end of the function, its suffix
//!   sums are the ops' own widths and cycles, and it leaves the table
//!   where the bytecode says (an elided trailing `Jump` at its target);
//! - it runs each program on a tiny input fused and unfused, under both
//!   dispatchers, and requires identical statistics, traces and memory.

use dp_bench::{fig9_variants, tuned_for};
use dp_core::{Compiler, DispatchMode, Executor, RunReport};
use dp_vm::bytecode::{CostModel, Instr, Module};
use dp_vm::machine::{ExecLimits, Machine};
use dp_vm::Value;
use dp_workloads::benchmarks::{all_benchmarks, BenchInput, Benchmark, Variant};
use dp_workloads::datasets::bezier::bezier_lines;
use dp_workloads::datasets::graphs::rmat;
use dp_workloads::datasets::ksat::random_ksat;

/// Every Fig. 9 program of `bench`: its label, source, and the compiler
/// that builds it.
fn fig9_programs(bench: &dyn Benchmark) -> Vec<(String, &'static str, Compiler)> {
    fig9_variants(tuned_for(bench.name()))
        .into_iter()
        .map(|(label, variant)| {
            let (source, compiler) = match variant {
                Variant::NoCdp => (bench.no_cdp_source(), Compiler::new()),
                Variant::Cdp(config) => (bench.cdp_source(), Compiler::new().config(config)),
            };
            (format!("{} {label}", bench.name()), source, compiler)
        })
        .collect()
}

/// Ops that change pc or the frame, yield the thread, or read its cycle
/// count — each must be the last op of its segment.
fn is_control_flow(instr: &Instr) -> bool {
    matches!(
        instr,
        Instr::Jump(_)
            | Instr::JumpIfZero(_)
            | Instr::JumpIfNonZero(_)
            | Instr::CmpBranchLocals(..)
            | Instr::CmpBranch(..)
            | Instr::Call(..)
            | Instr::Ret
            | Instr::RetVoid
            | Instr::Launch(..)
            | Instr::Sync
    )
}

/// Checks the segment starting at every pc of every function of `module`.
fn check_module(label: &str, module: &Module) {
    let cost = CostModel::default();
    let machine = Machine::with_config(module.clone(), cost.clone(), ExecLimits::default());
    for (id, f) in module.functions.iter().enumerate() {
        let suffixes = machine.segment_suffixes(id as u32);
        let exits = machine.segment_exits(id as u32);
        assert_eq!(suffixes.len(), f.code.len(), "{label} `{}`", f.name);
        for (pc, (&(len, width, cycles), &exit)) in suffixes.iter().zip(&exits).enumerate() {
            let at = format!("{label} `{}` pc {pc}", f.name);
            let end = pc + len as usize;
            assert!(
                len >= 1 && end <= f.code.len(),
                "{at}: segment length {len}"
            );
            let ops = &f.code[pc..end];
            for (q, instr) in ops[..ops.len() - 1].iter().enumerate() {
                assert!(
                    !is_control_flow(instr),
                    "{at}: control-flow op {instr:?} inside the segment at pc {}",
                    pc + q
                );
            }
            assert!(
                f.origins[pc..end].iter().all(|o| *o == f.origins[pc]),
                "{at}: the segment mixes code origins"
            );
            let last = &f.code[end - 1];
            assert!(
                is_control_flow(last) || end == f.code.len() || f.origins[end] != f.origins[pc],
                "{at}: segment ends at {last:?} (pc {}) for no reason",
                end - 1
            );
            assert_eq!(
                width,
                ops.iter().map(Instr::width).sum::<u32>(),
                "{at}: width sum"
            );
            assert_eq!(
                cycles,
                ops.iter().map(|i| i.cost(&cost)).sum::<u64>(),
                "{at}: cycle sum"
            );
            let expected_exit = match *last {
                Instr::Jump(target) => (len - 1, target),
                _ => (len, end as u32),
            };
            assert_eq!(exit, expected_exit, "{at}: (dispatched ops, next pc)");
        }
    }
}

#[test]
fn every_fig9_program_segments_at_control_flow_or_origin_changes() {
    let mut programs = 0;
    for bench in all_benchmarks() {
        for (label, source, compiler) in fig9_programs(bench.as_ref()) {
            let compiled = compiler.compile(source).expect("Fig. 9 programs compile");
            check_module(&label, compiled.module());
            programs += 1;
        }
    }
    assert_eq!(
        programs,
        7 * 9,
        "seven benchmarks, nine Fig. 9 variants each"
    );
}

/// Tiny inputs, so that 63 programs x 4 configurations stay fast in debug
/// builds.
fn tiny_input(bench: &str) -> BenchInput {
    match bench {
        "BFS" | "MSTF" | "MSTV" | "SSSP" => BenchInput::Graph(rmat(6, 4, 7)),
        "TC" => BenchInput::Graph(rmat(5, 5, 7)),
        "SP" => BenchInput::Sat(random_ksat(48, 96, 3, 7)),
        "BT" => BenchInput::Bezier(bezier_lines(48, 32, 16.0, 7)),
        other => panic!("unknown benchmark {other}"),
    }
}

/// Device memory, word by word, with floats compared by bit pattern.
fn memory_bits(exec: &mut Executor) -> Vec<[u64; 4]> {
    let mem = &exec.machine_mut().mem;
    mem.read_range(1, mem.allocated_words() - 1)
        .expect("allocated memory reads back")
        .iter()
        .map(|v| match *v {
            Value::Int(i) => [0, i as u64, 0, 0],
            Value::Float(f) => [1, f.to_bits(), 0, 0],
            Value::Dim3(d) => [2, d[0] as u64, d[1] as u64, d[2] as u64],
        })
        .collect()
}

#[test]
fn every_fig9_program_executes_identically_fused_and_unfused_under_both_dispatchers() {
    let mut programs = 0;
    for bench in all_benchmarks() {
        let input = tiny_input(bench.name());
        for (label, source, compiler) in fig9_programs(bench.as_ref()) {
            let run = |fuse: bool, dispatch: DispatchMode| {
                let compiled = compiler
                    .clone()
                    .fusion(fuse)
                    .dispatch(dispatch)
                    .block_parallelism(1)
                    .compile(source)
                    .expect("Fig. 9 programs compile");
                let mut exec = compiled.executor();
                bench
                    .run(&mut exec, &input)
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                let memory = memory_bits(&mut exec);
                let RunReport { trace, stats, .. } = exec.finish();
                (stats, trace, memory)
            };
            // Unfused, per-instruction charging is the specification.
            let reference = run(false, DispatchMode::Match);
            assert!(reference.0.instructions > 0, "{label} runs");
            for (fuse, dispatch) in [
                (false, DispatchMode::Threaded),
                (true, DispatchMode::Match),
                (true, DispatchMode::Threaded),
            ] {
                let (stats, trace, memory) = run(fuse, dispatch);
                let config = format!("{label} (fuse={fuse}, {dispatch:?})");
                assert_eq!(stats, reference.0, "{config}: stats");
                assert!(trace == reference.1, "{config}: trace");
                assert!(memory == reference.2, "{config}: memory");
            }
            programs += 1;
        }
    }
    assert_eq!(programs, 7 * 9);
}
