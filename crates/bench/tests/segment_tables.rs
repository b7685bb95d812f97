//! The threaded dispatcher charges accounting once per straight-line
//! segment (see `dp_vm::machine`'s module docs). This suite walks the
//! dispatch tables built for every Fig. 9 program — each benchmark's
//! No-CDP source and its CDP source under every Fig. 9 variant — and
//! checks each pc's segment against the bytecode: it never runs past a
//! control-flow op or an origin change, it ends at one of those or at the
//! end of the function, and its suffix sums are the ops' own widths and
//! cycles.

use dp_bench::{fig9_variants, tuned_for};
use dp_core::Compiler;
use dp_vm::bytecode::{CostModel, Instr, Module};
use dp_vm::machine::{ExecLimits, Machine};
use dp_workloads::benchmarks::{all_benchmarks, Variant};

/// Ops that change pc or the frame, yield the thread, or read its cycle
/// count — each must be the last op of its segment.
fn is_control_flow(instr: &Instr) -> bool {
    matches!(
        instr,
        Instr::Jump(_)
            | Instr::JumpIfZero(_)
            | Instr::JumpIfNonZero(_)
            | Instr::CmpBranchLocals(..)
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
        assert_eq!(suffixes.len(), f.code.len(), "{label} `{}`", f.name);
        for (pc, &(len, width, cycles)) in suffixes.iter().enumerate() {
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
        }
    }
}

#[test]
fn every_fig9_program_segments_at_control_flow_or_origin_changes() {
    let mut programs = 0;
    for bench in all_benchmarks() {
        for (label, variant) in fig9_variants(tuned_for(bench.name())) {
            let (source, compiler) = match variant {
                Variant::NoCdp => (bench.no_cdp_source(), Compiler::new()),
                Variant::Cdp(config) => (bench.cdp_source(), Compiler::new().config(config)),
            };
            let compiled = compiler.compile(source).expect("Fig. 9 programs compile");
            check_module(&format!("{} {label}", bench.name()), compiled.module());
            programs += 1;
        }
    }
    assert_eq!(
        programs,
        7 * 9,
        "seven benchmarks, nine Fig. 9 variants each"
    );
}
