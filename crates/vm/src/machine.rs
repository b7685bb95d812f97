//! The GPU execution machine: global memory, grids, blocks, threads,
//! barriers, atomics, and device-side launches.
//!
//! Execution is *functionally deterministic*: grids run in FIFO launch
//! order; within a block, threads run in index order between barriers.
//! Timing is not modelled here — the machine produces an
//! [`ExecutionTrace`](crate::trace::ExecutionTrace) that `dp-sim` replays
//! against a hardware model.
//!
//! ## Dispatch
//!
//! The interpreter is **direct-threaded**: at machine construction every
//! function's instruction stream is decoded into a table of
//! [`ThreadedOp`]s — a function pointer per opcode plus pre-resolved
//! operands, cycles, width, and origin — so the hot loop is an indirect
//! call per instruction instead of a `match` over the whole opcode space.
//!
//! A handler returns a one-byte `Flow` (`Next`, `Frame`, `Yield` or
//! `Error`), which comes back in a register. A failing handler parks its
//! [`ExecError`] in `StepCtx` and answers `Flow::Error`; the loop takes
//! the error from there. Handler bodies are written with `?` inside the
//! `handlers!` macro, which does the parking. (A `Result<Flow, ExecError>`
//! is two words even with the error boxed, and was returned through a
//! hidden out-pointer: the size of a type does not decide its calling
//! convention.)
//!
//! Accounting is charged **once per straight-line segment**, not once per
//! instruction. A segment is a maximal run of ops with one [`CodeOrigin`]
//! whose only control-flow op, if any, is its last (`ends_segment`:
//! jumps, calls, returns, launches, barriers). Each table slot also
//! carries suffix sums (`seg_len`, `seg_width`, `seg_cycles`) from its own
//! pc to the end of its segment, so wherever execution enters — a jump
//! target, the op after a returning call, the op after a barrier — one add
//! of each counter, one origin-bucket add and one budget check cover
//! exactly the ops that will run. The slot also holds how many of those
//! ops to dispatch (`seg_ops`) and where execution continues (`seg_next`):
//! a segment that ends in an unconditional `Jump` is charged in full but
//! does not dispatch the `Jump`; the loop continues at its target. The
//! result is bit-identical to charging each op before its handler:
//!
//! - a `Launch` is last in its segment, so the `thread.cycles` it records
//!   as the launch's issue time include exactly the ops up to and
//!   including it;
//! - when the remaining instruction budget does not cover the segment,
//!   the loop charges one op at a time, and dispatches it even if it is a
//!   `Jump`, so exhaustion lands on the same op;
//! - when a handler errors mid-segment, the loop refunds the suffix sums
//!   of the op after it (cycles, instructions, origin bucket and budget),
//!   an elided trailing `Jump` included.
//!
//! The original `match` dispatcher is kept behind [`DispatchMode::Match`]
//! as the reference semantics for differential tests and as `vmbench`'s
//! baseline. It deliberately stays per-instruction — charge, check the
//! budget, execute — because that is the specification segment
//! accounting must reproduce: the differential tests compare the two
//! dispatchers at every budget and on mid-segment faults.
//!
//! ### Adding an opcode
//!
//! 1. The variant, its cost and its width in `bytecode.rs`, plus its
//!    expansion if it is a fused superinstruction.
//! 2. A handler in the `handlers!` block and its decode arm in
//!    `threaded_op`. The handler body returns `Result<Flow, ExecError>`
//!    and may use `?`; the macro turns an error into a parked error and
//!    `Flow::Error`.
//! 3. A twin arm in `run_thread_match` with identical error strings.
//! 4. Classify the opcode in `ends_segment`: it must end its segment if
//!    it can change pc, the frame, or yield, or if it reads
//!    `thread.cycles`.
//! 5. A fusion pattern in `lower.rs`, if applicable; a fused op that ends
//!    in a jump also needs its target in `lower.rs`'s `jump_target_mut`.
//!
//! ## Parallel block execution
//!
//! Blocks of a grid are independent by construction (the premise the
//! paper's aggregation/coarsening passes exploit), so grids with enough
//! blocks execute across the shared persistent worker pool
//! ([`dp_pool::Pool::shared`], sized once from the `DPOPT_JOBS` budget —
//! no per-grid thread spawns). Workers run blocks
//! *speculatively* against a snapshot of global memory, recording
//! word-granular read/write sets; the parent then validates blocks **in
//! linear block order** — a block is valid iff it read nothing an
//! earlier block wrote — applies valid blocks' writes, and transparently
//! re-executes conflicting blocks sequentially against live memory.
//! Device launches are collected per block and enqueued in block order
//! with ids assigned at merge time. The result: traces, statistics,
//! memory, and launch order are **bit-identical to sequential execution
//! at any worker count**, the same determinism contract the sweep engine
//! enforces across cells. Kernels whose grids keep conflicting (e.g.
//! cross-block atomic reductions) are adaptively marked serial so
//! speculation overhead is not paid twice.

use crate::bytecode::*;
use crate::error::ExecError;
use crate::trace::*;
use crate::value::{Value, SHARED_SPACE_BASE};
use dp_frontend::ast::{CodeOrigin, FnQual, Type};
use dp_obs::metrics::{Counter, Histogram};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

// Registry mirrors of the speculation outcomes in
// [`Machine::parallel_stats`] — like `ParallelStats`, these live outside
// the determinism contract (they are observability, not results).
static VM_PAR_GRIDS: Counter = Counter::new("vm.spec.parallel_grids");
static VM_SPEC_BLOCKS: Counter = Counter::new("vm.spec.speculated_blocks");
static VM_CONFLICT_BLOCKS: Counter = Counter::new("vm.spec.conflict_blocks");
static VM_SERIALIZED: Counter = Counter::new("vm.spec.serialized_kernels");
/// Wall time of one `run_to_quiescence` call (a host launch's full
/// device-side cascade).
static VM_RUN_US: Histogram = Histogram::new("vm.run_us");

/// Grids below this many blocks always run sequentially (thread spawn and
/// merge bookkeeping would dominate).
const MIN_PARALLEL_BLOCKS: u64 = 4;

/// Per-block instruction budget during *speculative* execution. A block
/// that reads stale pre-grid state can loop where sequential execution
/// would not; exceeding this budget aborts the speculation and falls back
/// to (unbounded) sequential re-execution, so parallel runs can never hang
/// on programs that terminate sequentially.
const SPEC_BLOCK_BUDGET: u64 = 1 << 26;

/// `DPOPT_PAR_DEBUG=1` logs every speculation conflict (kernel, block,
/// reason) — the debug-mode overlap detector for workloads that are
/// expected to obey the disjoint-region discipline.
fn par_debug() -> bool {
    static DEBUG: OnceLock<bool> = OnceLock::new();
    *DEBUG.get_or_init(|| {
        std::env::var_os("DPOPT_PAR_DEBUG").is_some_and(|v| !v.is_empty() && v != "0")
    })
}

/// Execution limits (to keep tests and runaway kernels bounded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecLimits {
    /// Maximum dynamic instructions per `run_to_quiescence` call.
    pub max_instructions: u64,
    /// Maximum pending (not yet executed) grids, modelling CUDA's pending
    /// launch buffer (the paper sets `cudaLimitDevRuntimePendingLaunchCount`
    /// to avoid overflowing it; we default to a large pool).
    pub max_pending: usize,
    /// Maximum threads per block (hardware limit).
    pub max_threads_per_block: u64,
}

impl Default for ExecLimits {
    fn default() -> Self {
        ExecLimits {
            max_instructions: u64::MAX,
            max_pending: 1 << 22,
            max_threads_per_block: 1024,
        }
    }
}

/// Simulated device global memory (word-addressed).
#[derive(Debug, Default)]
pub struct Memory {
    data: Vec<Value>,
    bump: usize,
}

impl Memory {
    fn new() -> Self {
        // Address 0 is reserved as a null pointer.
        Memory {
            data: vec![Value::Int(0)],
            bump: 1,
        }
    }

    /// Allocates `words` words, returning the base address.
    pub fn alloc(&mut self, words: usize) -> i64 {
        let base = self.bump;
        self.bump += words;
        if self.data.len() < self.bump {
            self.data.resize(self.bump, Value::Int(0));
        }
        base as i64
    }

    fn check(&self, addr: i64) -> Result<usize, ExecError> {
        let a = addr as usize;
        if addr <= 0 || a >= self.bump {
            return Err(ExecError::new(format!(
                "memory access out of bounds: address {addr} (allocated up to {})",
                self.bump
            )));
        }
        Ok(a)
    }

    /// Bounds-checks `words` words starting at `addr` in one comparison,
    /// returning the base index. `words` must be non-zero.
    fn check_range(&self, addr: i64, words: usize) -> Result<usize, ExecError> {
        let a = addr as usize;
        if addr <= 0 || words > self.bump || a > self.bump - words {
            return Err(ExecError::new(format!(
                "memory access out of bounds: range {addr}..{} (allocated up to {})",
                addr.saturating_add(words as i64),
                self.bump
            )));
        }
        Ok(a)
    }

    /// Reads one word.
    pub fn read(&self, addr: i64) -> Result<Value, ExecError> {
        Ok(self.data[self.check(addr)?])
    }

    /// Writes one word.
    pub fn write(&mut self, addr: i64, value: Value) -> Result<(), ExecError> {
        let a = self.check(addr)?;
        self.data[a] = value;
        Ok(())
    }

    /// Reads `words` consecutive words as a slice (single bounds check).
    pub fn read_range(&self, addr: i64, words: usize) -> Result<&[Value], ExecError> {
        if words == 0 {
            return Ok(&[]);
        }
        let a = self.check_range(addr, words)?;
        Ok(&self.data[a..a + words])
    }

    /// Writes `values` consecutively starting at `addr` (single bounds
    /// check + `copy_from_slice`).
    pub fn write_range(&mut self, addr: i64, values: &[Value]) -> Result<(), ExecError> {
        if values.is_empty() {
            return Ok(());
        }
        let a = self.check_range(addr, values.len())?;
        self.data[a..a + values.len()].copy_from_slice(values);
        Ok(())
    }

    /// Mutable view of `words` consecutive words (single bounds check).
    pub fn slice_mut(&mut self, addr: i64, words: usize) -> Result<&mut [Value], ExecError> {
        if words == 0 {
            return Ok(&mut []);
        }
        let a = self.check_range(addr, words)?;
        Ok(&mut self.data[a..a + words])
    }

    /// Fills a range with a value (buffer zeroing): one bounds check plus a
    /// `slice::fill`, not a checked store per word.
    pub fn fill(&mut self, addr: i64, words: usize, value: Value) -> Result<(), ExecError> {
        self.slice_mut(addr, words)?.fill(value);
        Ok(())
    }

    /// Words currently allocated.
    pub fn allocated_words(&self) -> usize {
        self.bump
    }
}

struct Frame {
    func: FuncId,
    pc: usize,
    locals: Vec<Value>,
}

enum ThreadStatus {
    Running,
    AtBarrier,
    Done,
}

/// One simulated GPU thread. The *current* frame is a direct field (not
/// the top of a `Vec`), so the dispatch loops and op handlers reach
/// `pc`/`locals` without an indirection or `last_mut` check; suspended
/// caller frames live in `callers`.
struct Thread {
    frame: Frame,
    callers: Vec<Frame>,
    stack: Vec<Value>,
    status: ThreadStatus,
    cycles: u64,
    instructions: u64,
    origin_cycles: OriginCycles,
    tidx: [i64; 3],
    /// Locals vectors of popped frames, reused by later calls so steady-state
    /// call/return traffic allocates nothing.
    spare_locals: Vec<Vec<Value>>,
}

impl Thread {
    fn new() -> Self {
        Thread {
            frame: Frame {
                func: 0,
                pc: 0,
                locals: Vec::new(),
            },
            callers: Vec::new(),
            stack: Vec::with_capacity(16),
            status: ThreadStatus::Running,
            cycles: 0,
            instructions: 0,
            origin_cycles: OriginCycles::default(),
            tidx: [0; 3],
            spare_locals: Vec::new(),
        }
    }

    /// Re-arms a (possibly previously used) thread for a new block,
    /// reusing its frame/locals/stack allocations.
    fn reset(&mut self, kernel: FuncId, n_locals: u16, args: &[Value], tidx: [i64; 3]) {
        while let Some(f) = self.callers.pop() {
            self.spare_locals.push(f.locals);
        }
        self.frame.func = kernel;
        self.frame.pc = 0;
        self.frame.locals.clear();
        self.frame.locals.resize(n_locals as usize, Value::Int(0));
        self.frame.locals[..args.len()].copy_from_slice(args);
        self.stack.clear();
        self.status = ThreadStatus::Running;
        self.cycles = 0;
        self.instructions = 0;
        self.origin_cycles = OriginCycles::default();
        self.tidx = tidx;
    }

    /// Pops the current frame, resuming the caller. Returns `false` when
    /// the kernel frame itself returned (the thread is done; the frame and
    /// its locals are kept for reuse by the next `reset`).
    fn pop_frame(&mut self) -> bool {
        match self.callers.pop() {
            Some(caller) => {
                let done = std::mem::replace(&mut self.frame, caller);
                self.spare_locals.push(done.locals);
                true
            }
            None => false,
        }
    }
}

/// Shared per-instruction return helper: pops the current frame after a
/// (value-less) function end. `true` → resume the caller (`continue
/// 'frames`), `false` → the thread is done.
fn fall_off_end(thread: &mut Thread) -> bool {
    if thread.pop_frame() {
        thread.stack.push(Value::Int(0));
        true
    } else {
        thread.status = ThreadStatus::Done;
        false
    }
}

/// Per-block execution state pooled across the blocks of a grid (and across
/// grids): thread structs with their frame/locals/stack vectors, and the
/// shared-memory buffer. Reuse turns per-block setup from O(threads)
/// allocations into O(threads) resets of already-sized buffers.
#[derive(Default)]
struct BlockArena {
    threads: Vec<Thread>,
    shared: Vec<Value>,
}
// ----------------------------------------------------------------------
// Direct-threaded dispatch
// ----------------------------------------------------------------------

/// How the interpreter dispatches instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchMode {
    /// Precomputed function-pointer table per instruction (the default).
    #[default]
    Threaded,
    /// The classic `match (opcode)` loop — reference semantics for
    /// differential tests and the `vmbench` baseline.
    Match,
}

/// Outcome of one op handler: one byte, so it comes back in a register.
enum Flow {
    /// Fall through to the next instruction.
    Next,
    /// The frame stack changed (call/return) — re-enter the frame loop.
    Frame,
    /// The thread yielded (barrier) or finished.
    Yield,
    /// The handler failed; its error is parked in [`StepCtx::error`].
    Error,
}

type OpFn = fn(&ThreadedOp, &mut StepCtx<'_, '_>) -> Flow;

/// One decoded instruction slot: handler pointer, pre-resolved operands,
/// and the accounting (cycles in the machine's cost model, original
/// instruction width, origin tag) that dispatch charges before calling the
/// handler. Built once per function at machine construction.
#[derive(Clone, Copy)]
struct ThreadedOp {
    exec: OpFn,
    /// The original instruction — used by the `Match` dispatcher and by
    /// handlers with cold or many-variant payloads (atomics, intrinsics).
    instr: Instr,
    cycles: u64,
    /// Integer immediate / float bits / branch target (CmpBranchLocals).
    imm: i64,
    /// First operand: local slot (the destination of a two-slot op), jump
    /// target, FuncId, special index, lane.
    a: u32,
    /// Second operand: local slot, argument count, lane.
    b: u32,
    width: u32,
    origin: CodeOrigin,
    /// Ops from this one to the end of its straight-line segment
    /// (inclusive), and their summed widths and cycles — what segment
    /// accounting charges when execution reaches this pc.
    seg_len: u32,
    seg_width: u32,
    seg_cycles: u64,
    /// How many of those `seg_len` ops have their handler called: all of
    /// them, or one fewer when the segment ends in an unconditional `Jump`,
    /// which is charged but not dispatched.
    seg_ops: u32,
    /// The pc execution continues at after the segment: the elided
    /// `Jump`'s target, or the op after the segment.
    seg_next: u32,
}

// A one-byte handler result is returned in a register. (A two-word
// `Result<Flow, ExecError>` was not: it came back through a hidden
// out-pointer.)
const _: () = assert!(std::mem::size_of::<Flow>() == 1);

/// Borrow bundle passed to op handlers — the whole mutable per-step state,
/// split so handlers can touch disjoint fields without re-borrowing.
struct StepCtx<'a, 'm> {
    env: &'a mut ExecEnv<'m>,
    thread: &'a mut Thread,
    block: &'a BlockCtx,
    shared: &'a mut [Value],
    btrace: &'a mut BlockTrace,
    /// The error of the handler that answered [`Flow::Error`].
    error: Option<ExecError>,
}

impl StepCtx<'_, '_> {
    /// Parks a handler's error for the dispatch loop to take.
    #[cold]
    #[inline(never)]
    fn park(&mut self, e: ExecError) -> Flow {
        self.error = Some(e);
        Flow::Error
    }
}

/// Defines op handlers. Each body returns `Result<Flow, ExecError>` and
/// may use `?`; the handler itself returns the one-byte [`Flow`], parking
/// an error in [`StepCtx::error`] and answering [`Flow::Error`].
macro_rules! handlers {
    ($(
        $(#[$meta:meta])*
        fn $name:ident $(<const $k:ident: u8>)? ($op:ident, $s:ident) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name $(<const $k: u8>)? ($op: &ThreadedOp, $s: &mut StepCtx<'_, '_>) -> Flow {
            #[inline(always)]
            fn body $(<const $k: u8>)? (
                $op: &ThreadedOp,
                $s: &mut StepCtx<'_, '_>,
            ) -> Result<Flow, ExecError> $body
            match body $(::<$k>)? ($op, $s) {
                Ok(flow) => flow,
                Err(e) => $s.park(e),
            }
        }
    )*};
}

fn pop(stack: &mut Vec<Value>) -> Result<Value, ExecError> {
    stack
        .pop()
        .ok_or_else(|| ExecError::new("operand stack underflow"))
}

/// Maps a const-generic discriminant back to its [`BinKind`] — handlers
/// specialized per kind constant-fold `bin_op` into a single operation.
const fn bk(k: u8) -> BinKind {
    match k {
        0 => BinKind::Add,
        1 => BinKind::Sub,
        2 => BinKind::Mul,
        3 => BinKind::Div,
        4 => BinKind::Rem,
        5 => BinKind::Lt,
        6 => BinKind::Le,
        7 => BinKind::Gt,
        8 => BinKind::Ge,
        9 => BinKind::Eq,
        10 => BinKind::Ne,
        11 => BinKind::BitAnd,
        12 => BinKind::BitOr,
        13 => BinKind::BitXor,
        14 => BinKind::Shl,
        _ => BinKind::Shr,
    }
}

/// Selects the per-kind specialization of a const-generic handler.
macro_rules! select_bin {
    ($kind:expr, $f:ident) => {
        match $kind {
            BinKind::Add => $f::<0>,
            BinKind::Sub => $f::<1>,
            BinKind::Mul => $f::<2>,
            BinKind::Div => $f::<3>,
            BinKind::Rem => $f::<4>,
            BinKind::Lt => $f::<5>,
            BinKind::Le => $f::<6>,
            BinKind::Gt => $f::<7>,
            BinKind::Ge => $f::<8>,
            BinKind::Eq => $f::<9>,
            BinKind::Ne => $f::<10>,
            BinKind::BitAnd => $f::<11>,
            BinKind::BitOr => $f::<12>,
            BinKind::BitXor => $f::<13>,
            BinKind::Shl => $f::<14>,
            BinKind::Shr => $f::<15>,
        }
    };
}

fn special_dims(which: u32, s: &StepCtx) -> [i64; 3] {
    match which {
        0 => s.thread.tidx,
        1 => s.block.block_idx,
        2 => s.block.block_dim,
        _ => s.block.grid_dim,
    }
}

const fn special_index(sp: Special) -> u32 {
    match sp {
        Special::ThreadIdx => 0,
        Special::BlockIdx => 1,
        Special::BlockDim => 2,
        Special::GridDim => 3,
    }
}

handlers! {
    fn op_push_int(op, s) {
        s.thread.stack.push(Value::Int(op.imm));
        Ok(Flow::Next)
    }

    fn op_push_float(op, s) {
        s.thread
            .stack
            .push(Value::Float(f64::from_bits(op.imm as u64)));
        Ok(Flow::Next)
    }

    fn op_load_local(op, s) {
        let v = s.thread.frame.locals[op.a as usize];
        s.thread.stack.push(v);
        Ok(Flow::Next)
    }

    fn op_store_local(op, s) {
        let v = pop(&mut s.thread.stack)?;
        s.thread.frame.locals[op.a as usize] = v;
        Ok(Flow::Next)
    }

    fn op_load_mem(_op, s) {
        let addr = pop(&mut s.thread.stack)?.as_int();
        let v = s.env.load(addr, s.shared)?;
        s.thread.stack.push(v);
        Ok(Flow::Next)
    }

    fn op_store_mem(_op, s) {
        let v = pop(&mut s.thread.stack)?;
        let addr = pop(&mut s.thread.stack)?.as_int();
        s.env.store(addr, v, s.shared)?;
        Ok(Flow::Next)
    }

    fn op_bin<const K: u8>(_op, s) {
        let b = pop(&mut s.thread.stack)?;
        let a = pop(&mut s.thread.stack)?;
        s.thread.stack.push(bin_op(bk(K), a, b)?);
        Ok(Flow::Next)
    }

    fn op_un(op, s) {
        let Instr::Un(kind) = op.instr else {
            unreachable!("op_un bound to non-Un instruction")
        };
        let a = pop(&mut s.thread.stack)?;
        s.thread.stack.push(un_op(kind, a));
        Ok(Flow::Next)
    }

    fn op_cast_int(_op, s) {
        let a = pop(&mut s.thread.stack)?;
        s.thread.stack.push(Value::Int(a.as_int()));
        Ok(Flow::Next)
    }

    fn op_cast_float(_op, s) {
        let a = pop(&mut s.thread.stack)?;
        s.thread.stack.push(Value::Float(a.as_float()));
        Ok(Flow::Next)
    }

    fn op_jump(op, s) {
        s.thread.frame.pc = op.a as usize;
        Ok(Flow::Next)
    }

    fn op_jump_if_zero(op, s) {
        if !pop(&mut s.thread.stack)?.is_truthy() {
            s.thread.frame.pc = op.a as usize;
        }
        Ok(Flow::Next)
    }

    fn op_jump_if_non_zero(op, s) {
        if pop(&mut s.thread.stack)?.is_truthy() {
            s.thread.frame.pc = op.a as usize;
        }
        Ok(Flow::Next)
    }

    fn op_call(op, s) {
        let id = op.a as FuncId;
        let nargs = op.b as usize;
        let callee = &s.env.module.functions[id as usize];
        let mut locals = s.thread.spare_locals.pop().unwrap_or_default();
        locals.clear();
        locals.resize(callee.n_locals as usize, Value::Int(0));
        for i in (0..nargs).rev() {
            let v = pop(&mut s.thread.stack)?;
            locals[i] = coerce(v, &callee.param_types[i]);
        }
        if s.thread.callers.len() + 1 > 512 {
            return Err(ExecError::new("device call stack overflow"));
        }
        let new_frame = Frame {
            func: id,
            pc: 0,
            locals,
        };
        let caller = std::mem::replace(&mut s.thread.frame, new_frame);
        s.thread.callers.push(caller);
        Ok(Flow::Frame)
    }

    fn op_ret(_op, s) {
        let v = pop(&mut s.thread.stack)?;
        if s.thread.pop_frame() {
            s.thread.stack.push(v);
            Ok(Flow::Frame)
        } else {
            s.thread.status = ThreadStatus::Done;
            Ok(Flow::Yield)
        }
    }

    fn op_ret_void(_op, s) {
        if fall_off_end(s.thread) {
            Ok(Flow::Frame)
        } else {
            Ok(Flow::Yield)
        }
    }

    fn op_launch(op, s) {
        let id = op.a as FuncId;
        let nargs = op.b as usize;
        let mut args = vec![Value::Int(0); nargs];
        for i in (0..nargs).rev() {
            args[i] = pop(&mut s.thread.stack)?;
        }
        let block = pop(&mut s.thread.stack)?.as_dim3();
        let grid = pop(&mut s.thread.stack)?.as_dim3();
        let total_blocks = grid[0] * grid[1] * grid[2];
        if total_blocks <= 0 {
            s.env.stats.empty_launches += 1;
        } else {
            let origin = LaunchOrigin::Device {
                parent_grid: s.block.grid_id,
                parent_block: s.block.linear_block,
                issue_cycles: s.thread.cycles,
            };
            let env = &mut *s.env;
            let child = env
                .launches
                .enqueue(env.module, env.limits, id, grid, block, args, origin)?;
            s.btrace.launches.push(LaunchRecord {
                child_grid: child,
                issue_cycles: s.thread.cycles,
            });
            s.env.stats.device_launches += 1;
        }
        Ok(Flow::Next)
    }

    fn op_sync(_op, s) {
        s.thread.status = ThreadStatus::AtBarrier;
        Ok(Flow::Yield)
    }

    fn op_fence(_op, _s) {
        // Blocks execute atomically relative to each other (sequentially or
        // via validated speculation), so fences are functional no-ops; the
        // cycle cost was already charged.
        Ok(Flow::Next)
    }

    fn op_atomic(op, s) {
        let Instr::Atomic(kind) = op.instr else {
            unreachable!("op_atomic bound to non-Atomic instruction")
        };
        let old = match kind {
            AtomicOp::Cas => {
                let val = pop(&mut s.thread.stack)?;
                let cmp = pop(&mut s.thread.stack)?;
                let addr = pop(&mut s.thread.stack)?.as_int();
                let old = s.env.load(addr, s.shared)?;
                let new = if old == cmp { val } else { old };
                s.env.store(addr, new, s.shared)?;
                old
            }
            _ => {
                let operand = pop(&mut s.thread.stack)?;
                let addr = pop(&mut s.thread.stack)?.as_int();
                let old = s.env.load(addr, s.shared)?;
                let new = atomic_apply(kind, old, operand)?;
                s.env.store(addr, new, s.shared)?;
                old
            }
        };
        s.thread.stack.push(old);
        Ok(Flow::Next)
    }

    fn op_intrinsic1(op, s) {
        let Instr::Intrinsic(i) = op.instr else {
            unreachable!("op_intrinsic1 bound to non-Intrinsic instruction")
        };
        let a = pop(&mut s.thread.stack)?;
        s.thread.stack.push(intrinsic1(i, a));
        Ok(Flow::Next)
    }

    fn op_intrinsic2(op, s) {
        let Instr::Intrinsic(i) = op.instr else {
            unreachable!("op_intrinsic2 bound to non-Intrinsic instruction")
        };
        let b = pop(&mut s.thread.stack)?;
        let a = pop(&mut s.thread.stack)?;
        s.thread.stack.push(intrinsic2(i, a, b));
        Ok(Flow::Next)
    }

    fn op_read_special(op, s) {
        let d = special_dims(op.a, s);
        s.thread.stack.push(Value::Dim3(d));
        Ok(Flow::Next)
    }

    fn op_read_special_comp(op, s) {
        let d = special_dims(op.a, s);
        s.thread.stack.push(Value::Int(d[op.b as usize]));
        Ok(Flow::Next)
    }

    fn op_make_dim3(_op, s) {
        let z = pop(&mut s.thread.stack)?.as_int();
        let y = pop(&mut s.thread.stack)?.as_int();
        let x = pop(&mut s.thread.stack)?.as_int();
        s.thread.stack.push(Value::Dim3([x, y, z]));
        Ok(Flow::Next)
    }

    fn op_dim3_member(op, s) {
        let d = pop(&mut s.thread.stack)?.as_dim3();
        s.thread.stack.push(Value::Int(d[op.a as usize]));
        Ok(Flow::Next)
    }

    fn op_dim3_set_member(op, s) {
        let v = pop(&mut s.thread.stack)?.as_int();
        let mut d = pop(&mut s.thread.stack)?.as_dim3();
        d[op.a as usize] = v;
        s.thread.stack.push(Value::Dim3(d));
        Ok(Flow::Next)
    }

    fn op_pop(_op, s) {
        pop(&mut s.thread.stack)?;
        Ok(Flow::Next)
    }

    fn op_dup(_op, s) {
        let v = *s
            .thread
            .stack
            .last()
            .ok_or_else(|| ExecError::new("stack underflow on dup"))?;
        s.thread.stack.push(v);
        Ok(Flow::Next)
    }

    fn op_swap(_op, s) {
        let n = s.thread.stack.len();
        if n < 2 {
            return Err(ExecError::new("stack underflow on swap"));
        }
        s.thread.stack.swap(n - 1, n - 2);
        Ok(Flow::Next)
    }

    // Fused superinstructions: each handler replicates the exact observable
    // semantics (including error cases) of its expansion — see
    // `Instr::expansion`. Accounting was already charged from the table.

    fn op_bin_locals<const K: u8>(op, s) {
        let a = s.thread.frame.locals[op.a as usize];
        let b = s.thread.frame.locals[op.b as usize];
        s.thread.stack.push(bin_op(bk(K), a, b)?);
        Ok(Flow::Next)
    }

    fn op_bin_imm<const K: u8>(op, s) {
        let a = pop(&mut s.thread.stack)?;
        s.thread.stack.push(bin_op(bk(K), a, Value::Int(op.imm))?);
        Ok(Flow::Next)
    }

    fn op_add_imm_local(op, s) {
        let v = s.thread.frame.locals[op.b as usize];
        s.thread.frame.locals[op.a as usize] = bin_op(BinKind::Add, v, Value::Int(op.imm))?;
        Ok(Flow::Next)
    }

    fn op_load_local_mem(op, s) {
        let addr = s.thread.frame.locals[op.a as usize].as_int();
        let v = s.env.load(addr, s.shared)?;
        s.thread.stack.push(v);
        Ok(Flow::Next)
    }

    fn op_cmp_branch_locals<const K: u8>(op, s) {
        let a = s.thread.frame.locals[op.a as usize];
        let b = s.thread.frame.locals[op.b as usize];
        if !bin_op(bk(K), a, b)?.is_truthy() {
            s.thread.frame.pc = op.imm as usize;
        }
        Ok(Flow::Next)
    }

    fn op_store_load_local(op, s) {
        let v = *s
            .thread
            .stack
            .last()
            .ok_or_else(|| ExecError::new("operand stack underflow"))?;
        s.thread.frame.locals[op.a as usize] = v;
        Ok(Flow::Next)
    }

    fn op_cast_store_local(op, s) {
        let v = pop(&mut s.thread.stack)?;
        s.thread.frame.locals[op.a as usize] = Value::Int(v.as_int());
        Ok(Flow::Next)
    }

    fn op_copy_local(op, s) {
        s.thread.frame.locals[op.a as usize] = s.thread.frame.locals[op.b as usize];
        Ok(Flow::Next)
    }

    fn op_load_indexed(op, s) {
        let a = s.thread.frame.locals[op.a as usize];
        let b = s.thread.frame.locals[op.b as usize];
        let addr = bin_op(BinKind::Add, a, b)?.as_int();
        let v = s.env.load(addr, s.shared)?;
        s.thread.stack.push(v);
        Ok(Flow::Next)
    }

    fn op_cmp_branch<const K: u8>(op, s) {
        let b = pop(&mut s.thread.stack)?;
        let a = pop(&mut s.thread.stack)?;
        if !bin_op(bk(K), a, b)?.is_truthy() {
            s.thread.frame.pc = op.a as usize;
        }
        Ok(Flow::Next)
    }
}

/// Decodes one instruction into its table slot.
fn threaded_op(instr: Instr, origin: CodeOrigin, cost: &CostModel) -> ThreadedOp {
    let mut op = ThreadedOp {
        exec: op_fence, // placeholder, overwritten below
        instr,
        cycles: instr.cost(cost),
        imm: 0,
        a: 0,
        b: 0,
        width: instr.width(),
        origin,
        seg_len: 0,
        seg_width: 0,
        seg_cycles: 0,
        seg_ops: 0,
        seg_next: 0,
    };
    op.exec = match instr {
        Instr::PushInt(v) => {
            op.imm = v;
            op_push_int
        }
        Instr::PushFloat(v) => {
            op.imm = v.to_bits() as i64;
            op_push_float
        }
        Instr::LoadLocal(s) => {
            op.a = s as u32;
            op_load_local
        }
        Instr::StoreLocal(s) => {
            op.a = s as u32;
            op_store_local
        }
        Instr::LoadMem => op_load_mem,
        Instr::StoreMem => op_store_mem,
        Instr::Bin(k) => select_bin!(k, op_bin),
        Instr::Un(_) => op_un,
        Instr::CastInt => op_cast_int,
        Instr::CastFloat => op_cast_float,
        Instr::Jump(t) => {
            op.a = t;
            op_jump
        }
        Instr::JumpIfZero(t) => {
            op.a = t;
            op_jump_if_zero
        }
        Instr::JumpIfNonZero(t) => {
            op.a = t;
            op_jump_if_non_zero
        }
        Instr::Call(id, n) => {
            op.a = id;
            op.b = n as u32;
            op_call
        }
        Instr::Ret => op_ret,
        Instr::RetVoid => op_ret_void,
        Instr::Launch(id, n) => {
            op.a = id;
            op.b = n as u32;
            op_launch
        }
        Instr::Sync => op_sync,
        Instr::Fence => op_fence,
        Instr::Atomic(_) => op_atomic,
        Instr::Intrinsic(i) => match i {
            Intrinsic::Min | Intrinsic::Max | Intrinsic::Pow => op_intrinsic2,
            _ => op_intrinsic1,
        },
        Instr::ReadSpecial(sp) => {
            op.a = special_index(sp);
            op_read_special
        }
        Instr::ReadSpecialComp(sp, lane) => {
            op.a = special_index(sp);
            op.b = lane as u32;
            op_read_special_comp
        }
        Instr::MakeDim3 => op_make_dim3,
        Instr::Dim3Member(lane) => {
            op.a = lane as u32;
            op_dim3_member
        }
        Instr::Dim3SetMember(lane) => {
            op.a = lane as u32;
            op_dim3_set_member
        }
        Instr::Pop => op_pop,
        Instr::Dup => op_dup,
        Instr::Swap => op_swap,
        Instr::BinLocals(k, a, b) => {
            op.a = a as u32;
            op.b = b as u32;
            select_bin!(k, op_bin_locals)
        }
        Instr::BinImm(k, v) => {
            op.imm = v;
            select_bin!(k, op_bin_imm)
        }
        Instr::AddImmLocal(dst, src, d) => {
            op.a = dst as u32;
            op.b = src as u32;
            op.imm = d;
            op_add_imm_local
        }
        Instr::LoadLocalMem(s) => {
            op.a = s as u32;
            op_load_local_mem
        }
        Instr::CmpBranchLocals(k, a, b, t) => {
            op.a = a as u32;
            op.b = b as u32;
            op.imm = t as i64;
            select_bin!(k, op_cmp_branch_locals)
        }
        Instr::StoreLoadLocal(s) => {
            op.a = s as u32;
            op_store_load_local
        }
        Instr::CastStoreLocal(s) => {
            op.a = s as u32;
            op_cast_store_local
        }
        Instr::CopyLocal(dst, src) => {
            op.a = dst as u32;
            op.b = src as u32;
            op_copy_local
        }
        Instr::LoadIndexed(a, b) => {
            op.a = a as u32;
            op.b = b as u32;
            op_load_indexed
        }
        Instr::CmpBranch(k, t) => {
            op.a = t;
            select_bin!(k, op_cmp_branch)
        }
    };
    op
}

/// Whether `instr` must be the last op of its straight-line segment:
/// it can change pc or the frame, yield the thread, or read
/// `thread.cycles` (a launch records its issue time). The match is
/// exhaustive so that every new opcode has to be classified.
const fn ends_segment(instr: &Instr) -> bool {
    match instr {
        Instr::Jump(_)
        | Instr::JumpIfZero(_)
        | Instr::JumpIfNonZero(_)
        | Instr::CmpBranchLocals(..)
        | Instr::CmpBranch(..)
        | Instr::Call(..)
        | Instr::Ret
        | Instr::RetVoid
        | Instr::Launch(..)
        | Instr::Sync => true,
        Instr::PushInt(_)
        | Instr::PushFloat(_)
        | Instr::LoadLocal(_)
        | Instr::StoreLocal(_)
        | Instr::LoadMem
        | Instr::StoreMem
        | Instr::Bin(_)
        | Instr::Un(_)
        | Instr::CastInt
        | Instr::CastFloat
        | Instr::Fence
        | Instr::Atomic(_)
        | Instr::Intrinsic(_)
        | Instr::ReadSpecial(_)
        | Instr::ReadSpecialComp(..)
        | Instr::MakeDim3
        | Instr::Dim3Member(_)
        | Instr::Dim3SetMember(_)
        | Instr::Pop
        | Instr::Dup
        | Instr::Swap
        | Instr::BinLocals(..)
        | Instr::BinImm(..)
        | Instr::AddImmLocal(..)
        | Instr::LoadLocalMem(_)
        | Instr::StoreLoadLocal(_)
        | Instr::CastStoreLocal(_)
        | Instr::CopyLocal(..)
        | Instr::LoadIndexed(..) => false,
    }
}

/// Builds the per-function dispatch tables (one decoded slot per
/// instruction, carrying the cost model's cycles, the fusion-transparent
/// width/origin accounting, and the segment suffix sums). A segment ends
/// after an [`ends_segment`] op, at the end of the function, and where
/// the next op's origin differs. A segment that ends in an unconditional
/// `Jump` dispatches one op fewer than it charges and continues at the
/// jump's target.
fn build_tables(module: &Module, cost: &CostModel) -> Vec<Box<[ThreadedOp]>> {
    module
        .functions
        .iter()
        .map(|f| {
            let mut ops: Box<[ThreadedOp]> = f
                .code
                .iter()
                .zip(&f.origins)
                .map(|(i, og)| threaded_op(*i, *og, cost))
                .collect();
            for pc in (0..ops.len()).rev() {
                let op = ops[pc];
                let rest = ops
                    .get(pc + 1)
                    .filter(|next| !ends_segment(&op.instr) && next.origin == op.origin)
                    .copied();
                let slot = &mut ops[pc];
                match rest {
                    Some(next) => {
                        slot.seg_len = next.seg_len + 1;
                        slot.seg_width = next.seg_width + op.width;
                        slot.seg_cycles = next.seg_cycles + op.cycles;
                        slot.seg_ops = next.seg_ops + 1;
                        slot.seg_next = next.seg_next;
                    }
                    None => {
                        slot.seg_len = 1;
                        slot.seg_width = op.width;
                        slot.seg_cycles = op.cycles;
                        (slot.seg_ops, slot.seg_next) = match op.instr {
                            Instr::Jump(target) => (0, target),
                            _ => (1, pc as u32 + 1),
                        };
                    }
                }
            }
            ops
        })
        .collect()
}

// ----------------------------------------------------------------------
// Execution environment: memory views, launch sinks
// ----------------------------------------------------------------------

/// A speculative view of global memory for one block: reads fall through
/// to the immutable pre-grid snapshot, writes land in a private overlay,
/// and both are recorded as word-granular bitsets for the merge phase's
/// conflict validation. Reads of the block's *own* writes are served from
/// the overlay and deliberately not recorded — they carry no cross-block
/// dependence.
struct SpecMem<'m> {
    base: &'m Memory,
    /// Full-size scratch; `overlay[a]` is meaningful only where the write
    /// bit for `a` is set, so it needs no clearing between blocks.
    overlay: &'m mut Vec<Value>,
    read_bits: &'m mut Vec<u64>,
    write_bits: &'m mut Vec<u64>,
    /// 64-word chunks whose read/write bitmap word became non-zero —
    /// makes per-block clearing O(touched), not O(memory).
    read_touched: &'m mut Vec<u32>,
    write_touched: &'m mut Vec<u32>,
}

impl SpecMem<'_> {
    fn load(&mut self, addr: i64) -> Result<Value, ExecError> {
        let a = self.base.check(addr)?;
        let chunk = a >> 6;
        let bit = 1u64 << (a & 63);
        if self.write_bits[chunk] & bit != 0 {
            return Ok(self.overlay[a]);
        }
        if self.read_bits[chunk] == 0 {
            self.read_touched.push(chunk as u32);
        }
        self.read_bits[chunk] |= bit;
        Ok(self.base.data[a])
    }

    fn store(&mut self, addr: i64, value: Value) -> Result<(), ExecError> {
        let a = self.base.check(addr)?;
        let chunk = a >> 6;
        if self.write_bits[chunk] == 0 {
            self.write_touched.push(chunk as u32);
        }
        self.write_bits[chunk] |= 1u64 << (a & 63);
        self.overlay[a] = value;
        Ok(())
    }
}

/// Where global-memory accesses go: straight at the machine's memory
/// (sequential execution and host-side helpers) or through a tracked
/// speculative overlay (parallel block execution).
enum MemView<'m> {
    Direct(&'m mut Memory),
    Spec(SpecMem<'m>),
}

impl MemView<'_> {
    #[inline]
    fn load(&mut self, addr: i64) -> Result<Value, ExecError> {
        match self {
            MemView::Direct(m) => m.read(addr),
            MemView::Spec(s) => s.load(addr),
        }
    }

    #[inline]
    fn store(&mut self, addr: i64, value: Value) -> Result<(), ExecError> {
        match self {
            MemView::Direct(m) => m.write(addr, value),
            MemView::Spec(s) => s.store(addr, value),
        }
    }
}

struct PendingGrid {
    kernel: FuncId,
    grid: [i64; 3],
    block: [i64; 3],
    args: Vec<Value>,
    origin: LaunchOrigin,
    id: usize,
}

/// Static launch validation shared by every enqueue path (host, direct
/// device, speculative device). The pending-buffer overflow check is *not*
/// here: it depends on global queue state and is applied where the grid
/// actually joins the queue.
fn validate_launch(
    module: &Module,
    limits: &ExecLimits,
    kernel: FuncId,
    grid: [i64; 3],
    block: [i64; 3],
    nargs: usize,
) -> Result<(), ExecError> {
    let func = module.function(kernel);
    if func.qual != FnQual::Global {
        return Err(ExecError::new(format!(
            "`{}` is not a __global__ kernel",
            func.name
        )));
    }
    if nargs != func.param_types.len() {
        return Err(ExecError::new(format!(
            "kernel `{}` takes {} arguments, got {}",
            func.name,
            func.param_types.len(),
            nargs
        )));
    }
    let threads = block[0] * block[1] * block[2];
    if threads <= 0 || threads > limits.max_threads_per_block as i64 {
        return Err(ExecError::new(format!(
            "invalid block size {threads} for kernel `{}`",
            func.name
        )));
    }
    if grid.iter().any(|&d| d < 0) {
        return Err(ExecError::new(format!(
            "negative grid dimension for kernel `{}`",
            func.name
        )));
    }
    Ok(())
}

fn pending_overflow() -> ExecError {
    ExecError::new("pending launch buffer overflow (raise ExecLimits::max_pending)")
}

/// Where device-side launches go: straight onto the machine's FIFO queue
/// (ids assigned immediately) or into a per-block list (ids are local
/// placeholders renumbered at merge time, so the final queue and trace
/// are identical to sequential execution).
enum LaunchSink<'m> {
    Direct {
        pending: &'m mut VecDeque<PendingGrid>,
        next_grid_id: &'m mut usize,
    },
    Spec(&'m mut Vec<PendingGrid>),
}

impl LaunchSink<'_> {
    #[allow(clippy::too_many_arguments)]
    fn enqueue(
        &mut self,
        module: &Module,
        limits: &ExecLimits,
        kernel: FuncId,
        grid: [i64; 3],
        block: [i64; 3],
        args: Vec<Value>,
        origin: LaunchOrigin,
    ) -> Result<usize, ExecError> {
        validate_launch(module, limits, kernel, grid, block, args.len())?;
        match self {
            LaunchSink::Direct {
                pending,
                next_grid_id,
            } => {
                if pending.len() >= limits.max_pending {
                    return Err(pending_overflow());
                }
                let id = **next_grid_id;
                **next_grid_id += 1;
                pending.push_back(PendingGrid {
                    kernel,
                    grid,
                    block,
                    args,
                    origin,
                    id,
                });
                Ok(id)
            }
            LaunchSink::Spec(list) => {
                let id = list.len();
                list.push(PendingGrid {
                    kernel,
                    grid,
                    block,
                    args,
                    origin,
                    id,
                });
                Ok(id)
            }
        }
    }
}

/// Runtime statistics for a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// Grids executed.
    pub grids_executed: u64,
    /// Dynamic instructions executed.
    pub instructions: u64,
    /// Device-side launch instructions that created a grid.
    pub device_launches: u64,
    /// Launches skipped because the grid size was zero.
    pub empty_launches: u64,
}

/// Bookkeeping about the parallel block executor. Deliberately **not**
/// part of [`MachineStats`]: these counters depend on worker count and
/// scheduling, while `MachineStats` is part of the determinism contract
/// (bit-identical at any parallelism).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParallelStats {
    /// Grids executed through the speculative worker pool.
    pub parallel_grids: u64,
    /// Blocks executed speculatively.
    pub speculated_blocks: u64,
    /// Speculated blocks that conflicted (or failed) and were re-executed
    /// sequentially.
    pub conflict_blocks: u64,
    /// Kernels adaptively marked serial after conflict-heavy grids.
    pub serialized_kernels: u64,
}

/// The disjoint machine borrows the execution loop needs: read-only code
/// and dispatch tables, a memory view, a launch sink, and statistics.
struct ExecEnv<'m> {
    module: &'m Module,
    tables: &'m [Box<[ThreadedOp]>],
    limits: &'m ExecLimits,
    mem: MemView<'m>,
    launches: LaunchSink<'m>,
    stats: &'m mut MachineStats,
    instr_budget: &'m mut u64,
}

impl ExecEnv<'_> {
    #[inline]
    fn load(&mut self, addr: i64, shared: &[Value]) -> Result<Value, ExecError> {
        if addr >= SHARED_SPACE_BASE {
            let off = (addr - SHARED_SPACE_BASE) as usize;
            shared.get(off).copied().ok_or_else(|| {
                ExecError::new(format!("shared memory access out of bounds: offset {off}"))
            })
        } else {
            self.mem.load(addr)
        }
    }

    #[inline]
    fn store(&mut self, addr: i64, value: Value, shared: &mut [Value]) -> Result<(), ExecError> {
        if addr >= SHARED_SPACE_BASE {
            let off = (addr - SHARED_SPACE_BASE) as usize;
            match shared.get_mut(off) {
                Some(slot) => {
                    *slot = value;
                    Ok(())
                }
                None => Err(ExecError::new(format!(
                    "shared memory access out of bounds: offset {off}"
                ))),
            }
        } else {
            self.mem.store(addr, value)
        }
    }
}

struct BlockCtx {
    grid_dim: [i64; 3],
    block_dim: [i64; 3],
    block_idx: [i64; 3],
    grid_id: usize,
    linear_block: u64,
}

fn budget_exhausted() -> ExecError {
    ExecError::new(
        "instruction budget exhausted (possible infinite loop; raise ExecLimits::max_instructions)",
    )
}

// ----------------------------------------------------------------------
// Thread execution loops
// ----------------------------------------------------------------------

/// Runs one thread until it returns, reaches a barrier, or errors —
/// direct-threaded dispatch with segment accounting (see the module
/// docs): charge the straight-line segment that starts at pc once, then
/// call each of its ops' handlers through their function pointers, except
/// a trailing unconditional `Jump`, whose target the table already holds.
/// The per-function table is re-derived only when the frame stack changes.
fn run_thread_threaded(
    env: &mut ExecEnv<'_>,
    thread: &mut Thread,
    block: &BlockCtx,
    shared: &mut [Value],
    btrace: &mut BlockTrace,
) -> Result<(), ExecError> {
    let tables = env.tables;
    let mut s = StepCtx {
        env,
        thread,
        block,
        shared,
        btrace,
        error: None,
    };
    'frames: loop {
        let table: &[ThreadedOp] = &tables[s.thread.frame.func as usize];
        loop {
            let pc = s.thread.frame.pc;
            let Some(head) = table.get(pc) else {
                // Fell off the end of a void function.
                if fall_off_end(s.thread) {
                    continue 'frames;
                }
                return Ok(());
            };
            // A budget too small for the whole segment is charged one op
            // at a time (and dispatches it, a `Jump` included), so
            // exhaustion lands on the same op as it would under
            // per-instruction charging.
            let (charged, ops, next, width, cycles) =
                if *s.env.instr_budget >= head.seg_width as u64 {
                    (
                        head.seg_len as usize,
                        head.seg_ops as usize,
                        head.seg_next as usize,
                        head.seg_width as u64,
                        head.seg_cycles,
                    )
                } else {
                    (1, 1, pc + 1, head.width as u64, head.cycles)
                };
            s.thread.cycles += cycles;
            s.thread.instructions += width;
            s.thread.origin_cycles.add(head.origin, cycles);
            if *s.env.instr_budget < width {
                return Err(budget_exhausted());
            }
            *s.env.instr_budget -= width;
            // Only the last op of a run can jump, so the fall-through pc
            // is the run's end (or its elided jump's target).
            s.thread.frame.pc = next;
            for (i, op) in table[pc..pc + ops].iter().enumerate() {
                match (op.exec)(op, &mut s) {
                    Flow::Next => {}
                    Flow::Frame => continue 'frames,
                    Flow::Yield => return Ok(()),
                    Flow::Error => {
                        // Refund every charged op after the failing one,
                        // an elided trailing `Jump` included.
                        if i + 1 < charged {
                            refund_rest(s.thread, s.env.instr_budget, &table[pc + i + 1]);
                        }
                        return Err(s.error.take().expect("a failing handler parks its error"));
                    }
                }
            }
        }
    }
}

/// Takes back what segment accounting charged in advance for the ops from
/// `next` to the end of its segment, after the op before `next` errored —
/// leaving the counters exactly as per-instruction charging would.
#[cold]
fn refund_rest(thread: &mut Thread, budget: &mut u64, next: &ThreadedOp) {
    thread.cycles -= next.seg_cycles;
    thread.instructions -= next.seg_width as u64;
    thread.origin_cycles.0[origin_index(next.origin)] -= next.seg_cycles;
    *budget += next.seg_width as u64;
}

/// The reference `match (opcode)` dispatcher — byte-identical accounting
/// and semantics to [`run_thread_threaded`], kept for differential testing
/// and as the benchmark baseline. It charges per instruction: that is the
/// specification segment accounting reproduces.
fn run_thread_match(
    env: &mut ExecEnv<'_>,
    thread: &mut Thread,
    block: &BlockCtx,
    shared: &mut [Value],
    btrace: &mut BlockTrace,
) -> Result<(), ExecError> {
    let tables = env.tables;
    let t = thread;
    'frames: loop {
        let table: &[ThreadedOp] = &tables[t.frame.func as usize];
        loop {
            let pc = t.frame.pc;
            let Some(op) = table.get(pc) else {
                if fall_off_end(t) {
                    continue 'frames;
                }
                return Ok(());
            };
            t.frame.pc = pc + 1;
            let width = op.width as u64;
            t.cycles += op.cycles;
            t.instructions += width;
            t.origin_cycles.add(op.origin, op.cycles);
            if *env.instr_budget < width {
                return Err(budget_exhausted());
            }
            *env.instr_budget -= width;

            match op.instr {
                Instr::PushInt(v) => t.stack.push(Value::Int(v)),
                Instr::PushFloat(v) => t.stack.push(Value::Float(v)),
                Instr::LoadLocal(slot) => {
                    let v = t.frame.locals[slot as usize];
                    t.stack.push(v);
                }
                Instr::StoreLocal(slot) => {
                    let v = pop(&mut t.stack)?;
                    t.frame.locals[slot as usize] = v;
                }
                Instr::LoadMem => {
                    let addr = pop(&mut t.stack)?.as_int();
                    let v = env.load(addr, shared)?;
                    t.stack.push(v);
                }
                Instr::StoreMem => {
                    let v = pop(&mut t.stack)?;
                    let addr = pop(&mut t.stack)?.as_int();
                    env.store(addr, v, shared)?;
                }
                Instr::Bin(kind) => {
                    let b = pop(&mut t.stack)?;
                    let a = pop(&mut t.stack)?;
                    t.stack.push(bin_op(kind, a, b)?);
                }
                Instr::Un(kind) => {
                    let a = pop(&mut t.stack)?;
                    t.stack.push(un_op(kind, a));
                }
                Instr::CastInt => {
                    let a = pop(&mut t.stack)?;
                    t.stack.push(Value::Int(a.as_int()));
                }
                Instr::CastFloat => {
                    let a = pop(&mut t.stack)?;
                    t.stack.push(Value::Float(a.as_float()));
                }
                Instr::Jump(target) => t.frame.pc = target as usize,
                Instr::JumpIfZero(target) => {
                    if !pop(&mut t.stack)?.is_truthy() {
                        t.frame.pc = target as usize;
                    }
                }
                Instr::JumpIfNonZero(target) => {
                    if pop(&mut t.stack)?.is_truthy() {
                        t.frame.pc = target as usize;
                    }
                }
                Instr::Call(id, nargs) => {
                    let callee = &env.module.functions[id as usize];
                    let mut locals = t.spare_locals.pop().unwrap_or_default();
                    locals.clear();
                    locals.resize(callee.n_locals as usize, Value::Int(0));
                    for i in (0..nargs as usize).rev() {
                        let v = pop(&mut t.stack)?;
                        locals[i] = coerce(v, &callee.param_types[i]);
                    }
                    if t.callers.len() + 1 > 512 {
                        return Err(ExecError::new("device call stack overflow"));
                    }
                    let caller = std::mem::replace(
                        &mut t.frame,
                        Frame {
                            func: id,
                            pc: 0,
                            locals,
                        },
                    );
                    t.callers.push(caller);
                    continue 'frames;
                }
                Instr::Ret => {
                    let v = pop(&mut t.stack)?;
                    if t.pop_frame() {
                        t.stack.push(v);
                        continue 'frames;
                    }
                    t.status = ThreadStatus::Done;
                    return Ok(());
                }
                Instr::RetVoid => {
                    if fall_off_end(t) {
                        continue 'frames;
                    }
                    return Ok(());
                }
                Instr::Launch(id, nargs) => {
                    let mut args = vec![Value::Int(0); nargs as usize];
                    for i in (0..nargs as usize).rev() {
                        args[i] = pop(&mut t.stack)?;
                    }
                    let b = pop(&mut t.stack)?.as_dim3();
                    let g = pop(&mut t.stack)?.as_dim3();
                    let total_blocks = g[0] * g[1] * g[2];
                    if total_blocks <= 0 {
                        env.stats.empty_launches += 1;
                    } else {
                        let origin = LaunchOrigin::Device {
                            parent_grid: block.grid_id,
                            parent_block: block.linear_block,
                            issue_cycles: t.cycles,
                        };
                        let child = env
                            .launches
                            .enqueue(env.module, env.limits, id, g, b, args, origin)?;
                        btrace.launches.push(LaunchRecord {
                            child_grid: child,
                            issue_cycles: t.cycles,
                        });
                        env.stats.device_launches += 1;
                    }
                }
                Instr::Sync => {
                    t.status = ThreadStatus::AtBarrier;
                    return Ok(());
                }
                Instr::Fence => {
                    // Functional no-op; the cycle cost was already charged.
                }
                Instr::Atomic(kind) => {
                    let old = match kind {
                        AtomicOp::Cas => {
                            let val = pop(&mut t.stack)?;
                            let cmp = pop(&mut t.stack)?;
                            let addr = pop(&mut t.stack)?.as_int();
                            let old = env.load(addr, shared)?;
                            let new = if old == cmp { val } else { old };
                            env.store(addr, new, shared)?;
                            old
                        }
                        _ => {
                            let operand = pop(&mut t.stack)?;
                            let addr = pop(&mut t.stack)?.as_int();
                            let old = env.load(addr, shared)?;
                            let new = atomic_apply(kind, old, operand)?;
                            env.store(addr, new, shared)?;
                            old
                        }
                    };
                    t.stack.push(old);
                }
                Instr::Intrinsic(i) => {
                    let v = match i {
                        Intrinsic::Min | Intrinsic::Max | Intrinsic::Pow => {
                            let b = pop(&mut t.stack)?;
                            let a = pop(&mut t.stack)?;
                            intrinsic2(i, a, b)
                        }
                        _ => {
                            let a = pop(&mut t.stack)?;
                            intrinsic1(i, a)
                        }
                    };
                    t.stack.push(v);
                }
                Instr::ReadSpecial(sp) => {
                    let d = match sp {
                        Special::ThreadIdx => t.tidx,
                        Special::BlockIdx => block.block_idx,
                        Special::BlockDim => block.block_dim,
                        Special::GridDim => block.grid_dim,
                    };
                    t.stack.push(Value::Dim3(d));
                }
                Instr::ReadSpecialComp(sp, lane) => {
                    let d = match sp {
                        Special::ThreadIdx => t.tidx,
                        Special::BlockIdx => block.block_idx,
                        Special::BlockDim => block.block_dim,
                        Special::GridDim => block.grid_dim,
                    };
                    t.stack.push(Value::Int(d[lane as usize]));
                }
                Instr::MakeDim3 => {
                    let z = pop(&mut t.stack)?.as_int();
                    let y = pop(&mut t.stack)?.as_int();
                    let x = pop(&mut t.stack)?.as_int();
                    t.stack.push(Value::Dim3([x, y, z]));
                }
                Instr::Dim3Member(lane) => {
                    let d = pop(&mut t.stack)?.as_dim3();
                    t.stack.push(Value::Int(d[lane as usize]));
                }
                Instr::Dim3SetMember(lane) => {
                    let v = pop(&mut t.stack)?.as_int();
                    let mut d = pop(&mut t.stack)?.as_dim3();
                    d[lane as usize] = v;
                    t.stack.push(Value::Dim3(d));
                }
                Instr::Pop => {
                    pop(&mut t.stack)?;
                }
                Instr::Dup => {
                    let v = *t
                        .stack
                        .last()
                        .ok_or_else(|| ExecError::new("stack underflow on dup"))?;
                    t.stack.push(v);
                }
                Instr::Swap => {
                    let n = t.stack.len();
                    if n < 2 {
                        return Err(ExecError::new("stack underflow on swap"));
                    }
                    t.stack.swap(n - 1, n - 2);
                }

                // Fused superinstructions: each arm replicates the exact
                // observable semantics (including error cases) of its
                // expansion — see `Instr::expansion`.
                Instr::BinLocals(kind, a, b) => {
                    let a = t.frame.locals[a as usize];
                    let b = t.frame.locals[b as usize];
                    t.stack.push(bin_op(kind, a, b)?);
                }
                Instr::BinImm(kind, v) => {
                    let a = pop(&mut t.stack)?;
                    t.stack.push(bin_op(kind, a, Value::Int(v))?);
                }
                Instr::AddImmLocal(dst, src, delta) => {
                    let v = t.frame.locals[src as usize];
                    t.frame.locals[dst as usize] = bin_op(BinKind::Add, v, Value::Int(delta))?;
                }
                Instr::LoadLocalMem(slot) => {
                    let addr = t.frame.locals[slot as usize].as_int();
                    let v = env.load(addr, shared)?;
                    t.stack.push(v);
                }
                Instr::CmpBranchLocals(kind, a, b, target) => {
                    let a = t.frame.locals[a as usize];
                    let b = t.frame.locals[b as usize];
                    if !bin_op(kind, a, b)?.is_truthy() {
                        t.frame.pc = target as usize;
                    }
                }
                Instr::StoreLoadLocal(slot) => {
                    let v = *t
                        .stack
                        .last()
                        .ok_or_else(|| ExecError::new("operand stack underflow"))?;
                    t.frame.locals[slot as usize] = v;
                }
                Instr::CastStoreLocal(slot) => {
                    let v = pop(&mut t.stack)?;
                    t.frame.locals[slot as usize] = Value::Int(v.as_int());
                }
                Instr::CopyLocal(dst, src) => {
                    t.frame.locals[dst as usize] = t.frame.locals[src as usize];
                }
                Instr::LoadIndexed(a, b) => {
                    let a = t.frame.locals[a as usize];
                    let b = t.frame.locals[b as usize];
                    let addr = bin_op(BinKind::Add, a, b)?.as_int();
                    let v = env.load(addr, shared)?;
                    t.stack.push(v);
                }
                Instr::CmpBranch(kind, target) => {
                    let b = pop(&mut t.stack)?;
                    let a = pop(&mut t.stack)?;
                    if !bin_op(kind, a, b)?.is_truthy() {
                        t.frame.pc = target as usize;
                    }
                }
            }
        }
    }
}

#[inline]
fn run_thread(
    dispatch: DispatchMode,
    env: &mut ExecEnv<'_>,
    thread: &mut Thread,
    block: &BlockCtx,
    shared: &mut [Value],
    btrace: &mut BlockTrace,
) -> Result<(), ExecError> {
    match dispatch {
        DispatchMode::Threaded => run_thread_threaded(env, thread, block, shared, btrace),
        DispatchMode::Match => run_thread_match(env, thread, block, shared, btrace),
    }
}

/// Executes one block to completion against the given environment: arms
/// the arena's threads, round-robins them between barriers, and settles
/// the per-warp/per-origin accounting. Identical for the sequential and
/// speculative paths — only the `ExecEnv` views differ.
#[allow(clippy::too_many_arguments)]
fn run_block(
    env: &mut ExecEnv<'_>,
    arena: &mut BlockArena,
    reuse_state: bool,
    dispatch: DispatchMode,
    cost: &CostModel,
    grid: &PendingGrid,
    coerced_args: &[Value],
    block_idx: [i64; 3],
    linear_block: u64,
) -> Result<BlockTrace, ExecError> {
    let func = env.module.function(grid.kernel);
    let contains_launch = func.contains_launch;
    let n_locals = func.n_locals;
    let n_threads = (grid.block[0] * grid.block[1] * grid.block[2]) as usize;
    let shared_words = func.shared_words as usize;

    if !reuse_state {
        // Benchmarking baseline: behave like the pre-arena executor and
        // allocate everything fresh for this block.
        arena.threads.clear();
        arena.shared = Vec::new();
    }
    arena.shared.clear();
    arena.shared.resize(shared_words, Value::Int(0));
    arena.threads.truncate(n_threads);
    while arena.threads.len() < n_threads {
        arena.threads.push(Thread::new());
    }
    for (t, thread) in arena.threads.iter_mut().enumerate() {
        let t = t as i64;
        let tx = t % grid.block[0];
        let ty = (t / grid.block[0]) % grid.block[1];
        let tz = t / (grid.block[0] * grid.block[1]);
        thread.reset(grid.kernel, n_locals, coerced_args, [tx, ty, tz]);
    }
    let threads = &mut arena.threads;
    let shared = &mut arena.shared;

    let mut btrace = BlockTrace::default();
    let ctx = BlockCtx {
        grid_dim: grid.grid,
        block_dim: grid.block,
        block_idx,
        grid_id: grid.id,
        linear_block,
    };

    loop {
        let mut all_done = true;
        for thread in threads.iter_mut() {
            if matches!(thread.status, ThreadStatus::Running) {
                run_thread(dispatch, env, thread, &ctx, shared, &mut btrace)?;
            }
            if !matches!(thread.status, ThreadStatus::Done) {
                all_done = false;
            }
        }
        if all_done {
            break;
        }
        // Every live thread is at the barrier: release them.
        for thread in threads.iter_mut() {
            if matches!(thread.status, ThreadStatus::AtBarrier) {
                thread.status = ThreadStatus::Running;
            }
        }
    }

    // Per-warp cost: max thread cycles within each 32-thread group.
    let presence = if contains_launch {
        cost.launch_presence_overhead
    } else {
        0
    };
    for chunk in threads.chunks(32) {
        let max = chunk.iter().map(|t| t.cycles + presence).max().unwrap_or(0);
        btrace.warp_cycles.push(max);
    }
    for thread in threads.iter() {
        btrace.origin_cycles.merge(&thread.origin_cycles);
        btrace.instructions += thread.instructions;
    }
    if presence > 0 {
        btrace
            .origin_cycles
            .add(CodeOrigin::Original, presence * n_threads as u64);
    }
    env.stats.instructions += btrace.instructions;
    Ok(btrace)
}
// ----------------------------------------------------------------------
// Parallel block execution
// ----------------------------------------------------------------------

/// Per-worker reusable state: an arena for thread structs plus the
/// speculative memory overlay and its read/write tracking buffers. Owned
/// by the machine so repeated parallel grids allocate nothing.
#[derive(Default)]
struct ParWorker {
    arena: BlockArena,
    overlay: Vec<Value>,
    read_bits: Vec<u64>,
    write_bits: Vec<u64>,
    read_touched: Vec<u32>,
    write_touched: Vec<u32>,
}

impl ParWorker {
    /// Sizes the overlay/bitmaps for a memory snapshot of `words` words.
    /// Bitmaps are kept clear between blocks via the touched lists.
    fn prepare(&mut self, words: usize, chunks: usize) {
        if self.overlay.len() < words {
            self.overlay.resize(words, Value::Int(0));
        }
        if self.read_bits.len() < chunks {
            self.read_bits.resize(chunks, 0);
            self.write_bits.resize(chunks, 0);
        }
    }

    /// Drains the tracking buffers into compact per-block sets, clearing
    /// the bitmaps for the worker's next block. Returns `(reads,
    /// write_set, writes)` with chunks in ascending order (deterministic
    /// apply order).
    #[allow(clippy::type_complexity)]
    fn extract_and_clear(&mut self) -> (Vec<(u32, u64)>, Vec<(u32, u64)>, Vec<(usize, Value)>) {
        self.read_touched.sort_unstable();
        self.write_touched.sort_unstable();
        let reads: Vec<(u32, u64)> = self
            .read_touched
            .iter()
            .map(|&c| (c, self.read_bits[c as usize]))
            .collect();
        let write_set: Vec<(u32, u64)> = self
            .write_touched
            .iter()
            .map(|&c| (c, self.write_bits[c as usize]))
            .collect();
        let mut writes = Vec::new();
        for &(chunk, mask) in &write_set {
            let base = (chunk as usize) << 6;
            let mut m = mask;
            while m != 0 {
                let bit = m.trailing_zeros() as usize;
                let addr = base + bit;
                writes.push((addr, self.overlay[addr]));
                m &= m - 1;
            }
        }
        for &c in &self.read_touched {
            self.read_bits[c as usize] = 0;
        }
        for &c in &self.write_touched {
            self.write_bits[c as usize] = 0;
        }
        self.read_touched.clear();
        self.write_touched.clear();
        (reads, write_set, writes)
    }
}

/// One speculated (or re-executed) block, ready for in-order validation
/// and merge. An `Err` result from speculation means the block must be
/// re-executed sequentially (a real error will then reproduce
/// deterministically; a stale-state artifact will vanish); an `Err` from
/// re-execution is the run's error, and the partial `writes`/`launches`
/// issued before the fault are still applied so post-error machine state
/// matches sequential execution exactly.
struct SpecBlock {
    result: Result<BlockTrace, ExecError>,
    /// Device launches in issue order; `id` and the matching
    /// `btrace.launches[k].child_grid` are local placeholders.
    launches: Vec<PendingGrid>,
    reads: Vec<(u32, u64)>,
    write_set: Vec<(u32, u64)>,
    writes: Vec<(usize, Value)>,
    stats: MachineStats,
}

/// Runs one block speculatively against the snapshot through a worker's
/// tracked overlay.
#[allow(clippy::too_many_arguments)]
fn spec_run_block(
    worker: &mut ParWorker,
    base: &Memory,
    module: &Module,
    tables: &[Box<[ThreadedOp]>],
    limits: &ExecLimits,
    cost: &CostModel,
    dispatch: DispatchMode,
    reuse_state: bool,
    grid: &PendingGrid,
    coerced_args: &[Value],
    linear: u64,
    spec_budget: u64,
) -> SpecBlock {
    let mut stats = MachineStats::default();
    let mut budget = spec_budget;
    let mut launches: Vec<PendingGrid> = Vec::new();
    let block_idx = linear_to_block_idx(linear as i64, grid.grid);
    let outcome = {
        let mut env = ExecEnv {
            module,
            tables,
            limits,
            mem: MemView::Spec(SpecMem {
                base,
                overlay: &mut worker.overlay,
                read_bits: &mut worker.read_bits,
                write_bits: &mut worker.write_bits,
                read_touched: &mut worker.read_touched,
                write_touched: &mut worker.write_touched,
            }),
            launches: LaunchSink::Spec(&mut launches),
            stats: &mut stats,
            instr_budget: &mut budget,
        };
        run_block(
            &mut env,
            &mut worker.arena,
            reuse_state,
            dispatch,
            cost,
            grid,
            coerced_args,
            block_idx,
            linear,
        )
    };
    let (reads, write_set, writes) = worker.extract_and_clear();
    SpecBlock {
        result: outcome,
        launches,
        reads,
        write_set,
        writes,
        stats,
    }
}

fn linear_to_block_idx(linear: i64, grid_dim: [i64; 3]) -> [i64; 3] {
    let bx = linear % grid_dim[0];
    let by = (linear / grid_dim[0]) % grid_dim[1];
    let bz = linear / (grid_dim[0] * grid_dim[1]);
    [bx, by, bz]
}

// ----------------------------------------------------------------------
// The machine
// ----------------------------------------------------------------------

/// The simulated GPU: compiled module + memory + launch queue.
pub struct Machine {
    module: Module,
    /// Global device memory.
    pub mem: Memory,
    cost: CostModel,
    tables: Vec<Box<[ThreadedOp]>>,
    limits: ExecLimits,
    pending: VecDeque<PendingGrid>,
    next_grid_id: usize,
    trace: ExecutionTrace,
    stats: MachineStats,
    instr_budget: u64,
    arena: BlockArena,
    reuse_state: bool,
    dispatch: DispatchMode,
    /// `None` = auto (shared `DPOPT_JOBS` budget); `Some(n)` = exactly `n`
    /// workers, bypassing the budget (benchmark/test override).
    par_jobs: Option<usize>,
    /// Kernels adaptively marked serial after a conflict-heavy grid.
    kernel_serial: Vec<bool>,
    par_workers: Vec<ParWorker>,
    par_stats: ParallelStats,
    /// Cumulative write bitmap reused by the merge phase.
    merge_write_bits: Vec<u64>,
}

impl Machine {
    /// Creates a machine for a compiled module with default cost model and
    /// limits.
    pub fn new(module: Module) -> Self {
        Machine::with_config(module, CostModel::default(), ExecLimits::default())
    }

    /// Creates a machine with an explicit cost model and limits.
    pub fn with_config(module: Module, cost: CostModel, limits: ExecLimits) -> Self {
        let tables = build_tables(&module, &cost);
        let n_functions = module.functions.len();
        Machine {
            module,
            mem: Memory::new(),
            cost,
            tables,
            limits,
            pending: VecDeque::new(),
            next_grid_id: 0,
            trace: ExecutionTrace::default(),
            stats: MachineStats::default(),
            instr_budget: limits.max_instructions,
            arena: BlockArena::default(),
            reuse_state: true,
            dispatch: DispatchMode::default(),
            par_jobs: None,
            kernel_serial: vec![false; n_functions],
            par_workers: Vec::new(),
            par_stats: ParallelStats::default(),
            merge_write_bits: Vec::new(),
        }
    }

    /// Enables or disables pooling of per-block execution state (on by
    /// default). Disabling forces every block to allocate fresh thread
    /// state, reproducing the pre-arena executor — a benchmarking knob for
    /// `vmbench`'s baseline, not something callers should normally touch.
    pub fn set_state_reuse(&mut self, on: bool) {
        self.reuse_state = on;
    }

    /// Selects the dispatch loop (threaded by default). Both modes are
    /// bit-identical in results and accounting; `Match` exists for
    /// differential tests and the `vmbench` baseline.
    pub fn set_dispatch(&mut self, mode: DispatchMode) {
        self.dispatch = mode;
    }

    /// The current dispatch mode.
    pub fn dispatch(&self) -> DispatchMode {
        self.dispatch
    }

    /// Sets the worker count for parallel block execution. `0` restores
    /// the default: draw workers from the process-wide `DPOPT_JOBS` budget
    /// shared with the sweep engine (so nested parallelism cannot
    /// oversubscribe). A non-zero value forces exactly that many workers,
    /// bypassing the budget — results are identical either way; only
    /// wall-clock changes.
    pub fn set_block_parallelism(&mut self, jobs: usize) {
        self.par_jobs = if jobs == 0 { None } else { Some(jobs) };
        // A fresh explicit setting is a fresh chance for kernels that were
        // adaptively serialized under the previous regime.
        self.kernel_serial.fill(false);
    }

    /// Counters for the parallel block executor (not part of the
    /// determinism contract — see [`ParallelStats`]).
    pub fn parallel_stats(&self) -> ParallelStats {
        self.par_stats
    }

    /// The compiled module.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The segment suffix sums of function `func`'s dispatch table, one
    /// `(len, width, cycles)` triple per pc (see the module docs) — for
    /// table-invariant tests.
    #[doc(hidden)]
    pub fn segment_suffixes(&self, func: FuncId) -> Vec<(u32, u32, u64)> {
        self.tables[func as usize]
            .iter()
            .map(|op| (op.seg_len, op.seg_width, op.seg_cycles))
            .collect()
    }

    /// Where each pc's segment leaves function `func`'s dispatch table, one
    /// `(dispatched ops, next pc)` pair per pc: a segment ending in an
    /// unconditional `Jump` dispatches one op fewer than it charges and
    /// continues at the jump's target — for table-invariant tests.
    #[doc(hidden)]
    pub fn segment_exits(&self, func: FuncId) -> Vec<(u32, u32)> {
        self.tables[func as usize]
            .iter()
            .map(|op| (op.seg_ops, op.seg_next))
            .collect()
    }

    /// Statistics so far.
    pub fn stats(&self) -> MachineStats {
        self.stats
    }

    /// Allocates device memory.
    pub fn alloc(&mut self, words: usize) -> i64 {
        self.mem.alloc(words)
    }

    /// Allocates and writes a slice of integers (one bounds check).
    pub fn alloc_i64s(&mut self, values: &[i64]) -> i64 {
        let base = self.mem.alloc(values.len().max(1));
        let dst = self
            .mem
            .slice_mut(base, values.len())
            .expect("freshly allocated");
        for (d, v) in dst.iter_mut().zip(values) {
            *d = Value::Int(*v);
        }
        base
    }

    /// Allocates and writes a slice of floats (one bounds check).
    pub fn alloc_f64s(&mut self, values: &[f64]) -> i64 {
        let base = self.mem.alloc(values.len().max(1));
        let dst = self
            .mem
            .slice_mut(base, values.len())
            .expect("freshly allocated");
        for (d, v) in dst.iter_mut().zip(values) {
            *d = Value::Float(*v);
        }
        base
    }

    /// Reads `len` integers starting at `ptr` (one bounds check).
    pub fn read_i64s(&self, ptr: i64, len: usize) -> Result<Vec<i64>, ExecError> {
        Ok(self
            .mem
            .read_range(ptr, len)?
            .iter()
            .map(|v| v.as_int())
            .collect())
    }

    /// Reads `len` floats starting at `ptr` (one bounds check).
    pub fn read_f64s(&self, ptr: i64, len: usize) -> Result<Vec<f64>, ExecError> {
        Ok(self
            .mem
            .read_range(ptr, len)?
            .iter()
            .map(|v| v.as_float())
            .collect())
    }

    /// Enqueues a host-side kernel launch. Returns the grid id.
    ///
    /// # Errors
    ///
    /// Fails if the kernel is unknown, not `__global__`, or the
    /// configuration violates hardware limits.
    pub fn launch_host(
        &mut self,
        kernel: &str,
        grid: impl Into<Value>,
        block: impl Into<Value>,
        args: &[Value],
    ) -> Result<usize, ExecError> {
        let id = self
            .module
            .id_of(kernel)
            .ok_or_else(|| ExecError::new(format!("unknown kernel `{kernel}`")))?;
        let mut sink = LaunchSink::Direct {
            pending: &mut self.pending,
            next_grid_id: &mut self.next_grid_id,
        };
        sink.enqueue(
            &self.module,
            &self.limits,
            id,
            grid.into().as_dim3(),
            block.into().as_dim3(),
            args.to_vec(),
            LaunchOrigin::Host,
        )
    }

    /// Runs every pending grid (and everything they launch) to completion —
    /// the equivalent of `cudaDeviceSynchronize()`.
    pub fn run_to_quiescence(&mut self) -> Result<(), ExecError> {
        let _span = dp_obs::trace::span("vm.run");
        let started = dp_obs::metrics::now();
        let result = (|| {
            while let Some(grid) = self.pending.pop_front() {
                // Grid boundaries are the VM's cooperative yield points:
                // when this machine runs inside a bulk pool job (a sweep
                // cell), a queued interactive request may borrow the
                // worker between grids. Off-pool threads: cheap no-op.
                dp_pool::checkpoint();
                self.execute_grid(grid)?;
            }
            Ok(())
        })();
        VM_RUN_US.record_since(started);
        result
    }

    /// Takes the accumulated execution trace, leaving an empty one.
    pub fn take_trace(&mut self) -> ExecutionTrace {
        std::mem::take(&mut self.trace)
    }

    /// Read-only view of the trace so far.
    pub fn trace(&self) -> &ExecutionTrace {
        &self.trace
    }

    /// Decides the worker count for a grid; `1` means sequential.
    ///
    /// In auto mode the count comes from the shared pool
    /// ([`dp_pool::Pool::shared`]), which resolved the `DPOPT_JOBS` budget
    /// once at pool init (precedence: `--jobs` flag > env > available
    /// parallelism): speculation is worth starting only when pool workers
    /// are actually idle, and a grid that is already running *on* a pool
    /// worker (a sweep cell, a served request) stays sequential — the
    /// nesting discipline the per-grid budget reservation used to enforce.
    /// A forced count ([`Machine::set_block_parallelism`]) bypasses the
    /// idle gate; its helper loops degrade inline if the pool is empty.
    fn plan_workers(&self, kernel: FuncId, num_blocks: u64) -> usize {
        if num_blocks < MIN_PARALLEL_BLOCKS {
            return 1;
        }
        // A finite instruction budget is consumed in execution order;
        // exhaustion mid-grid must reproduce exactly, so budgeted runs
        // stay sequential.
        if self.limits.max_instructions != u64::MAX {
            return 1;
        }
        if self.kernel_serial[kernel as usize] {
            return 1;
        }
        match self.par_jobs {
            Some(forced) => forced.min(num_blocks as usize).max(1),
            None => {
                if dp_pool::is_worker_thread() {
                    return 1;
                }
                let pool = dp_pool::Pool::shared();
                let cap = (pool.threads() + 1).min(num_blocks as usize);
                if cap <= 1 {
                    return 1;
                }
                1 + pool.available_workers().min(cap - 1)
            }
        }
    }

    fn execute_grid(&mut self, grid: PendingGrid) -> Result<(), ExecError> {
        let num_blocks = grid.grid[0] * grid.grid[1] * grid.grid[2];
        let func = self.module.function(grid.kernel);
        // Coerce kernel arguments to their declared parameter types once per
        // grid — every block (and thread) starts from the same locals image.
        let coerced_args: Vec<Value> = grid
            .args
            .iter()
            .zip(&func.param_types)
            .map(|(arg, ty)| coerce(*arg, ty))
            .collect();
        let mut gtrace = GridTrace {
            id: grid.id,
            kernel: func.name.clone(),
            grid_dim: grid.grid,
            block_dim: grid.block,
            origin: grid.origin,
            blocks: Vec::with_capacity(num_blocks as usize),
        };

        let workers = self.plan_workers(grid.kernel, num_blocks as u64);
        if workers > 1 {
            self.execute_grid_parallel(&grid, &coerced_args, &mut gtrace, workers)?;
        } else {
            for linear in 0..num_blocks {
                let block_idx = linear_to_block_idx(linear, grid.grid);
                let btrace =
                    self.run_block_direct(&grid, &coerced_args, block_idx, linear as u64)?;
                gtrace.blocks.push(btrace);
            }
        }

        self.stats.grids_executed += 1;
        // Grid ids are assigned at enqueue time in FIFO order, so the
        // executed order matches id order.
        debug_assert_eq!(gtrace.id, self.trace.grids.len());
        self.trace.grids.push(gtrace);
        Ok(())
    }

    /// Sequential block execution straight against machine state.
    fn run_block_direct(
        &mut self,
        grid: &PendingGrid,
        coerced_args: &[Value],
        block_idx: [i64; 3],
        linear_block: u64,
    ) -> Result<BlockTrace, ExecError> {
        // Split the machine into disjoint borrows: the run loop reads the
        // module/dispatch tables while mutating memory, the launch queue,
        // and thread state.
        let Machine {
            module,
            mem,
            cost,
            tables,
            limits,
            pending,
            next_grid_id,
            stats,
            instr_budget,
            arena,
            reuse_state,
            dispatch,
            ..
        } = self;
        let mut env = ExecEnv {
            module,
            tables,
            limits,
            mem: MemView::Direct(mem),
            launches: LaunchSink::Direct {
                pending,
                next_grid_id,
            },
            stats,
            instr_budget,
        };
        run_block(
            &mut env,
            arena,
            *reuse_state,
            *dispatch,
            cost,
            grid,
            coerced_args,
            block_idx,
            linear_block,
        )
    }

    /// Speculative parallel execution of one grid's blocks, followed by an
    /// in-block-order validate/merge pass that keeps every observable
    /// output bit-identical to sequential execution.
    fn execute_grid_parallel(
        &mut self,
        grid: &PendingGrid,
        coerced_args: &[Value],
        gtrace: &mut GridTrace,
        workers: usize,
    ) -> Result<(), ExecError> {
        let num_blocks = (grid.grid[0] * grid.grid[1] * grid.grid[2]) as usize;
        let blocks_attr;
        let _span = if dp_obs::trace::active() {
            blocks_attr = num_blocks.to_string();
            dp_obs::trace::span_with(
                "vm.grid",
                &[
                    ("kernel", &self.module.function(grid.kernel).name),
                    ("blocks", &blocks_attr),
                ],
            )
        } else {
            dp_obs::trace::span("vm.grid")
        };
        let words = self.mem.allocated_words();
        let chunks = words.div_ceil(64);
        while self.par_workers.len() < workers {
            self.par_workers.push(ParWorker::default());
        }
        let Machine {
            module,
            mem,
            cost,
            tables,
            limits,
            pending,
            next_grid_id,
            stats,
            instr_budget,
            reuse_state,
            dispatch,
            kernel_serial,
            par_workers,
            par_stats,
            merge_write_bits,
            ..
        } = self;
        let (reuse_state, dispatch) = (*reuse_state, *dispatch);

        // ---- Speculation: workers race through the block list against an
        // immutable snapshot of memory.
        let mut results: Vec<Mutex<Option<SpecBlock>>> =
            (0..num_blocks).map(|_| Mutex::new(None)).collect();
        {
            let base: &Memory = mem;
            let next = AtomicUsize::new(0);
            let results = &results;
            let run_worker = |worker: &mut ParWorker| {
                worker.prepare(words, chunks);
                loop {
                    let linear = next.fetch_add(1, Ordering::Relaxed);
                    if linear >= num_blocks {
                        return;
                    }
                    let r = spec_run_block(
                        worker,
                        base,
                        module,
                        tables,
                        limits,
                        cost,
                        dispatch,
                        reuse_state,
                        grid,
                        coerced_args,
                        linear as u64,
                        SPEC_BLOCK_BUDGET,
                    );
                    *results[linear].lock().expect("results lock") = Some(r);
                }
            };
            // Helper loops run on the shared persistent pool (no per-grid
            // thread spawns); the calling thread is always one of the
            // workers, so progress never depends on pool availability.
            dp_pool::Pool::shared().scope(|scope| {
                let mut iter = par_workers[..workers].iter_mut();
                let mine = iter.next().expect("at least one worker");
                for worker in iter {
                    scope.spawn_as(dp_pool::JobClass::Bulk, || run_worker(worker));
                }
                run_worker(mine);
            });
        }

        // ---- Merge in linear block order: validate against everything
        // earlier blocks wrote, apply or re-execute, then enqueue the
        // block's launches with their real grid ids.
        let cum = merge_write_bits;
        cum.clear();
        cum.resize(chunks, 0);
        let mut invalid_blocks = 0u64;
        for (linear, slot) in results.iter_mut().enumerate() {
            let r = slot
                .get_mut()
                .expect("results lock")
                .take()
                .expect("block speculated");
            let valid = r.result.is_ok()
                && !r
                    .reads
                    .iter()
                    .any(|&(chunk, mask)| cum[chunk as usize] & mask != 0);
            let spec = if valid {
                r
            } else {
                invalid_blocks += 1;
                if par_debug() {
                    let reason = match &r.result {
                        Ok(_) => "read/write overlap with an earlier block".to_string(),
                        Err(e) => format!("speculation aborted: {e}"),
                    };
                    dp_obs::diag!(
                        "[dp-vm] overlap: kernel `{}` block {linear}: {reason}; re-executing sequentially",
                        module.function(grid.kernel).name
                    );
                }
                // Deterministic sequential re-execution against live
                // memory (all earlier blocks applied), still through a
                // tracked view so later validation sees its writes.
                let worker = &mut par_workers[0];
                worker.prepare(words, chunks);
                spec_run_block(
                    worker,
                    mem,
                    module,
                    tables,
                    limits,
                    cost,
                    dispatch,
                    reuse_state,
                    grid,
                    coerced_args,
                    linear as u64,
                    u64::MAX,
                )
            };
            // Apply writes and enqueue launches *before* propagating any
            // re-execution error: a sequential run's fault leaves its
            // partial effects behind, and so must the parallel run.
            for &(addr, v) in &spec.writes {
                mem.data[addr] = v;
            }
            for &(chunk, mask) in &spec.write_set {
                cum[chunk as usize] |= mask;
            }
            let mut btrace = match spec.result {
                Ok(btrace) => btrace,
                Err(e) => {
                    for mut pg in spec.launches {
                        if pending.len() >= limits.max_pending {
                            return Err(pending_overflow());
                        }
                        pg.id = *next_grid_id;
                        *next_grid_id += 1;
                        pending.push_back(pg);
                    }
                    stats.device_launches += spec.stats.device_launches;
                    stats.empty_launches += spec.stats.empty_launches;
                    return Err(e);
                }
            };
            for (k, mut pg) in spec.launches.into_iter().enumerate() {
                if pending.len() >= limits.max_pending {
                    return Err(pending_overflow());
                }
                pg.id = *next_grid_id;
                *next_grid_id += 1;
                btrace.launches[k].child_grid = pg.id;
                pending.push_back(pg);
            }
            stats.instructions += btrace.instructions;
            stats.device_launches += spec.stats.device_launches;
            stats.empty_launches += spec.stats.empty_launches;
            *instr_budget = instr_budget.saturating_sub(btrace.instructions);
            gtrace.blocks.push(btrace);
        }

        par_stats.parallel_grids += 1;
        par_stats.speculated_blocks += num_blocks as u64;
        par_stats.conflict_blocks += invalid_blocks;
        VM_PAR_GRIDS.incr();
        VM_SPEC_BLOCKS.add(num_blocks as u64);
        VM_CONFLICT_BLOCKS.add(invalid_blocks);
        if invalid_blocks * 2 > num_blocks as u64 && !kernel_serial[grid.kernel as usize] {
            // This kernel's blocks are coupled (e.g. a cross-block atomic
            // reduction): stop paying speculation for it.
            kernel_serial[grid.kernel as usize] = true;
            par_stats.serialized_kernels += 1;
            VM_SERIALIZED.incr();
            if par_debug() {
                dp_obs::diag!(
                    "[dp-vm] kernel `{}` marked serial after {invalid_blocks}/{num_blocks} conflicting blocks",
                    module.function(grid.kernel).name
                );
            }
        }
        Ok(())
    }
}

fn coerce(v: Value, ty: &Type) -> Value {
    match ty {
        Type::Int | Type::UInt | Type::Long | Type::ULong | Type::Bool => Value::Int(v.as_int()),
        Type::Float | Type::Double => Value::Float(v.as_float()),
        Type::Dim3 => Value::Dim3(v.as_dim3()),
        Type::Ptr(_) | Type::Void => v,
    }
}

fn bin_op(kind: BinKind, a: Value, b: Value) -> Result<Value, ExecError> {
    use BinKind::*;
    if a.is_float() || b.is_float() {
        let (x, y) = (a.as_float(), b.as_float());
        let v = match kind {
            Add => Value::Float(x + y),
            Sub => Value::Float(x - y),
            Mul => Value::Float(x * y),
            Div => Value::Float(x / y),
            Rem => Value::Float(x % y),
            Lt => Value::from(x < y),
            Le => Value::from(x <= y),
            Gt => Value::from(x > y),
            Ge => Value::from(x >= y),
            Eq => Value::from(x == y),
            Ne => Value::from(x != y),
            BitAnd | BitOr | BitXor | Shl | Shr => {
                return Err(ExecError::new("bitwise operation on float"))
            }
        };
        return Ok(v);
    }
    let (x, y) = (a.as_int(), b.as_int());
    let v = match kind {
        Add => Value::Int(x.wrapping_add(y)),
        Sub => Value::Int(x.wrapping_sub(y)),
        Mul => Value::Int(x.wrapping_mul(y)),
        Div => {
            if y == 0 {
                return Err(ExecError::new("integer division by zero"));
            }
            Value::Int(x.wrapping_div(y))
        }
        Rem => {
            if y == 0 {
                return Err(ExecError::new("integer remainder by zero"));
            }
            Value::Int(x.wrapping_rem(y))
        }
        Lt => Value::from(x < y),
        Le => Value::from(x <= y),
        Gt => Value::from(x > y),
        Ge => Value::from(x >= y),
        Eq => Value::from(x == y),
        Ne => Value::from(x != y),
        BitAnd => Value::Int(x & y),
        BitOr => Value::Int(x | y),
        BitXor => Value::Int(x ^ y),
        Shl => Value::Int(x.wrapping_shl((y & 63) as u32)),
        Shr => Value::Int(x.wrapping_shr((y & 63) as u32)),
    };
    Ok(v)
}

fn un_op(kind: UnKind, a: Value) -> Value {
    match kind {
        UnKind::Neg => match a {
            Value::Float(f) => Value::Float(-f),
            other => Value::Int(-other.as_int()),
        },
        UnKind::Not => Value::from(!a.is_truthy()),
        UnKind::BitNot => Value::Int(!a.as_int()),
    }
}

fn atomic_apply(op: AtomicOp, old: Value, operand: Value) -> Result<Value, ExecError> {
    let v = match op {
        AtomicOp::Add => bin_op(BinKind::Add, old, operand)?,
        AtomicOp::Sub => bin_op(BinKind::Sub, old, operand)?,
        AtomicOp::Max => {
            if old.is_float() || operand.is_float() {
                Value::Float(old.as_float().max(operand.as_float()))
            } else {
                Value::Int(old.as_int().max(operand.as_int()))
            }
        }
        AtomicOp::Min => {
            if old.is_float() || operand.is_float() {
                Value::Float(old.as_float().min(operand.as_float()))
            } else {
                Value::Int(old.as_int().min(operand.as_int()))
            }
        }
        AtomicOp::Exch => operand,
        AtomicOp::Or => Value::Int(old.as_int() | operand.as_int()),
        AtomicOp::And => Value::Int(old.as_int() & operand.as_int()),
        AtomicOp::Cas => unreachable!("handled separately"),
    };
    Ok(v)
}

fn intrinsic1(i: Intrinsic, a: Value) -> Value {
    match i {
        Intrinsic::Abs => match a {
            Value::Float(f) => Value::Float(f.abs()),
            other => Value::Int(other.as_int().abs()),
        },
        Intrinsic::Sqrt => Value::Float(a.as_float().sqrt()),
        Intrinsic::Ceil => Value::Float(a.as_float().ceil()),
        Intrinsic::Floor => Value::Float(a.as_float().floor()),
        Intrinsic::Exp => Value::Float(a.as_float().exp()),
        Intrinsic::Log => Value::Float(a.as_float().ln()),
        _ => unreachable!("binary intrinsic"),
    }
}

fn intrinsic2(i: Intrinsic, a: Value, b: Value) -> Value {
    match i {
        Intrinsic::Min => {
            if a.is_float() || b.is_float() {
                Value::Float(a.as_float().min(b.as_float()))
            } else {
                Value::Int(a.as_int().min(b.as_int()))
            }
        }
        Intrinsic::Max => {
            if a.is_float() || b.is_float() {
                Value::Float(a.as_float().max(b.as_float()))
            } else {
                Value::Int(a.as_int().max(b.as_int()))
            }
        }
        Intrinsic::Pow => Value::Float(a.as_float().powf(b.as_float())),
        _ => unreachable!("unary intrinsic"),
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::compile_program;

    fn machine(src: &str) -> Machine {
        let p = dp_frontend::parse(src).unwrap();
        Machine::new(compile_program(&p).unwrap())
    }

    #[test]
    fn simple_kernel_writes_memory() {
        let mut m = machine("__global__ void k(int* d) { d[threadIdx.x] = threadIdx.x * 2; }");
        let buf = m.alloc(8);
        m.launch_host("k", 1, 8, &[Value::Int(buf)]).unwrap();
        m.run_to_quiescence().unwrap();
        assert_eq!(
            m.read_i64s(buf, 8).unwrap(),
            vec![0, 2, 4, 6, 8, 10, 12, 14]
        );
    }

    #[test]
    fn grid_and_block_indexing() {
        let mut m = machine(
            "__global__ void k(int* d, int n) { \
                 int i = blockIdx.x * blockDim.x + threadIdx.x; \
                 if (i < n) { d[i] = i; } }",
        );
        let buf = m.alloc(100);
        m.launch_host("k", 4, 32, &[Value::Int(buf), Value::Int(100)])
            .unwrap();
        m.run_to_quiescence().unwrap();
        let data = m.read_i64s(buf, 100).unwrap();
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as i64));
    }

    #[test]
    fn loops_and_floats() {
        let mut m = machine(
            "__global__ void k(float* out, int n) { \
                 float sum = 0.0; \
                 for (int i = 0; i < n; ++i) { sum += (float)i * 0.5; } \
                 out[0] = sum; }",
        );
        let buf = m.alloc(1);
        m.launch_host("k", 1, 1, &[Value::Int(buf), Value::Int(10)])
            .unwrap();
        m.run_to_quiescence().unwrap();
        assert_eq!(m.read_f64s(buf, 1).unwrap()[0], 22.5);
    }

    #[test]
    fn device_function_calls() {
        let mut m = machine(
            "__device__ int square(int x) { return x * x; }\n\
             __global__ void k(int* d) { d[threadIdx.x] = square(threadIdx.x); }",
        );
        let buf = m.alloc(4);
        m.launch_host("k", 1, 4, &[Value::Int(buf)]).unwrap();
        m.run_to_quiescence().unwrap();
        assert_eq!(m.read_i64s(buf, 4).unwrap(), vec![0, 1, 4, 9]);
    }

    #[test]
    fn recursion_works() {
        let mut m = machine(
            "__device__ int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); }\n\
             __global__ void k(int* d) { d[0] = fact(6); }",
        );
        let buf = m.alloc(1);
        m.launch_host("k", 1, 1, &[Value::Int(buf)]).unwrap();
        m.run_to_quiescence().unwrap();
        assert_eq!(m.read_i64s(buf, 1).unwrap()[0], 720);
    }

    #[test]
    fn atomics_are_deterministic() {
        let mut m = machine("__global__ void k(int* counter) { atomicAdd(&counter[0], 1); }");
        let buf = m.alloc(1);
        m.launch_host("k", 4, 64, &[Value::Int(buf)]).unwrap();
        m.run_to_quiescence().unwrap();
        assert_eq!(m.read_i64s(buf, 1).unwrap()[0], 256);
    }

    #[test]
    fn atomic_max_min_cas() {
        let mut m = machine(
            "__global__ void k(int* d) { \
                 atomicMax(&d[0], threadIdx.x); \
                 atomicMin(&d[1], threadIdx.x); \
                 atomicCAS(&d[2], 0, threadIdx.x + 100); }",
        );
        let buf = m.alloc(3);
        m.mem.write(buf + 1, Value::Int(999)).unwrap();
        m.launch_host("k", 1, 8, &[Value::Int(buf)]).unwrap();
        m.run_to_quiescence().unwrap();
        let d = m.read_i64s(buf, 3).unwrap();
        assert_eq!(d[0], 7);
        assert_eq!(d[1], 0);
        assert_eq!(d[2], 100, "only thread 0's CAS succeeds");
    }

    #[test]
    fn syncthreads_orders_phases() {
        // Thread 0 writes after the barrier what thread 7 wrote before it.
        let mut m = machine(
            "__global__ void k(int* d) { \
                 __shared__ int tile[8]; \
                 tile[threadIdx.x] = threadIdx.x * 10; \
                 __syncthreads(); \
                 d[threadIdx.x] = tile[7 - threadIdx.x]; }",
        );
        let buf = m.alloc(8);
        m.launch_host("k", 1, 8, &[Value::Int(buf)]).unwrap();
        m.run_to_quiescence().unwrap();
        assert_eq!(
            m.read_i64s(buf, 8).unwrap(),
            vec![70, 60, 50, 40, 30, 20, 10, 0]
        );
    }

    #[test]
    fn dynamic_launch_executes_child() {
        let mut m = machine(
            "__global__ void child(int* d, int base) { d[base + threadIdx.x] = 1; }\n\
             __global__ void parent(int* d) { child<<<1, 4>>>(d, threadIdx.x * 4); }",
        );
        let buf = m.alloc(16);
        m.launch_host("parent", 1, 4, &[Value::Int(buf)]).unwrap();
        m.run_to_quiescence().unwrap();
        assert_eq!(m.read_i64s(buf, 16).unwrap(), vec![1; 16]);
        assert_eq!(m.stats().device_launches, 4);
        let trace = m.take_trace();
        assert_eq!(trace.grids.len(), 5);
        assert_eq!(trace.device_launches(), 4);
    }

    #[test]
    fn zero_sized_launch_is_noop() {
        let mut m = machine(
            "__global__ void child(int* d) { d[0] = 99; }\n\
             __global__ void parent(int* d, int n) { child<<<n, 32>>>(d); }",
        );
        let buf = m.alloc(1);
        m.launch_host("parent", 1, 1, &[Value::Int(buf), Value::Int(0)])
            .unwrap();
        m.run_to_quiescence().unwrap();
        assert_eq!(m.read_i64s(buf, 1).unwrap()[0], 0);
        assert_eq!(m.stats().empty_launches, 1);
        assert_eq!(m.stats().device_launches, 0);
    }

    #[test]
    fn nested_launches_two_levels() {
        let mut m = machine(
            "__global__ void leaf(int* d) { atomicAdd(&d[0], 1); }\n\
             __global__ void mid(int* d) { leaf<<<1, 2>>>(d); }\n\
             __global__ void root(int* d) { mid<<<2, 1>>>(d); }",
        );
        let buf = m.alloc(1);
        m.launch_host("root", 1, 1, &[Value::Int(buf)]).unwrap();
        m.run_to_quiescence().unwrap();
        // root → 2 mid blocks × 1 thread → 2 leaf launches × 2 threads.
        assert_eq!(m.read_i64s(buf, 1).unwrap()[0], 4);
    }

    #[test]
    fn dim3_launch_configuration() {
        let mut m = machine(
            "__global__ void k(int* d) { \
                 int i = (blockIdx.y * gridDim.x + blockIdx.x) * blockDim.x + threadIdx.x; \
                 d[i] = blockIdx.y; }",
        );
        let buf = m.alloc(24);
        m.launch_host("k", Value::Dim3([3, 2, 1]), 4, &[Value::Int(buf)])
            .unwrap();
        m.run_to_quiescence().unwrap();
        let d = m.read_i64s(buf, 24).unwrap();
        assert_eq!(d[0], 0);
        assert_eq!(d[23], 1);
    }

    #[test]
    fn out_of_bounds_access_errors() {
        let mut m = machine("__global__ void k(int* d) { d[1000000] = 1; }");
        let buf = m.alloc(4);
        m.launch_host("k", 1, 1, &[Value::Int(buf)]).unwrap();
        let err = m.run_to_quiescence().unwrap_err();
        assert!(err.to_string().contains("out of bounds"));
    }

    #[test]
    fn division_by_zero_errors() {
        let mut m = machine("__global__ void k(int* d, int z) { d[0] = 5 / z; }");
        let buf = m.alloc(1);
        m.launch_host("k", 1, 1, &[Value::Int(buf), Value::Int(0)])
            .unwrap();
        assert!(m.run_to_quiescence().is_err());
    }

    #[test]
    fn infinite_loop_hits_budget() {
        let p =
            dp_frontend::parse("__global__ void k(int* d) { while (true) { d[0] = 1; } }").unwrap();
        let module = compile_program(&p).unwrap();
        let limits = ExecLimits {
            max_instructions: 10_000,
            ..Default::default()
        };
        let mut m = Machine::with_config(module, CostModel::default(), limits);
        let buf = m.alloc(1);
        m.launch_host("k", 1, 1, &[Value::Int(buf)]).unwrap();
        let err = m.run_to_quiescence().unwrap_err();
        assert!(err.to_string().contains("instruction budget"));
    }

    #[test]
    fn oversized_block_rejected() {
        let mut m = machine("__global__ void k(int* d) { d[0] = 1; }");
        let buf = m.alloc(1);
        assert!(m.launch_host("k", 1, 2048, &[Value::Int(buf)]).is_err());
    }

    #[test]
    fn trace_records_warp_cycles_and_divergence() {
        // Thread 31 does far more work; warp max must reflect it.
        let mut m = machine(
            "__global__ void k(int* d) { \
                 if (threadIdx.x == 31) { \
                     int s = 0; \
                     for (int i = 0; i < 1000; ++i) { s += i; } \
                     d[0] = s; \
                 } }",
        );
        let buf = m.alloc(1);
        m.launch_host("k", 1, 64, &[Value::Int(buf)]).unwrap();
        m.run_to_quiescence().unwrap();
        let trace = m.take_trace();
        let block = &trace.grids[0].blocks[0];
        assert_eq!(block.warp_cycles.len(), 2);
        assert!(
            block.warp_cycles[0] > 10 * block.warp_cycles[1],
            "divergent warp should dominate: {:?}",
            block.warp_cycles
        );
    }

    #[test]
    fn launch_presence_overhead_is_charged() {
        let src_with = "__global__ void c(int* d) { d[0] = 1; }\n\
                        __global__ void k(int* d, int n) { if (n > 1000) { c<<<1, 1>>>(d); } d[1] = 2; }";
        let src_without = "__global__ void k(int* d, int n) { d[1] = 2; }";
        let run = |src: &str| {
            let mut m = machine(src);
            let buf = m.alloc(2);
            m.launch_host("k", 1, 32, &[Value::Int(buf), Value::Int(0)])
                .unwrap();
            m.run_to_quiescence().unwrap();
            let t = m.take_trace();
            t.grids[0].blocks[0].warp_cycles[0]
        };
        let with = run(src_with);
        let without = run(src_without);
        assert!(
            with > without + CostModel::default().launch_presence_overhead / 2,
            "kernel containing a (never-executed) launch must be slower: {with} vs {without}"
        );
    }

    #[test]
    fn fusion_is_trace_transparent() {
        // Fused and unfused execution of the same program must agree on
        // results, statistics, and the entire execution trace (warp cycles,
        // per-origin attribution, launch records).
        let src = "__global__ void child(int* d, int n) { \
                       int i = blockIdx.x * blockDim.x + threadIdx.x; \
                       if (i < n) { atomicAdd(&d[i], i * 3 + 1); } }\n\
                   __global__ void parent(int* d, int* deg, int numV) { \
                       int v = blockIdx.x * blockDim.x + threadIdx.x; \
                       if (v < numV) { \
                           int count = deg[v]; \
                           float acc = 0.0; \
                           for (int j = 0; j < count; ++j) { acc += (float)j * 0.5; } \
                           d[numV + v] = (int)acc; \
                           if (count > 0) { child<<<(count + 3) / 4, 4>>>(d, count); } } }";
        let run = |fuse: bool| {
            let p = dp_frontend::parse(src).unwrap();
            let module =
                crate::lower::compile_program_with(&p, crate::lower::LowerOptions { fuse })
                    .unwrap();
            let mut m = Machine::new(module);
            let d = m.alloc(32);
            let deg = m.alloc_i64s(&[3, 0, 7, 1, 5, 2]);
            m.launch_host(
                "parent",
                2,
                4,
                &[Value::Int(d), Value::Int(deg), Value::Int(6)],
            )
            .unwrap();
            m.run_to_quiescence().unwrap();
            let out = m.read_i64s(d, 32).unwrap();
            let stats = m.stats();
            (out, stats, m.take_trace())
        };
        let (out_f, stats_f, trace_f) = run(true);
        let (out_u, stats_u, trace_u) = run(false);
        assert_eq!(out_f, out_u);
        assert_eq!(stats_f, stats_u, "stats count original instruction units");
        assert_eq!(trace_f, trace_u, "traces must be byte-identical");
        assert!(stats_f.instructions > 0, "stats.instructions is populated");
        assert_eq!(stats_f.instructions, trace_f.instructions());
    }

    #[test]
    fn huge_custom_cost_models_are_supported() {
        // CostModel fields are public u64s; per-instruction costs beyond
        // u32 must accumulate, not panic at machine construction.
        let p = dp_frontend::parse("__global__ void k(int* d) { d[0] = d[0] + 1; }").unwrap();
        let cost = CostModel {
            mem: 5_000_000_000,
            ..CostModel::default()
        };
        let mut m = Machine::with_config(compile_program(&p).unwrap(), cost, ExecLimits::default());
        let buf = m.alloc(1);
        m.launch_host("k", 1, 1, &[Value::Int(buf)]).unwrap();
        m.run_to_quiescence().unwrap();
        let trace = m.take_trace();
        assert!(trace.grids[0].blocks[0].critical_warp_cycles() > 10_000_000_000);
    }

    #[test]
    fn state_reuse_knob_does_not_change_results() {
        let src = "__global__ void k(int* d) { \
                       __shared__ int tile[8]; \
                       tile[threadIdx.x] = threadIdx.x + blockIdx.x; \
                       __syncthreads(); \
                       d[blockIdx.x * 8 + threadIdx.x] = tile[7 - threadIdx.x]; }";
        let run = |reuse: bool| {
            let mut m = machine(src);
            m.set_state_reuse(reuse);
            let d = m.alloc(64);
            m.launch_host("k", 8, 8, &[Value::Int(d)]).unwrap();
            m.run_to_quiescence().unwrap();
            (m.read_i64s(d, 64).unwrap(), m.take_trace())
        };
        let (out_pool, trace_pool) = run(true);
        let (out_fresh, trace_fresh) = run(false);
        assert_eq!(out_pool, out_fresh);
        assert_eq!(trace_pool, trace_fresh);
    }

    #[test]
    fn bulk_memory_ops_match_scalar_semantics() {
        let mut mem = Memory::new();
        let base = mem.alloc(8);
        mem.fill(base, 8, Value::Int(7)).unwrap();
        assert_eq!(mem.read(base + 3).unwrap(), Value::Int(7));
        mem.write_range(base + 1, &[Value::Int(1), Value::Int(2)])
            .unwrap();
        assert_eq!(
            mem.read_range(base, 4).unwrap(),
            &[Value::Int(7), Value::Int(1), Value::Int(2), Value::Int(7)]
        );
        // Empty operations succeed anywhere, as the scalar loop did.
        mem.fill(base + 8, 0, Value::Int(0)).unwrap();
        assert_eq!(mem.read_range(base, 0).unwrap(), &[]);
        // One-past-the-end and null ranges fail with a single check.
        assert!(mem.fill(base, 9, Value::Int(0)).is_err());
        assert!(mem.read_range(0, 1).is_err());
        assert!(mem
            .write_range(base + 7, &[Value::Int(0), Value::Int(0)])
            .is_err());
        assert!(mem.fill(-4, 2, Value::Int(0)).is_err());
    }

    #[test]
    fn origin_cycles_sum_to_block_totals() {
        let mut m = machine(
            "__global__ void k(int* d) { \
                 for (int i = 0; i < 10; ++i) { d[threadIdx.x] += i; } }",
        );
        let buf = m.alloc(32);
        m.launch_host("k", 1, 32, &[Value::Int(buf)]).unwrap();
        m.run_to_quiescence().unwrap();
        let trace = m.take_trace();
        let block = &trace.grids[0].blocks[0];
        assert!(block.origin_cycles.total() > 0);
        assert_eq!(
            block.origin_cycles.get(CodeOrigin::Original),
            block.origin_cycles.total(),
            "untransformed code is all Original"
        );
    }

    // ------------------------------------------------------------------
    // Parallel block execution + dispatch-mode determinism
    // ------------------------------------------------------------------

    /// Runs `src` under one (fusion, dispatch, jobs) configuration and
    /// returns every observable output.
    #[allow(clippy::too_many_arguments)]
    fn run_configured(
        src: &str,
        setup: &dyn Fn(&mut Machine) -> Vec<Value>,
        words: usize,
        fuse: bool,
        dispatch: DispatchMode,
        jobs: usize,
        kernel: &str,
        grid: i64,
        block: i64,
    ) -> (Vec<i64>, MachineStats, ExecutionTrace) {
        let p = dp_frontend::parse(src).unwrap();
        let module =
            crate::lower::compile_program_with(&p, crate::lower::LowerOptions { fuse }).unwrap();
        let mut m = Machine::new(module);
        m.set_dispatch(dispatch);
        m.set_block_parallelism(jobs);
        let args = setup(&mut m);
        m.launch_host(kernel, grid, block, &args).unwrap();
        m.run_to_quiescence().unwrap();
        (m.read_i64s(1, words).unwrap(), m.stats(), m.take_trace())
    }

    /// The full determinism matrix of the acceptance criteria: fusion
    /// on/off × jobs 1/N × dispatch threaded/match must agree bit-exactly
    /// on memory, statistics, and the entire execution trace — on a
    /// disjoint-write kernel, a conflict-heavy cross-block atomic kernel,
    /// a barrier/shared-memory kernel, and a device-launching kernel.
    #[test]
    fn parallel_and_dispatch_matrix_is_bit_identical() {
        struct Case {
            name: &'static str,
            src: &'static str,
            kernel: &'static str,
            grid: i64,
            block: i64,
            words: usize,
        }
        let cases = [
            Case {
                name: "disjoint",
                src: "__global__ void k(int* d) { \
                          int i = blockIdx.x * blockDim.x + threadIdx.x; \
                          int acc = 0; \
                          for (int j = 0; j < 16; ++j) { acc = acc + i * j - (acc >> 1); } \
                          d[i] = acc; }",
                kernel: "k",
                grid: 8,
                block: 16,
                words: 128,
            },
            Case {
                name: "conflicting",
                src: "__global__ void k(int* d) { \
                          int old = atomicAdd(&d[0], threadIdx.x + 1); \
                          atomicMax(&d[1], old); \
                          d[2 + blockIdx.x] = old; }",
                kernel: "k",
                grid: 8,
                block: 8,
                words: 16,
            },
            Case {
                name: "barrier",
                src: "__global__ void k(int* d) { \
                          __shared__ int tile[16]; \
                          tile[threadIdx.x] = threadIdx.x * 3 + blockIdx.x; \
                          __syncthreads(); \
                          d[blockIdx.x * 16 + threadIdx.x] = tile[15 - threadIdx.x]; }",
                kernel: "k",
                grid: 8,
                block: 16,
                words: 128,
            },
            Case {
                name: "launching",
                src: "__global__ void child(int* d, int base, int n) { \
                          int i = blockIdx.x * blockDim.x + threadIdx.x; \
                          if (i < n) { d[base + i] = d[base + i] + 1; } }\n\
                      __global__ void k(int* d) { \
                          if (threadIdx.x == 0) { \
                              child<<<2, 8>>>(d, blockIdx.x * 16, 16); } }",
                kernel: "k",
                grid: 8,
                block: 4,
                words: 128,
            },
        ];
        for case in cases {
            let setup = |m: &mut Machine| {
                let d = m.alloc(case.words);
                assert_eq!(d, 1, "single allocation starts at 1");
                vec![Value::Int(d)]
            };
            let reference = run_configured(
                case.src,
                &setup,
                case.words,
                true,
                DispatchMode::Threaded,
                1,
                case.kernel,
                case.grid,
                case.block,
            );
            for fuse in [true, false] {
                for dispatch in [DispatchMode::Threaded, DispatchMode::Match] {
                    for jobs in [1, 3] {
                        let got = run_configured(
                            case.src,
                            &setup,
                            case.words,
                            fuse,
                            dispatch,
                            jobs,
                            case.kernel,
                            case.grid,
                            case.block,
                        );
                        assert_eq!(
                            got.0, reference.0,
                            "{}: memory diverged (fuse={fuse}, {dispatch:?}, jobs={jobs})",
                            case.name
                        );
                        assert_eq!(
                            got.1, reference.1,
                            "{}: stats diverged (fuse={fuse}, {dispatch:?}, jobs={jobs})",
                            case.name
                        );
                        assert_eq!(
                            got.2, reference.2,
                            "{}: trace diverged (fuse={fuse}, {dispatch:?}, jobs={jobs})",
                            case.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_execution_speculates_and_detects_conflicts() {
        // Disjoint writes: everything validates, nothing re-executes.
        let mut m =
            machine("__global__ void k(int* d) { d[blockIdx.x * blockDim.x + threadIdx.x] = 7; }");
        m.set_block_parallelism(3);
        let d = m.alloc(256);
        m.launch_host("k", 8, 32, &[Value::Int(d)]).unwrap();
        m.run_to_quiescence().unwrap();
        let ps = m.parallel_stats();
        assert_eq!(ps.parallel_grids, 1);
        assert_eq!(ps.speculated_blocks, 8);
        assert_eq!(ps.conflict_blocks, 0);
        assert_eq!(ps.serialized_kernels, 0);

        // Cross-block atomics on one counter: later blocks read earlier
        // blocks' writes, so every block after the first conflicts, the
        // result still matches sequential, and the kernel is adaptively
        // marked serial for its next grid.
        let mut m = machine("__global__ void k(int* d) { atomicAdd(&d[0], 1); }");
        m.set_block_parallelism(3);
        let d = m.alloc(4);
        m.launch_host("k", 8, 16, &[Value::Int(d)]).unwrap();
        m.run_to_quiescence().unwrap();
        assert_eq!(m.read_i64s(d, 1).unwrap()[0], 128);
        let ps = m.parallel_stats();
        assert_eq!(ps.speculated_blocks, 8);
        assert!(ps.conflict_blocks >= 7, "{ps:?}");
        assert_eq!(ps.serialized_kernels, 1);
        m.launch_host("k", 8, 16, &[Value::Int(d)]).unwrap();
        m.run_to_quiescence().unwrap();
        assert_eq!(m.read_i64s(d, 1).unwrap()[0], 256);
        let ps2 = m.parallel_stats();
        assert_eq!(
            ps2.speculated_blocks, 8,
            "serialized kernel must not speculate again"
        );
    }

    #[test]
    fn parallel_launch_ids_match_sequential_fifo_order() {
        let src = "__global__ void child(int* d, int slot) { atomicAdd(&d[slot], 1); }\n\
                   __global__ void k(int* d) { \
                       if (threadIdx.x == 0) { child<<<1, 4>>>(d, blockIdx.x); } }";
        let run = |jobs: usize| {
            let p = dp_frontend::parse(src).unwrap();
            let mut m = Machine::new(compile_program(&p).unwrap());
            m.set_block_parallelism(jobs);
            let d = m.alloc(16);
            m.launch_host("k", 8, 8, &[Value::Int(d)]).unwrap();
            m.run_to_quiescence().unwrap();
            (m.read_i64s(d, 8).unwrap(), m.take_trace())
        };
        let (seq_mem, seq_trace) = run(1);
        let (par_mem, par_trace) = run(4);
        assert_eq!(seq_mem, vec![4; 8]);
        assert_eq!(par_mem, seq_mem);
        assert_eq!(par_trace, seq_trace);
        // Child grid ids follow the parent in linear block order.
        for (i, g) in par_trace.grids.iter().enumerate() {
            assert_eq!(g.id, i);
        }
        let children: Vec<usize> = par_trace.grids[0]
            .blocks
            .iter()
            .flat_map(|b| b.launches.iter().map(|l| l.child_grid))
            .collect();
        assert_eq!(children, (1..9).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_errors_reproduce_sequential_errors() {
        // Block 5 faults; speculation must re-execute and surface the same
        // error sequential execution reports.
        let src = "__global__ void k(int* d) { \
                       if (blockIdx.x == 5 && threadIdx.x == 0) { d[1000000] = 1; } \
                       d[blockIdx.x * blockDim.x + threadIdx.x] = 1; }";
        let run = |jobs: usize| {
            let p = dp_frontend::parse(src).unwrap();
            let mut m = Machine::new(compile_program(&p).unwrap());
            m.set_block_parallelism(jobs);
            let d = m.alloc(256);
            m.launch_host("k", 8, 16, &[Value::Int(d)]).unwrap();
            let err = m.run_to_quiescence().unwrap_err().to_string();
            (err, m.read_i64s(d, 256).unwrap())
        };
        let (seq_err, seq_mem) = run(1);
        let (par_err, par_mem) = run(4);
        assert_eq!(seq_err, par_err);
        assert!(par_err.contains("out of bounds"));
        // The faulting block's *partial* writes (and every earlier
        // block's writes) must survive identically at any worker count.
        assert_eq!(seq_mem, par_mem, "post-error memory must match");
        assert_eq!(
            seq_mem[..5 * 16],
            [1; 80][..],
            "blocks before the fault ran"
        );
    }

    #[test]
    fn budgeted_runs_stay_sequential_and_deterministic() {
        let p = dp_frontend::parse(
            "__global__ void k(int* d) { d[blockIdx.x * blockDim.x + threadIdx.x] = 1; }",
        )
        .unwrap();
        let limits = ExecLimits {
            max_instructions: 10_000_000,
            ..Default::default()
        };
        let mut m =
            Machine::with_config(compile_program(&p).unwrap(), CostModel::default(), limits);
        m.set_block_parallelism(4);
        let d = m.alloc(256);
        m.launch_host("k", 8, 32, &[Value::Int(d)]).unwrap();
        m.run_to_quiescence().unwrap();
        assert_eq!(
            m.parallel_stats().parallel_grids,
            0,
            "finite budgets must serialize"
        );
        assert_eq!(m.read_i64s(d, 256).unwrap(), vec![1; 256]);
    }

    // ------------------------------------------------------------------
    // Segment accounting vs the per-instruction reference
    // ------------------------------------------------------------------

    /// Everything a run leaves behind that accounting can touch: the
    /// result, memory, statistics, trace, the remaining budget, and the
    /// arena threads' counters (which an error leaves mid-block).
    #[derive(Debug, PartialEq)]
    struct Outcome {
        result: Result<(), String>,
        memory: Vec<Value>,
        stats: MachineStats,
        trace: ExecutionTrace,
        budget_left: u64,
        threads: Vec<(u64, u64, OriginCycles)>,
    }

    fn run_outcome(
        module: &Module,
        dispatch: DispatchMode,
        max_instructions: u64,
        setup: &dyn Fn(&mut Machine),
    ) -> Outcome {
        let limits = ExecLimits {
            max_instructions,
            ..Default::default()
        };
        let mut m = Machine::with_config(module.clone(), CostModel::default(), limits);
        m.set_dispatch(dispatch);
        // Sequential, so the arena threads are the machine's own.
        m.set_block_parallelism(1);
        setup(&mut m);
        let result = m.run_to_quiescence().map_err(|e| e.to_string());
        Outcome {
            result,
            memory: m.mem.data.clone(),
            stats: m.stats(),
            trace: m.take_trace(),
            budget_left: m.instr_budget,
            threads: m
                .arena
                .threads
                .iter()
                .map(|t| (t.cycles, t.instructions, t.origin_cycles))
                .collect(),
        }
    }

    /// A kernel with branches, a device call, a barrier, a device launch
    /// and a binary search (every profile-driven superinstruction, and
    /// segments that end in an elided `Jump`), as written and thresholded
    /// plus coarsened, so that transform-inserted (non-`Original`) code
    /// runs too.
    fn segmented_modules() -> [Module; 2] {
        let src = "__device__ int scale(int x, int k) { \
                       int r = x * k; if (r > 10) { r = r - 7; } return r; }\n\
                   __global__ void child(int* d, int base, int n) { \
                       int i = blockIdx.x * blockDim.x + threadIdx.x; \
                       if (i < n) { d[base + i] = d[base + i] + scale(i, 2); } }\n\
                   __global__ void parent(int* d, int* deg, int numV) { \
                       __shared__ int tile[4]; \
                       int v = blockIdx.x * blockDim.x + threadIdx.x; \
                       int count = 0; \
                       if (v < numV) { count = deg[v]; } \
                       tile[threadIdx.x] = scale(count, 3); \
                       __syncthreads(); \
                       int acc = 0; \
                       for (int j = 0; j < count; ++j) { acc += tile[(threadIdx.x + j) % 4]; } \
                       int lo = 0; \
                       int hi = numV - 1; \
                       while (lo < hi) { \
                           int mid = (lo + hi) / 2; \
                           if (deg[mid] > count) { hi = mid; } else { lo = mid + 1; } } \
                       if (v < numV) { \
                           d[v] = acc + lo; \
                           if (count > 0) { child<<<(count + 1) / 2, 2>>>(d, 8 + v * 8, count); } } }";
        let plain = dp_frontend::parse(src).unwrap();
        let mut transformed = plain.clone();
        let config = dp_transform::OptConfig::none()
            .threshold(3)
            .coarsen_factor(2);
        dp_transform::apply_pipeline(&mut transformed, &config);
        let transformed = compile_program(&transformed).unwrap();
        assert!(
            transformed
                .functions
                .iter()
                .flat_map(|f| &f.origins)
                .any(|o| *o != CodeOrigin::Original),
            "the transforms must insert code"
        );
        let plain = compile_program(&plain).unwrap();
        for module in [&plain, &transformed] {
            let code: Vec<Instr> = module
                .functions
                .iter()
                .flat_map(|f| f.code.clone())
                .collect();
            for (name, present) in [
                (
                    "CastStoreLocal",
                    code.iter().any(|i| matches!(i, Instr::CastStoreLocal(_))),
                ),
                (
                    "CopyLocal",
                    code.iter().any(|i| matches!(i, Instr::CopyLocal(..))),
                ),
                (
                    "LoadIndexed",
                    code.iter().any(|i| matches!(i, Instr::LoadIndexed(..))),
                ),
                (
                    "CmpBranch",
                    code.iter().any(|i| matches!(i, Instr::CmpBranch(..))),
                ),
                (
                    "AddImmLocal",
                    code.iter().any(|i| matches!(i, Instr::AddImmLocal(..))),
                ),
            ] {
                assert!(present, "the kernel must exercise {name}");
            }
            let m = Machine::new(module.clone());
            let elided = (0..module.functions.len() as FuncId).any(|id| {
                let suffixes = m.segment_suffixes(id);
                m.segment_exits(id)
                    .iter()
                    .zip(&suffixes)
                    .any(|(&(ops, _), &(len, ..))| ops < len && ops > 0)
            });
            assert!(
                elided,
                "some segment must end in an elided Jump after other ops"
            );
        }
        [plain, transformed]
    }

    fn launch_segmented(m: &mut Machine) {
        let d = m.alloc(48);
        let deg = m.alloc_i64s(&[2, 0, 5, 1, 3, 4]);
        m.launch_host(
            "parent",
            2,
            4,
            &[Value::Int(d), Value::Int(deg), Value::Int(6)],
        )
        .unwrap();
    }

    /// Segment accounting must exhaust a finite budget on exactly the op
    /// the per-instruction `Match` reference exhausts it on, at every
    /// budget from 0 to the run's full instruction count.
    #[test]
    fn budget_sweep_matches_the_per_instruction_reference() {
        for module in segmented_modules() {
            let full = run_outcome(&module, DispatchMode::Match, u64::MAX, &launch_segmented);
            assert!(full.result.is_ok(), "{:?}", full.result);
            assert!(full.stats.device_launches > 0 && full.trace.grids.len() > 1);
            let total = full.stats.instructions;
            for budget in 0..=total {
                let reference =
                    run_outcome(&module, DispatchMode::Match, budget, &launch_segmented);
                let threaded =
                    run_outcome(&module, DispatchMode::Threaded, budget, &launch_segmented);
                assert_eq!(threaded, reference, "budget {budget} of {total}");
                assert_eq!(reference.result.is_ok(), budget == total, "budget {budget}");
            }
        }
    }

    /// Runs kernel `k(d, z = 0, far = 1_000_000)` of `src` on one block of
    /// four threads under both dispatchers at an unbounded and a finite
    /// budget, and checks that it fails with `expected` and leaves the
    /// same outcome under both.
    fn check_mid_segment_error(name: &str, module: &Module, expected: &str) {
        let setup = |m: &mut Machine| {
            let d = m.alloc(4);
            m.launch_host(
                "k",
                1,
                4,
                &[Value::Int(d), Value::Int(0), Value::Int(1_000_000)],
            )
            .unwrap();
        };
        for budget in [u64::MAX, 1_000] {
            let reference = run_outcome(module, DispatchMode::Match, budget, &setup);
            let threaded = run_outcome(module, DispatchMode::Threaded, budget, &setup);
            let err = reference.result.clone().unwrap_err();
            assert!(err.contains(expected), "{name}: {err}");
            assert_eq!(threaded, reference, "{name}, budget {budget}");
        }
    }

    /// A handler that errors in the middle of a straight-line segment
    /// must leave the counters where per-instruction charging leaves
    /// them: the charges for the ops after it are refunded.
    #[test]
    fn mid_segment_errors_match_the_per_instruction_reference() {
        let cases = [
            (
                "out-of-bounds load",
                "__global__ void k(int* d, int z, int far) { \
                     int a = threadIdx.x + 1; \
                     int b = d[far] + a; \
                     d[1] = b * 2; d[2] = a; }",
                "out of bounds",
            ),
            (
                "divide by zero",
                "__global__ void k(int* d, int z, int far) { \
                     int a = threadIdx.x + 1; \
                     int q = (a * 3) / z; \
                     d[1] = q + a; d[2] = a; }",
                "division by zero",
            ),
        ];
        for (name, src, expected) in cases {
            let module = compile_program(&dp_frontend::parse(src).unwrap()).unwrap();
            let m = Machine::new(module.clone());
            let k = module.id_of("k").unwrap();
            assert_eq!(
                m.tables[k as usize][0].seg_len as usize,
                module.function(k).code.len(),
                "{name}: the kernel is one straight-line segment"
            );
            check_mid_segment_error(name, &module, expected);
        }
    }

    /// When the op just before an elided trailing `Jump` errors, the
    /// refund must cover the `Jump` too: it was charged with the segment
    /// although its handler never runs.
    #[test]
    fn errors_before_an_elided_jump_refund_the_jump() {
        let cases = [
            (
                "out-of-bounds indexed load",
                "__global__ void k(int* d, int z, int far) { \
                     int a = threadIdx.x + 1; \
                     int q = a > 0 ? d[far] : 0; \
                     d[1] = q + a; }",
                "out of bounds",
            ),
            (
                "divide by zero",
                "__global__ void k(int* d, int z, int far) { \
                     int a = threadIdx.x + 1; \
                     int q = a > 0 ? a / z : 0; \
                     d[1] = q + a; }",
                "division by zero",
            ),
        ];
        for (name, src, expected) in cases {
            let module = compile_program(&dp_frontend::parse(src).unwrap()).unwrap();
            let m = Machine::new(module.clone());
            let k = module.id_of("k").unwrap();
            let code = &module.function(k).code;
            // The ternary's true arm: the faulting op, then `Jump end`, as
            // one segment that dispatches only the faulting op.
            let jump = code
                .iter()
                .position(|i| matches!(i, Instr::Jump(_)))
                .expect("the ternary jumps over its false arm");
            let arm = jump - 1;
            assert!(
                matches!(
                    code[arm],
                    Instr::LoadIndexed(..) | Instr::BinLocals(BinKind::Div, ..)
                ),
                "{name}: {code:?}"
            );
            let Instr::Jump(target) = code[jump] else {
                unreachable!()
            };
            assert_eq!(m.segment_suffixes(k)[arm].0, 2, "{name}: {code:?}");
            assert_eq!(m.segment_exits(k)[arm], (1, target), "{name}: {code:?}");
            check_mid_segment_error(name, &module, expected);
        }
    }
}
