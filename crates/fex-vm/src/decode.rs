//! Pre-decoded program representation: the interpreter's hot-loop format.
//!
//! [`decode_program`] lowers a [`Program`] into a dense, index-threaded
//! form once per load, so the execution loop never re-derives anything
//! per step:
//!
//! * every [`Instr`] becomes a flat [`DecodedInstr`] whose jump targets
//!   are **validated** (out-of-range labels are a [`DecodeError`], not a
//!   runtime surprise) and stored as plain indices;
//! * function bodies are partitioned into **basic blocks** whose static
//!   instruction count and cycle cost (from the instance's
//!   [`CostModel`]) are pre-summed, so the interpreter accrues counters
//!   and checks the instruction budget once per block instead of once
//!   per instruction.
//!
//! Block leaders are: instruction 0, every jump/branch target, and the
//! instruction after any `Jmp`/`BrZero`/`BrNonZero`/`Ret` (the places
//! where straight-line execution can end without reaching the next
//! instruction). `Call`/`CallInd`/`ParFor` do *not* end a block: control
//! returns to the next instruction, so the whole surrounding block still
//! executes exactly once per entry and its pre-summed accrual stays
//! exact. A branch target equal to the code length is legal — it is the
//! "fall off the end" implicit return.
//!
//! # The peephole pass pipeline
//!
//! After translation and accrual, an ordered pipeline of optional
//! peephole passes ([`crate::passes`], selected by a
//! [`PassMask`]) rewrites dispatch-dominant windows into single fused
//! variants: the `trace` pass fuses trace-length windows — load +
//! integer binop + store of its result
//! ([`DecodedInstr::LoadBinStore`]) and integer binop + load + integer
//! binop + store ([`DecodedInstr::BinLoadBinStore`]); the `fuse` pass
//! fuses the classic pairs/triples — integer compare + conditional
//! branch ([`DecodedInstr::CmpBr`]), load + integer binop
//! ([`DecodedInstr::LoadBin`]), integer binop + store of its result
//! ([`DecodedInstr::BinStore`]), integer binop + backedge jump
//! ([`DecodedInstr::BinJmp`]), integer binop + load
//! ([`DecodedInstr::BinLoad`]), integer binop + register copy
//! ([`DecodedInstr::BinMov`]), back-to-back integer binops
//! ([`DecodedInstr::BinBin`]), ASan shadow check + the guarded
//! access ([`DecodedInstr::ChkLoad`]/[`DecodedInstr::ChkStore`]),
//! register copy + unconditional jump ([`DecodedInstr::MovJmp`]), and
//! one three-wide window — integer binop + register copy + jump
//! ([`DecodedInstr::BinMovJmp`]), the canonical loop latch; and the
//! `immfold` pass caches immediates into the following binop
//! ([`DecodedInstr::ImmBin`]).
//! Every pass is a pure dispatch-count optimisation — measured numbers
//! cannot change:
//!
//! * instruction and cycle accrual stays pre-summed **from the source
//!   stream per basic block**, so counters, the instruction budget and
//!   fault-injection trigger points see both constituents exactly as
//!   before;
//! * the fused variant carries every constituent's payload and lives at
//!   the first constituent's index; each later constituent keeps its
//!   ordinary decoded form at its own index as a *shadow slot* (`pc +
//!   1` through `pc + 3` for the widest window). The fused handler
//!   steps over them (or branches away), and no control flow can enter
//!   one: fusion never crosses a block-leader boundary, passes claim
//!   non-overlapping windows through a shared bitmap, and calls —
//!   whose return lands at `call_pc + 1` — are never a constituent;
//! * [`DecodedInstr::undecode`] of a fused variant reconstructs the
//!   first constituent, and each shadow slot undecodes to its own
//!   constituent, so per-index round-tripping still holds for the whole
//!   body.
//!
//! Only trap-free integer binops (everything but `Div`/`Rem`) are fused
//! as an *earlier* constituent of `CmpBr`/`BinJmp`/`BinMovJmp`, keeping
//! "an earlier constituent cannot fail after a control transfer was
//! dispatched" trivially true (`Mov` cannot trap at all); every other
//! fused window executes its constituents strictly in program order
//! inside one handler, so trap order and register/memory aliasing
//! (including `store.addr == bin.dst`, `load.addr == bin.dst` and
//! `mov.src == bin.dst`) are preserved exactly.

use crate::bytecode::{
    BinOp, FBinOp, FCmpOp, FuncId, Function, Instr, Program, Reg, SysCall, UnOp, Width,
};
use crate::cost::CostModel;
use crate::passes::{self, PassCtx, PassMask};

/// A decoding failure: a control-transfer target outside the function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Name of the offending function.
    pub function: String,
    /// Instruction index of the offending jump or branch.
    pub pc: usize,
    /// The out-of-range target.
    pub target: usize,
    /// The function's code length (targets up to and including this are
    /// valid).
    pub len: usize,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "function `{}`: instruction {} targets {}, past the end of its {}-instruction body",
            self.function, self.pc, self.target, self.len
        )
    }
}

impl std::error::Error for DecodeError {}

/// One instruction in decoded form.
///
/// Mirrors [`Instr`] variant-for-variant; the only representational
/// change is that jump targets are pre-validated `u32` indices. Keeping
/// the payloads identical makes [`DecodedInstr::undecode`] a total
/// inverse, which the round-trip tests rely on.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodedInstr {
    /// `dst <- val`
    Imm { dst: Reg, val: i64 },
    /// `dst <- val` (float immediate)
    FImm { dst: Reg, val: f64 },
    /// `dst <- src`
    Mov { dst: Reg, src: Reg },
    /// `dst <- a op b` (integer)
    Bin { op: BinOp, dst: Reg, a: Reg, b: Reg },
    /// `dst <- a op b` (float)
    FBin { op: FBinOp, dst: Reg, a: Reg, b: Reg },
    /// `dst <- a * b + c`
    FMulAdd { dst: Reg, a: Reg, b: Reg, c: Reg },
    /// `dst <- a * b - c`
    FMulSub { dst: Reg, a: Reg, b: Reg, c: Reg },
    /// `dst <- c - a * b`
    FNegMulAdd { dst: Reg, a: Reg, b: Reg, c: Reg },
    /// `dst <- a cmp b` (float compare, integer result)
    FCmp { op: FCmpOp, dst: Reg, a: Reg, b: Reg },
    /// `dst <- op a`
    Un { op: UnOp, dst: Reg, a: Reg },
    /// `dst <- mem[addr + off]`
    Load { dst: Reg, addr: Reg, off: i64, width: Width },
    /// `mem[addr + off] <- src`
    Store { src: Reg, addr: Reg, off: i64, width: Width },
    /// ASan shadow check for `mem[addr + off]`.
    AsanCheck { addr: Reg, off: i64, width: Width, is_write: bool },
    /// Unconditional jump to a validated instruction index.
    Jmp { target: u32 },
    /// Jump if `cond` is zero.
    BrZero { cond: Reg, target: u32 },
    /// Jump if `cond` is nonzero.
    BrNonZero { cond: Reg, target: u32 },
    /// Direct call.
    Call { func: FuncId, args: Vec<Reg>, dst: Option<Reg> },
    /// Indirect call through a code address in a register.
    CallInd { addr: Reg, args: Vec<Reg>, dst: Option<Reg> },
    /// Data-parallel loop.
    ParFor { func: FuncId, lo: Reg, hi: Reg, args: Vec<Reg> },
    /// Return.
    Ret { src: Option<Reg> },
    /// System call.
    Syscall { code: SysCall, args: Vec<Reg>, dst: Option<Reg> },
    /// `dst <- address of stack array slot `index``.
    FrameAddr { dst: Reg, index: usize },
    /// `dst <- load-time address of global `index``.
    GlobalAddr { dst: Reg, index: usize },
    /// `dst <- load-time address of read-only data at `offset``.
    RodataAddr { dst: Reg, offset: u64 },
    /// No operation.
    Nop,
    /// Fused `Bin` + `BrZero`/`BrNonZero` on the binop's result
    /// (`neg` = true for `BrZero`). `site` is the original branch's
    /// instruction index — the branch-predictor key must stay the
    /// unfused branch pc, not the fused slot.
    CmpBr { op: BinOp, dst: Reg, a: Reg, b: Reg, neg: bool, target: u32, site: u32 },
    /// Fused `Load` into `ld` + integer `Bin` reading `ld`.
    LoadBin { ld: Reg, addr: Reg, off: i64, width: Width, op: BinOp, dst: Reg, a: Reg, b: Reg },
    /// Fused integer `Bin` + `Store` of its result (`store.src == dst`).
    BinStore { op: BinOp, dst: Reg, a: Reg, b: Reg, addr: Reg, off: i64, width: Width },
    /// Fused integer `Bin` + backedge `Jmp`.
    BinJmp { op: BinOp, dst: Reg, a: Reg, b: Reg, target: u32 },
    /// Fused integer `Bin` + `Load` (address-chain pattern: the load's
    /// address register is usually the binop's destination).
    BinLoad { op: BinOp, dst: Reg, a: Reg, b: Reg, ld: Reg, addr: Reg, off: i64, width: Width },
    /// Fused integer `Bin` + `Mov` (the compiler's `tmp = a op b;
    /// x = tmp` copy-back pattern).
    BinMov { op: BinOp, dst: Reg, a: Reg, b: Reg, mdst: Reg, msrc: Reg },
    /// Fused integer `Bin` + integer `Bin` (straight-line ALU chains).
    BinBin { op1: BinOp, dst1: Reg, a1: Reg, b1: Reg, op2: BinOp, dst2: Reg, a2: Reg, b2: Reg },
    /// Fused `AsanCheck` + the `Load` it guards (same address operands
    /// by construction of the instrumentation pass).
    ChkLoad { dst: Reg, addr: Reg, off: i64, width: Width },
    /// Fused `AsanCheck` + the `Store` it guards (same address operands
    /// by construction of the instrumentation pass).
    ChkStore { src: Reg, addr: Reg, off: i64, width: Width },
    /// Fused `Mov` + `Jmp` (a copy feeding an unconditional exit from a
    /// diamond arm; `Mov` cannot trap, so any target is safe).
    MovJmp { dst: Reg, src: Reg, target: u32 },
    /// Fused three-wide `Bin` + `Mov` + `Jmp`: the canonical loop latch
    /// (`tmp = i + 1; i = tmp; jmp header`) or a diamond arm's exit.
    /// Two shadow slots follow.
    BinMovJmp { op: BinOp, dst: Reg, a: Reg, b: Reg, mdst: Reg, msrc: Reg, target: u32 },
    /// Fused three-wide `Load` + integer `Bin` + `Store` of the binop's
    /// result (`store.src == dst`): the read-modify-write window
    /// (`trace` pass). Two shadow slots follow; no constituent
    /// transfers control, so trapping binops are fine — execution is
    /// strictly in order.
    LoadBinStore {
        ld: Reg,
        laddr: Reg,
        loff: i64,
        lwidth: Width,
        op: BinOp,
        dst: Reg,
        a: Reg,
        b: Reg,
        saddr: Reg,
        soff: i64,
        swidth: Width,
    },
    /// Fused four-wide integer `Bin` + `Load` + integer `Bin` + `Store`
    /// of the second binop's result: the indexed-update window
    /// `addr = base op idx; v = mem[..]; v' = v op x; mem[..] = v'`
    /// (`trace` pass). Three shadow slots follow.
    BinLoadBinStore {
        op1: BinOp,
        dst1: Reg,
        a1: Reg,
        b1: Reg,
        ld: Reg,
        laddr: Reg,
        loff: i64,
        lwidth: Width,
        op2: BinOp,
        dst2: Reg,
        a2: Reg,
        b2: Reg,
        saddr: Reg,
        soff: i64,
        swidth: Width,
    },
    /// Fused `Imm` + integer `Bin` reading the immediate's register
    /// (`immfold` pass). The handler still writes `idst` but feeds the
    /// literal straight into the matching ALU operand.
    ImmBin { idst: Reg, val: i64, op: BinOp, dst: Reg, a: Reg, b: Reg },
    /// A trace-length straight-line superinstruction (`trace` pass): a
    /// run of ≥ 3 consecutive non-control instructions (register ALU
    /// ops, immediates, moves, address materialisation, loads and
    /// stores) executed under a single dispatch with the frame borrow
    /// hoisted out of the per-instruction loop. `run` holds the plain
    /// decoded form of every constituent in a contiguous boxed slice
    /// (head included), so execution never re-touches the function body;
    /// the `run.len() - 1` shadow slots after the head keep their
    /// ordinary forms for `undecode`. Execution is strictly in program
    /// order with early-out, so traps and aliasing behave exactly as
    /// unfused.
    TraceRun { run: Box<[DecodedInstr]> },
}

impl DecodedInstr {
    /// Reconstructs the original bytecode instruction (exact inverse of
    /// decoding; used by tests and disassembly tooling).
    ///
    /// A fused variant reconstructs its **first** constituent; the
    /// second constituent is still present, unfused, in the shadow slot
    /// at the following index — so mapping `undecode` over a decoded
    /// body reproduces the source stream index for index even with
    /// fusion enabled.
    pub fn undecode(&self) -> Instr {
        match self.clone() {
            DecodedInstr::Imm { dst, val } => Instr::Imm { dst, val },
            DecodedInstr::FImm { dst, val } => Instr::FImm { dst, val },
            DecodedInstr::Mov { dst, src } => Instr::Mov { dst, src },
            DecodedInstr::Bin { op, dst, a, b } => Instr::Bin { op, dst, a, b },
            DecodedInstr::FBin { op, dst, a, b } => Instr::FBin { op, dst, a, b },
            DecodedInstr::FMulAdd { dst, a, b, c } => Instr::FMulAdd { dst, a, b, c },
            DecodedInstr::FMulSub { dst, a, b, c } => Instr::FMulSub { dst, a, b, c },
            DecodedInstr::FNegMulAdd { dst, a, b, c } => Instr::FNegMulAdd { dst, a, b, c },
            DecodedInstr::FCmp { op, dst, a, b } => Instr::FCmp { op, dst, a, b },
            DecodedInstr::Un { op, dst, a } => Instr::Un { op, dst, a },
            DecodedInstr::Load { dst, addr, off, width } => Instr::Load { dst, addr, off, width },
            DecodedInstr::Store { src, addr, off, width } => Instr::Store { src, addr, off, width },
            DecodedInstr::AsanCheck { addr, off, width, is_write } => {
                Instr::AsanCheck { addr, off, width, is_write }
            }
            DecodedInstr::Jmp { target } => Instr::Jmp { target: target as usize },
            DecodedInstr::BrZero { cond, target } => {
                Instr::BrZero { cond, target: target as usize }
            }
            DecodedInstr::BrNonZero { cond, target } => {
                Instr::BrNonZero { cond, target: target as usize }
            }
            DecodedInstr::Call { func, args, dst } => Instr::Call { func, args, dst },
            DecodedInstr::CallInd { addr, args, dst } => Instr::CallInd { addr, args, dst },
            DecodedInstr::ParFor { func, lo, hi, args } => Instr::ParFor { func, lo, hi, args },
            DecodedInstr::Ret { src } => Instr::Ret { src },
            DecodedInstr::Syscall { code, args, dst } => Instr::Syscall { code, args, dst },
            DecodedInstr::FrameAddr { dst, index } => Instr::FrameAddr { dst, index },
            DecodedInstr::GlobalAddr { dst, index } => Instr::GlobalAddr { dst, index },
            DecodedInstr::RodataAddr { dst, offset } => Instr::RodataAddr { dst, offset },
            DecodedInstr::Nop => Instr::Nop,
            DecodedInstr::CmpBr { op, dst, a, b, .. } => Instr::Bin { op, dst, a, b },
            DecodedInstr::LoadBin { ld, addr, off, width, .. } => {
                Instr::Load { dst: ld, addr, off, width }
            }
            DecodedInstr::BinStore { op, dst, a, b, .. } => Instr::Bin { op, dst, a, b },
            DecodedInstr::BinJmp { op, dst, a, b, .. } => Instr::Bin { op, dst, a, b },
            DecodedInstr::BinLoad { op, dst, a, b, .. } => Instr::Bin { op, dst, a, b },
            DecodedInstr::BinMov { op, dst, a, b, .. } => Instr::Bin { op, dst, a, b },
            DecodedInstr::BinBin { op1, dst1, a1, b1, .. } => {
                Instr::Bin { op: op1, dst: dst1, a: a1, b: b1 }
            }
            DecodedInstr::ChkLoad { addr, off, width, .. } => {
                Instr::AsanCheck { addr, off, width, is_write: false }
            }
            DecodedInstr::ChkStore { addr, off, width, .. } => {
                Instr::AsanCheck { addr, off, width, is_write: true }
            }
            DecodedInstr::MovJmp { dst, src, .. } => Instr::Mov { dst, src },
            DecodedInstr::BinMovJmp { op, dst, a, b, .. } => Instr::Bin { op, dst, a, b },
            DecodedInstr::LoadBinStore { ld, laddr, loff, lwidth, .. } => {
                Instr::Load { dst: ld, addr: laddr, off: loff, width: lwidth }
            }
            DecodedInstr::BinLoadBinStore { op1, dst1, a1, b1, .. } => {
                Instr::Bin { op: op1, dst: dst1, a: a1, b: b1 }
            }
            DecodedInstr::ImmBin { idst, val, .. } => Instr::Imm { dst: idst, val },
            DecodedInstr::TraceRun { run } => run[0].undecode(),
        }
    }
}

/// A basic block: a maximal straight-line run of instructions that is
/// always entered at its first instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BasicBlock {
    /// Instruction index of the block leader.
    pub start: u32,
    /// Number of instructions in the block.
    pub instrs: u32,
    /// Pre-summed static cycle cost of the whole block (memory
    /// instructions contribute only their base cost; cache latency is
    /// dynamic).
    pub cycles: u64,
}

/// One function in hot-loop form.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedFunction {
    /// The decoded instruction stream, same indices as the source.
    pub code: Vec<DecodedInstr>,
    /// The basic-block partition of `code`, in `start` order.
    pub blocks: Vec<BasicBlock>,
    /// Per-pc accrual `(instructions, cycles)`: the block totals at each
    /// leader, `(0, 0)` everywhere else. Same length as `code`.
    pub accrual: Vec<(u32, u64)>,
}

/// A whole program in hot-loop form; `FuncId(i)` indexes `functions`.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedProgram {
    /// Decoded functions, parallel to [`Program::functions`].
    pub functions: Vec<DecodedFunction>,
    /// The cost model the block accrual was pre-summed under. A cached
    /// decoded program is only reusable by an instance whose config
    /// carries the same model.
    pub cost: CostModel,
    /// The peephole pass subset that ran over the bodies (part of the
    /// decode-cache key, like `cost`).
    pub passes: PassMask,
}

/// Lowers `program` for execution under `cost` with every peephole pass
/// enabled (the standard pipeline).
///
/// # Errors
///
/// [`DecodeError`] if any jump or branch targets an index strictly
/// greater than its function's code length (a target *equal* to the
/// length is the implicit-return exit and is allowed).
pub fn decode_program(program: &Program, cost: &CostModel) -> Result<DecodedProgram, DecodeError> {
    decode_program_passes(program, cost, PassMask::all())
}

/// Lowers `program` for execution under `cost`, running exactly the
/// peephole passes enabled in `mask` (in registry order). Structural
/// decoding — translation, jump-target validation, block accrual — is
/// unconditional; an empty mask yields the plain unfused stream.
///
/// # Errors
///
/// [`DecodeError`] under the same conditions as [`decode_program`].
pub fn decode_program_passes(
    program: &Program,
    cost: &CostModel,
    mask: PassMask,
) -> Result<DecodedProgram, DecodeError> {
    let functions = program
        .functions
        .iter()
        .map(|f| decode_function(f, cost, mask))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(DecodedProgram { functions, cost: *cost, passes: mask })
}

fn decode_function(
    f: &Function,
    cost: &CostModel,
    mask: PassMask,
) -> Result<DecodedFunction, DecodeError> {
    let len = f.code.len();
    // Pass 1: validate targets and mark block leaders.
    let mut leader = vec![false; len];
    if len > 0 {
        leader[0] = true;
    }
    for (pc, instr) in f.code.iter().enumerate() {
        let target = match instr {
            Instr::Jmp { target }
            | Instr::BrZero { target, .. }
            | Instr::BrNonZero { target, .. } => Some(*target),
            Instr::Ret { .. } => None,
            _ => continue,
        };
        if let Some(t) = target {
            if t > len {
                return Err(DecodeError { function: f.name.clone(), pc, target: t, len });
            }
            if t < len {
                leader[t] = true;
            }
        }
        if pc + 1 < len {
            leader[pc + 1] = true;
        }
    }

    // Pass 2: translate instructions and pre-sum block costs.
    let mut code = Vec::with_capacity(len);
    let mut blocks: Vec<BasicBlock> = Vec::new();
    let mut accrual = vec![(0u32, 0u64); len];
    for (pc, instr) in f.code.iter().enumerate() {
        if leader[pc] {
            blocks.push(BasicBlock { start: pc as u32, instrs: 0, cycles: 0 });
        }
        let block = blocks.last_mut().expect("pc 0 is always a leader");
        block.instrs += 1;
        block.cycles += cost.instr_cycles(instr);
        code.push(decode_instr(instr));
    }
    for b in &blocks {
        accrual[b.start as usize] = (b.instrs, b.cycles);
    }
    // Pass 3: the peephole pipeline (window fusion; see crate::passes).
    let mut claimed = vec![false; len];
    passes::run_pipeline(
        mask,
        &mut PassCtx { src: &f.code, code: &mut code, leader: &leader, claimed: &mut claimed },
    );
    Ok(DecodedFunction { code, blocks, accrual })
}

fn decode_instr(instr: &Instr) -> DecodedInstr {
    match instr.clone() {
        Instr::Imm { dst, val } => DecodedInstr::Imm { dst, val },
        Instr::FImm { dst, val } => DecodedInstr::FImm { dst, val },
        Instr::Mov { dst, src } => DecodedInstr::Mov { dst, src },
        Instr::Bin { op, dst, a, b } => DecodedInstr::Bin { op, dst, a, b },
        Instr::FBin { op, dst, a, b } => DecodedInstr::FBin { op, dst, a, b },
        Instr::FMulAdd { dst, a, b, c } => DecodedInstr::FMulAdd { dst, a, b, c },
        Instr::FMulSub { dst, a, b, c } => DecodedInstr::FMulSub { dst, a, b, c },
        Instr::FNegMulAdd { dst, a, b, c } => DecodedInstr::FNegMulAdd { dst, a, b, c },
        Instr::FCmp { op, dst, a, b } => DecodedInstr::FCmp { op, dst, a, b },
        Instr::Un { op, dst, a } => DecodedInstr::Un { op, dst, a },
        Instr::Load { dst, addr, off, width } => DecodedInstr::Load { dst, addr, off, width },
        Instr::Store { src, addr, off, width } => DecodedInstr::Store { src, addr, off, width },
        Instr::AsanCheck { addr, off, width, is_write } => {
            DecodedInstr::AsanCheck { addr, off, width, is_write }
        }
        Instr::Jmp { target } => DecodedInstr::Jmp { target: target as u32 },
        Instr::BrZero { cond, target } => DecodedInstr::BrZero { cond, target: target as u32 },
        Instr::BrNonZero { cond, target } => {
            DecodedInstr::BrNonZero { cond, target: target as u32 }
        }
        Instr::Call { func, args, dst } => DecodedInstr::Call { func, args, dst },
        Instr::CallInd { addr, args, dst } => DecodedInstr::CallInd { addr, args, dst },
        Instr::ParFor { func, lo, hi, args } => DecodedInstr::ParFor { func, lo, hi, args },
        Instr::Ret { src } => DecodedInstr::Ret { src },
        Instr::Syscall { code, args, dst } => DecodedInstr::Syscall { code, args, dst },
        Instr::FrameAddr { dst, index } => DecodedInstr::FrameAddr { dst, index },
        Instr::GlobalAddr { dst, index } => DecodedInstr::GlobalAddr { dst, index },
        Instr::RodataAddr { dst, offset } => DecodedInstr::RodataAddr { dst, offset },
        Instr::Nop => DecodedInstr::Nop,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn func(code: Vec<Instr>) -> Function {
        let mut f = Function::new("t", 0);
        f.reg_count = 8;
        f.code = code;
        f
    }

    /// One instance of every `Instr` variant (targets valid for a body
    /// of this length).
    fn every_variant() -> Vec<Instr> {
        let r = Reg(0);
        vec![
            Instr::Imm { dst: r, val: -7 },
            Instr::FImm { dst: r, val: 2.5 },
            Instr::Mov { dst: Reg(1), src: r },
            Instr::Bin { op: BinOp::Xor, dst: r, a: r, b: Reg(1) },
            Instr::FBin { op: FBinOp::Div, dst: r, a: r, b: Reg(1) },
            Instr::FMulAdd { dst: r, a: r, b: Reg(1), c: Reg(2) },
            Instr::FMulSub { dst: r, a: r, b: Reg(1), c: Reg(2) },
            Instr::FNegMulAdd { dst: r, a: r, b: Reg(1), c: Reg(2) },
            Instr::FCmp { op: FCmpOp::Le, dst: r, a: r, b: Reg(1) },
            Instr::Un { op: UnOp::FSqrt, dst: r, a: Reg(1) },
            Instr::Load { dst: r, addr: Reg(1), off: -8, width: Width::B1 },
            Instr::Store { src: r, addr: Reg(1), off: 16, width: Width::B8 },
            Instr::AsanCheck { addr: r, off: 4, width: Width::B8, is_write: true },
            Instr::Jmp { target: 14 },
            Instr::BrZero { cond: r, target: 15 },
            Instr::BrNonZero { cond: r, target: 16 },
            Instr::Call { func: FuncId(0), args: vec![r, Reg(1)], dst: Some(Reg(2)) },
            Instr::CallInd { addr: r, args: vec![Reg(1)], dst: None },
            Instr::ParFor { func: FuncId(0), lo: r, hi: Reg(1), args: vec![Reg(2)] },
            Instr::Ret { src: Some(r) },
            Instr::Syscall { code: SysCall::MemCpy, args: vec![r, Reg(1), Reg(2)], dst: Some(r) },
            Instr::FrameAddr { dst: r, index: 3 },
            Instr::GlobalAddr { dst: r, index: 5 },
            Instr::RodataAddr { dst: r, offset: 96 },
            Instr::Nop,
        ]
    }

    #[test]
    fn every_instr_round_trips_through_the_decoder() {
        let original = every_variant();
        let mut p = Program::new();
        p.push_function(func(original.clone()));
        let d = decode_program(&p, &CostModel::default()).expect("valid program decodes");
        let back: Vec<Instr> = d.functions[0].code.iter().map(|i| i.undecode()).collect();
        assert_eq!(back, original);
    }

    #[test]
    fn decoded_semantics_match_the_source_costs() {
        // Block cycle sums must equal the per-instruction cost model
        // applied to the source stream, instruction by instruction.
        let cost = CostModel::default();
        let original = every_variant();
        let mut p = Program::new();
        p.push_function(func(original.clone()));
        let d = decode_program(&p, &cost).expect("valid program decodes");
        let f = &d.functions[0];
        let block_total: u64 = f.blocks.iter().map(|b| b.cycles).sum();
        let instr_total: u64 = original.iter().map(|i| cost.instr_cycles(i)).sum();
        assert_eq!(block_total, instr_total);
        let block_instrs: u64 = f.blocks.iter().map(|b| u64::from(b.instrs)).sum();
        assert_eq!(block_instrs, original.len() as u64);
        // Accrual is the block table flattened onto leader pcs.
        for b in &f.blocks {
            assert_eq!(f.accrual[b.start as usize], (b.instrs, b.cycles));
        }
        let accrued: u32 = f.accrual.iter().map(|(i, _)| i).sum();
        assert_eq!(u64::from(accrued), block_instrs);
    }

    #[test]
    fn straight_line_code_is_one_block() {
        let cost = CostModel::default();
        let code = vec![
            Instr::Imm { dst: Reg(0), val: 1 },
            Instr::Imm { dst: Reg(1), val: 2 },
            Instr::Bin { op: BinOp::Add, dst: Reg(2), a: Reg(0), b: Reg(1) },
            Instr::Ret { src: Some(Reg(2)) },
        ];
        let mut p = Program::new();
        p.push_function(func(code));
        let d = decode_program(&p, &cost).expect("decodes");
        let f = &d.functions[0];
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(
            f.blocks[0],
            BasicBlock { start: 0, instrs: 4, cycles: cost.alu * 3 + cost.call }
        );
    }

    #[test]
    fn branch_targets_and_fallthroughs_split_blocks() {
        // 0: imm            <- leader (entry)
        // 1: imm            <- leader (target of 3's fallthrough? no: of branch)
        // 2: bin
        // 3: brnz -> 1      (1 becomes a leader; 4 is the fallthrough leader)
        // 4: ret            <- leader
        let code = vec![
            Instr::Imm { dst: Reg(0), val: 0 },
            Instr::Imm { dst: Reg(1), val: 1 },
            Instr::Bin { op: BinOp::Sub, dst: Reg(0), a: Reg(0), b: Reg(1) },
            Instr::BrNonZero { cond: Reg(0), target: 1 },
            Instr::Ret { src: None },
        ];
        let mut p = Program::new();
        p.push_function(func(code));
        let d = decode_program(&p, &CostModel::default()).expect("decodes");
        let starts: Vec<u32> = d.functions[0].blocks.iter().map(|b| b.start).collect();
        assert_eq!(starts, vec![0, 1, 4]);
        // The loop body block covers pcs 1..=3.
        assert_eq!(d.functions[0].blocks[1].instrs, 3);
    }

    #[test]
    fn out_of_range_targets_are_rejected() {
        for bad in [
            Instr::Jmp { target: 3 },
            Instr::BrZero { cond: Reg(0), target: 9 },
            Instr::BrNonZero { cond: Reg(0), target: 100 },
        ] {
            let code = vec![Instr::Imm { dst: Reg(0), val: 0 }, bad.clone()];
            let mut p = Program::new();
            p.push_function(func(code));
            let err = decode_program(&p, &CostModel::default())
                .expect_err("out-of-range target must be rejected");
            assert_eq!(err.pc, 1);
            assert_eq!(err.len, 2);
            assert!(err.to_string().contains("past the end"), "{err}");
        }
    }

    #[test]
    fn target_equal_to_length_is_the_implicit_return() {
        // Jumping to `len` falls off the end: legal, and its own exit —
        // no block accrues for it.
        let code = vec![Instr::Jmp { target: 1 }];
        let mut p = Program::new();
        p.push_function(func(code));
        let d = decode_program(&p, &CostModel::default()).expect("target == len decodes");
        assert_eq!(d.functions[0].blocks.len(), 1);
    }

    #[test]
    fn empty_functions_decode_to_empty_bodies() {
        let mut p = Program::new();
        p.push_function(func(vec![]));
        let d = decode_program(&p, &CostModel::default()).expect("empty body decodes");
        assert!(d.functions[0].code.is_empty());
        assert!(d.functions[0].blocks.is_empty());
    }

    /// A body exercising all four fusion patterns:
    /// load+bin, bin+store, bin+jmp-backedge, cmp+branch.
    fn fusable_code() -> Vec<Instr> {
        vec![
            Instr::Imm { dst: Reg(1), val: 0 },
            Instr::Load { dst: Reg(2), addr: Reg(1), off: 0, width: Width::B8 },
            Instr::Bin { op: BinOp::Add, dst: Reg(3), a: Reg(2), b: Reg(0) },
            Instr::Bin { op: BinOp::Add, dst: Reg(4), a: Reg(3), b: Reg(0) },
            Instr::Store { src: Reg(4), addr: Reg(1), off: 8, width: Width::B8 },
            Instr::Bin { op: BinOp::Add, dst: Reg(0), a: Reg(0), b: Reg(1) },
            Instr::Jmp { target: 1 },
            Instr::Bin { op: BinOp::Lt, dst: Reg(5), a: Reg(0), b: Reg(1) },
            Instr::BrZero { cond: Reg(5), target: 10 },
            Instr::Nop,
            Instr::Ret { src: None },
        ]
    }

    #[test]
    fn all_four_fusion_patterns_fire() {
        let original = fusable_code();
        let mut p = Program::new();
        p.push_function(func(original.clone()));
        // Pin the `fuse` pass's own patterns: with the whole pipeline on,
        // `trace` claims the straight-line windows first.
        let fuse_only = PassMask::from_names(["fuse"]).unwrap();
        let d = decode_program_passes(&p, &CostModel::default(), fuse_only).expect("decodes");
        assert_eq!(d.passes, fuse_only);
        assert_eq!(d.cost, CostModel::default());
        let code = &d.functions[0].code;
        assert!(matches!(code[1], DecodedInstr::LoadBin { .. }), "{:?}", code[1]);
        assert!(matches!(code[3], DecodedInstr::BinStore { .. }), "{:?}", code[3]);
        assert!(matches!(code[5], DecodedInstr::BinJmp { target: 1, .. }), "{:?}", code[5]);
        assert!(
            matches!(code[7], DecodedInstr::CmpBr { neg: true, target: 10, site: 8, .. }),
            "{:?}",
            code[7]
        );
        // Shadow slots keep the ordinary decoded second constituent, so
        // the whole body still round-trips index for index.
        let back: Vec<Instr> = code.iter().map(|i| i.undecode()).collect();
        assert_eq!(back, original);
        // Block accrual is computed from the source stream and must be
        // untouched by fusion.
        let unfused =
            decode_program_passes(&p, &CostModel::default(), PassMask::none()).expect("decodes");
        assert_eq!(d.functions[0].blocks, unfused.functions[0].blocks);
        assert_eq!(d.functions[0].accrual, unfused.functions[0].accrual);
    }

    fn is_fused(i: &DecodedInstr) -> bool {
        matches!(
            i,
            DecodedInstr::CmpBr { .. }
                | DecodedInstr::LoadBin { .. }
                | DecodedInstr::BinStore { .. }
                | DecodedInstr::BinJmp { .. }
                | DecodedInstr::BinLoad { .. }
                | DecodedInstr::BinMov { .. }
                | DecodedInstr::BinBin { .. }
                | DecodedInstr::ChkLoad { .. }
                | DecodedInstr::ChkStore { .. }
                | DecodedInstr::MovJmp { .. }
                | DecodedInstr::BinMovJmp { .. }
                | DecodedInstr::LoadBinStore { .. }
                | DecodedInstr::BinLoadBinStore { .. }
                | DecodedInstr::ImmBin { .. }
        )
    }

    #[test]
    fn fusion_off_produces_no_fused_variants() {
        let mut p = Program::new();
        p.push_function(func(fusable_code()));
        let d =
            decode_program_passes(&p, &CostModel::default(), PassMask::none()).expect("decodes");
        assert_eq!(d.passes, PassMask::none());
        assert!(!d.functions[0].code.iter().any(is_fused));
    }

    /// The `a[k] = a[k] op x` shape: address calc, load, modify, store —
    /// plus a trailing RMW without the address binop.
    fn trace_code() -> Vec<Instr> {
        vec![
            Instr::Bin { op: BinOp::Add, dst: Reg(1), a: Reg(0), b: Reg(2) },
            Instr::Load { dst: Reg(3), addr: Reg(1), off: 0, width: Width::B8 },
            Instr::Bin { op: BinOp::Add, dst: Reg(4), a: Reg(3), b: Reg(5) },
            Instr::Store { src: Reg(4), addr: Reg(1), off: 0, width: Width::B8 },
            Instr::Load { dst: Reg(6), addr: Reg(2), off: 8, width: Width::B1 },
            Instr::Bin { op: BinOp::Xor, dst: Reg(6), a: Reg(6), b: Reg(5) },
            Instr::Store { src: Reg(6), addr: Reg(2), off: 8, width: Width::B1 },
            Instr::Ret { src: None },
        ]
    }

    #[test]
    fn trace_windows_fuse_four_and_three_wide() {
        let original = trace_code();
        let mut p = Program::new();
        p.push_function(func(original.clone()));
        let d = decode_program(&p, &CostModel::default()).expect("decodes");
        let code = &d.functions[0].code;
        assert!(matches!(code[0], DecodedInstr::BinLoadBinStore { .. }), "{:?}", code[0]);
        // The three shadow slots keep their ordinary decoded forms.
        assert!(matches!(code[1], DecodedInstr::Load { .. }), "{:?}", code[1]);
        assert!(matches!(code[2], DecodedInstr::Bin { .. }), "{:?}", code[2]);
        assert!(matches!(code[3], DecodedInstr::Store { .. }), "{:?}", code[3]);
        assert!(matches!(code[4], DecodedInstr::LoadBinStore { .. }), "{:?}", code[4]);
        let back: Vec<Instr> = code.iter().map(|i| i.undecode()).collect();
        assert_eq!(back, original);
        // Accrual is pass-independent.
        let none = decode_program_passes(&p, &CostModel::default(), PassMask::none()).unwrap();
        assert_eq!(d.functions[0].blocks, none.functions[0].blocks);
        assert_eq!(d.functions[0].accrual, none.functions[0].accrual);
    }

    #[test]
    fn trace_outranks_fuse_on_shared_windows() {
        // With only `fuse`, the same body collapses into pairs; with the
        // full pipeline the four-wide window wins because `trace` runs
        // first and claims the slots.
        let mut p = Program::new();
        p.push_function(func(trace_code()));
        let only_fuse = PassMask::from_names(["fuse"]).unwrap();
        let d = decode_program_passes(&p, &CostModel::default(), only_fuse).expect("decodes");
        let code = &d.functions[0].code;
        assert!(matches!(code[0], DecodedInstr::BinLoad { .. }), "{:?}", code[0]);
        assert!(matches!(code[2], DecodedInstr::BinStore { .. }), "{:?}", code[2]);
        assert!(matches!(code[4], DecodedInstr::LoadBin { .. }), "{:?}", code[4]);
    }

    #[test]
    fn straight_line_runs_fuse_into_trace_runs() {
        // Three-plus consecutive straight-line instructions collapse into
        // one TraceRun head whose shadows keep their plain decoded forms;
        // a control transfer ends the run and stays unfused.
        let original = vec![
            Instr::Imm { dst: Reg(1), val: 2 },
            Instr::Bin { op: BinOp::Add, dst: Reg(2), a: Reg(0), b: Reg(1) },
            Instr::Mov { dst: Reg(3), src: Reg(2) },
            Instr::Un { op: UnOp::Neg, dst: Reg(4), a: Reg(3) },
            Instr::Jmp { target: 5 },
            Instr::Ret { src: Some(Reg(4)) },
        ];
        let mut p = Program::new();
        p.push_function(func(original.clone()));
        let only_trace = PassMask::from_names(["trace"]).unwrap();
        let d = decode_program_passes(&p, &CostModel::default(), only_trace).expect("decodes");
        let code = &d.functions[0].code;
        assert!(
            matches!(&code[0], DecodedInstr::TraceRun { run } if run.len() == 4),
            "{:?}",
            code[0]
        );
        assert!(matches!(code[1], DecodedInstr::Bin { .. }), "{:?}", code[1]);
        assert!(matches!(code[3], DecodedInstr::Un { .. }), "{:?}", code[3]);
        assert!(matches!(code[4], DecodedInstr::Jmp { .. }), "{:?}", code[4]);
        let back: Vec<Instr> = code.iter().map(|i| i.undecode()).collect();
        assert_eq!(back, original);
    }

    #[test]
    fn immfold_caches_immediates_into_binops() {
        // `k = i % 256` materialises the modulus right before the binop;
        // immfold folds the pair. An immediate feeding nothing stays
        // unfused, as does one whose binop reads other registers only.
        let original = vec![
            Instr::Imm { dst: Reg(1), val: 256 },
            Instr::Bin { op: BinOp::Rem, dst: Reg(2), a: Reg(0), b: Reg(1) },
            Instr::Imm { dst: Reg(3), val: 7 },
            Instr::Bin { op: BinOp::Add, dst: Reg(4), a: Reg(0), b: Reg(2) },
            Instr::Ret { src: Some(Reg(4)) },
        ];
        let mut p = Program::new();
        p.push_function(func(original.clone()));
        let only_immfold = PassMask::from_names(["immfold"]).unwrap();
        let d = decode_program_passes(&p, &CostModel::default(), only_immfold).expect("decodes");
        let code = &d.functions[0].code;
        assert!(matches!(code[0], DecodedInstr::ImmBin { val: 256, .. }), "{:?}", code[0]);
        assert!(matches!(code[1], DecodedInstr::Bin { .. }), "{:?}", code[1]);
        assert!(matches!(code[2], DecodedInstr::Imm { .. }), "{:?}", code[2]);
        assert!(matches!(code[3], DecodedInstr::Bin { .. }), "{:?}", code[3]);
        let back: Vec<Instr> = code.iter().map(|i| i.undecode()).collect();
        assert_eq!(back, original);
    }

    #[test]
    fn single_pass_subsets_produce_only_their_variants() {
        // One body with a window for each pass; each singleton mask must
        // rewrite its own pattern and nothing else.
        let mut body = trace_code();
        body.truncate(7); // drop the Ret; keep both trace windows
        body.push(Instr::Imm { dst: Reg(1), val: 3 });
        body.push(Instr::Bin { op: BinOp::Mul, dst: Reg(4), a: Reg(1), b: Reg(0) });
        body.push(Instr::Ret { src: None });
        let mut p = Program::new();
        p.push_function(func(body));
        let cost = CostModel::default();
        let decode = |names: &[&str]| {
            let mask = PassMask::from_names(names.iter().copied()).unwrap();
            decode_program_passes(&p, &cost, mask).expect("decodes").functions[0].code.clone()
        };
        let trace = decode(&["trace"]);
        assert!(trace.iter().any(|i| matches!(i, DecodedInstr::BinLoadBinStore { .. })));
        assert!(!trace.iter().any(|i| matches!(
            i,
            DecodedInstr::ImmBin { .. }
                | DecodedInstr::BinLoad { .. }
                | DecodedInstr::BinBin { .. }
        )));
        let fuse = decode(&["fuse"]);
        assert!(fuse.iter().any(|i| matches!(i, DecodedInstr::BinLoad { .. })));
        assert!(!fuse.iter().any(|i| matches!(
            i,
            DecodedInstr::ImmBin { .. }
                | DecodedInstr::BinLoadBinStore { .. }
                | DecodedInstr::LoadBinStore { .. }
        )));
        let immfold = decode(&["immfold"]);
        assert!(immfold.iter().any(|i| matches!(i, DecodedInstr::ImmBin { .. })));
        assert!(!immfold.iter().any(|i| matches!(
            i,
            DecodedInstr::BinLoad { .. }
                | DecodedInstr::BinLoadBinStore { .. }
                | DecodedInstr::LoadBinStore { .. }
        )));
    }

    #[test]
    fn extended_fusion_patterns_fire() {
        // bin+load (address chain), bin+mov (copy-back), bin+bin (ALU
        // chain, both halves may trap — in-order execution keeps the
        // trap order exact).
        let original = vec![
            Instr::Bin { op: BinOp::Add, dst: Reg(1), a: Reg(0), b: Reg(2) },
            Instr::Load { dst: Reg(3), addr: Reg(1), off: 0, width: Width::B8 },
            Instr::Bin { op: BinOp::Mul, dst: Reg(4), a: Reg(3), b: Reg(3) },
            Instr::Mov { dst: Reg(5), src: Reg(4) },
            Instr::Bin { op: BinOp::Div, dst: Reg(6), a: Reg(5), b: Reg(2) },
            Instr::Bin { op: BinOp::Rem, dst: Reg(7), a: Reg(6), b: Reg(2) },
            Instr::Ret { src: Some(Reg(7)) },
        ];
        let mut p = Program::new();
        p.push_function(func(original.clone()));
        // Pin the `fuse` pass's own patterns: with the whole pipeline on,
        // `trace` claims the straight-line window first.
        let fuse_only = PassMask::from_names(["fuse"]).unwrap();
        let d = decode_program_passes(&p, &CostModel::default(), fuse_only).expect("decodes");
        let code = &d.functions[0].code;
        assert!(matches!(code[0], DecodedInstr::BinLoad { .. }), "{:?}", code[0]);
        assert!(matches!(code[2], DecodedInstr::BinMov { .. }), "{:?}", code[2]);
        assert!(matches!(code[4], DecodedInstr::BinBin { .. }), "{:?}", code[4]);
        // Shadow slots still make the body round-trip index for index.
        let back: Vec<Instr> = code.iter().map(|i| i.undecode()).collect();
        assert_eq!(back, original);
    }

    #[test]
    fn loop_latches_fuse_three_wide() {
        // The canonical latch `tmp = i + 1; i = tmp; jmp header` becomes
        // one BinMovJmp with two shadow slots; a bare `mov; jmp` pair
        // (no preceding binop) becomes MovJmp; a latch whose binop may
        // trap keeps the control transfer out of the fused window.
        let original = vec![
            Instr::Imm { dst: Reg(1), val: 0 },
            Instr::Bin { op: BinOp::Add, dst: Reg(2), a: Reg(1), b: Reg(0) },
            Instr::Mov { dst: Reg(1), src: Reg(2) },
            Instr::Jmp { target: 1 },
            Instr::Mov { dst: Reg(3), src: Reg(1) },
            Instr::Jmp { target: 8 },
            Instr::Bin { op: BinOp::Div, dst: Reg(4), a: Reg(1), b: Reg(0) },
            Instr::Mov { dst: Reg(5), src: Reg(4) },
            Instr::Jmp { target: 6 },
            Instr::Ret { src: None },
        ];
        let mut p = Program::new();
        p.push_function(func(original.clone()));
        let d = decode_program(&p, &CostModel::default()).expect("decodes");
        let code = &d.functions[0].code;
        assert!(matches!(code[1], DecodedInstr::BinMovJmp { target: 1, .. }), "{:?}", code[1]);
        // Both shadow slots keep their ordinary decoded forms.
        assert!(matches!(code[2], DecodedInstr::Mov { .. }), "{:?}", code[2]);
        assert!(matches!(code[3], DecodedInstr::Jmp { .. }), "{:?}", code[3]);
        assert!(matches!(code[4], DecodedInstr::MovJmp { target: 8, .. }), "{:?}", code[4]);
        // Div may trap: the triple must not fire, but the trap-order-
        // preserving BinMov pair still can; the jump stays unfused.
        assert!(matches!(code[6], DecodedInstr::BinMov { .. }), "{:?}", code[6]);
        assert!(matches!(code[8], DecodedInstr::Jmp { .. }), "{:?}", code[8]);
        let back: Vec<Instr> = code.iter().map(|i| i.undecode()).collect();
        assert_eq!(back, original);
    }

    #[test]
    fn asan_checks_fuse_with_the_access_they_guard() {
        let original = vec![
            Instr::AsanCheck { addr: Reg(1), off: 8, width: Width::B8, is_write: false },
            Instr::Load { dst: Reg(2), addr: Reg(1), off: 8, width: Width::B8 },
            Instr::AsanCheck { addr: Reg(3), off: 0, width: Width::B1, is_write: true },
            Instr::Store { src: Reg(2), addr: Reg(3), off: 0, width: Width::B1 },
            // Mismatched address operands must not fuse: this check does
            // not guard the access that follows it.
            Instr::AsanCheck { addr: Reg(1), off: 0, width: Width::B8, is_write: false },
            Instr::Load { dst: Reg(4), addr: Reg(5), off: 0, width: Width::B8 },
            Instr::Ret { src: None },
        ];
        let mut p = Program::new();
        p.push_function(func(original.clone()));
        let d = decode_program(&p, &CostModel::default()).expect("decodes");
        let code = &d.functions[0].code;
        assert!(matches!(code[0], DecodedInstr::ChkLoad { .. }), "{:?}", code[0]);
        assert!(matches!(code[2], DecodedInstr::ChkStore { .. }), "{:?}", code[2]);
        assert!(matches!(code[4], DecodedInstr::AsanCheck { .. }), "{:?}", code[4]);
        let back: Vec<Instr> = code.iter().map(|i| i.undecode()).collect();
        assert_eq!(back, original);
    }

    #[test]
    fn fusion_never_crosses_a_block_leader() {
        // The BrZero at 2 is itself a branch target: entering it directly
        // must not land inside a fused pair, so the pair (1, 2) stays
        // unfused.
        let code = vec![
            Instr::Jmp { target: 2 },
            Instr::Bin { op: BinOp::Lt, dst: Reg(2), a: Reg(0), b: Reg(1) },
            Instr::BrZero { cond: Reg(2), target: 1 },
            Instr::Ret { src: None },
        ];
        let mut p = Program::new();
        p.push_function(func(code));
        let d = decode_program(&p, &CostModel::default()).expect("decodes");
        assert!(matches!(d.functions[0].code[1], DecodedInstr::Bin { .. }));
        assert!(matches!(d.functions[0].code[2], DecodedInstr::BrZero { .. }));
    }

    #[test]
    fn trapping_binops_never_fuse_with_control_transfers() {
        // Div may trap; the pair must stay unfused so the trap surfaces
        // from a plain Bin step (BinStore is fine: it executes in order).
        let code = vec![
            Instr::Bin { op: BinOp::Div, dst: Reg(2), a: Reg(0), b: Reg(1) },
            Instr::BrZero { cond: Reg(2), target: 4 },
            Instr::Bin { op: BinOp::Rem, dst: Reg(3), a: Reg(0), b: Reg(1) },
            Instr::Jmp { target: 0 },
            Instr::Ret { src: None },
        ];
        let mut p = Program::new();
        p.push_function(func(code));
        let d = decode_program(&p, &CostModel::default()).expect("decodes");
        assert!(matches!(d.functions[0].code[0], DecodedInstr::Bin { .. }));
        assert!(matches!(d.functions[0].code[2], DecodedInstr::Bin { .. }));
    }
}
