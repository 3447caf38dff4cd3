//! The ordered decode pass pipeline.
//!
//! Decoding lowers a program in two fixed structural stages —
//! translation (every [`Instr`] becomes a [`DecodedInstr`] with
//! validated jump targets) and basic-block accrual — and then runs an
//! **ordered pipeline of optional peephole passes** over each body.
//! Every pass is a pure dispatch-count optimisation: measured numbers
//! cannot change, because instruction/cycle accrual is pre-summed from
//! the source stream before any pass runs, and every rewritten window
//! executes its constituents strictly in program order (see the
//! invariants in [`crate::decode`]).
//!
//! Passes are registered by name in [`PASSES`], in canonical pipeline
//! order, and selected with a [`PassMask`] (`--passes` on the CLI;
//! `--passes none` switches everything off):
//!
//! | name | rewrites |
//! |---|---|
//! | `trace` | trace-length superinstructions past the three-wide latch: the 3-wide `Load`+`Bin`+`Store` read-modify-write window ([`DecodedInstr::LoadBinStore`]), the 4-wide `Bin`+`Load`+`Bin`+`Store` indexed-update window ([`DecodedInstr::BinLoadBinStore`]), and generic straight-line runs of ≥ 3 non-control instructions ([`DecodedInstr::TraceRun`]) |
//! | `fuse` | the classic pair/triple superinstruction fusion (`CmpBr`, `LoadBin`, `BinStore`, `BinJmp`, `BinLoad`, `BinMov`, `BinBin`, `ChkLoad`/`ChkStore`, `MovJmp`, `BinMovJmp`) |
//! | `immfold` | register-cached VM temporaries: `Imm` + `Bin` reading the immediate's register fuses into [`DecodedInstr::ImmBin`], whose handler feeds the constant straight into the ALU operand instead of bouncing through the register file |
//!
//! Passes cooperate through a **claimed-slot bitmap** in [`PassCtx`]: a
//! pass may rewrite a window only when every slot is unclaimed and no
//! *interior* slot is a block leader, and it claims the whole window
//! (head and shadow slots alike) when it fires. Earlier passes
//! therefore win the longer windows — `trace` runs before `fuse` — and
//! later passes fill the gaps; no two windows ever overlap, so
//! per-index shadow-slot round-tripping holds whatever subset runs.

use crate::bytecode::{BinOp, Instr};
use crate::decode::DecodedInstr;

/// Registry entry for one peephole pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassInfo {
    /// Registry name (`--passes` operand).
    pub name: &'static str,
    /// The pass's bit in a [`PassMask`].
    pub bit: u8,
    /// One-line description for `--help` and bench reports.
    pub description: &'static str,
}

/// Every registered pass, in canonical pipeline order.
pub const PASSES: [PassInfo; 3] = [
    PassInfo {
        name: "trace",
        bit: 1 << 0,
        description:
            "trace-length superinstructions (RMW/indexed-update windows, straight-line runs)",
    },
    PassInfo {
        name: "fuse",
        bit: 1 << 1,
        description: "pair/triple superinstruction fusion (CmpBr, LoadBin, ..., BinMovJmp)",
    },
    PassInfo {
        name: "immfold",
        bit: 1 << 2,
        description: "immediate caching into the following binop (ImmBin)",
    },
];

/// A malformed pass selection (unknown name, duplicate, or a list not in
/// pipeline order). Carries the user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassError(pub String);

impl std::fmt::Display for PassError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for PassError {}

fn available() -> String {
    PASSES.map(|p| p.name).join(", ")
}

fn lookup(name: &str) -> Result<PassInfo, PassError> {
    PASSES
        .iter()
        .find(|p| p.name == name)
        .copied()
        .ok_or_else(|| PassError(format!("unknown pass `{name}` (available: {})", available())))
}

/// The enabled subset of the decode pass pipeline, as a bitset over
/// [`PASSES`]. Ordering is fixed by the registry — a mask selects
/// *which* passes run, never in what order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PassMask(u8);

impl PassMask {
    /// Every registered pass (the standard pipeline).
    pub fn all() -> Self {
        PassMask(PASSES.iter().fold(0, |m, p| m | p.bit))
    }

    /// The empty pipeline: structural decode only, no rewrites
    /// (`--passes none`).
    pub fn none() -> Self {
        PassMask(0)
    }

    /// The raw bitset (used as a cache-key byte).
    pub fn bits(self) -> u8 {
        self.0
    }

    /// A mask from raw bits; unknown bits are dropped.
    pub fn from_bits(bits: u8) -> Self {
        PassMask(bits & Self::all().0)
    }

    /// Whether the named pass is enabled. Unknown names are simply not
    /// enabled (selection errors are caught at parse time).
    pub fn enables(self, name: &str) -> bool {
        PASSES.iter().any(|p| p.name == name && self.0 & p.bit != 0)
    }

    /// This mask with the named pass enabled.
    ///
    /// # Errors
    ///
    /// [`PassError`] on an unknown name.
    pub fn with(self, name: &str) -> Result<Self, PassError> {
        Ok(PassMask(self.0 | lookup(name)?.bit))
    }

    /// This mask with the named pass disabled (the leave-one-out rows of
    /// the `vm_hotpath` bench).
    ///
    /// # Errors
    ///
    /// [`PassError`] on an unknown name.
    pub fn without(self, name: &str) -> Result<Self, PassError> {
        Ok(PassMask(self.0 & !lookup(name)?.bit))
    }

    /// Parses an explicit `--passes` list: pass names in pipeline order,
    /// or the literal `all` / `none`.
    ///
    /// # Errors
    ///
    /// [`PassError`] on an unknown name, a duplicate, or a list that is
    /// not in canonical pipeline order (the order is fixed; a reordered
    /// list would silently not mean what it says).
    pub fn from_names<'a, I: IntoIterator<Item = &'a str>>(names: I) -> Result<Self, PassError> {
        let names: Vec<&str> = names.into_iter().collect();
        match names.as_slice() {
            ["all"] => return Ok(Self::all()),
            ["none"] => return Ok(Self::none()),
            _ => {}
        }
        let mut mask = 0u8;
        let mut last_bit = 0u8;
        for name in names {
            let info = lookup(name)?;
            if mask & info.bit != 0 {
                return Err(PassError(format!("duplicate pass `{name}` in pass list")));
            }
            if info.bit < last_bit {
                return Err(PassError(format!(
                    "pass `{name}` is out of pipeline order (canonical order: {})",
                    available()
                )));
            }
            mask |= info.bit;
            last_bit = info.bit;
        }
        Ok(PassMask(mask))
    }

    /// The enabled pass names, in pipeline order.
    pub fn names(self) -> Vec<&'static str> {
        PASSES.iter().filter(|p| self.0 & p.bit != 0).map(|p| p.name).collect()
    }
}

impl Default for PassMask {
    fn default() -> Self {
        Self::all()
    }
}

impl std::fmt::Display for PassMask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 == 0 {
            f.write_str("none")
        } else {
            f.write_str(&self.names().join(","))
        }
    }
}

/// The shared rewrite surface a pass operates on: one function body,
/// after translation and accrual, before execution.
pub struct PassCtx<'a> {
    /// The source instruction stream (patterns match on this — a pass
    /// never has to decide whether an earlier pass already rewrote a
    /// slot's decoded form).
    pub src: &'a [Instr],
    /// The decoded body, rewritten in place.
    pub code: &'a mut [DecodedInstr],
    /// Block-leader flags, one per pc.
    pub leader: &'a [bool],
    /// Claimed-slot bitmap: `true` for every slot inside an
    /// already-fused window, head and shadows alike.
    pub claimed: &'a mut [bool],
}

impl PassCtx<'_> {
    /// Whether the window `[pc, pc + len)` may fuse: in range, every
    /// slot unclaimed, and no *interior* slot a block leader (the head
    /// may be one — entering a window at its head is the normal case).
    pub fn window_free(&self, pc: usize, len: usize) -> bool {
        pc + len <= self.src.len()
            && !self.claimed[pc..pc + len].iter().any(|&c| c)
            && !self.leader[pc + 1..pc + len].iter().any(|&l| l)
    }

    /// Installs `fused` at `pc` and claims the whole `len`-slot window.
    pub fn fuse(&mut self, pc: usize, len: usize, fused: DecodedInstr) {
        self.code[pc] = fused;
        for slot in &mut self.claimed[pc..pc + len] {
            *slot = true;
        }
    }
}

/// One peephole pass over a decoded body.
pub trait Pass {
    /// The registry name ([`PASSES`]).
    fn name(&self) -> &'static str;
    /// Rewrites windows in `ctx`. A pass must fuse only windows for
    /// which [`PassCtx::window_free`] holds, and claim every window it
    /// rewrites.
    fn run(&self, ctx: &mut PassCtx<'_>);
}

/// The registered pass objects, parallel to [`PASSES`].
fn registry() -> [&'static dyn Pass; PASSES.len()] {
    [&TracePass, &FusePass, &ImmFoldPass]
}

/// Runs every pass enabled in `mask` over `ctx`, in pipeline order.
pub(crate) fn run_pipeline(mask: PassMask, ctx: &mut PassCtx<'_>) {
    for pass in registry() {
        if mask.enables(pass.name()) {
            pass.run(ctx);
        }
    }
}

/// Integer binops that cannot trap (everything but `Div`/`Rem`): safe as
/// an earlier constituent of a window whose last constituent transfers
/// control. Windows that end in a plain register/memory write need no
/// such guard — they execute in order and a trap simply surfaces
/// mid-window, exactly as the unfused sequence would.
fn trap_free(op: BinOp) -> bool {
    !matches!(op, BinOp::Div | BinOp::Rem)
}

// ---------------------------------------------------------------------
// `trace`: windows longer than the classic three-wide latch
// ---------------------------------------------------------------------

/// The longest run a [`DecodedInstr::TraceRun`] can cover (keeps the
/// embedded constituent slice, and the decode-time copy it implies,
/// bounded).
const MAX_TRACE: usize = 255;

/// Trace-length superinstructions. Runs first so the longest windows
/// win; `fuse` then picks up whatever pairs/triples remain unclaimed.
/// Two sub-phases: the specialised memory windows (4-wide indexed
/// update, 3-wide read-modify-write) claim their shapes first, then
/// generic straight-line runs of ≥ 3 non-control instructions collapse
/// into [`DecodedInstr::TraceRun`] around them.
pub struct TracePass;

impl Pass for TracePass {
    fn name(&self) -> &'static str {
        "trace"
    }

    fn run(&self, ctx: &mut PassCtx<'_>) {
        let mut pc = 0;
        while pc < ctx.src.len() {
            if ctx.window_free(pc, 4) {
                if let Some(fused) = fuse_indexed_update(&ctx.src[pc..pc + 4]) {
                    ctx.fuse(pc, 4, fused);
                    pc += 4;
                    continue;
                }
            }
            if ctx.window_free(pc, 3) {
                if let Some(fused) = fuse_rmw(&ctx.src[pc..pc + 3]) {
                    ctx.fuse(pc, 3, fused);
                    pc += 3;
                    continue;
                }
            }
            pc += 1;
        }
        // Phase two: generic straight-line runs over what is left. The
        // head may be a leader; extension stops at claims, leaders and
        // anything that is not straight-line.
        let mut pc = 0;
        while pc < ctx.src.len() {
            if ctx.claimed[pc] || !straight_line(&ctx.src[pc]) {
                pc += 1;
                continue;
            }
            let mut len = 1;
            while len < MAX_TRACE
                && pc + len < ctx.src.len()
                && !ctx.claimed[pc + len]
                && !ctx.leader[pc + len]
                && straight_line(&ctx.src[pc + len])
            {
                len += 1;
            }
            if len >= 3 {
                // Every slot in the window still holds its plain decoded
                // form — nothing claimed them — so the constituents copy
                // straight into the embedded run; the interpreter then
                // executes the contiguous slice without re-touching the
                // function body.
                let run = ctx.code[pc..pc + len].to_vec().into_boxed_slice();
                ctx.fuse(pc, len, DecodedInstr::TraceRun { run });
            }
            pc += len;
        }
    }
}

/// Instructions a [`DecodedInstr::TraceRun`] may contain: no control
/// transfer, no call/frame machinery, no syscalls — exactly the set the
/// interpreter's straight-line sub-loop mirrors.
fn straight_line(i: &Instr) -> bool {
    matches!(
        i,
        Instr::Imm { .. }
            | Instr::FImm { .. }
            | Instr::Mov { .. }
            | Instr::Un { .. }
            | Instr::Bin { .. }
            | Instr::Load { .. }
            | Instr::Store { .. }
            | Instr::GlobalAddr { .. }
            | Instr::FrameAddr { .. }
            | Instr::RodataAddr { .. }
    )
}

/// 4-wide indexed update `addr = base op idx; v = mem[..]; v' = v op x;
/// mem[..] = v'` — the `a[k] = a[k] + i` shape. No constituent
/// transfers control, so trapping ops are fine: execution is in order.
fn fuse_indexed_update(w: &[Instr]) -> Option<DecodedInstr> {
    match (&w[0], &w[1], &w[2], &w[3]) {
        (
            &Instr::Bin { op: op1, dst: dst1, a: a1, b: b1 },
            &Instr::Load { dst: ld, addr: laddr, off: loff, width: lwidth },
            &Instr::Bin { op: op2, dst: dst2, a: a2, b: b2 },
            &Instr::Store { src, addr: saddr, off: soff, width: swidth },
        ) if src == dst2 => Some(DecodedInstr::BinLoadBinStore {
            op1,
            dst1,
            a1,
            b1,
            ld,
            laddr,
            loff,
            lwidth,
            op2,
            dst2,
            a2,
            b2,
            saddr,
            soff,
            swidth,
        }),
        _ => None,
    }
}

/// 3-wide read-modify-write `v = mem[..]; v' = v op x; mem[..] = v'`.
fn fuse_rmw(w: &[Instr]) -> Option<DecodedInstr> {
    match (&w[0], &w[1], &w[2]) {
        (
            &Instr::Load { dst: ld, addr: laddr, off: loff, width: lwidth },
            &Instr::Bin { op, dst, a, b },
            &Instr::Store { src, addr: saddr, off: soff, width: swidth },
        ) if src == dst => Some(DecodedInstr::LoadBinStore {
            ld,
            laddr,
            loff,
            lwidth,
            op,
            dst,
            a,
            b,
            saddr,
            soff,
            swidth,
        }),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// `fuse`: the classic pair/triple peepholes
// ---------------------------------------------------------------------

/// The pair/triple superinstruction fusion pass: greedy, left to right,
/// non-overlapping; the three-wide latch is tried before the pair at
/// each pc.
pub struct FusePass;

impl Pass for FusePass {
    fn name(&self) -> &'static str {
        "fuse"
    }

    fn run(&self, ctx: &mut PassCtx<'_>) {
        let mut pc = 0;
        while pc + 1 < ctx.src.len() {
            if !ctx.window_free(pc, 2) {
                pc += 1;
                continue;
            }
            if ctx.window_free(pc, 3) {
                if let Some(fused) = fuse_triple(&ctx.src[pc], &ctx.src[pc + 1], &ctx.src[pc + 2]) {
                    ctx.fuse(pc, 3, fused);
                    pc += 3;
                    continue;
                }
            }
            if let Some(fused) = fuse_pair(&ctx.src[pc], &ctx.src[pc + 1], pc) {
                ctx.fuse(pc, 2, fused);
                pc += 2;
            } else {
                pc += 1;
            }
        }
    }
}

/// Three-wide fusion: `tmp = i op k; i = tmp; jmp target` — the
/// canonical loop latch when the jump is a backedge, a diamond arm's
/// exit when it is forward. The binop must be trap-free because the
/// handler ends in a control transfer (`Mov` cannot trap at all).
fn fuse_triple(first: &Instr, second: &Instr, third: &Instr) -> Option<DecodedInstr> {
    match (first, second, third) {
        (
            &Instr::Bin { op, dst, a, b },
            &Instr::Mov { dst: mdst, src: msrc },
            &Instr::Jmp { target },
        ) if trap_free(op) => {
            Some(DecodedInstr::BinMovJmp { op, dst, a, b, mdst, msrc, target: target as u32 })
        }
        _ => None,
    }
}

fn fuse_pair(first: &Instr, second: &Instr, pc: usize) -> Option<DecodedInstr> {
    match (first, second) {
        // Compare (or any trap-free binop) + conditional branch on its
        // result: the dominant loop-header pattern.
        (&Instr::Bin { op, dst, a, b }, &Instr::BrZero { cond, target })
            if cond == dst && trap_free(op) =>
        {
            Some(DecodedInstr::CmpBr {
                op,
                dst,
                a,
                b,
                neg: true,
                target: target as u32,
                site: (pc + 1) as u32,
            })
        }
        (&Instr::Bin { op, dst, a, b }, &Instr::BrNonZero { cond, target })
            if cond == dst && trap_free(op) =>
        {
            Some(DecodedInstr::CmpBr {
                op,
                dst,
                a,
                b,
                neg: false,
                target: target as u32,
                site: (pc + 1) as u32,
            })
        }
        // Load + integer binop (usually consuming the loaded value).
        (&Instr::Load { dst: ld, addr, off, width }, &Instr::Bin { op, dst, a, b }) => {
            Some(DecodedInstr::LoadBin { ld, addr, off, width, op, dst, a, b })
        }
        // Binop + store of its result.
        (&Instr::Bin { op, dst, a, b }, &Instr::Store { src, addr, off, width }) if src == dst => {
            Some(DecodedInstr::BinStore { op, dst, a, b, addr, off, width })
        }
        // Increment (or any trap-free binop) + backedge jump: the
        // loop-latch pattern.
        (&Instr::Bin { op, dst, a, b }, &Instr::Jmp { target })
            if target <= pc && trap_free(op) =>
        {
            Some(DecodedInstr::BinJmp { op, dst, a, b, target: target as u32 })
        }
        // Binop + load: the array address-chain pattern
        // (`addr = base + i*8; v = mem[addr]`).
        (&Instr::Bin { op, dst, a, b }, &Instr::Load { dst: ld, addr, off, width }) => {
            Some(DecodedInstr::BinLoad { op, dst, a, b, ld, addr, off, width })
        }
        // Binop + register copy (usually of its result).
        (&Instr::Bin { op, dst, a, b }, &Instr::Mov { dst: mdst, src: msrc }) => {
            Some(DecodedInstr::BinMov { op, dst, a, b, mdst, msrc })
        }
        // Register copy + unconditional jump (a diamond arm's exit; the
        // copy cannot trap, so any target is safe).
        (&Instr::Mov { dst, src }, &Instr::Jmp { target }) => {
            Some(DecodedInstr::MovJmp { dst, src, target: target as u32 })
        }
        // Binop + binop: straight-line ALU chains.
        (
            &Instr::Bin { op: op1, dst: dst1, a: a1, b: b1 },
            &Instr::Bin { op: op2, dst: dst2, a: a2, b: b2 },
        ) => Some(DecodedInstr::BinBin { op1, dst1, a1, b1, op2, dst2, a2, b2 }),
        // ASan shadow check + the access it guards: the instrumented
        // memory-access pattern. The check never writes a register, so
        // the shared address operands evaluate identically in both
        // halves; fusing only when they match keeps that trivially true.
        (
            &Instr::AsanCheck { addr: caddr, off: coff, width: cwidth, is_write: false },
            &Instr::Load { dst, addr, off, width },
        ) if caddr == addr && coff == off && cwidth == width => {
            Some(DecodedInstr::ChkLoad { dst, addr, off, width })
        }
        (
            &Instr::AsanCheck { addr: caddr, off: coff, width: cwidth, is_write: true },
            &Instr::Store { src, addr, off, width },
        ) if caddr == addr && coff == off && cwidth == width => {
            Some(DecodedInstr::ChkStore { src, addr, off, width })
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------
// `immfold`: immediate caching
// ---------------------------------------------------------------------

/// Immediate caching: `Imm` + `Bin` reading the immediate's register
/// fuses into [`DecodedInstr::ImmBin`], which carries the constant in
/// the decoded slot. The handler still writes the immediate's register
/// (observability is unchanged) but feeds the literal straight into the
/// matching ALU operand. Runs last, picking up pairs the wider passes
/// left unclaimed.
pub struct ImmFoldPass;

impl Pass for ImmFoldPass {
    fn name(&self) -> &'static str {
        "immfold"
    }

    fn run(&self, ctx: &mut PassCtx<'_>) {
        let mut pc = 0;
        while pc + 1 < ctx.src.len() {
            if ctx.window_free(pc, 2) {
                if let (&Instr::Imm { dst: idst, val }, &Instr::Bin { op, dst, a, b }) =
                    (&ctx.src[pc], &ctx.src[pc + 1])
                {
                    if a == idst || b == idst {
                        ctx.fuse(pc, 2, DecodedInstr::ImmBin { idst, val, op, dst, a, b });
                        pc += 2;
                        continue;
                    }
                }
            }
            pc += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_the_pass_table_in_order() {
        let passes = registry();
        assert_eq!(passes.len(), PASSES.len());
        for (pass, info) in passes.iter().zip(PASSES.iter()) {
            assert_eq!(pass.name(), info.name);
        }
        // Bits are distinct and ascending (from_names relies on it).
        for w in PASSES.windows(2) {
            assert!(w[0].bit < w[1].bit);
        }
    }

    #[test]
    fn mask_roundtrips_names_and_bits() {
        let all = PassMask::all();
        assert_eq!(all.names(), vec!["trace", "fuse", "immfold"]);
        assert_eq!(all.to_string(), "trace,fuse,immfold");
        assert_eq!(PassMask::none().to_string(), "none");
        assert_eq!(PassMask::from_bits(all.bits()), all);
        // Unknown bits are dropped.
        assert_eq!(PassMask::from_bits(0xFF), all);
        assert_eq!(PassMask::default(), all);
    }

    #[test]
    fn from_names_accepts_ordered_subsets_and_aliases() {
        assert_eq!(PassMask::from_names(["all"]).unwrap(), PassMask::all());
        assert_eq!(PassMask::from_names(["none"]).unwrap(), PassMask::none());
        assert_eq!(PassMask::from_names([]).unwrap(), PassMask::none());
        let m = PassMask::from_names(["trace", "immfold"]).unwrap();
        assert!(m.enables("trace") && m.enables("immfold") && !m.enables("fuse"));
        assert_eq!(m.names(), vec!["trace", "immfold"]);
    }

    #[test]
    fn from_names_rejects_unknown_duplicate_and_reordered() {
        let err = PassMask::from_names(["bogus"]).unwrap_err();
        assert!(err.to_string().contains("unknown pass `bogus`"), "{err}");
        assert!(err.to_string().contains("trace, fuse, immfold"), "{err}");
        let err = PassMask::from_names(["fuse", "fuse"]).unwrap_err();
        assert!(err.to_string().contains("duplicate pass `fuse`"), "{err}");
        let err = PassMask::from_names(["fuse", "trace"]).unwrap_err();
        assert!(err.to_string().contains("out of pipeline order"), "{err}");
    }

    #[test]
    fn with_and_without_toggle_single_passes() {
        let m = PassMask::all().without("fuse").unwrap();
        assert_eq!(m.names(), vec!["trace", "immfold"]);
        assert_eq!(m.with("fuse").unwrap(), PassMask::all());
        assert!(PassMask::none().without("bogus").is_err());
        assert!(!PassMask::all().enables("bogus"));
    }
}
