//! # fex-vm — deterministic execution substrate for the Fex evaluator
//!
//! This crate is the reproduction's substitute for "real hardware +
//! `perf`": a register-bytecode virtual machine with
//!
//! * a **flat, byte-addressable simulated memory** in which stack frames,
//!   return addresses, globals and the heap actually live (so memory-safety
//!   attacks à la RIPE are mechanically real, not scripted),
//! * a **per-instruction cycle cost model** and a **three-level
//!   set-associative cache simulator** feeding `perf stat`-style counters,
//! * **shadow memory** for AddressSanitizer-style instrumentation emitted
//!   by [`fex-cc`](https://docs.rs/fex-cc),
//! * **multicore `parfor` execution** with per-core cycle accounting and
//!   barrier costs, and
//! * configurable **mitigations** (NX stack, stack canaries, ASLR) used by
//!   the security experiments.
//!
//! Everything is deterministic given a [`MachineConfig`] seed.
//!
//! ## Example
//!
//! ```
//! use fex_vm::{Machine, MachineConfig, Program, Function, Instr, BinOp, Reg, SysCall};
//!
//! // A tiny hand-assembled program: print 2 + 40.
//! let mut f = Function::new("main", 0);
//! let (a, b, c) = (Reg(0), Reg(1), Reg(2));
//! f.reg_count = 3;
//! f.code = vec![
//!     Instr::Imm { dst: a, val: 2 },
//!     Instr::Imm { dst: b, val: 40 },
//!     Instr::Bin { op: BinOp::Add, dst: c, a, b },
//!     Instr::Syscall { code: SysCall::PrintI64, args: vec![c], dst: None },
//!     Instr::Ret { src: None },
//! ];
//! let mut p = Program::new();
//! p.push_function(f);
//! let mut m = Machine::new(MachineConfig::default());
//! let run = m.run(&p, &[])?;
//! assert_eq!(run.stdout.trim(), "42");
//! # Ok::<(), fex_vm::VmError>(())
//! ```

mod branch;
mod bytecode;
mod cache;
mod cost;
mod counters;
mod decode;
mod fault;
mod heap;
mod interp;
mod machine;
mod memory;
mod passes;
mod perf;
mod shadow;
mod trap;

pub use branch::BranchPredictor;
pub use bytecode::{
    code_addr, decode_code_addr, BinOp, FBinOp, FCmpOp, FuncId, Function, GlobalDef, Instr,
    Program, Reg, StackSlot, SysCall, UnOp, Width,
};
pub use cache::{Cache, CacheConfig, CacheHierarchy, CacheLevel, CacheStats, HitLevel};
pub use cost::CostModel;
pub use counters::PerfCounters;
pub use decode::{
    decode_program, decode_program_passes, BasicBlock, DecodeError, DecodedFunction, DecodedInstr,
    DecodedProgram,
};
pub use fault::{FaultDecision, FaultKind, FaultPlan, FaultSite};
pub use heap::{Heap, HeapStats};
pub use interp::{AttackEvent, Instance, RunResult, SHELLCODE};
pub use machine::{global_offsets, LoadBases, Machine, MachineConfig, Mitigations};
pub use memory::{layout, Memory, Perm, SegmentKind};
pub use passes::{Pass, PassCtx, PassError, PassInfo, PassMask, PASSES};
pub use perf::{MeasureTool, Measurement, UnitCounters};
pub use shadow::{PoisonKind, ShadowMemory, GRANULE as SHADOW_GRANULE};
pub use trap::{Trap, VmError};
