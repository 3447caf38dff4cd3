//! The bytecode interpreter.
//!
//! An [`Instance`] is one loaded program: initialised memory and shadow,
//! cold caches, per-core stacks. Calls push frames whose bookkeeping words
//! (return address, saved frame pointer, optional canary) live in simulated
//! memory, so memory-corrupting programs corrupt *their own* control state
//! — exactly the behaviour the RIPE reproduction needs.

use std::sync::Arc;

use crate::branch::BranchPredictor;
use crate::bytecode::{
    code_addr, decode_code_addr, BinOp, FBinOp, FCmpOp, FuncId, Program, Reg, SysCall, UnOp, Width,
};
use crate::cache::{CacheHierarchy, CacheLevel, CacheStats, HitLevel};
use crate::counters::PerfCounters;
use crate::decode::{decode_program_passes, DecodedInstr, DecodedProgram};
use crate::heap::{Heap, HeapStats};
use crate::machine::{global_offsets, LoadBases, MachineConfig};
use crate::memory::{layout, Memory, Perm, SegmentKind};
use crate::shadow::{PoisonKind, ShadowMemory};
use crate::trap::{Trap, VmError};

/// The 16-byte marker the security experiments plant as "shellcode".
///
/// When control is transferred to a data address whose bytes start with
/// this sequence *and* the containing segment is executable, the VM treats
/// it as successful shellcode execution (the RIPE shellcode's observable
/// behaviour — creating a dummy file — is recorded as an
/// [`AttackEvent::CreatFile`]).
pub const SHELLCODE: [u8; 16] = *b"\x90\x90SHELLCODE!!\xCC\xCC\xCC";

/// Security-relevant events observed during a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttackEvent {
    /// Shellcode bytes were executed at the given address.
    ShellcodeExecuted {
        /// Address the shellcode ran at.
        addr: u64,
    },
    /// The `creat_file` libc stand-in ran (return-into-libc success when
    /// reached via a hijack).
    CreatFile {
        /// First argument passed to the call.
        arg: i64,
    },
    /// The program's own `attack_success` marker syscall ran.
    Marker,
}

/// Result of one run (or one [`Instance::call`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Value returned by the entry function.
    pub exit: i64,
    /// Captured standard output.
    pub stdout: String,
    /// Aggregated counters across all cores.
    pub counters: PerfCounters,
    /// Per-core counters.
    pub per_core: Vec<PerfCounters>,
    /// Elapsed cycles on the main timeline (serial time + per-parfor
    /// maximum across cores + barrier costs).
    pub elapsed_cycles: u64,
    /// `elapsed_cycles / freq_hz`.
    pub wall_seconds: f64,
    /// Heap statistics.
    pub heap: HeapStats,
    /// Estimated resident set size: globals + peak heap reservation +
    /// nominal per-core stack, plus (for ASan builds) the 1:8 shadow of
    /// all of it — the terms that dominate real ASan RSS overheads.
    pub maxrss_bytes: u64,
    /// L1 statistics.
    pub l1: CacheStats,
    /// L2 statistics.
    pub l2: CacheStats,
    /// LLC statistics.
    pub llc: CacheStats,
    /// Security events, in order of occurrence.
    pub attack_events: Vec<AttackEvent>,
    /// Control-flow hijacks detected (target addresses), whether or not
    /// they led to a successful attack.
    pub hijacks: Vec<i64>,
}

struct Frame {
    func: FuncId,
    pc: usize,
    regs: Vec<i64>,
    /// Register in the *caller's* frame receiving the return value.
    ret_dst: Option<Reg>,
    /// Memory slot holding the return address.
    ret_slot: u64,
    canary_slot: Option<u64>,
    /// Addresses of the function's stack array slots.
    slot_addrs: Vec<u64>,
    /// The return-address value written at call time.
    expected_ret: i64,
    /// Stack pointer to restore on return.
    prev_sp: u64,
    /// `[start, len)` covering arrays + redzones, for ASan (un)poisoning.
    array_region: (u64, u64),
}

enum Flow {
    Continue,
    Exit(i64),
}

/// A loaded program with live memory, ready to run.
///
/// Create via [`Machine::load`](crate::Machine::load). An instance may be
/// [`run_entry`](Instance::run_entry) once or [`call`](Instance::call)ed
/// repeatedly (memory state persists across calls, counters are reported
/// per call).
pub struct Instance<'p> {
    program: &'p Program,
    /// Hot-loop form of `program`: validated jump targets and pre-summed
    /// per-block costs (see [`crate::decode`]). Behind an `Arc` so the
    /// execution loop can hold the instruction stream while `&mut self`
    /// methods run.
    decoded: Arc<DecodedProgram>,
    config: MachineConfig,
    mem: Memory,
    shadow: ShadowMemory,
    caches: CacheHierarchy,
    heap: Heap,
    bases: LoadBases,
    global_addrs: Vec<u64>,
    stdout: String,
    per_core: Vec<PerfCounters>,
    timeline_cycles: u64,
    core: usize,
    in_parfor: bool,
    rng: u64,
    canary: i64,
    attack_events: Vec<AttackEvent>,
    hijacks: Vec<i64>,
    sp: Vec<u64>,
    stack_floor: Vec<u64>,
    instr_budget_used: u64,
    /// Pending fault from the config's `FaultPlan`, decided at load time
    /// and fired at most once.
    fault: Option<crate::fault::FaultDecision>,
    /// ASan quarantine: freed blocks (payload addr, bytes) held poisoned
    /// before really returning to the allocator, FIFO.
    quarantine: std::collections::VecDeque<(u64, u64)>,
    quarantine_bytes: u64,
    predictors: Vec<BranchPredictor>,
}

/// ASan quarantine capacity before the oldest blocks are recycled.
const QUARANTINE_CAP: u64 = 256 * 1024;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl<'p> Instance<'p> {
    pub(crate) fn new(program: &'p Program, config: MachineConfig) -> Self {
        Self::with_decoded(program, config, None)
    }

    /// Like [`Instance::new`], but reuses `predecoded` — which **must**
    /// be the decoded form of this `program` — when it matches the
    /// config's cost model and fusion setting; otherwise the program is
    /// decoded fresh. This is the decoded-artifact cache entry point: a
    /// shared `Arc<DecodedProgram>` makes loading free of decode work.
    pub(crate) fn with_decoded(
        program: &'p Program,
        config: MachineConfig,
        predecoded: Option<Arc<DecodedProgram>>,
    ) -> Self {
        let mut seed = config.seed ^ 0xF3E5_D00D;
        let slide = |rng: &mut u64, on: bool| {
            if on {
                (splitmix(rng) % 4096) * 16
            } else {
                0
            }
        };
        let mut rng_state = seed;
        let aslr = config.mitigations.aslr;
        let bases = LoadBases {
            rodata: layout::RODATA_BASE + slide(&mut rng_state, aslr),
            globals: layout::GLOBALS_BASE + slide(&mut rng_state, aslr),
            heap: layout::HEAP_BASE + slide(&mut rng_state, aslr),
            stack: layout::STACK_REGION_BASE + slide(&mut rng_state, aslr),
        };
        seed = rng_state;

        let data_perm = if config.mitigations.nx { Perm::RW } else { Perm::RWX };
        let mut mem = Memory::new();
        // Read-only data.
        let ro_size = (program.rodata.len() as u64).max(8).div_ceil(16) * 16;
        mem.map(bases.rodata, ro_size, Perm::R, SegmentKind::Rodata);
        mem.write_bytes_raw(bases.rodata, &program.rodata).expect("rodata fits its segment");
        // Globals. Real data segments end with page slack, so a small
        // overflow past the last object corrupts padding instead of
        // faulting — required for RIPE's overflows to behave like C.
        const DATA_TAIL: u64 = 4096;
        let (offsets, total) = global_offsets(&program.globals);
        mem.map(bases.globals, total + DATA_TAIL, data_perm, SegmentKind::Globals);
        let global_addrs: Vec<u64> = offsets.iter().map(|o| bases.globals + o).collect();
        for (g, addr) in program.globals.iter().zip(&global_addrs) {
            mem.write_bytes(*addr, &g.init).expect("global init fits its object");
        }
        // Heap.
        mem.map(bases.heap, config.heap_size, data_perm, SegmentKind::Heap);
        // Stacks.
        let stride = config.stack_size + layout::STACK_GUARD;
        let mut sp = Vec::new();
        let mut stack_floor = Vec::new();
        for c in 0..config.cores {
            let base = bases.stack + c as u64 * stride;
            mem.map(base, config.stack_size, data_perm, SegmentKind::Stack(c));
            stack_floor.push(base);
            sp.push(base + config.stack_size);
        }

        let mut shadow = ShadowMemory::mirroring(&mem);
        if program.asan {
            for (g, addr) in program.globals.iter().zip(&global_addrs) {
                if g.redzone > 0 {
                    shadow.poison(addr - g.redzone, g.redzone, PoisonKind::GlobalRedzone);
                    shadow.poison(addr + g.size, g.redzone, PoisonKind::GlobalRedzone);
                }
            }
        }

        let mut caches =
            CacheHierarchy::new(config.cores, config.l1, config.l2, config.llc, config.mem_latency);
        caches.set_fast_path(config.mru_fast_path);
        let heap = Heap::new(bases.heap, config.heap_size);
        let canary = splitmix(&mut seed) as i64 | 0x0100; // never a plausible code addr
        let cores = config.cores;
        let fault = config.fault_plan.decide();
        let decoded = match predecoded {
            Some(d) if d.cost == config.cost && d.passes == config.passes => d,
            _ => Arc::new(
                decode_program_passes(program, &config.cost, config.passes)
                    .unwrap_or_else(|e| panic!("program does not decode: {e}")),
            ),
        };
        Instance {
            program,
            decoded,
            config,
            mem,
            shadow,
            caches,
            heap,
            bases,
            global_addrs,
            stdout: String::new(),
            per_core: vec![PerfCounters::default(); cores],
            timeline_cycles: 0,
            core: 0,
            in_parfor: false,
            rng: seed,
            canary,
            attack_events: Vec::new(),
            hijacks: Vec::new(),
            sp,
            stack_floor,
            instr_budget_used: 0,
            fault,
            quarantine: std::collections::VecDeque::new(),
            quarantine_bytes: 0,
            predictors: vec![BranchPredictor::new(); cores],
        }
    }

    /// The load bases chosen for this instance (differs from
    /// [`Machine::canonical_bases`](crate::Machine::canonical_bases) when
    /// ASLR is enabled).
    pub fn bases(&self) -> LoadBases {
        self.bases
    }

    /// Address of global `index` in this instance.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn global_addr(&self, index: usize) -> u64 {
        self.global_addrs[index]
    }

    /// Direct read access to simulated memory (for harnesses and tests).
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Security events observed so far — available even after a trap, so
    /// harnesses can classify attacks that succeed and *then* crash.
    pub fn attack_events(&self) -> &[AttackEvent] {
        &self.attack_events
    }

    /// Control-flow hijacks observed so far (target addresses).
    pub fn hijacks(&self) -> &[i64] {
        &self.hijacks
    }

    /// Runs the program's entry function.
    ///
    /// # Errors
    ///
    /// [`VmError::NoEntry`] if there is no entry function,
    /// [`VmError::BadArity`] if `args` does not match its parameter count,
    /// or [`VmError::Trap`] if execution faults.
    pub fn run_entry(&mut self, args: &[i64]) -> Result<RunResult, VmError> {
        let entry = self.program.entry.ok_or(VmError::NoEntry)?;
        self.call_id(entry, args)
    }

    /// Runs the named function. Memory state persists across calls;
    /// counters in the returned result cover only this call.
    ///
    /// # Errors
    ///
    /// [`VmError::NoEntry`] if no function has that name, otherwise as
    /// [`Instance::run_entry`].
    pub fn call(&mut self, name: &str, args: &[i64]) -> Result<RunResult, VmError> {
        let id = self.program.function_by_name(name).ok_or(VmError::NoEntry)?;
        self.call_id(id, args)
    }

    fn call_id(&mut self, id: FuncId, args: &[i64]) -> Result<RunResult, VmError> {
        let f = &self.program.functions[id.0 as usize];
        if f.param_count as usize != args.len() {
            return Err(VmError::BadArity {
                function: f.name.clone(),
                expected: f.param_count,
                got: args.len(),
            });
        }
        // Snapshot counters so `call` reports per-call deltas.
        let before: Vec<PerfCounters> = self.per_core.clone();
        let timeline_before = self.timeline_cycles;
        let stdout_before = self.stdout.len();
        let events_before = self.attack_events.len();
        let hijacks_before = self.hijacks.len();

        let sentinel = code_addr(FuncId(u32::MAX), 0);
        let root = self.push_frame(id, args, None, sentinel)?;
        let exit = self.exec(vec![root])?;

        let mut per_core: Vec<PerfCounters> = Vec::with_capacity(self.per_core.len());
        for (now, then) in self.per_core.iter().zip(&before) {
            let mut d = *now;
            d.instructions -= then.instructions;
            d.cycles -= then.cycles;
            d.loads -= then.loads;
            d.stores -= then.stores;
            d.branches -= then.branches;
            d.branch_mispredicts -= then.branch_mispredicts;
            d.l1_misses -= then.l1_misses;
            d.l2_misses -= then.l2_misses;
            d.llc_misses -= then.llc_misses;
            d.l1_accesses -= then.l1_accesses;
            d.calls -= then.calls;
            d.allocs -= then.allocs;
            d.alloc_bytes -= then.alloc_bytes;
            d.asan_checks -= then.asan_checks;
            per_core.push(d);
        }
        let mut counters = PerfCounters::default();
        for c in &per_core {
            counters.merge(c);
        }
        let elapsed = self.timeline_cycles - timeline_before;
        counters.cycles = elapsed.max(counters.cycles.min(elapsed));
        // RSS estimate: data segment + peak heap + touched stack (nominal
        // 64 KiB per core); ASan builds additionally keep the 1:8 shadow
        // of everything resident.
        let globals_size = self
            .mem
            .segments()
            .iter()
            .find(|s| s.kind == SegmentKind::Globals)
            .map(|s| s.data.len() as u64)
            .unwrap_or(0);
        let touched_stack = 64 * 1024 * self.config.cores as u64;
        let base_rss = globals_size + self.heap.stats().peak_reserved + touched_stack;
        let maxrss_bytes = if self.program.asan { base_rss + base_rss / 8 } else { base_rss };
        Ok(RunResult {
            exit,
            stdout: self.stdout[stdout_before..].to_string(),
            counters: PerfCounters { cycles: elapsed, ..counters },
            per_core,
            elapsed_cycles: elapsed,
            wall_seconds: elapsed as f64 / self.config.freq_hz,
            heap: self.heap.stats(),
            maxrss_bytes,
            l1: self.caches.stats(CacheLevel::L1),
            l2: self.caches.stats(CacheLevel::L2),
            llc: self.caches.stats(CacheLevel::Llc),
            attack_events: self.attack_events[events_before..].to_vec(),
            hijacks: self.hijacks[hijacks_before..].to_vec(),
        })
    }

    // ------------------------------------------------------------------
    // Accounting helpers
    // ------------------------------------------------------------------

    fn charge(&mut self, cycles: u64) {
        self.per_core[self.core].cycles += cycles;
        if !self.in_parfor {
            self.timeline_cycles += cycles;
        }
    }

    fn count_instr(&mut self, n: u64) -> Result<(), Trap> {
        self.per_core[self.core].instructions += n;
        self.instr_budget_used += n;
        if self.instr_budget_used > self.config.max_instructions {
            return Err(Trap::InstructionLimit { limit: self.config.max_instructions });
        }
        if let Some(d) = self.fault {
            if self.instr_budget_used >= d.at_instruction {
                self.fault = None;
                return Err(match d.kind {
                    crate::fault::FaultKind::Trap => {
                        Trap::Injected { attempt: self.config.fault_plan.attempt }
                    }
                    // A hang burns the whole budget; what the harness
                    // observes is its watchdog firing.
                    crate::fault::FaultKind::Hang => {
                        self.instr_budget_used = self.config.max_instructions;
                        Trap::InstructionLimit { limit: self.config.max_instructions }
                    }
                });
            }
        }
        Ok(())
    }

    fn cache_access(&mut self, addr: u64, is_write: bool) {
        let (level, lat) = self.caches.access(self.core, addr);
        let c = &mut self.per_core[self.core];
        c.l1_accesses += 1;
        if is_write {
            c.stores += 1;
        } else {
            c.loads += 1;
        }
        match level {
            HitLevel::L1 => {}
            HitLevel::L2 => c.l1_misses += 1,
            HitLevel::Llc => {
                c.l1_misses += 1;
                c.l2_misses += 1;
            }
            HitLevel::Memory => {
                c.l1_misses += 1;
                c.l2_misses += 1;
                c.llc_misses += 1;
            }
        }
        self.charge(lat);
    }

    fn mem_load(&mut self, addr: u64, width: Width) -> Result<i64, Trap> {
        self.cache_access(addr, false);
        self.mem.load(addr, width)
    }

    fn mem_store(&mut self, addr: u64, val: i64, width: Width) -> Result<(), Trap> {
        self.cache_access(addr, true);
        self.mem.store(addr, val, width)
    }

    fn shadow_touch(&mut self, app_addr: u64) {
        // The shadow byte itself travels through the cache hierarchy.
        self.cache_access(ShadowMemory::shadow_addr(app_addr), false);
    }

    // ------------------------------------------------------------------
    // Frames
    // ------------------------------------------------------------------

    fn push_frame(
        &mut self,
        id: FuncId,
        args: &[i64],
        ret_dst: Option<Reg>,
        ret_code_addr: i64,
    ) -> Result<Frame, Trap> {
        let f = &self.program.functions[id.0 as usize];
        let body = f.frame_array_bytes();
        let canary_sz: u64 = if self.config.mitigations.canaries { 8 } else { 0 };
        let sp_old = self.sp[self.core];
        let ret_slot = sp_old - 8;
        let fp_slot = sp_old - 16;
        let canary_slot = if canary_sz > 0 { Some(sp_old - 24) } else { None };
        let arrays_end = sp_old - 16 - canary_sz;
        let arrays_start = arrays_end - body;
        let new_sp = arrays_start / 16 * 16;
        if new_sp < self.stack_floor[self.core] || new_sp > sp_old {
            return Err(Trap::StackOverflow);
        }

        // Lay out slots bottom-up so overflowing slot 0 walks over later
        // slots, then the canary, saved FP and return address.
        let asan = self.program.asan;
        let mut slot_addrs = Vec::with_capacity(f.stack_slots.len());
        let mut cur = arrays_start;
        let slots = f.stack_slots.clone();
        for s in &slots {
            cur += s.redzone;
            slot_addrs.push(cur);
            cur += s.size + s.redzone;
        }
        if asan {
            let mut cur = arrays_start;
            for s in &slots {
                if s.redzone > 0 {
                    self.shadow.poison(cur, s.redzone, PoisonKind::StackRedzone);
                    self.shadow.unpoison(cur + s.redzone, s.size);
                    self.shadow.poison(
                        cur + s.redzone + s.size,
                        s.redzone,
                        PoisonKind::StackRedzone,
                    );
                    // Poisoning costs real work: ~1 alu op per granule.
                    let granules = (2 * s.redzone + s.size) / 8;
                    self.charge(granules.max(1));
                    self.count_instr(granules.max(1))?;
                } else {
                    self.shadow.unpoison(cur, s.size);
                }
                cur += s.size + 2 * s.redzone;
            }
        }

        // Frame bookkeeping words live in simulated memory.
        self.mem_store(ret_slot, ret_code_addr, Width::B8)?;
        self.mem_store(fp_slot, sp_old as i64, Width::B8)?;
        if let Some(cs) = canary_slot {
            self.mem_store(cs, self.canary, Width::B8)?;
        }
        self.charge(self.config.cost.call);
        self.count_instr(1)?;
        self.per_core[self.core].calls += 1;
        self.sp[self.core] = new_sp;

        let mut regs = vec![0i64; f.reg_count.max(f.param_count) as usize];
        regs[..args.len()].copy_from_slice(args);
        Ok(Frame {
            func: id,
            pc: 0,
            regs,
            ret_dst,
            ret_slot,
            canary_slot,
            slot_addrs,
            expected_ret: ret_code_addr,
            prev_sp: sp_old,
            array_region: (arrays_start, body),
        })
    }

    fn pop_frame_cleanup(&mut self, frame: &Frame) {
        if self.program.asan {
            let (start, len) = frame.array_region;
            if len > 0 {
                self.shadow.unpoison(start, len);
            }
        }
        self.sp[self.core] = frame.prev_sp;
    }

    // ------------------------------------------------------------------
    // Main loop
    // ------------------------------------------------------------------

    fn exec(&mut self, mut frames: Vec<Frame>) -> Result<i64, Trap> {
        // A second owner of the decoded program, so instruction borrows
        // stay independent of the `&mut self` the step handlers need.
        let decoded = Arc::clone(&self.decoded);
        loop {
            let frame = frames.last_mut().expect("exec frame stack never empty");
            let func = &decoded.functions[frame.func.0 as usize];
            let pc = frame.pc;
            if pc >= func.code.len() {
                // Fell off the end: implicit `return 0`.
                let flow = self.do_ret(&mut frames, None)?;
                match flow {
                    Flow::Continue => continue,
                    Flow::Exit(v) => return Ok(v),
                }
            }
            frame.pc = pc + 1;
            // Entering a basic block: accrue its whole static cost at
            // once. Non-leader pcs carry a zero accrual.
            let (instrs, cycles) = func.accrual[pc];
            if instrs != 0 {
                self.count_instr(u64::from(instrs))?;
                self.charge(cycles);
            }
            match self.step(&func.code[pc], &mut frames)? {
                Flow::Continue => {}
                Flow::Exit(v) => return Ok(v),
            }
        }
    }

    /// Executes one straight-line (non-control) instruction against a
    /// pre-borrowed frame. The [`DecodedInstr::TraceRun`] handler loops
    /// over its constituents through this, hoisting the frame lookup
    /// that [`Interp::step`]'s register macro performs per access out of
    /// the run entirely. Each arm mirrors the corresponding `step` arm
    /// exactly.
    #[inline]
    fn exec_straight(&mut self, instr: &DecodedInstr, fr: &mut Frame) -> Result<(), Trap> {
        macro_rules! r {
            ($reg:expr) => {
                fr.regs[$reg.0 as usize]
            };
        }
        match instr {
            DecodedInstr::Imm { dst, val } => r!(dst) = *val,
            DecodedInstr::FImm { dst, val } => r!(dst) = val.to_bits() as i64,
            DecodedInstr::Mov { dst, src } => {
                let v = r!(src);
                r!(dst) = v;
            }
            DecodedInstr::Un { op, dst, a } => {
                let x = r!(a);
                r!(dst) = un_op(*op, x);
            }
            DecodedInstr::Bin { op, dst, a, b } => {
                let (x, y) = (r!(a), r!(b));
                r!(dst) = int_bin(*op, x, y)?;
            }
            DecodedInstr::Load { dst, addr, off, width } => {
                let a = (r!(addr)).wrapping_add(*off) as u64;
                let v = self.mem_load(a, *width)?;
                r!(dst) = v;
            }
            DecodedInstr::Store { src, addr, off, width } => {
                let a = (r!(addr)).wrapping_add(*off) as u64;
                let v = r!(src);
                self.mem_store(a, v, *width)?;
            }
            DecodedInstr::FrameAddr { dst, index } => {
                let a = fr.slot_addrs[*index];
                r!(dst) = a as i64;
            }
            DecodedInstr::GlobalAddr { dst, index } => {
                let a = self.global_addrs[*index];
                r!(dst) = a as i64;
            }
            DecodedInstr::RodataAddr { dst, offset } => {
                let a = self.bases.rodata + offset;
                r!(dst) = a as i64;
            }
            other => unreachable!("non-straight-line instruction in a trace run: {other:?}"),
        }
        Ok(())
    }

    fn step(&mut self, instr: &DecodedInstr, frames: &mut Vec<Frame>) -> Result<Flow, Trap> {
        macro_rules! frame {
            () => {
                frames.last_mut().expect("frame stack nonempty")
            };
        }
        macro_rules! r {
            ($reg:expr) => {
                frame!().regs[$reg.0 as usize]
            };
        }
        match instr {
            DecodedInstr::Imm { dst, val } => r!(dst) = *val,
            DecodedInstr::FImm { dst, val } => r!(dst) = val.to_bits() as i64,
            DecodedInstr::Mov { dst, src } => {
                let v = r!(src);
                r!(dst) = v;
            }
            DecodedInstr::Bin { op, dst, a, b } => {
                let (x, y) = (r!(a), r!(b));
                r!(dst) = int_bin(*op, x, y)?;
            }
            DecodedInstr::FBin { op, dst, a, b } => {
                let (x, y) = (f64::from_bits(r!(a) as u64), f64::from_bits(r!(b) as u64));
                let v = match op {
                    FBinOp::Add => x + y,
                    FBinOp::Sub => x - y,
                    FBinOp::Mul => x * y,
                    FBinOp::Div => x / y,
                };
                r!(dst) = v.to_bits() as i64;
            }
            DecodedInstr::FMulAdd { dst, a, b, c } => {
                let x = f64::from_bits(r!(a) as u64);
                let y = f64::from_bits(r!(b) as u64);
                let z = f64::from_bits(r!(c) as u64);
                // Deliberately NOT f64::mul_add: fused rounding would make
                // gcc- and clang-profile builds produce different bits,
                // breaking the framework's cross-build validation. The
                // *cost* of the fusion is still modelled (one fma-latency
                // instruction instead of mul + add).
                r!(dst) = (x * y + z).to_bits() as i64;
            }
            DecodedInstr::FMulSub { dst, a, b, c } => {
                let x = f64::from_bits(r!(a) as u64);
                let y = f64::from_bits(r!(b) as u64);
                let z = f64::from_bits(r!(c) as u64);
                r!(dst) = (x * y - z).to_bits() as i64;
            }
            DecodedInstr::FNegMulAdd { dst, a, b, c } => {
                let x = f64::from_bits(r!(a) as u64);
                let y = f64::from_bits(r!(b) as u64);
                let z = f64::from_bits(r!(c) as u64);
                r!(dst) = (z - x * y).to_bits() as i64;
            }
            DecodedInstr::FCmp { op, dst, a, b } => {
                let (x, y) = (f64::from_bits(r!(a) as u64), f64::from_bits(r!(b) as u64));
                let v = match op {
                    FCmpOp::Eq => x == y,
                    FCmpOp::Ne => x != y,
                    FCmpOp::Lt => x < y,
                    FCmpOp::Le => x <= y,
                    FCmpOp::Gt => x > y,
                    FCmpOp::Ge => x >= y,
                };
                r!(dst) = v as i64;
            }
            DecodedInstr::Un { op, dst, a } => {
                let x = r!(a);
                r!(dst) = un_op(*op, x);
            }
            DecodedInstr::Load { dst, addr, off, width } => {
                let a = (r!(addr)).wrapping_add(*off) as u64;
                let v = self.mem_load(a, *width)?;
                r!(dst) = v;
            }
            DecodedInstr::Store { src, addr, off, width } => {
                let a = (r!(addr)).wrapping_add(*off) as u64;
                let v = r!(src);
                self.mem_store(a, v, *width)?;
            }
            DecodedInstr::AsanCheck { addr, off, width, is_write } => {
                let a = (r!(addr)).wrapping_add(*off) as u64;
                self.asan_check(a, *width, *is_write)?;
            }
            DecodedInstr::Jmp { target } => frame!().pc = *target as usize,
            DecodedInstr::BrZero { cond, target } => {
                let taken = r!(cond) == 0;
                self.observe_branch(frames, taken);
                if taken {
                    frame!().pc = *target as usize;
                }
            }
            DecodedInstr::BrNonZero { cond, target } => {
                let taken = r!(cond) != 0;
                self.observe_branch(frames, taken);
                if taken {
                    frame!().pc = *target as usize;
                }
            }
            DecodedInstr::Call { func, args, dst } => {
                let argv: Vec<i64> = args.iter().map(|a| r!(a)).collect();
                let caller = frame!().func;
                let ret_pc = frame!().pc;
                let new = self.push_frame(*func, &argv, *dst, code_addr(caller, ret_pc))?;
                frames.push(new);
            }
            DecodedInstr::CallInd { addr, args, dst } => {
                let target = r!(addr);
                let argv: Vec<i64> = args.iter().map(|a| r!(a)).collect();
                let caller = frame!().func;
                let ret_pc = frame!().pc;
                return self.transfer_to(target, &argv, *dst, code_addr(caller, ret_pc), frames);
            }
            DecodedInstr::ParFor { func, lo, hi, args } => {
                let (lo, hi) = (r!(lo), r!(hi));
                let argv: Vec<i64> = args.iter().map(|a| r!(a)).collect();
                self.par_for(*func, lo, hi, &argv)?;
            }
            DecodedInstr::Ret { src } => {
                let v = src.map(|s| r!(s));
                return self.do_ret(frames, v);
            }
            DecodedInstr::Syscall { code, args, dst } => {
                let argv: Vec<i64> = args.iter().map(|a| r!(a)).collect();
                let out = self.syscall(*code, &argv)?;
                if let (Some(d), Some(v)) = (dst, out) {
                    r!(d) = v;
                }
            }
            DecodedInstr::FrameAddr { dst, index } => {
                let a = frame!().slot_addrs[*index];
                r!(dst) = a as i64;
            }
            DecodedInstr::GlobalAddr { dst, index } => {
                let a = self.global_addrs[*index];
                r!(dst) = a as i64;
            }
            DecodedInstr::RodataAddr { dst, offset } => {
                let a = self.bases.rodata + offset;
                r!(dst) = a as i64;
            }
            DecodedInstr::Nop => {}
            // Fused superinstructions: both constituents execute in
            // program order with identical trap, aliasing and predictor
            // behaviour; the second constituent's shadow slot is stepped
            // over (block accrual already counted both — see decode).
            DecodedInstr::CmpBr { op, dst, a, b, neg, target, site } => {
                let (x, y) = (r!(a), r!(b));
                let v = int_bin(*op, x, y)?;
                r!(dst) = v;
                let taken = if *neg { v == 0 } else { v != 0 };
                let func = frame!().func;
                // The predictor site is the *original branch* pc, so a
                // fused and an unfused run train identical tables.
                self.observe_branch_at(func, *site as usize, taken);
                let f = frame!();
                if taken {
                    f.pc = *target as usize;
                } else {
                    f.pc += 1; // step over the shadow slot
                }
            }
            DecodedInstr::LoadBin { ld, addr, off, width, op, dst, a, b } => {
                let ad = (r!(addr)).wrapping_add(*off) as u64;
                let v = self.mem_load(ad, *width)?;
                r!(ld) = v;
                let (x, y) = (r!(a), r!(b));
                r!(dst) = int_bin(*op, x, y)?;
                frame!().pc += 1;
            }
            DecodedInstr::BinStore { op, dst, a, b, addr, off, width } => {
                let (x, y) = (r!(a), r!(b));
                let v = int_bin(*op, x, y)?;
                r!(dst) = v;
                // The address register is read *after* the binop's write,
                // exactly as the unfused sequence would (addr may alias dst).
                let ad = (r!(addr)).wrapping_add(*off) as u64;
                self.mem_store(ad, v, *width)?;
                frame!().pc += 1;
            }
            DecodedInstr::BinJmp { op, dst, a, b, target } => {
                let (x, y) = (r!(a), r!(b));
                r!(dst) = int_bin(*op, x, y)?;
                frame!().pc = *target as usize;
            }
            DecodedInstr::BinLoad { op, dst, a, b, ld, addr, off, width } => {
                let (x, y) = (r!(a), r!(b));
                r!(dst) = int_bin(*op, x, y)?;
                // The address register is read *after* the binop's write,
                // exactly as the unfused sequence would (addr may alias dst).
                let ad = (r!(addr)).wrapping_add(*off) as u64;
                let v = self.mem_load(ad, *width)?;
                r!(ld) = v;
                frame!().pc += 1;
            }
            DecodedInstr::BinMov { op, dst, a, b, mdst, msrc } => {
                let (x, y) = (r!(a), r!(b));
                r!(dst) = int_bin(*op, x, y)?;
                let v = r!(msrc);
                r!(mdst) = v;
                frame!().pc += 1;
            }
            DecodedInstr::BinBin { op1, dst1, a1, b1, op2, dst2, a2, b2 } => {
                let (x, y) = (r!(a1), r!(b1));
                r!(dst1) = int_bin(*op1, x, y)?;
                let (x, y) = (r!(a2), r!(b2));
                r!(dst2) = int_bin(*op2, x, y)?;
                frame!().pc += 1;
            }
            DecodedInstr::ChkLoad { dst, addr, off, width } => {
                // The check never writes a register, so the shared
                // address operands evaluate identically in both halves.
                let a = (r!(addr)).wrapping_add(*off) as u64;
                self.asan_check(a, *width, false)?;
                let v = self.mem_load(a, *width)?;
                r!(dst) = v;
                frame!().pc += 1;
            }
            DecodedInstr::ChkStore { src, addr, off, width } => {
                let a = (r!(addr)).wrapping_add(*off) as u64;
                self.asan_check(a, *width, true)?;
                let v = r!(src);
                self.mem_store(a, v, *width)?;
                frame!().pc += 1;
            }
            DecodedInstr::MovJmp { dst, src, target } => {
                let v = r!(src);
                r!(dst) = v;
                frame!().pc = *target as usize;
            }
            DecodedInstr::BinMovJmp { op, dst, a, b, mdst, msrc, target } => {
                let (x, y) = (r!(a), r!(b));
                r!(dst) = int_bin(*op, x, y)?;
                // The copy source is read *after* the binop's write,
                // exactly as the unfused sequence would (msrc is usually
                // the binop's dst).
                let v = r!(msrc);
                r!(mdst) = v;
                frame!().pc = *target as usize;
            }
            DecodedInstr::LoadBinStore {
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
            } => {
                let ad = (r!(laddr)).wrapping_add(*loff) as u64;
                let v = self.mem_load(ad, *lwidth)?;
                r!(ld) = v;
                let (x, y) = (r!(a), r!(b));
                let v = int_bin(*op, x, y)?;
                r!(dst) = v;
                // The store address is read *after* the earlier writes,
                // exactly as the unfused sequence would (saddr may alias
                // ld or dst); store.src == dst by construction.
                let ad = (r!(saddr)).wrapping_add(*soff) as u64;
                self.mem_store(ad, v, *swidth)?;
                frame!().pc += 2;
            }
            DecodedInstr::BinLoadBinStore {
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
            } => {
                let (x, y) = (r!(a1), r!(b1));
                r!(dst1) = int_bin(*op1, x, y)?;
                // Every address and operand register is read at its
                // original program point relative to the earlier writes
                // (laddr is usually dst1; saddr may alias ld or dst2).
                let ad = (r!(laddr)).wrapping_add(*loff) as u64;
                let v = self.mem_load(ad, *lwidth)?;
                r!(ld) = v;
                let (x, y) = (r!(a2), r!(b2));
                let v = int_bin(*op2, x, y)?;
                r!(dst2) = v;
                let ad = (r!(saddr)).wrapping_add(*soff) as u64;
                self.mem_store(ad, v, *swidth)?;
                frame!().pc += 3;
            }
            DecodedInstr::ImmBin { idst, val, op, dst, a, b } => {
                // The immediate's register is still written (it may be
                // live past the pair), but the literal feeds the ALU
                // operand directly instead of bouncing through it.
                r!(idst) = *val;
                let x = if a == idst { *val } else { r!(a) };
                let y = if b == idst { *val } else { r!(b) };
                r!(dst) = int_bin(*op, x, y)?;
                frame!().pc += 1;
            }
            DecodedInstr::TraceRun { run } => {
                // `run` is borrowed from the exec loop's own owner of the
                // decoded program, so the constituent borrows stay
                // independent of `&mut self`; the frame borrow is hoisted
                // out of the whole run.
                let fr = frames.last_mut().expect("frame stack nonempty");
                for constituent in run.iter() {
                    self.exec_straight(constituent, fr)?;
                }
                // `pc` was already advanced past the head; skip the
                // `run.len() - 1` shadow slots.
                fr.pc += run.len() - 1;
            }
        }
        Ok(Flow::Continue)
    }

    /// Runs a conditional branch through the core's predictor, charging
    /// the flush penalty on mispredicts.
    fn observe_branch(&mut self, frames: &[Frame], taken: bool) {
        let frame = frames.last().expect("branch inside a frame");
        // `pc` was already advanced past the branch; -1 is the site.
        let (func, site_pc) = (frame.func, frame.pc.saturating_sub(1));
        self.observe_branch_at(func, site_pc, taken);
    }

    /// The ASan shadow check on a resolved address: accounting, the
    /// shadow lookup, and the violation trap. Shared by the plain
    /// `AsanCheck` step and the fused `ChkLoad`/`ChkStore` handlers.
    fn asan_check(&mut self, a: u64, width: Width, is_write: bool) -> Result<(), Trap> {
        // The check is ~3 dynamic instructions in real ASan.
        self.count_instr(2)?;
        self.per_core[self.core].asan_checks += 1;
        self.shadow_touch(a);
        if let Some(kind) = self.shadow.check(a, width.bytes()) {
            return Err(Trap::AsanViolation {
                addr: a,
                write: is_write,
                kind,
                segment: self.mem.kind_at(a),
            });
        }
        Ok(())
    }

    /// [`Instance::observe_branch`] with an explicit site pc — fused
    /// branches pass the original branch index.
    fn observe_branch_at(&mut self, func: FuncId, site_pc: usize, taken: bool) {
        let site = code_addr(func, site_pc);
        self.per_core[self.core].branches += 1;
        if self.predictors[self.core].observe(site, taken) {
            self.per_core[self.core].branch_mispredicts += 1;
            self.charge(self.config.cost.branch_mispredict);
        }
    }

    /// Handles a `ret`: reads the return address *from simulated memory*
    /// and follows it, detecting hijacks.
    fn do_ret(&mut self, frames: &mut Vec<Frame>, value: Option<i64>) -> Result<Flow, Trap> {
        let frame = frames.last().expect("ret with no frame");
        if let Some(cs) = frame.canary_slot {
            let v = self.mem_load(cs, Width::B8)?;
            if v != self.canary {
                let name = self.program.functions[frame.func.0 as usize].name.clone();
                return Err(Trap::CanarySmashed { function: name });
            }
        }
        let ret_val = self.mem_load(frame.ret_slot, Width::B8)?;
        let expected = frame.expected_ret;
        let ret_dst = frame.ret_dst;
        let frame = frames.pop().expect("ret pops a frame");
        self.pop_frame_cleanup(&frame);

        if ret_val == expected {
            if frames.is_empty() {
                return Ok(Flow::Exit(value.unwrap_or(0)));
            }
            if let (Some(dst), Some(v)) = (ret_dst, value) {
                frames.last_mut().expect("caller frame").regs[dst.0 as usize] = v;
            }
            return Ok(Flow::Continue);
        }

        // Return address was overwritten: control-flow hijack. Arguments
        // for the hijack target are read from where the attacker placed
        // them — just above the smashed return slot, cdecl style.
        self.hijacks.push(ret_val);
        let mut argv = Vec::new();
        if let Some((f, _)) = decode_code_addr(ret_val) {
            if let Some(func) = self.program.functions.get(f.0 as usize) {
                for i in 0..func.param_count as u64 {
                    argv.push(self.mem.load(frame.ret_slot + 8 + 8 * i, Width::B8).unwrap_or(0));
                }
            }
        }
        self.transfer_to(ret_val, &argv, None, code_addr(FuncId(u32::MAX), 1), frames)
    }

    /// Transfers control to an arbitrary address: a valid function entry, a
    /// shellcode region, or garbage.
    fn transfer_to(
        &mut self,
        target: i64,
        args: &[i64],
        dst: Option<Reg>,
        ret_code_addr: i64,
        frames: &mut Vec<Frame>,
    ) -> Result<Flow, Trap> {
        if let Some((f, pc)) = decode_code_addr(target) {
            let Some(func) = self.program.functions.get(f.0 as usize) else {
                return Err(Trap::BadCodeAddress { addr: target as u64 });
            };
            if pc != 0 {
                // Mid-function gadget jumps are out of scope for the model.
                return Err(Trap::BadCodeAddress { addr: target as u64 });
            }
            let argv: Vec<i64> = args.iter().copied().take(func.param_count as usize).collect();
            let mut argv = argv;
            argv.resize(func.param_count as usize, 0);
            let new = self.push_frame(f, &argv, dst, ret_code_addr)?;
            frames.push(new);
            return Ok(Flow::Continue);
        }
        // Data address: executable only if the segment allows it.
        let addr = target as u64;
        match self.mem.perm_at(addr) {
            Some(p) if p.x => {
                let bytes = self.mem.read_bytes(addr, SHELLCODE.len() as u64).ok();
                if bytes.map(|b| b == SHELLCODE).unwrap_or(false) {
                    self.attack_events.push(AttackEvent::ShellcodeExecuted { addr });
                    // The RIPE shellcode's observable action: creat() of a
                    // dummy file, then exit.
                    self.attack_events.push(AttackEvent::CreatFile { arg: 0 });
                    return Ok(Flow::Exit(0));
                }
                Err(Trap::BadCodeAddress { addr })
            }
            Some(_) => Err(Trap::ExecViolation { addr }),
            None => Err(Trap::BadCodeAddress { addr }),
        }
    }

    fn par_for(&mut self, func: FuncId, lo: i64, hi: i64, args: &[i64]) -> Result<(), Trap> {
        if self.in_parfor {
            return Err(Trap::NestedParFor);
        }
        let cores = self.config.cores;
        let total = (hi - lo).max(0) as u64;
        if total == 0 {
            return Ok(());
        }
        self.in_parfor = true;
        let saved_core = self.core;
        let mut max_delta = 0u64;
        let chunk = total.div_ceil(cores as u64);
        let mut result = Ok(());
        for c in 0..cores {
            let start = lo + (c as u64 * chunk) as i64;
            let end = (start + chunk as i64).min(hi);
            if start >= end {
                continue;
            }
            self.core = c;
            self.caches.flush_core(c);
            self.predictors[c].flush();
            let before = self.per_core[c].cycles;
            for i in start..end {
                let mut argv = Vec::with_capacity(args.len() + 1);
                argv.push(i);
                argv.extend_from_slice(args);
                let sentinel = code_addr(FuncId(u32::MAX), 2 + c);
                let frame = match self.push_frame(func, &argv, None, sentinel) {
                    Ok(f) => f,
                    Err(t) => {
                        result = Err(t);
                        break;
                    }
                };
                if let Err(t) = self.exec(vec![frame]) {
                    result = Err(t);
                    break;
                }
            }
            let delta = self.per_core[c].cycles - before;
            max_delta = max_delta.max(delta);
            if result.is_err() {
                break;
            }
        }
        self.core = saved_core;
        self.in_parfor = false;
        // The main timeline advances by the slowest core plus a barrier.
        self.timeline_cycles += max_delta + self.config.cost.barrier_per_core * cores as u64;
        result
    }

    // ------------------------------------------------------------------
    // Syscalls
    // ------------------------------------------------------------------

    fn syscall(&mut self, code: SysCall, args: &[i64]) -> Result<Option<i64>, Trap> {
        use std::fmt::Write as _;
        let arg = |i: usize| -> i64 { args.get(i).copied().unwrap_or(0) };
        match code {
            SysCall::PrintI64 => {
                let _ = writeln!(self.stdout, "{}", arg(0));
                Ok(None)
            }
            SysCall::PrintF64 => {
                let _ = writeln!(self.stdout, "{:.6}", f64::from_bits(arg(0) as u64));
                Ok(None)
            }
            SysCall::PrintStr => {
                let s = self.mem.read_cstr(arg(0) as u64, 1 << 20)?;
                self.stdout.push_str(&String::from_utf8_lossy(&s));
                self.stdout.push('\n');
                Ok(None)
            }
            SysCall::MemCpy => {
                let (dst, src, n) = (arg(0) as u64, arg(1) as u64, arg(2).max(0) as u64);
                self.asan_range_check(src, n, false)?;
                self.asan_range_check(dst, n, true)?;
                let mut i = 0u64;
                while i + 8 <= n {
                    let v = self.mem_load(src + i, Width::B8)?;
                    self.mem_store(dst + i, v, Width::B8)?;
                    self.count_instr(3)?;
                    i += 8;
                }
                while i < n {
                    let v = self.mem_load(src + i, Width::B1)?;
                    self.mem_store(dst + i, v, Width::B1)?;
                    self.count_instr(3)?;
                    i += 1;
                }
                Ok(Some(dst as i64))
            }
            SysCall::MemSet => {
                let (dst, byte, n) = (arg(0) as u64, arg(1) as u8, arg(2).max(0) as u64);
                self.asan_range_check(dst, n, true)?;
                let word = i64::from_le_bytes([byte; 8]);
                let mut i = 0u64;
                while i + 8 <= n {
                    self.mem_store(dst + i, word, Width::B8)?;
                    self.count_instr(2)?;
                    i += 8;
                }
                while i < n {
                    self.mem_store(dst + i, byte as i64, Width::B1)?;
                    self.count_instr(2)?;
                    i += 1;
                }
                Ok(Some(dst as i64))
            }
            SysCall::StrCpy => {
                let (dst, src) = (arg(0) as u64, arg(1) as u64);
                let mut i = 0u64;
                loop {
                    if self.program.asan {
                        if i.is_multiple_of(8) {
                            self.shadow_touch(src + i);
                            self.shadow_touch(dst + i);
                            self.count_instr(4)?;
                            self.per_core[self.core].asan_checks += 2;
                        }
                        if let Some(kind) = self.shadow.check(dst + i, 1) {
                            return Err(Trap::AsanViolation {
                                addr: dst + i,
                                write: true,
                                kind,
                                segment: self.mem.kind_at(dst + i),
                            });
                        }
                    }
                    let v = self.mem_load(src + i, Width::B1)?;
                    self.mem_store(dst + i, v, Width::B1)?;
                    self.count_instr(3)?;
                    if v == 0 {
                        break;
                    }
                    i += 1;
                    if i > (1 << 24) {
                        return Err(Trap::StringTooLong { addr: src });
                    }
                }
                Ok(Some(dst as i64))
            }
            SysCall::StrLen => {
                let src = arg(0) as u64;
                let mut i = 0u64;
                loop {
                    let v = self.mem_load(src + i, Width::B1)?;
                    self.count_instr(2)?;
                    if v == 0 {
                        return Ok(Some(i as i64));
                    }
                    i += 1;
                    if i > (1 << 24) {
                        return Err(Trap::StringTooLong { addr: src });
                    }
                }
            }
            SysCall::Alloc => {
                let n = arg(0).max(0) as u64;
                // ASan scales redzones with allocation size (min 16,
                // capped), like the real allocator.
                let redzone = if self.program.asan { (n / 8).clamp(16, 2048) / 8 * 8 } else { 0 };
                let addr = self.heap.alloc(n, redzone)?;
                self.per_core[self.core].allocs += 1;
                self.per_core[self.core].alloc_bytes += n;
                if self.program.asan {
                    self.shadow.unpoison(addr, n);
                    self.shadow.poison(addr - redzone, redzone, PoisonKind::HeapRedzone);
                    self.shadow.poison(addr + n, redzone, PoisonKind::HeapRedzone);
                }
                Ok(Some(addr as i64))
            }
            SysCall::Free => {
                let addr = arg(0) as u64;
                if self.program.asan {
                    // Quarantine: keep the block poisoned (use-after-free
                    // stays detectable) and only recycle once the
                    // quarantine overflows — matching ASan's allocator and
                    // its memory overhead.
                    if self.quarantine.iter().any(|(a, _)| *a == addr) {
                        return Err(Trap::InvalidFree { addr });
                    }
                    let payload = self.heap.live_payload(addr).ok_or(Trap::InvalidFree { addr })?;
                    self.shadow.poison(addr, payload.max(1), PoisonKind::HeapFreed);
                    self.quarantine.push_back((addr, payload));
                    self.quarantine_bytes += payload;
                    while self.quarantine_bytes > QUARANTINE_CAP {
                        let Some((old, bytes)) = self.quarantine.pop_front() else { break };
                        self.quarantine_bytes -= bytes;
                        let (start, reserved, _) = self.heap.free(old)?;
                        self.shadow.poison(start, reserved, PoisonKind::HeapFreed);
                    }
                } else {
                    self.heap.free(addr)?;
                }
                Ok(None)
            }
            SysCall::Rand => {
                let v = splitmix(&mut self.rng) as i64;
                let bound = arg(0);
                Ok(Some(if bound > 0 { v.rem_euclid(bound) } else { v }))
            }
            SysCall::AttackSuccess => {
                self.attack_events.push(AttackEvent::Marker);
                Ok(None)
            }
            SysCall::CreatFile => {
                self.attack_events.push(AttackEvent::CreatFile { arg: arg(0) });
                Ok(Some(0))
            }
            SysCall::Abort => Err(Trap::Abort { code: arg(0) }),
            SysCall::Cycles => Ok(Some(self.per_core[self.core].cycles as i64)),
            SysCall::NumCores => Ok(Some(self.config.cores as i64)),
        }
    }

    fn asan_range_check(&mut self, addr: u64, len: u64, write: bool) -> Result<(), Trap> {
        if !self.program.asan || len == 0 {
            return Ok(());
        }
        let granules = len / 8 + 1;
        self.count_instr(granules)?;
        self.per_core[self.core].asan_checks += granules;
        for g in 0..granules {
            self.shadow_touch(addr + g * 8);
        }
        if let Some(kind) = self.shadow.check(addr, len) {
            return Err(Trap::AsanViolation { addr, write, kind, segment: self.mem.kind_at(addr) });
        }
        Ok(())
    }
}

fn int_bin(op: BinOp, x: i64, y: i64) -> Result<i64, Trap> {
    Ok(match op {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::Div => {
            if y == 0 {
                return Err(Trap::DivByZero);
            }
            x.wrapping_div(y)
        }
        BinOp::Rem => {
            if y == 0 {
                return Err(Trap::DivByZero);
            }
            x.wrapping_rem(y)
        }
        BinOp::And => x & y,
        BinOp::Or => x | y,
        BinOp::Xor => x ^ y,
        BinOp::Shl => x.wrapping_shl(y as u32),
        BinOp::Shr => x.wrapping_shr(y as u32),
        BinOp::Eq => (x == y) as i64,
        BinOp::Ne => (x != y) as i64,
        BinOp::Lt => (x < y) as i64,
        BinOp::Le => (x <= y) as i64,
        BinOp::Gt => (x > y) as i64,
        BinOp::Ge => (x >= y) as i64,
    })
}

fn un_op(op: UnOp, x: i64) -> i64 {
    match op {
        UnOp::Neg => x.wrapping_neg(),
        UnOp::Not => (x == 0) as i64,
        UnOp::BitNot => !x,
        UnOp::I2F => (x as f64).to_bits() as i64,
        UnOp::F2I => f64::from_bits(x as u64) as i64,
        UnOp::FNeg => (-f64::from_bits(x as u64)).to_bits() as i64,
        UnOp::FSqrt => f64::from_bits(x as u64).sqrt().to_bits() as i64,
        UnOp::FExp => f64::from_bits(x as u64).exp().to_bits() as i64,
        UnOp::FLog => f64::from_bits(x as u64).ln().to_bits() as i64,
        UnOp::FAbs => f64::from_bits(x as u64).abs().to_bits() as i64,
        UnOp::FSin => f64::from_bits(x as u64).sin().to_bits() as i64,
        UnOp::FCos => f64::from_bits(x as u64).cos().to_bits() as i64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{Function, GlobalDef, Instr, StackSlot};
    use crate::machine::Machine;

    fn machine() -> Machine {
        Machine::new(MachineConfig::default())
    }

    fn run(p: &Program, args: &[i64]) -> RunResult {
        machine().run(p, args).expect("program runs")
    }

    fn simple_fn(name: &str, params: u16, regs: u16, code: Vec<Instr>) -> Function {
        let mut f = Function::new(name, params);
        f.reg_count = regs;
        f.code = code;
        f
    }

    #[test]
    fn arithmetic_and_exit_code() {
        let mut p = Program::new();
        p.push_function(simple_fn(
            "main",
            0,
            3,
            vec![
                Instr::Imm { dst: Reg(0), val: 6 },
                Instr::Imm { dst: Reg(1), val: 7 },
                Instr::Bin { op: BinOp::Mul, dst: Reg(2), a: Reg(0), b: Reg(1) },
                Instr::Ret { src: Some(Reg(2)) },
            ],
        ));
        assert_eq!(run(&p, &[]).exit, 42);
    }

    #[test]
    fn float_ops_roundtrip() {
        let mut p = Program::new();
        p.push_function(simple_fn(
            "main",
            0,
            3,
            vec![
                Instr::FImm { dst: Reg(0), val: 1.5 },
                Instr::FImm { dst: Reg(1), val: 2.25 },
                Instr::FBin { op: FBinOp::Mul, dst: Reg(2), a: Reg(0), b: Reg(1) },
                Instr::Syscall { code: SysCall::PrintF64, args: vec![Reg(2)], dst: None },
                Instr::Ret { src: None },
            ],
        ));
        assert_eq!(run(&p, &[]).stdout.trim(), "3.375000");
    }

    #[test]
    fn calls_pass_args_and_return_values() {
        let mut p = Program::new();
        p.push_function(simple_fn(
            "double",
            1,
            2,
            vec![
                Instr::Bin { op: BinOp::Add, dst: Reg(1), a: Reg(0), b: Reg(0) },
                Instr::Ret { src: Some(Reg(1)) },
            ],
        ));
        p.push_function(simple_fn(
            "main",
            1,
            2,
            vec![
                Instr::Call { func: FuncId(0), args: vec![Reg(0)], dst: Some(Reg(1)) },
                Instr::Ret { src: Some(Reg(1)) },
            ],
        ));
        assert_eq!(run(&p, &[21]).exit, 42);
    }

    #[test]
    fn globals_load_store() {
        let mut p = Program::new();
        p.globals.push(GlobalDef {
            name: "g".into(),
            size: 16,
            init: 7i64.to_le_bytes().to_vec(),
            is_code_ptr: false,
            redzone: 0,
        });
        p.push_function(simple_fn(
            "main",
            0,
            3,
            vec![
                Instr::GlobalAddr { dst: Reg(0), index: 0 },
                Instr::Load { dst: Reg(1), addr: Reg(0), off: 0, width: Width::B8 },
                Instr::Imm { dst: Reg(2), val: 35 },
                Instr::Bin { op: BinOp::Add, dst: Reg(1), a: Reg(1), b: Reg(2) },
                Instr::Store { src: Reg(1), addr: Reg(0), off: 8, width: Width::B8 },
                Instr::Load { dst: Reg(2), addr: Reg(0), off: 8, width: Width::B8 },
                Instr::Ret { src: Some(Reg(2)) },
            ],
        ));
        assert_eq!(run(&p, &[]).exit, 42);
    }

    #[test]
    fn stack_slot_addressing() {
        let mut p = Program::new();
        let mut f = simple_fn(
            "main",
            0,
            3,
            vec![
                Instr::FrameAddr { dst: Reg(0), index: 0 },
                Instr::Imm { dst: Reg(1), val: 42 },
                Instr::Store { src: Reg(1), addr: Reg(0), off: 24, width: Width::B8 },
                Instr::Load { dst: Reg(2), addr: Reg(0), off: 24, width: Width::B8 },
                Instr::Ret { src: Some(Reg(2)) },
            ],
        );
        f.stack_slots.push(StackSlot { size: 64, redzone: 0 });
        p.push_function(f);
        assert_eq!(run(&p, &[]).exit, 42);
    }

    #[test]
    fn div_by_zero_traps() {
        let mut p = Program::new();
        p.push_function(simple_fn(
            "main",
            0,
            2,
            vec![
                Instr::Imm { dst: Reg(0), val: 1 },
                Instr::Imm { dst: Reg(1), val: 0 },
                Instr::Bin { op: BinOp::Div, dst: Reg(0), a: Reg(0), b: Reg(1) },
                Instr::Ret { src: None },
            ],
        ));
        let err = machine().run(&p, &[]).unwrap_err();
        assert_eq!(err, VmError::Trap(Trap::DivByZero));
    }

    #[test]
    fn heap_alloc_free_and_uaf_detection_under_asan() {
        let code = vec![
            Instr::Imm { dst: Reg(0), val: 64 },
            Instr::Syscall { code: SysCall::Alloc, args: vec![Reg(0)], dst: Some(Reg(1)) },
            Instr::Imm { dst: Reg(2), val: 9 },
            Instr::Store { src: Reg(2), addr: Reg(1), off: 0, width: Width::B8 },
            Instr::Syscall { code: SysCall::Free, args: vec![Reg(1)], dst: None },
            Instr::AsanCheck { addr: Reg(1), off: 0, width: Width::B8, is_write: false },
            Instr::Load { dst: Reg(2), addr: Reg(1), off: 0, width: Width::B8 },
            Instr::Ret { src: Some(Reg(2)) },
        ];
        let mut p = Program::new();
        p.asan = true;
        p.push_function(simple_fn("main", 0, 3, code));
        let err = machine().run(&p, &[]).unwrap_err();
        assert!(matches!(
            err,
            VmError::Trap(Trap::AsanViolation { kind: PoisonKind::HeapFreed, .. })
        ));
    }

    #[test]
    fn counters_track_memory_traffic() {
        let mut p = Program::new();
        p.globals.push(GlobalDef {
            name: "g".into(),
            size: 8,
            init: vec![],
            is_code_ptr: false,
            redzone: 0,
        });
        p.push_function(simple_fn(
            "main",
            0,
            2,
            vec![
                Instr::GlobalAddr { dst: Reg(0), index: 0 },
                Instr::Load { dst: Reg(1), addr: Reg(0), off: 0, width: Width::B8 },
                Instr::Load { dst: Reg(1), addr: Reg(0), off: 0, width: Width::B8 },
                Instr::Ret { src: None },
            ],
        ));
        let r = run(&p, &[]);
        assert!(r.counters.loads >= 2);
        assert!(r.counters.instructions >= 4);
        assert!(r.elapsed_cycles > 0);
        assert!(r.wall_seconds > 0.0);
        // Second load of the same address must hit L1.
        assert!(r.l1.hits >= 1);
    }

    #[test]
    fn parfor_distributes_and_is_deterministic() {
        // worker(i, base): mem[base + i*8] = i*i
        let worker = simple_fn(
            "worker",
            2,
            4,
            vec![
                Instr::Imm { dst: Reg(2), val: 8 },
                Instr::Bin { op: BinOp::Mul, dst: Reg(2), a: Reg(0), b: Reg(2) },
                Instr::Bin { op: BinOp::Add, dst: Reg(2), a: Reg(1), b: Reg(2) },
                Instr::Bin { op: BinOp::Mul, dst: Reg(3), a: Reg(0), b: Reg(0) },
                Instr::Store { src: Reg(3), addr: Reg(2), off: 0, width: Width::B8 },
                Instr::Ret { src: None },
            ],
        );
        let main = simple_fn(
            "main",
            0,
            4,
            vec![
                Instr::GlobalAddr { dst: Reg(0), index: 0 },
                Instr::Imm { dst: Reg(1), val: 0 },
                Instr::Imm { dst: Reg(2), val: 16 },
                Instr::ParFor { func: FuncId(0), lo: Reg(1), hi: Reg(2), args: vec![Reg(0)] },
                Instr::Load { dst: Reg(3), addr: Reg(0), off: 15 * 8, width: Width::B8 },
                Instr::Ret { src: Some(Reg(3)) },
            ],
        );
        let mut p = Program::new();
        p.globals.push(GlobalDef {
            name: "out".into(),
            size: 16 * 8,
            init: vec![],
            is_code_ptr: false,
            redzone: 0,
        });
        p.push_function(worker);
        p.push_function(main);

        let r1 = Machine::new(MachineConfig::with_cores(1)).run(&p, &[]).unwrap();
        let r4 = Machine::new(MachineConfig::with_cores(4)).run(&p, &[]).unwrap();
        assert_eq!(r1.exit, 225);
        assert_eq!(r4.exit, 225);
        // Runs are deterministic.
        let r4b = Machine::new(MachineConfig::with_cores(4)).run(&p, &[]).unwrap();
        assert_eq!(r4.elapsed_cycles, r4b.elapsed_cycles);
    }

    #[test]
    fn ret_addr_overwrite_hijacks_control() {
        // libc-like target.
        let libc = simple_fn(
            "creat",
            1,
            1,
            vec![
                Instr::Syscall { code: SysCall::CreatFile, args: vec![Reg(0)], dst: None },
                Instr::Ret { src: None },
            ],
        );
        // victim(): overwrite own return address with &creat, arg planted
        // above the ret slot.
        // Frame layout: slot(8 bytes), [saved fp], [ret] — slot base + 8 = fp
        // slot? No: ret_slot = slot_addr + 8 + 8? We compute it directly:
        // arrays_end = sp_old-16, slot at arrays_end-8, so ret_slot = slot+16.
        let victim = simple_fn(
            "victim",
            0,
            4,
            vec![
                Instr::FrameAddr { dst: Reg(0), index: 0 },
                // r1 = &creat (FuncId 0)
                Instr::Imm { dst: Reg(1), val: code_addr(FuncId(0), 0) },
                Instr::Store { src: Reg(1), addr: Reg(0), off: 16, width: Width::B8 },
                // plant argument 777 above ret slot
                Instr::Imm { dst: Reg(2), val: 777 },
                Instr::Store { src: Reg(2), addr: Reg(0), off: 24, width: Width::B8 },
                Instr::Ret { src: None },
            ],
        );
        let mut victim = victim;
        victim.stack_slots.push(StackSlot { size: 8, redzone: 0 });
        let main = simple_fn(
            "main",
            0,
            1,
            vec![
                Instr::Call { func: FuncId(1), args: vec![], dst: None },
                Instr::Ret { src: None },
            ],
        );
        let mut p = Program::new();
        p.push_function(libc);
        p.push_function(victim);
        p.push_function(main);

        let cfg = MachineConfig {
            mitigations: crate::Mitigations::insecure(),
            ..MachineConfig::default()
        };
        let r = Machine::new(cfg).run(&p, &[]);
        // Whether or not execution later traps, the hijack must be recorded
        // and creat() must have run with the planted argument.
        let (hijacks, events) = match r {
            Ok(res) => (res.hijacks, res.attack_events),
            Err(_) => panic!("hijacked run should terminate cleanly here"),
        };
        assert_eq!(hijacks.len(), 1);
        assert!(events.contains(&AttackEvent::CreatFile { arg: 777 }));
    }

    #[test]
    fn canary_detects_the_same_attack() {
        let victim = {
            let mut f = simple_fn(
                "victim",
                0,
                2,
                vec![
                    Instr::FrameAddr { dst: Reg(0), index: 0 },
                    Instr::Imm { dst: Reg(1), val: 0x4141_4141 },
                    // With canaries on, the canary sits between the array
                    // and the ret slot; clobber everything above the array.
                    Instr::Store { src: Reg(1), addr: Reg(0), off: 8, width: Width::B8 },
                    Instr::Store { src: Reg(1), addr: Reg(0), off: 16, width: Width::B8 },
                    Instr::Store { src: Reg(1), addr: Reg(0), off: 24, width: Width::B8 },
                    Instr::Ret { src: None },
                ],
            );
            f.stack_slots.push(StackSlot { size: 8, redzone: 0 });
            f
        };
        let main = simple_fn(
            "main",
            0,
            1,
            vec![
                Instr::Call { func: FuncId(0), args: vec![], dst: None },
                Instr::Ret { src: None },
            ],
        );
        let mut p = Program::new();
        p.push_function(victim);
        p.push_function(main);
        let mut cfg = MachineConfig::default();
        cfg.mitigations.canaries = true;
        let err = Machine::new(cfg).run(&p, &[]).unwrap_err();
        assert!(matches!(err, VmError::Trap(Trap::CanarySmashed { .. })));
    }

    #[test]
    fn shellcode_on_executable_stack_runs() {
        // Write the shellcode marker into a stack buffer, then "return" to it.
        let mut code = vec![Instr::FrameAddr { dst: Reg(0), index: 0 }];
        for (i, chunk) in SHELLCODE.chunks(8).enumerate() {
            let mut b = [0u8; 8];
            b.copy_from_slice(chunk);
            code.push(Instr::Imm { dst: Reg(1), val: i64::from_le_bytes(b) });
            code.push(Instr::Store {
                src: Reg(1),
                addr: Reg(0),
                off: (i * 8) as i64,
                width: Width::B8,
            });
        }
        // Overwrite ret slot (array is 32 bytes; ret at +40) with &buf.
        code.push(Instr::Store { src: Reg(0), addr: Reg(0), off: 40, width: Width::B8 });
        code.push(Instr::Ret { src: None });
        let mut victim = simple_fn("victim", 0, 2, code);
        victim.stack_slots.push(StackSlot { size: 32, redzone: 0 });
        let main = simple_fn(
            "main",
            0,
            1,
            vec![
                Instr::Call { func: FuncId(0), args: vec![], dst: None },
                Instr::Ret { src: None },
            ],
        );
        let mut p = Program::new();
        p.push_function(victim);
        p.push_function(main);

        // Insecure machine: executable stack — shellcode runs.
        let cfg = MachineConfig {
            mitigations: crate::Mitigations::insecure(),
            ..MachineConfig::default()
        };
        let r = Machine::new(cfg).run(&p, &[]).unwrap();
        assert!(r.attack_events.iter().any(|e| matches!(e, AttackEvent::ShellcodeExecuted { .. })));

        // NX machine: same program traps with an exec violation.
        let mut cfg = MachineConfig::default();
        cfg.mitigations.nx = true;
        let err = Machine::new(cfg).run(&p, &[]).unwrap_err();
        assert!(matches!(err, VmError::Trap(Trap::ExecViolation { .. })));
    }

    #[test]
    fn aslr_moves_bases() {
        let mut p = Program::new();
        p.push_function(simple_fn("main", 0, 1, vec![Instr::Ret { src: None }]));
        let m_plain = Machine::new(MachineConfig::default());
        let mut cfg = MachineConfig::default();
        cfg.mitigations.aslr = true;
        let m_aslr = Machine::new(cfg);
        let plain = m_plain.load(&p).bases();
        let slid = m_aslr.load(&p).bases();
        assert_eq!(plain.globals, layout::GLOBALS_BASE);
        assert_ne!(
            (slid.rodata, slid.globals, slid.heap, slid.stack),
            (plain.rodata, plain.globals, plain.heap, plain.stack)
        );
    }

    #[test]
    fn instruction_limit_stops_runaway_loops() {
        let mut p = Program::new();
        p.push_function(simple_fn("main", 0, 1, vec![Instr::Jmp { target: 0 }]));
        let cfg = MachineConfig { max_instructions: 10_000, ..MachineConfig::default() };
        let err = Machine::new(cfg).run(&p, &[]).unwrap_err();
        assert!(matches!(err, VmError::Trap(Trap::InstructionLimit { .. })));
    }

    #[test]
    fn strcpy_overflow_is_caught_by_asan_redzone() {
        // src: a 32-byte global string; dst: an 8-byte stack array with
        // redzones under ASan.
        let mut src_init = vec![b'A'; 24];
        src_init.push(0);
        let mut p = Program::new();
        p.asan = true;
        p.globals.push(GlobalDef {
            name: "src".into(),
            size: 32,
            init: src_init,
            is_code_ptr: false,
            redzone: 32,
        });
        let mut victim = simple_fn(
            "main",
            0,
            2,
            vec![
                Instr::FrameAddr { dst: Reg(0), index: 0 },
                Instr::GlobalAddr { dst: Reg(1), index: 0 },
                Instr::Syscall { code: SysCall::StrCpy, args: vec![Reg(0), Reg(1)], dst: None },
                Instr::Ret { src: None },
            ],
        );
        victim.stack_slots.push(StackSlot { size: 8, redzone: 32 });
        p.push_function(victim);
        let err = machine().run(&p, &[]).unwrap_err();
        assert!(matches!(
            err,
            VmError::Trap(Trap::AsanViolation { kind: PoisonKind::StackRedzone, .. })
        ));
    }

    #[test]
    fn repeated_calls_report_per_call_counters() {
        let mut p = Program::new();
        p.push_function(simple_fn(
            "work",
            1,
            2,
            vec![
                Instr::Bin { op: BinOp::Add, dst: Reg(1), a: Reg(0), b: Reg(0) },
                Instr::Ret { src: Some(Reg(1)) },
            ],
        ));
        let m = machine();
        let mut inst = m.load(&p);
        let r1 = inst.call("work", &[5]).unwrap();
        let r2 = inst.call("work", &[6]).unwrap();
        assert_eq!(r1.exit, 10);
        assert_eq!(r2.exit, 12);
        // Second call should be comparable, not cumulative.
        assert!(r2.counters.instructions <= r1.counters.instructions * 2);
        assert!(r2.counters.instructions > 0);
    }

    #[test]
    fn branch_mispredicts_are_counted_and_cost_cycles() {
        // A data-dependent unpredictable branch pattern vs a steady loop.
        let src_steady = vec![
            Instr::Imm { dst: Reg(0), val: 0 },
            Instr::Imm { dst: Reg(1), val: 1000 },
            Instr::Imm { dst: Reg(2), val: 1 },
            // loop: r0 += 1; if r0 < r1 goto loop
            Instr::Bin { op: BinOp::Add, dst: Reg(0), a: Reg(0), b: Reg(2) },
            Instr::Bin { op: BinOp::Lt, dst: Reg(3), a: Reg(0), b: Reg(1) },
            Instr::BrNonZero { cond: Reg(3), target: 3 },
            Instr::Ret { src: None },
        ];
        let mut p = Program::new();
        p.push_function(simple_fn("main", 0, 4, src_steady));
        let r = machine().run(&p, &[]).unwrap();
        assert_eq!(r.counters.branches, 1000);
        // A steady loop branch mispredicts only at warm-up and exit.
        assert!(
            r.counters.branch_mispredicts <= 4,
            "steady loop mispredicted {} times",
            r.counters.branch_mispredicts
        );

        // Alternating branch: r3 = r0 & 1, branch on it every iteration.
        let src_alt = vec![
            Instr::Imm { dst: Reg(0), val: 0 },
            Instr::Imm { dst: Reg(1), val: 1000 },
            Instr::Imm { dst: Reg(2), val: 1 },
            Instr::Bin { op: BinOp::Add, dst: Reg(0), a: Reg(0), b: Reg(2) },
            Instr::Bin { op: BinOp::And, dst: Reg(3), a: Reg(0), b: Reg(2) },
            Instr::BrNonZero { cond: Reg(3), target: 7 }, // skip the nop-ish op
            Instr::Bin { op: BinOp::Add, dst: Reg(4), a: Reg(0), b: Reg(2) },
            Instr::Bin { op: BinOp::Lt, dst: Reg(5), a: Reg(0), b: Reg(1) },
            Instr::BrNonZero { cond: Reg(5), target: 3 },
            Instr::Ret { src: None },
        ];
        let mut p2 = Program::new();
        p2.push_function(simple_fn("main", 0, 6, src_alt));
        let r2 = machine().run(&p2, &[]).unwrap();
        assert!(
            r2.counters.branch_mispredicts > 200,
            "alternating branch should defeat the bimodal predictor ({})",
            r2.counters.branch_mispredicts
        );
    }

    #[test]
    fn bad_arity_is_reported() {
        let mut p = Program::new();
        p.push_function(simple_fn("main", 2, 2, vec![Instr::Ret { src: None }]));
        let err = machine().run(&p, &[1]).unwrap_err();
        assert!(matches!(err, VmError::BadArity { expected: 2, got: 1, .. }));
    }

    #[test]
    fn no_entry_is_reported() {
        let mut p = Program::new();
        p.push_function(simple_fn("not_main", 0, 1, vec![Instr::Ret { src: None }]));
        assert_eq!(machine().run(&p, &[]).unwrap_err(), VmError::NoEntry);
    }
}
