//! The software layer's main execution engine (the paper's Fig. 3 flow).
//!
//! `code cache hit? → execute translation (chained) ;
//!  miss → count; over IM/BBth? → translate BB ; else interpret ;
//!  BB over BB/SBth? → form + optimize superblock`
//!
//! [`Tol::step`] advances the emulated guest by (at least) one dispatch
//! unit — one interpreted basic block or one run of chained translations
//! bounded by a budget — emitting every retired host instruction (and
//! module-level markers: mode entries, translations, chaining,
//! code-cache installs, IBTC resolutions) as typed
//! [`HostEvent`]s. Events are staged in a fixed-capacity
//! [`EventBuffer`] and delivered to the caller's [`HostEventSink`] in
//! retire-order batches, flushed at budget boundaries. The caller
//! (DARCO's controller) dispatches those batches to the timing
//! simulator and co-simulates against the authoritative functional
//! emulator between steps.

use crate::codecache::{
    pages_dirty, BlockKind, CacheHealth, CodeCache, EvictCause, Evicted, Prepared, TranslatedBlock,
};
use crate::config::TolConfig;
use crate::emission::Emitter;
use crate::ibtc::Ibtc;
use crate::interp;
use crate::ir::{self, EXIT_TARGET_REG, FLAGS_REG};
use crate::pool::{
    compile_bb, compile_sb, stamp_region, JobKind, JobOut, PendingJob, SbOutcome, TranslatePool,
    TranslationPoolStats,
};
use crate::profile::{Profiler, StaticMode};
use crate::superblock::{form_region, form_region_into};
use crate::translate::{decode_bb, decode_bb_into, RegionInst, TranslateScratch};
use darco_guest::{CpuState, DecodeError, Flags, FpReg, Gpr, GuestMem};
use darco_host::events::{EventBuffer, ExecMode, HostEvent, HostEventSink, TranslationKind};
use darco_host::layout::{guest_to_host, TOL_CODE_BASE};
use darco_host::stream::{fp_reg, int_reg, NO_REG};
use darco_host::{
    exec_inst, BlockId, BranchKind, DynInst, Exit, HFreg, HInst, HostState, Outcome, RetireDyn,
};
use serde::{Deserialize, Serialize};

/// Execution mode (re-export of the profiler's mode classification).
pub type Mode = StaticMode;

/// Counters the engine maintains across a run.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct TolCounters {
    /// Guest instructions emulated (all modes).
    pub guest_insts: u64,
    /// Superblocks formed (the paper's "SBM invocations", Fig. 6).
    pub sbm_invocations: u64,
    /// Dynamic guest indirect branches (incl. returns), Fig. 7 overlay.
    pub indirect_branches: u64,
    /// Transitions from translated code into the software layer.
    pub tol_entries: u64,
    /// Superblocks whose optimization bailed (register pressure).
    pub opt_bailouts: u64,
    /// Speculative indirect-branch resolutions that hit (optional
    /// feature, Sec. III-E).
    pub spec_hits: u64,
    /// Speculative resolutions that missed (compensation taken).
    pub spec_misses: u64,
    /// Superblocks whose optimization was fully verified (always-on in
    /// debug builds, opt-in via [`TolConfig::verify`] in release).
    pub verified_blocks: u64,
    /// Translation validations that fell back to randomized differential
    /// execution (the symbolic engine could not prove the rewrite).
    pub tv_differential: u64,
    /// Verifier-detected miscompiles: the optimized block was discarded
    /// and the unoptimized lowering installed instead.
    pub verify_failures: u64,
    /// Dead `FlagsArith` definitions deleted by the `deadflags` pass
    /// (BBM and SBM combined).
    pub flags_killed: u64,
    /// `BrFlags` statically folded by the `rangesimp` pass.
    pub branches_folded: u64,
}

/// What one [`Tol::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// Guest instructions retired during this step.
    pub guest_insts: u64,
    /// Whether the guest program has halted.
    pub done: bool,
    /// Mode the step (mostly) executed in.
    pub mode: Mode,
}

/// End-of-run summary used by the experiment drivers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunSummary {
    /// Engine counters.
    pub counters: TolCounters,
    /// Static guest instructions per final mode `[IM, BBM, SBM]`.
    pub static_dist: [u64; 3],
    /// Dynamic guest instructions per mode `[IM, BBM, SBM]`.
    pub dyn_dist: [u64; 3],
    /// Translations installed / flushes / chains.
    pub installed: u64,
    /// Code cache flushes.
    pub flushes: u64,
    /// Chain links created.
    pub chains: u64,
    /// IBTC hits.
    pub ibtc_hits: u64,
    /// IBTC misses.
    pub ibtc_misses: u64,
    /// Host instructions emitted per component (engine-side counts).
    pub emitted: [u64; 7],
    /// End-of-run code-cache health: occupancy, dead space, and the
    /// lifecycle counters (evictions, unchains, retranslations).
    pub cache: CacheHealth,
    /// Per-pass instruction deltas across every optimized block, in
    /// pipeline order (`darco verify` / `darco analyze` report these).
    pub pass_deltas: Vec<crate::verify::PassDelta>,
}

/// The Translation Optimization Layer engine.
#[derive(Debug)]
pub struct Tol {
    cfg: TolConfig,
    /// The code cache (public for inspection by experiments).
    pub cc: CodeCache,
    /// The indirect-branch translation cache.
    pub ibtc: Ibtc,
    /// The profiler.
    pub prof: Profiler,
    /// The cost-model emitter.
    pub em: Emitter,
    host: HostState,
    guest_pc: u32,
    halted: bool,
    counters: TolCounters,
    /// Set when a step ended mid-translated-run purely for budget
    /// reasons, so the next entry does not re-charge a transition.
    resume_translated: bool,
    /// Last observed target per indirect exit site, for the optional
    /// speculative-resolution feature: `(block, exit) -> (guest, block)`.
    /// Entries naming an evicted block are purged eagerly.
    spec_targets: std::collections::HashMap<(BlockId, u32), (u32, BlockId)>,
    /// Reused allocation for the retirement event buffer.
    ev_storage: Vec<HostEvent>,
    /// The interpreter's decoded-instruction cache.
    dcache: interp::DecodeCache,
    /// The guest layer's micro-op execution context (pre-decoded block
    /// buffers + lazy flags), used by the interpreter when
    /// [`TolConfig::guest_fast_path`] is on.
    fastctx: darco_guest::uops::ExecCtx,
    /// Accumulated per-pass deltas across every optimized block.
    pass_deltas: Vec<crate::verify::PassDelta>,
    /// Wall-clock nanoseconds per pass, keyed like `pass_deltas`. Kept
    /// outside [`TolCounters`] so serialized reports stay deterministic.
    pass_nanos: Vec<(String, u64)>,
    /// Total wall-clock nanoseconds in the analysis-driven passes
    /// (`deadflags` + `rangesimp`), BBM and SBM combined.
    analysis_ns: u64,
    /// Reusable translation buffers for the synchronous compile path
    /// (the pool workers each own their own IR scratch).
    scratch: TranslateScratch,
    /// Background translation pool; `None` when
    /// [`TolConfig::translate_workers`] is 0 (the synchronous oracle).
    pool: Option<TranslatePool>,
    /// In-flight background jobs keyed by (kind, guest entry).
    pending: std::collections::HashMap<(JobKind, u32), PendingJob>,
    /// Engine-side pool counters (enqueues, joins, discards).
    pool_counts: TranslationPoolStats,
}

impl Tol {
    /// Creates the layer with the emulated guest starting at `entry`.
    pub fn new(cfg: TolConfig, entry: u32) -> Tol {
        let mut cc = if cfg.codecache_scattered {
            CodeCache::new_scattered(cfg.code_cache_capacity)
        } else {
            CodeCache::new(cfg.code_cache_capacity)
        };
        cc.set_policy(cfg.cache_policy);
        let mut em = Emitter::new();
        em.interp_templates = cfg.retire_templates;
        let pool = (cfg.translate_workers > 0)
            .then(|| TranslatePool::new(cfg.translate_workers, cfg.clone()));
        let mut tol = Tol {
            cc,
            ibtc: Ibtc::new(cfg.ibtc_entries),
            prof: Profiler::new(),
            em,
            host: HostState::new(),
            guest_pc: entry,
            halted: false,
            counters: TolCounters::default(),
            resume_translated: false,
            spec_targets: std::collections::HashMap::new(),
            ev_storage: Vec::new(),
            dcache: interp::DecodeCache::new(),
            fastctx: darco_guest::uops::ExecCtx::new(),
            pass_deltas: Vec::new(),
            pass_nanos: Vec::new(),
            analysis_ns: 0,
            scratch: TranslateScratch::default(),
            pool,
            pending: std::collections::HashMap::new(),
            pool_counts: TranslationPoolStats::default(),
            cfg,
        };
        tol.store_cpu(&CpuState::at(entry));
        tol
    }

    /// Seeds the emulated guest state (e.g. initial stack pointer).
    pub fn set_state(&mut self, cpu: &CpuState) {
        self.guest_pc = cpu.eip;
        self.halted = cpu.halted;
        self.store_cpu(cpu);
    }

    /// Materializes the emulated guest state from the pinned host
    /// registers (the *Emulated x86 Register State* of the paper's
    /// Fig. 2), for the state checker.
    pub fn emulated_state(&self) -> CpuState {
        let mut cpu = CpuState::at(self.guest_pc);
        for (i, r) in Gpr::ALL.iter().enumerate() {
            cpu.set_gpr(*r, self.host.reg(ir::guest_gpr_reg(i)));
        }
        cpu.flags = Flags::from_word(self.host.reg(FLAGS_REG));
        for i in 0..8 {
            cpu.set_fpr(FpReg(i), self.host.freg(HFreg(i)));
        }
        cpu.halted = self.halted;
        cpu
    }

    fn store_cpu(&mut self, cpu: &CpuState) {
        for (i, r) in Gpr::ALL.iter().enumerate() {
            self.host.set_reg(ir::guest_gpr_reg(i), cpu.gpr(*r));
        }
        self.host.set_reg(FLAGS_REG, cpu.flags.to_word());
        for i in 0..8 {
            self.host.set_freg(HFreg(i), cpu.fpr(FpReg(i)));
        }
    }

    /// Engine counters so far.
    pub fn counters(&self) -> TolCounters {
        self.counters
    }

    /// Wall-clock nanoseconds spent in the analysis-driven passes
    /// (`deadflags` + `rangesimp`) so far. Deliberately not part of
    /// [`TolCounters`] or [`RunSummary`]: serialized reports must stay
    /// bit-identical across reruns.
    pub fn analysis_ns(&self) -> u64 {
        self.analysis_ns
    }

    /// Wall-clock nanoseconds per optimization pass, keyed like
    /// [`RunSummary::pass_deltas`]. Same determinism caveat as
    /// [`Tol::analysis_ns`].
    pub fn pass_nanos(&self) -> &[(String, u64)] {
        &self.pass_nanos
    }

    /// Whether the guest has halted.
    pub fn is_done(&self) -> bool {
        self.halted
    }

    /// Current guest program counter.
    pub fn guest_pc(&self) -> u32 {
        self.guest_pc
    }

    /// Builds the end-of-run summary.
    pub fn summary(&self) -> RunSummary {
        let s = self.cc.stats();
        RunSummary {
            counters: self.counters,
            static_dist: self.prof.static_distribution(),
            dyn_dist: self.prof.dyn_insts,
            installed: s.installed,
            flushes: s.flushes,
            chains: s.chains,
            ibtc_hits: self.ibtc.hits(),
            ibtc_misses: self.ibtc.misses(),
            emitted: self.em.emitted,
            cache: self.cc.health(),
            pass_deltas: self.pass_deltas.clone(),
        }
    }

    /// Advances the emulated guest by one dispatch unit, or up to
    /// `budget` guest instructions of chained translated execution.
    /// Events are delivered to `sink` in retire-order batches of at most
    /// [`TolConfig::event_batch`]; the buffer is always drained before
    /// this returns (a budget boundary is a flush boundary).
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] if the guest jumps into undecodable
    /// bytes.
    pub fn step(
        &mut self,
        mem: &mut GuestMem,
        sink: &mut dyn HostEventSink,
        budget: u64,
    ) -> Result<StepOutcome, DecodeError> {
        let storage = std::mem::take(&mut self.ev_storage);
        let capacity = self.cfg.event_batch;
        let mut ev = EventBuffer::from_storage(storage, capacity, sink);
        let out = self.step_buffered(mem, &mut ev, budget);
        self.ev_storage = ev.into_storage();
        out
    }

    fn step_buffered(
        &mut self,
        mem: &mut GuestMem,
        ev: &mut EventBuffer<'_>,
        budget: u64,
    ) -> Result<StepOutcome, DecodeError> {
        if self.halted {
            return Ok(StepOutcome { guest_insts: 0, done: true, mode: Mode::Im });
        }
        let pc = self.guest_pc;
        if self.cc.lookup(pc).is_some() {
            ev.push(HostEvent::ModeEnter(ExecMode::Sbm));
            let n = self.run_translated(mem, ev, budget)?;
            return Ok(StepOutcome { guest_insts: n, done: self.halted, mode: Mode::Sbm });
        }

        // Miss: the dispatcher decides between interpretation and
        // translation (Fig. 3, left vs. middle path).
        let count = self.prof.bump_target(pc);
        let promote = count > self.cfg.im_bb_threshold;
        ev.push(HostEvent::ModeEnter(if promote { ExecMode::Bbm } else { ExecMode::Im }));
        self.em.dispatch(ev, if promote { Mode::Bbm } else { Mode::Im });
        self.em.map_lookup(ev, pc, false);

        if promote {
            let mut region = std::mem::take(&mut self.scratch.region);
            region.clear();
            if let Err(e) = decode_bb_into(mem, pc, &mut region) {
                self.scratch.region = region;
                return Err(e);
            }
            let installed = self.install_bb(pc, &region, mem, ev);
            self.scratch.region = region;
            if installed.is_none() {
                // The translation alone exceeds the whole cache: it can
                // never be installed, so this block stays interpreted.
                let n = self.interpret_bb(mem, ev)?;
                return Ok(StepOutcome { guest_insts: n, done: self.halted, mode: Mode::Im });
            }
            let n = self.run_translated(mem, ev, budget)?;
            Ok(StepOutcome { guest_insts: n, done: self.halted, mode: Mode::Bbm })
        } else {
            self.maybe_enqueue_bb(pc, count, mem);
            let n = self.interpret_bb(mem, ev)?;
            Ok(StepOutcome { guest_insts: n, done: self.halted, mode: Mode::Im })
        }
    }

    /// Runs the program to completion (or `max_guest_insts`), returning
    /// total guest instructions executed. One event buffer spans the
    /// whole run, so batches stay full across dispatch units.
    ///
    /// # Errors
    ///
    /// Propagates guest decode errors.
    pub fn run(
        &mut self,
        mem: &mut GuestMem,
        sink: &mut dyn HostEventSink,
        max_guest_insts: u64,
    ) -> Result<u64, DecodeError> {
        let storage = std::mem::take(&mut self.ev_storage);
        let capacity = self.cfg.event_batch;
        let mut ev = EventBuffer::from_storage(storage, capacity, sink);
        let mut total = 0;
        let mut fault = None;
        while !self.halted && total < max_guest_insts {
            match self.step_buffered(mem, &mut ev, max_guest_insts - total) {
                Ok(out) => total += out.guest_insts,
                Err(e) => {
                    fault = Some(e);
                    break;
                }
            }
        }
        self.ev_storage = ev.into_storage();
        match fault {
            Some(e) => Err(e),
            None => Ok(total),
        }
    }

    fn interpret_bb(
        &mut self,
        mem: &mut GuestMem,
        ev: &mut EventBuffer<'_>,
    ) -> Result<u64, DecodeError> {
        let mut cpu = self.emulated_state();
        debug_assert!(
            !self.fastctx.lazy.is_pending(),
            "pending lazy flags across interpret_bb entries"
        );
        let mut n = 0u64;
        let fast = self.cfg.guest_fast_path;
        loop {
            let gpc = cpu.eip;
            self.prof.mark_static([gpc], StaticMode::Im);
            let r = if fast {
                interp::step_fast(&mut cpu, mem, &mut self.em, &mut self.fastctx, ev)
            } else if self.cfg.interp_decode_cache {
                interp::step_cached(&mut cpu, mem, &mut self.em, &mut self.dcache, ev)
            } else {
                interp::step(&mut cpu, mem, &mut self.em, ev)
            };
            let info = match r {
                Ok(info) => info,
                Err(e) => {
                    // The local `cpu` (which any pending lazy definition
                    // refers to) is discarded with the error.
                    self.fastctx.discard_pending();
                    return Err(e);
                }
            };
            n += 1;
            if info.inst.is_indirect() {
                self.counters.indirect_branches += 1;
            }
            if cpu.halted || info.inst.is_block_end() {
                break;
            }
        }
        // Materialize any pending flag definition before the state
        // becomes visible to `StepBoundary` consumers via `store_cpu`.
        self.fastctx.force_flags(&mut cpu);
        self.prof.count_dynamic(StaticMode::Im, n);
        self.counters.guest_insts += n;
        self.guest_pc = cpu.eip;
        self.halted = cpu.halted;
        self.store_cpu(&cpu);
        Ok(n)
    }

    /// Engagement counters of the guest-layer fast path (micro-op
    /// cache hits, lazy-flag elisions); zeros when
    /// [`TolConfig::guest_fast_path`] is off.
    pub fn fast_stats(&self) -> darco_guest::uops::FastStats {
        self.fastctx.stats
    }

    /// Lifecycle fallout of an install or SMC check: emits the
    /// `Unchain`/`Evict` events and their software-layer costs, and
    /// eagerly drops every engine-side reference (IBTC entries,
    /// speculation targets) naming the evicted blocks, so no stale
    /// handle can ever be dispatched through them.
    fn note_evictions(&mut self, evicted: &[Evicted], ev: &mut EventBuffer<'_>) {
        for e in evicted {
            for &site in &e.unchained {
                self.em.unchain(ev, site);
                ev.push(HostEvent::Unchain { site });
            }
            self.em.evict(ev, e.entry);
            ev.push(HostEvent::Evict { entry: e.entry, smc: e.smc });
            self.ibtc.invalidate(e.id);
            self.spec_targets.retain(|&(b, _), &mut (_, to)| b != e.id && to != e.id);
        }
    }

    /// Translates and installs the basic block at `entry` (BBM).
    /// Returns `None` if the translation is larger than the whole cache
    /// (it is rejected, and the caller falls back to interpretation).
    fn install_bb(
        &mut self,
        entry: u32,
        region: &[RegionInst],
        mem: &GuestMem,
        ev: &mut EventBuffer<'_>,
    ) -> Option<BlockId> {
        // Join the in-flight background translation if a valid one
        // exists; otherwise compile synchronously. Both are the same
        // pure function of (region, cfg), so the installed code, the
        // simulated cost and every event are identical either way.
        let (compiled, templates) = match self.take_pooled(JobKind::Bb, entry, region, mem) {
            Some(JobOut::Bb { compiled, templates }) => (compiled, Some(templates)),
            _ => (compile_bb(region, &self.cfg, &mut self.scratch.ir), None),
        };
        if let Some(d) = &compiled.deadflags {
            self.counters.flags_killed += d.flags_killed;
            self.analysis_ns += d.nanos;
            crate::verify::merge_nanos(&mut self.pass_nanos, "deadflags", d.nanos);
            crate::verify::merge_delta(
                &mut self.pass_deltas,
                &crate::verify::PassDelta {
                    pass: "deadflags".to_string(),
                    runs: 1,
                    insts_removed: d.insts_removed,
                    flags_killed: d.flags_killed,
                    branches_folded: 0,
                },
            );
        }
        let host_len = compiled.insts.len() as u32;
        self.em.bb_translate(ev, entry, region, compiled.insts.len());
        self.prof.mark_static(region.iter().map(|r| r.pc), StaticMode::Bbm);
        let ins = self
            .cc
            .install_prepared(
                entry,
                Prepared {
                    insts: compiled.insts,
                    kind: BlockKind::Bb,
                    body_len: compiled.body_len,
                    stub_guest_counts: compiled.stub_guest_counts,
                    guest_len: compiled.guest_len,
                    guest_pcs: region.iter().map(|r| r.pc).collect(),
                    templates,
                },
                mem,
            )
            .ok()?;
        if ins.flushed {
            self.ibtc.clear();
            self.spec_targets.clear();
        }
        self.note_evictions(&ins.evicted, ev);
        ev.push(HostEvent::Translated { entry, kind: TranslationKind::Bb, host_len });
        ev.push(HostEvent::CacheInsert { entry, flushed: ins.flushed });
        Some(ins.id)
    }

    /// Forms, optimizes and installs a superblock rooted at `entry`.
    /// `Ok(None)` means the superblock was larger than the whole cache
    /// and was discarded (the BBM block keeps running).
    fn install_sb(
        &mut self,
        entry: u32,
        mem: &GuestMem,
        ev: &mut EventBuffer<'_>,
    ) -> Result<Option<(BlockId, bool)>, DecodeError> {
        let mut region = std::mem::take(&mut self.scratch.region);
        let mut visited = std::mem::take(&mut self.scratch.visited);
        region.clear();
        visited.clear();
        let formed = form_region_into(mem, entry, &self.prof, &self.cfg, &mut region, &mut visited);
        self.scratch.visited = visited;
        let bbs = match formed {
            Ok(bbs) => bbs,
            Err(e) => {
                self.scratch.region = region;
                return Err(e);
            }
        };
        // Join the in-flight background optimization if a valid one
        // exists; otherwise compile synchronously (same pure function of
        // (region, cfg) — see `install_bb`).
        let (compiled, templates) = match self.take_pooled(JobKind::Sb, entry, &region, mem) {
            Some(JobOut::Sb { compiled, templates }) => (compiled, Some(templates)),
            _ => (compile_sb(&region, &self.cfg, &mut self.scratch.ir), None),
        };
        match &compiled.outcome {
            SbOutcome::Optimized(stats) => {
                self.counters.verified_blocks += stats.blocks_verified;
                self.counters.tv_differential += stats.tv_differential;
                for d in &stats.pass_deltas {
                    self.counters.flags_killed += d.flags_killed;
                    self.counters.branches_folded += d.branches_folded;
                    crate::verify::merge_delta(&mut self.pass_deltas, d);
                }
                for (pass, ns) in &stats.pass_nanos {
                    if pass == "deadflags" || pass == "rangesimp" {
                        self.analysis_ns += ns;
                    }
                    crate::verify::merge_nanos(&mut self.pass_nanos, pass, *ns);
                }
            }
            SbOutcome::OutOfRegisters => self.counters.opt_bailouts += 1,
            SbOutcome::Miscompile => self.counters.verify_failures += 1,
        }
        let host_len = compiled.insts.len() as u32;
        self.em.sb_optimize(ev, bbs as usize, compiled.ir_len, compiled.insts.len());
        self.counters.sbm_invocations += 1;
        self.prof.mark_static(region.iter().map(|r| r.pc), StaticMode::Sbm);
        let res = self.cc.install_prepared(
            entry,
            Prepared {
                insts: compiled.insts,
                kind: BlockKind::Sb,
                body_len: compiled.body_len,
                stub_guest_counts: compiled.stub_guest_counts,
                guest_len: compiled.guest_len,
                guest_pcs: region.iter().map(|r| r.pc).collect(),
                templates,
            },
            mem,
        );
        self.scratch.region = region;
        let Ok(ins) = res else {
            return Ok(None);
        };
        if ins.flushed {
            self.ibtc.clear();
            self.spec_targets.clear();
        }
        self.note_evictions(&ins.evicted, ev);
        ev.push(HostEvent::Translated { entry, kind: TranslationKind::Sb, host_len });
        ev.push(HostEvent::CacheInsert { entry, flushed: ins.flushed });
        Ok(Some((ins.id, ins.flushed)))
    }

    /// Lead (in block executions) between the SBM background-enqueue
    /// trigger and the promotion threshold: how much emulation the
    /// superblock compile can overlap with. Any constant is
    /// deterministic (the join validates the snapshot against
    /// install-time state); a small one keeps the profile snapshot close
    /// to what the install point sees, so jobs are rarely discarded as
    /// stale.
    const SB_ENQUEUE_LEAD: u64 = 8;

    /// Background-translation trigger for BBM: the last interpreted
    /// visit before promotion (`count == IM/BBth`; the next visit
    /// crosses the strict `count > IM/BBth` check) snapshots the block
    /// and hands the compile work to the pool. The trigger is a pure
    /// function of the deterministic profile counter, and the join in
    /// [`Tol::install_bb`] validates the snapshot, so emitted streams
    /// never depend on pool timing. A block re-translated after an
    /// eviction passes this count only once, so re-translations stay
    /// synchronous — rare by construction.
    fn maybe_enqueue_bb(&mut self, pc: u32, count: u32, mem: &GuestMem) {
        if self.pool.is_none()
            || count != self.cfg.im_bb_threshold
            || self.pending.contains_key(&(JobKind::Bb, pc))
        {
            return;
        }
        // A decode fault stays synchronous: the promote path surfaces
        // the same fault to the caller.
        let Ok(region) = decode_bb(mem, pc) else { return };
        self.enqueue(JobKind::Bb, pc, region, mem);
    }

    /// Background-translation trigger for SBM, [`Tol::SB_ENQUEUE_LEAD`]
    /// executions before the promotion check in `run_translated` (which
    /// fires at `BB/SBth`, or at 4x that for blocks already covered by a
    /// superblock). A covered block's trigger can fire twice (once per
    /// threshold); the second fire drops the first snapshot, whose
    /// profile is out of date.
    fn maybe_enqueue_sb(&mut self, entry: u32, exec_count: u64, mem: &GuestMem) {
        if self.pool.is_none() {
            return;
        }
        let th = self.cfg.bb_sb_threshold as u64;
        let covered = self.prof.static_mode(entry) == Some(StaticMode::Sbm);
        let fire_at = if covered {
            (4 * th).saturating_sub(Self::SB_ENQUEUE_LEAD).max(1)
        } else {
            th.saturating_sub(Self::SB_ENQUEUE_LEAD).max(1)
        };
        if exec_count != fire_at {
            return;
        }
        if self.pending.remove(&(JobKind::Sb, entry)).is_some() {
            self.pool_counts.discarded_stale += 1;
        }
        let Ok((region, _bbs)) = form_region(mem, entry, &self.prof, &self.cfg) else { return };
        self.enqueue(JobKind::Sb, entry, region, mem);
    }

    /// Stamps the snapshot's code pages and submits the job.
    fn enqueue(&mut self, kind: JobKind, entry: u32, region: Vec<RegionInst>, mem: &GuestMem) {
        let Some(pool) = self.pool.as_mut() else { return };
        let (pages, gen) = stamp_region(mem, &region);
        let rx = pool.submit(kind, region.clone());
        self.pending.insert((kind, entry), PendingJob { rx, region, pages, gen });
        self.pool_counts.jobs_enqueued += 1;
        self.pool_counts.max_in_flight =
            self.pool_counts.max_in_flight.max(self.pending.len() as u64);
    }

    /// Removes and joins the pending background job for `(kind, entry)`,
    /// validating it against the *install-time* inputs: the covered code
    /// pages must be unwritten since enqueue (the pending-job arm of SMC
    /// invalidation) and the snapshot region must equal the freshly
    /// formed one. Any mismatch discards the job and returns `None`; the
    /// caller then recompiles synchronously from the fresh inputs — so
    /// the installed artifact is always a pure function of install-time
    /// state, independent of pool timing.
    fn take_pooled(
        &mut self,
        kind: JobKind,
        entry: u32,
        fresh: &[RegionInst],
        mem: &GuestMem,
    ) -> Option<JobOut> {
        let job = self.pending.remove(&(kind, entry))?;
        if pages_dirty(mem, &job.pages, job.gen) {
            self.pool_counts.discarded_smc += 1;
            return None;
        }
        if job.region.as_slice() != fresh {
            self.pool_counts.discarded_stale += 1;
            return None;
        }
        let out = match job.rx.try_recv() {
            Ok(out) => {
                self.pool_counts.ready_at_install += 1;
                Some(out)
            }
            Err(std::sync::mpsc::TryRecvError::Empty) => {
                self.pool_counts.stalls_at_install += 1;
                job.rx.recv().ok()
            }
            // Every worker died (a compile panicked): fall back to the
            // synchronous path for this and all later installs.
            Err(std::sync::mpsc::TryRecvError::Disconnected) => None,
        };
        if out.is_some() {
            self.pool_counts.installed_from_pool += 1;
        }
        out
    }

    /// Background-translation pool statistics (wall-clock side only).
    /// Deliberately not part of [`RunSummary`] or any serialized report:
    /// those stay byte-identical across `translate_workers` settings.
    pub fn pool_stats(&self) -> TranslationPoolStats {
        let mut s = self.pool_counts;
        if let Some(p) = &self.pool {
            s.workers = p.workers();
            s.jobs_completed = p.completed();
            s.worker_busy_ns = p.busy_ns();
        }
        s
    }

    /// Follows promotion redirects (the patched entry jump of a promoted
    /// BBM block), charging one application-side jump per hop. A stale
    /// redirect target (the replacing superblock was itself evicted) is
    /// cleared and the original block keeps running.
    fn resolve_redirects(&mut self, mut bid: BlockId, ev: &mut EventBuffer<'_>) -> BlockId {
        while let Some(r) = self.cc.get(bid).and_then(|b| b.redirect) {
            let Some(target) = self.cc.get(r).map(|b| b.host_base) else {
                if let Some(b) = self.cc.get_mut(bid) {
                    b.redirect = None;
                }
                break;
            };
            let pc = self.cc.get(bid).expect("redirect read from live block").host_base;
            ev.retire(
                DynInst::plain(pc, darco_host::ExecClass::Jump, darco_host::Component::AppCode)
                    .with_branch(BranchKind::UncondDirect, target, true),
            );
            self.em.emitted[0] += 1;
            bid = r;
        }
        bid
    }

    /// Executes chained translations starting at the current guest pc
    /// (which must be translated), until control returns to the software
    /// layer, the program halts, or the budget expires.
    fn run_translated(
        &mut self,
        mem: &mut GuestMem,
        ev: &mut EventBuffer<'_>,
        budget: u64,
    ) -> Result<u64, DecodeError> {
        if !self.resume_translated {
            self.em.transition(ev); // context restore, TOL -> app
        }
        self.resume_translated = false;
        let mut executed = 0u64;
        let mut bid = self.cc.lookup(self.guest_pc).expect("caller checked lookup");

        loop {
            // Dispatch guard: every hop (entry, chain link, IBTC hit,
            // speculation, redirect) lands here before executing, so a
            // handle gone stale since it was issued — or a translation
            // invalidated by a guest write to its code pages — returns
            // control to the dispatcher instead of running dead code.
            if self.cc.get(bid).is_none() {
                self.counters.tol_entries += 1;
                self.em.transition(ev);
                return Ok(executed);
            }
            if self.cc.smc_stale(bid, mem) {
                if let Some(e) = self.cc.evict_block(bid, EvictCause::Smc) {
                    self.note_evictions(&[e], ev);
                }
                self.counters.tol_entries += 1;
                self.em.transition(ev);
                return Ok(executed);
            }

            let (exit, exit_idx, guest_n, cond_taken) = self.exec_block(bid, mem, ev);
            executed += guest_n;
            self.counters.guest_insts += guest_n;

            // Per-execution bookkeeping of BBM blocks: instrumentation
            // cost, execution counting, edge profiling.
            let (kind, entry, host_base, exec_count, promoted) = {
                let b = self.cc.block_mut(bid).expect("guarded live at dispatch");
                b.exec_count += 1;
                (b.kind, b.guest_entry, b.host_base, b.exec_count, b.promoted)
            };
            let mode = if kind == BlockKind::Bb { StaticMode::Bbm } else { StaticMode::Sbm };
            self.prof.count_dynamic(mode, guest_n);
            if kind == BlockKind::Bb {
                self.em.bbm_instrumentation(ev, host_base + 4 * exit_idx as u64, entry);
                if let Some(taken) = cond_taken {
                    self.prof.record_edge(entry, taken);
                }
                if !promoted {
                    self.maybe_enqueue_sb(entry, exec_count, mem);
                }
            }

            // Decide where control goes next (possibly through the
            // software layer), before any promotion can invalidate ids.
            let mut next: Option<BlockId> = match exit {
                Exit::Halt => {
                    self.halted = true;
                    self.em.transition(ev);
                    return Ok(executed);
                }
                Exit::Direct { guest_target, link } => {
                    self.guest_pc = guest_target;
                    // Eager unchaining keeps links live; the filter is a
                    // defensive backstop (a stale link re-dispatches).
                    if let Some(to) = link.filter(|&to| self.cc.get(to).is_some()) {
                        Some(to)
                    } else if let Some(to) = self.cc.lookup(guest_target) {
                        // One trip into the layer either way: to patch
                        // the exit (chaining) or just to re-dispatch.
                        self.counters.tol_entries += 1;
                        self.em.transition(ev);
                        if self.cfg.chaining && self.cc.chain(bid, exit_idx, to).is_ok() {
                            let site = host_base + 4 * exit_idx as u64;
                            self.em.chain(ev, site);
                            ev.push(HostEvent::Chained { site });
                        } else {
                            self.em.dispatch(ev, mode);
                            self.em.map_lookup(ev, guest_target, true);
                        }
                        self.em.transition(ev);
                        Some(to)
                    } else {
                        // Unknown target: back to the dispatcher.
                        self.counters.tol_entries += 1;
                        self.em.transition(ev);
                        return Ok(executed);
                    }
                }
                Exit::Indirect { reg } => {
                    debug_assert_eq!(reg, EXIT_TARGET_REG);
                    let target = self.host.reg(reg);
                    self.guest_pc = target;
                    self.counters.indirect_branches += 1;
                    let site_pc = host_base + 4 * exit_idx as u64;
                    // Optional speculative resolution (Sec. III-E): the
                    // exit inlines a compare against its last observed
                    // target and jumps straight to the cached translation
                    // on a match, skipping even the IBTC probe.
                    let spec_key = (bid, exit_idx as u32);
                    let mut speculated = None;
                    if self.cfg.speculate_indirect {
                        if let Some(&(t, to)) = self.spec_targets.get(&spec_key) {
                            let hit = t == target;
                            // Entries are purged on eviction, so `to` is
                            // live; the fallback is defensive only.
                            let to_base = self.cc.get(to).map_or(TOL_CODE_BASE, |b| b.host_base);
                            self.em.spec_check(ev, site_pc, hit, to_base);
                            if hit {
                                self.counters.spec_hits += 1;
                                speculated = Some(to);
                            } else {
                                self.counters.spec_misses += 1;
                            }
                        }
                    }
                    if let Some(to) = speculated {
                        Some(to)
                    } else {
                        let slot = self.ibtc.slot(target);
                        let resolved = match self.ibtc.lookup(target) {
                            Some(to) => {
                                // Eager invalidation keeps IBTC entries
                                // live; defensive fallback as above.
                                let to_base =
                                    self.cc.get(to).map_or(TOL_CODE_BASE, |b| b.host_base);
                                ev.push(HostEvent::IbtcResolve { target, hit: true });
                                self.em.ibtc_probe_inline(ev, site_pc, slot, true, to_base);
                                Some(to)
                            }
                            None => {
                                ev.push(HostEvent::IbtcResolve { target, hit: false });
                                self.em.ibtc_probe_inline(ev, site_pc, slot, false, 0);
                                self.counters.tol_entries += 1;
                                self.em.transition(ev);
                                let found = self.cc.lookup(target);
                                self.em.map_lookup(ev, target, found.is_some());
                                match found {
                                    Some(to) => {
                                        self.ibtc.update(target, to);
                                        self.em.ibtc_update(ev, slot);
                                        self.em.transition(ev);
                                        Some(to)
                                    }
                                    None => return Ok(executed),
                                }
                            }
                        };
                        // Remember this site's target for next time.
                        if self.cfg.speculate_indirect {
                            if let Some(to) = resolved {
                                self.spec_targets.insert(spec_key, (target, to));
                            }
                        }
                        resolved
                    }
                }
            };

            // SBM promotion of the block just executed (Fig. 3, right
            // path): install the superblock and patch the old entry.
            if kind == BlockKind::Bb
                && exec_count >= self.cfg.bb_sb_threshold as u64
                && !promoted
                // Blocks already swallowed into an existing superblock
                // (reached through its side exits) are not re-optimized
                // at the normal threshold — that would spawn an avalanche
                // of overlapping superblocks. But a covered block that
                // *keeps* being entered at its own address (a loop head
                // reached by a back edge, while the covering superblock
                // was rooted at the function entry) earns its own
                // superblock at 4x the threshold.
                && (self.prof.static_mode(entry) != Some(StaticMode::Sbm)
                    || exec_count >= 4 * self.cfg.bb_sb_threshold as u64)
            {
                self.cc.block_mut(bid).expect("guarded live at dispatch").promoted = true;
                self.counters.tol_entries += 1;
                self.em.transition(ev);
                match self.install_sb(entry, mem, ev)? {
                    Some((sb, true)) => {
                        // Every id (including `next` and chain links) is
                        // stale; re-enter through the dispatcher.
                        self.em.transition(ev);
                        let _ = sb;
                        next = self.cc.lookup(self.guest_pc);
                        if next.is_none() {
                            return Ok(executed);
                        }
                    }
                    Some((sb, false)) => {
                        // Under fifo the same-entry install evicted the
                        // BBM block already (bid is stale and `next` may
                        // be too — the dispatch guard re-routes); under
                        // flush it stays as dead code behind a redirect.
                        if let Some(b) = self.cc.get_mut(bid) {
                            b.redirect = Some(sb);
                        }
                        self.em.transition(ev);
                    }
                    None => {
                        // Superblock larger than the cache: discarded.
                        // The (promoted) BBM block just keeps running.
                        self.em.transition(ev);
                    }
                }
            }

            bid = self.resolve_redirects(next.expect("next block decided"), ev);

            if executed >= budget {
                // Budget pause (simulation artifact): no transition cost.
                self.resume_translated = true;
                return Ok(executed);
            }
        }
    }

    /// Executes one translated block functionally, emitting its dynamic
    /// host instructions. Returns the exit, the host index of the exit
    /// instruction, guest instructions retired, and — when the block ends
    /// in a conditional branch — whether it was taken.
    ///
    /// Dispatches to the template fast path or to the straight
    /// re-derivation oracle per [`TolConfig::retire_templates`]; both
    /// produce bit-identical retirement streams (asserted by the
    /// template-equivalence tests).
    fn exec_block(
        &mut self,
        bid: BlockId,
        mem: &mut GuestMem,
        ev: &mut EventBuffer<'_>,
    ) -> (Exit, usize, u64, Option<bool>) {
        if self.cfg.retire_templates {
            self.exec_block_templates(bid, mem, ev)
        } else {
            self.exec_block_rederive(bid, mem, ev)
        }
    }

    /// Template fast path: execute, copy the prebuilt record, patch only
    /// the dynamic fields, retire. No per-retire metadata derivation and
    /// no match over [`HInst`].
    fn exec_block_templates(
        &mut self,
        bid: BlockId,
        mem: &mut GuestMem,
        ev: &mut EventBuffer<'_>,
    ) -> (Exit, usize, u64, Option<bool>) {
        let block = self.cc.block(bid).expect("guarded live at dispatch");
        let mut idx = 0usize;
        let mut app_insts = 0u64;
        loop {
            let inst = &block.insts[idx];
            let tpl = &block.templates[idx];
            let mut d = tpl.inst;

            // The effective address must be read before execution: the
            // instruction may overwrite its own base register.
            if let RetireDyn::Mem { base, off } = tpl.dyn_kind {
                let addr = guest_to_host(self.host.reg(base).wrapping_add(off as u32));
                if let Some(m) = d.mem.as_mut() {
                    m.addr = addr;
                }
            }

            let outcome = exec_inst(&mut self.host, inst, mem);

            match tpl.dyn_kind {
                RetireDyn::CondBranch => {
                    if let Some(b) = d.branch.as_mut() {
                        b.2 = matches!(outcome, Outcome::Taken(_));
                    }
                }
                RetireDyn::DirectExit => {
                    if let Outcome::Exited(Exit::Direct { link, .. }) = outcome {
                        // Chained exits jump block-to-block; unchained
                        // ones jump into the dispatcher. The link is
                        // patched after install (chaining) and unpatched
                        // on eviction, so it must be resolved here, not
                        // baked into the template — and a stale handle
                        // falls back to the software-layer exit.
                        let target = link
                            .and_then(|to| self.cc.get(to))
                            .map_or(TOL_CODE_BASE, |b| b.host_base);
                        d = d.with_branch(BranchKind::UncondDirect, target, true);
                    }
                }
                RetireDyn::Fixed | RetireDyn::Mem { .. } => {}
            }
            app_insts += 1;
            ev.retire(d);

            match outcome {
                Outcome::Next => idx += 1,
                Outcome::Taken(t) => idx = t as usize,
                Outcome::Exited(e) => {
                    let (guest_n, cond_taken) = exit_info(block, idx);
                    self.em.emitted[0] += app_insts; // AppCode counter
                    return (e, idx, guest_n, cond_taken);
                }
            }
        }
    }

    /// The re-derivation oracle: builds every retirement record from the
    /// instruction's own metadata, exactly as before templates existed.
    /// Kept reachable (`retire_templates: false`) so tests and benches
    /// can prove the fast path emits the same stream.
    fn exec_block_rederive(
        &mut self,
        bid: BlockId,
        mem: &mut GuestMem,
        ev: &mut EventBuffer<'_>,
    ) -> (Exit, usize, u64, Option<bool>) {
        let block = self.cc.block(bid).expect("guarded live at dispatch");
        let host_base = block.host_base;
        let mut idx = 0usize;
        let mut app_insts = 0u64;
        loop {
            let inst = &block.insts[idx];
            let pc = host_base + 4 * idx as u64;

            // Pre-compute the memory event (operand registers may change).
            let mem_event = match *inst {
                HInst::Prefetch { base, off } => {
                    Some((guest_to_host(self.host.reg(base).wrapping_add(off as u32)), 64, false))
                }
                HInst::Ld { base, off, width, .. } => Some((
                    guest_to_host(self.host.reg(base).wrapping_add(off as u32)),
                    width.bytes(),
                    false,
                )),
                HInst::St { base, off, width, .. } => Some((
                    guest_to_host(self.host.reg(base).wrapping_add(off as u32)),
                    width.bytes(),
                    true,
                )),
                HInst::FLd { base, off, .. } => {
                    Some((guest_to_host(self.host.reg(base).wrapping_add(off as u32)), 8, false))
                }
                HInst::FSt { base, off, .. } => {
                    Some((guest_to_host(self.host.reg(base).wrapping_add(off as u32)), 8, true))
                }
                _ => None,
            };

            let outcome = exec_inst(&mut self.host, inst, mem);

            // Build the DynInst record.
            let mut d = DynInst::plain(pc, inst.class(), darco_host::Component::AppCode);
            if let Some((addr, size, is_store)) = mem_event {
                if matches!(inst, HInst::Prefetch { .. }) {
                    d = d.with_prefetch(addr);
                } else {
                    d = d.with_mem(addr, size, is_store);
                }
            }
            if let Some(r) = inst.dst() {
                d.dst = int_reg(r.0);
            } else if let Some(f) = inst.fdst() {
                d.dst = fp_reg(f.0);
            }
            let mut srcs = [NO_REG; 2];
            let mut si = 0;
            for s in inst.srcs().into_iter().flatten() {
                if si < 2 {
                    srcs[si] = int_reg(s.0);
                    si += 1;
                }
            }
            for s in inst.fsrcs().into_iter().flatten() {
                if si < 2 {
                    srcs[si] = fp_reg(s.0);
                    si += 1;
                }
            }
            d.srcs = srcs;
            d.recompute_ops();
            match (*inst, outcome) {
                (HInst::Br { target, .. }, out) | (HInst::BrFlags { target, .. }, out) => {
                    let taken = matches!(out, Outcome::Taken(_));
                    d = d.with_branch(BranchKind::CondDirect, host_base + 4 * target as u64, taken);
                }
                (HInst::Jump { target }, _) => {
                    d = d.with_branch(
                        BranchKind::UncondDirect,
                        host_base + 4 * target as u64,
                        true,
                    );
                }
                (HInst::Exit(Exit::Direct { link, .. }), _) => {
                    // Chained exits jump block-to-block; unchained ones
                    // (and stale links) jump into the dispatcher.
                    let t =
                        link.and_then(|to| self.cc.get(to)).map_or(TOL_CODE_BASE, |b| b.host_base);
                    d = d.with_branch(BranchKind::UncondDirect, t, true);
                }
                _ => {}
            }
            app_insts += 1;
            ev.retire(d);

            match outcome {
                Outcome::Next => idx += 1,
                Outcome::Taken(t) => idx = t as usize,
                Outcome::Exited(e) => {
                    let (guest_n, cond_taken) = exit_info(block, idx);
                    self.em.emitted[0] += app_insts; // AppCode counter
                    return (e, idx, guest_n, cond_taken);
                }
            }
        }
    }
}

/// Guest instructions retired and — for a BBM block whose last guest
/// instruction is a conditional branch — the edge direction, given the
/// host index of the exit taken: leaving via a stub means the branch was
/// taken, via fall-through means not taken.
fn exit_info(block: &TranslatedBlock, idx: usize) -> (u64, Option<bool>) {
    let body_len = block.body_len as usize;
    let guest_n = if idx == body_len {
        block.guest_len as u64
    } else {
        block.stub_guest_counts[idx - body_len - 1] as u64
    };
    let cond_taken = if block.kind == BlockKind::Bb && !block.stub_guest_counts.is_empty() {
        Some(idx != body_len)
    } else {
        None
    };
    (guest_n, cond_taken)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codecache::CachePolicy;
    use darco_guest::asm::Asm;
    use darco_guest::{AluOp, Cond, Inst};

    /// A counting loop plus a function call per iteration.
    fn loop_program(iters: i32) -> (GuestMem, u32) {
        let mut a = Asm::new(0x1000);
        let top = a.fresh_label();
        let func = a.fresh_label();
        let start = a.fresh_label();
        a.push_jmp(start);
        a.bind(func);
        a.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Ebx, imm: 3 });
        a.push(Inst::Ret);
        a.bind(start);
        a.push(Inst::MovRI { dst: Gpr::Eax, imm: 0 });
        a.push(Inst::MovRI { dst: Gpr::Ebx, imm: 0 });
        a.bind(top);
        a.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Eax, imm: 1 });
        a.push_call(func);
        a.push(Inst::CmpRI { a: Gpr::Eax, imm: iters });
        a.push_jcc(Cond::Ne, top);
        a.push(Inst::Halt);
        let p = a.assemble();
        let mut mem = GuestMem::new();
        mem.write_bytes(p.base, &p.bytes);
        (mem, p.base)
    }

    fn run_tol(mem: &mut GuestMem, entry: u32, cfg: TolConfig) -> (Tol, u64) {
        let mut tol = Tol::new(cfg, entry);
        let mut cpu = CpuState::at(entry);
        cpu.set_gpr(Gpr::Esp, 0x10_0000);
        tol.set_state(&cpu);
        let mut count = 0u64;
        let mut sink = darco_host::RetireSink(|_: &DynInst| count += 1);
        tol.run(mem, &mut sink, 50_000_000).unwrap();
        (tol, count)
    }

    /// Runs the same program on the authoritative emulator.
    fn run_reference(mem: &mut GuestMem, entry: u32) -> (CpuState, u64) {
        let mut cpu = CpuState::at(entry);
        cpu.set_gpr(Gpr::Esp, 0x10_0000);
        let mut n = 0u64;
        while !cpu.halted {
            darco_guest::exec::step(&mut cpu, mem).unwrap();
            n += 1;
        }
        (cpu, n)
    }

    #[test]
    fn emulation_is_architecturally_exact() {
        let (mem0, entry) = loop_program(2_000);
        let mut mem_ref = mem0.clone();
        let (ref_cpu, ref_n) = run_reference(&mut mem_ref, entry);

        let mut mem = mem0.clone();
        let (tol, _) = run_tol(&mut mem, entry, TolConfig::default());
        let emu = tol.emulated_state();
        assert!(ref_cpu.arch_eq(&emu), "state diverged:\nref: {ref_cpu}\nemu: {emu}");
        assert_eq!(tol.counters().guest_insts, ref_n);
    }

    #[test]
    fn modes_progress_im_bbm_sbm() {
        let (mut mem, entry) = loop_program(30_000);
        let (tol, _) = run_tol(&mut mem, entry, TolConfig::default());
        let s = tol.summary();
        assert!(s.dyn_dist[0] > 0, "some interpretation");
        assert!(s.dyn_dist[1] > 0, "some BBM execution");
        assert!(s.dyn_dist[2] > 0, "SBM dominates eventually: {:?}", s.dyn_dist);
        assert!(s.counters.sbm_invocations >= 1);
        // With a 10K threshold and 30K iterations, the overwhelming share
        // of dynamic instructions comes from SBM (paper Fig. 5b shape).
        let total: u64 = s.dyn_dist.iter().sum();
        assert!(s.dyn_dist[2] as f64 / total as f64 > 0.5, "SBM share too low: {:?}", s.dyn_dist);
    }

    #[test]
    fn low_threshold_skips_interpretation_quickly() {
        let (mut mem, entry) = loop_program(1_000);
        let cfg = TolConfig { im_bb_threshold: 1, ..TolConfig::default() };
        let (tol, _) = run_tol(&mut mem, entry, cfg);
        let s = tol.summary();
        assert!(s.dyn_dist[0] < 20, "threshold 1 interprets each target once");
    }

    #[test]
    fn returns_go_through_the_ibtc() {
        let (mut mem, entry) = loop_program(5_000);
        let (tol, _) = run_tol(&mut mem, entry, TolConfig::default());
        let s = tol.summary();
        assert!(s.counters.indirect_branches >= 4_000, "one return per iteration");
        assert!(s.ibtc_hits > s.ibtc_misses, "stable return target must hit");
    }

    #[test]
    fn chaining_collapses_tol_entries() {
        let (mut mem_a, entry) = loop_program(20_000);
        let (with_chain, _) = run_tol(&mut mem_a, entry, TolConfig::default());
        let (mut mem_b, _) = loop_program(20_000);
        let cfg = TolConfig { chaining: false, ..TolConfig::default() };
        let (without, _) = run_tol(&mut mem_b, entry, cfg);
        assert!(
            with_chain.counters().tol_entries * 10 < without.counters().tol_entries,
            "chaining must collapse dispatcher entries: {} vs {}",
            with_chain.counters().tol_entries,
            without.counters().tol_entries
        );
    }

    #[test]
    fn step_budget_pauses_and_resumes_consistently() {
        let (mem0, entry) = loop_program(3_000);
        let mut mem_ref = mem0.clone();
        let (ref_cpu, _) = run_reference(&mut mem_ref, entry);

        let mut mem = mem0.clone();
        let mut tol = Tol::new(TolConfig::default(), entry);
        let mut cpu = CpuState::at(entry);
        cpu.set_gpr(Gpr::Esp, 0x10_0000);
        tol.set_state(&cpu);
        let mut sink = darco_host::NullSink;
        // Tiny budgets force many pauses inside translated execution.
        while !tol.is_done() {
            tol.step(&mut mem, &mut sink, 7).unwrap();
        }
        assert!(ref_cpu.arch_eq(&tol.emulated_state()));
    }

    #[test]
    fn speculative_indirect_resolution_is_exact_and_hits() {
        let (mem0, entry) = loop_program(5_000);
        let mut mem_ref = mem0.clone();
        let (ref_cpu, _) = run_reference(&mut mem_ref, entry);

        let mut mem = mem0.clone();
        let cfg = TolConfig { speculate_indirect: true, ..TolConfig::default() };
        let (tol, _) = run_tol(&mut mem, entry, cfg);
        assert!(ref_cpu.arch_eq(&tol.emulated_state()), "speculation must be transparent");
        let c = tol.counters();
        assert!(c.spec_hits > 0, "the stable return target must speculate successfully");
        assert!(
            c.spec_hits > 10 * c.spec_misses,
            "single-target site: hits {} misses {}",
            c.spec_hits,
            c.spec_misses
        );
    }

    #[test]
    fn software_prefetching_is_transparent_and_emits_prefetches() {
        // A memory-streaming loop: load, accumulate, advance, repeat.
        let mut a = Asm::new(0x1000);
        let top = a.fresh_label();
        a.push(Inst::MovRI { dst: Gpr::Esi, imm: 0x4000 });
        a.push(Inst::MovRI { dst: Gpr::Eax, imm: 0 });
        a.bind(top);
        a.push(Inst::AluRM {
            op: AluOp::Add,
            dst: Gpr::Ebx,
            addr: darco_guest::MemRef::base(Gpr::Esi, 0),
        });
        a.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Esi, imm: 4 });
        a.push(Inst::AluRI { op: AluOp::And, dst: Gpr::Esi, imm: 0x7FFC });
        a.push(Inst::MovRR { dst: Gpr::Edx, src: Gpr::Ebx });
        a.push(Inst::Shift { op: darco_guest::ShiftOp::Sar, dst: Gpr::Edx, amount: 3 });
        a.push(Inst::AluRR { op: AluOp::Xor, dst: Gpr::Ecx, src: Gpr::Edx });
        a.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Eax, imm: 1 });
        a.push(Inst::CmpRI { a: Gpr::Eax, imm: 50_000 });
        a.push_jcc(Cond::Ne, top);
        a.push(Inst::Halt);
        let p = a.assemble();
        let mut mem0 = GuestMem::new();
        mem0.write_bytes(p.base, &p.bytes);
        let entry = p.base;

        let mut mem_ref = mem0.clone();
        let (ref_cpu, _) = run_reference(&mut mem_ref, entry);

        let mut mem = mem0.clone();
        let mut tol = Tol::new(TolConfig { opt_sw_prefetch: true, ..TolConfig::default() }, entry);
        let mut cpu = CpuState::at(entry);
        cpu.set_gpr(Gpr::Esp, 0x10_0000);
        tol.set_state(&cpu);
        let mut prefetches = 0u64;
        let mut sink = darco_host::RetireSink(|d: &DynInst| {
            if d.mem.is_some_and(|m| m.is_prefetch) {
                prefetches += 1;
            }
        });
        tol.run(&mut mem, &mut sink, 50_000_000).unwrap();
        assert!(ref_cpu.arch_eq(&tol.emulated_state()), "prefetching must be transparent");
        assert!(prefetches > 0, "superblocks with loads must carry prefetches");
    }

    #[test]
    fn scattered_placement_spreads_host_bases() {
        let (mut mem, entry) = loop_program(2_000);
        let cfg = TolConfig { codecache_scattered: true, ..TolConfig::default() };
        let (tol, _) = run_tol(&mut mem, entry, cfg);
        // Every resident block starts page-aligned.
        assert!(tol.cc.resident() > 0);
        for (_, b) in tol.cc.blocks() {
            assert_eq!(b.host_base & 0xFFF, 0);
        }
    }

    #[test]
    fn fifo_policy_is_architecturally_exact_under_pressure() {
        let (mem0, entry) = loop_program(30_000);
        let mut mem_ref = mem0.clone();
        let (ref_cpu, ref_n) = run_reference(&mut mem_ref, entry);

        // A cache smaller than the combined working set (the program
        // translates to ~25 host instructions across three blocks), so
        // resident translations keep capacity-evicting each other and
        // the hot ones are re-translated over and over.
        let cfg = TolConfig {
            code_cache_capacity: 20,
            cache_policy: CachePolicy::Fifo,
            bb_sb_threshold: 50,
            ..TolConfig::default()
        };
        let mut mem = mem0.clone();
        let (tol, _) = run_tol(&mut mem, entry, cfg);
        let emu = tol.emulated_state();
        assert!(ref_cpu.arch_eq(&emu), "state diverged:\nref: {ref_cpu}\nemu: {emu}");
        assert_eq!(tol.counters().guest_insts, ref_n);
        let s = tol.summary();
        assert_eq!(s.flushes, 0, "fifo never whole-flushes");
        assert!(s.cache.evictions > 0, "pressure must evict");
        assert!(s.cache.retranslations > 0, "evicted hot code re-translates");
        assert!(s.cache.used <= 20, "capacity bound holds");
    }

    #[test]
    fn oversized_translations_degrade_to_interpretation() {
        // A capacity smaller than any translated block: every install is
        // rejected and the whole program interprets — correctly.
        let (mem0, entry) = loop_program(500);
        let mut mem_ref = mem0.clone();
        let (ref_cpu, _) = run_reference(&mut mem_ref, entry);
        for policy in [CachePolicy::Flush, CachePolicy::Fifo] {
            let cfg =
                TolConfig { code_cache_capacity: 2, cache_policy: policy, ..TolConfig::default() };
            let mut mem = mem0.clone();
            let (tol, _) = run_tol(&mut mem, entry, cfg);
            assert!(ref_cpu.arch_eq(&tol.emulated_state()));
            let s = tol.summary();
            assert_eq!(s.installed, 0, "nothing fits a 2-inst cache");
            assert_eq!(s.dyn_dist[1] + s.dyn_dist[2], 0, "interpreter-only");
        }
    }

    #[test]
    fn smc_write_forces_eviction_and_retranslation() {
        // Overwrite the `add eax, 1` immediate (to 2) in the hot loop
        // after it has been translated, via a store the program itself
        // executes. Layout (short-form AluRI is 3 bytes):
        //   0x1000: mov ecx, imm(site+2)   ; patch address
        //   ...    store byte 2 at [ecx]   ; rewrites the immediate
        // Here we drive the engine directly instead: run until the loop
        // is translated, patch guest memory, keep running.
        let (mut mem, entry) = loop_program(5_000);
        let cfg = TolConfig { cache_policy: CachePolicy::Fifo, ..TolConfig::default() };
        let mut tol = Tol::new(cfg, entry);
        let mut cpu = CpuState::at(entry);
        cpu.set_gpr(Gpr::Esp, 0x10_0000);
        tol.set_state(&cpu);
        let mut sink = darco_host::NullSink;
        // Run enough steps that the loop body is translated.
        let mut guest = 0u64;
        while guest < 2_000 && !tol.is_done() {
            guest += tol.step(&mut mem, &mut sink, 256).unwrap().guest_insts;
        }
        assert!(tol.cc.resident() > 0, "loop must be translated by now");
        // A write to a translated code page (same byte value — even an
        // idempotent write must invalidate, as the stamp is a page
        // write-generation, not a content hash).
        let byte = mem.read_u8(entry);
        mem.write_u8(entry, byte);
        while !tol.is_done() {
            tol.step(&mut mem, &mut sink, 4096).unwrap();
        }
        let s = tol.summary();
        assert!(s.cache.smc_evictions > 0, "code-page write must evict");
        assert!(s.cache.retranslations > 0, "hot code must come back");
        // The run still retires exactly the reference instruction count.
        let (mut mem_ref, _) = loop_program(5_000);
        let (ref_cpu, ref_n) = run_reference(&mut mem_ref, entry);
        assert!(ref_cpu.arch_eq(&tol.emulated_state()));
        assert_eq!(tol.counters().guest_insts, ref_n);
    }

    #[test]
    fn overhead_share_is_plausible() {
        let (mut mem, entry) = loop_program(100_000);
        let (tol, total_host) = run_tol(&mut mem, entry, TolConfig::default());
        let s = tol.summary();
        let app = s.emitted[0];
        let tol_side: u64 = s.emitted[1..].iter().sum();
        assert_eq!(app + tol_side, total_host);
        let overhead = tol_side as f64 / total_host as f64;
        // A hot loop amortizes overhead to a small share.
        assert!(overhead < 0.30, "overhead share {overhead}");
    }
}
