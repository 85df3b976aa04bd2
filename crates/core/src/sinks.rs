//! Event-stream consumers of the controller.
//!
//! The software layer emits typed [`HostEvent`]s in retire-order batches
//! (see `darco_host::events`). The controller composes its observers —
//! timing pipelines, the co-simulation checker, trace statistics — as
//! [`HostEventSink`]s in a [`SinkSet`], so each consumer sees the exact
//! same ordered stream regardless of how it is scheduled. That property
//! is what lets the timing simulator run *overlapped* with emulation
//! ([`TimingBackend::Threaded`]) or *fanned out* one worker per pipeline
//! ([`TimingBackend::Fanout`]) with results bit-identical to the inline
//! mode: the batches crossing the channels are the very batches the
//! inline sink would have consumed, in the same order.
//!
//! Batches cross threads as `Arc<[HostEvent]>`: the emulation thread
//! hands its staging buffer over once (see `EventBuffer`'s shared drain
//! path), and fanning out to N workers is N reference-count bumps, not
//! N copies.

use crate::checker::StateChecker;
use crate::system::{SystemConfig, Window};
use darco_host::{HostEvent, HostEventSink, Owner, TraceStatsSink};
use darco_timing::{MemoStats, Pipeline, Stats};
use serde::{Deserialize, Serialize};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Pipeline snapshot at the last timeline-window boundary; deltas
/// against it form the next [`Window`].
#[derive(Debug, Clone, Copy, Default)]
struct WindowMark {
    guest_insts: u64,
    cycles: u64,
    app_insts: u64,
    tol_insts: u64,
}

/// Which slice of the retire stream a [`PipelineSink`] models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PipelineRole {
    /// Every instruction; also owns the timeline sampling.
    Shared,
    /// Application instructions only (Fig. 8's app-alone counterfactual).
    AppOnly,
    /// Software-layer instructions only.
    TolOnly,
}

impl PipelineRole {
    fn thread_name(self) -> &'static str {
        match self {
            PipelineRole::Shared => "darco-timing-shared",
            PipelineRole::AppOnly => "darco-timing-app",
            PipelineRole::TolOnly => "darco-timing-tol",
        }
    }
}

/// One timing pipeline plus everything it needs to consume the event
/// stream on its own: the role filter and (for the shared pipeline) the
/// timeline sampling state. Being a self-contained [`HostEventSink`] is
/// what lets each pipeline migrate to its own worker under
/// [`TimingBackend::Fanout`].
#[derive(Debug)]
struct PipelineSink {
    role: PipelineRole,
    pipeline: Pipeline,
    timeline: Vec<Window>,
    last_mark: WindowMark,
}

impl PipelineSink {
    fn new(role: PipelineRole, cfg: &SystemConfig) -> PipelineSink {
        PipelineSink {
            role,
            pipeline: Pipeline::new(cfg.timing.clone()),
            timeline: Vec::new(),
            last_mark: WindowMark::default(),
        }
    }

    /// Closes the current timeline window at `total_guest` retired guest
    /// instructions, from the pipeline's incremental counters — no
    /// statistics clone per window.
    fn sample_window(&mut self, total_guest: u64) {
        let cycles = self.pipeline.cycles_so_far();
        let s = self.pipeline.stats();
        let app = s.owner_insts(Owner::App);
        let tol = s.owner_insts(Owner::Tol);
        let m = self.last_mark;
        self.timeline.push(Window {
            guest_insts: total_guest,
            cycles: cycles - m.cycles,
            app_insts: app - m.app_insts,
            tol_insts: tol - m.tol_insts,
        });
        self.last_mark =
            WindowMark { guest_insts: total_guest, cycles, app_insts: app, tol_insts: tol };
    }
}

impl HostEventSink for PipelineSink {
    fn consume(&mut self, batch: &[HostEvent]) {
        for e in batch {
            match e {
                HostEvent::Retire(d) => {
                    let mine = match self.role {
                        PipelineRole::Shared => true,
                        PipelineRole::AppOnly => d.owner() == Owner::App,
                        PipelineRole::TolOnly => d.owner() == Owner::Tol,
                    };
                    if mine {
                        self.pipeline.retire(d);
                    }
                }
                HostEvent::WindowMark { guest_insts }
                    if self.role == PipelineRole::Shared
                        && *guest_insts > self.last_mark.guest_insts =>
                {
                    self.sample_window(*guest_insts);
                }
                _ => {}
            }
        }
    }
}

/// Feeds retired instructions to the timing pipelines and samples
/// timeline windows at [`HostEvent::WindowMark`] boundaries.
///
/// Owns the shared pipeline plus the optional application-only and
/// TOL-only pipelines (the multi-pipeline methodology of Figs. 8–11) as
/// independently schedulable `PipelineSink` units: consumed here they
/// run in one pass, handed to [`FanoutTiming`] they each get a worker.
#[derive(Debug)]
pub struct TimingSink {
    shared: PipelineSink,
    app_only: Option<PipelineSink>,
    tol_only: Option<PipelineSink>,
}

impl TimingSink {
    /// Builds the pipeline set the configuration asks for.
    pub fn new(cfg: &SystemConfig) -> TimingSink {
        TimingSink {
            shared: PipelineSink::new(PipelineRole::Shared, cfg),
            app_only: cfg.app_only_pipeline.then(|| PipelineSink::new(PipelineRole::AppOnly, cfg)),
            tol_only: cfg.tol_only_pipeline.then(|| PipelineSink::new(PipelineRole::TolOnly, cfg)),
        }
    }

    /// Dissolves the sink into report material: shared stats, optional
    /// filtered stats, and the sampled timeline.
    pub fn into_parts(self) -> (Stats, Option<Stats>, Option<Stats>, Vec<Window>) {
        (
            self.shared.pipeline.snapshot(),
            self.app_only.as_ref().map(|u| u.pipeline.snapshot()),
            self.tol_only.as_ref().map(|u| u.pipeline.snapshot()),
            self.shared.timeline,
        )
    }

    /// Always-zero counters of the removed block-timing memo, kept only
    /// because the repository benchmark (`perfbench/`) reads them; see
    /// [`MemoStats`].
    pub fn memo_stats(&self) -> MemoStats {
        MemoStats::default()
    }
}

impl HostEventSink for TimingSink {
    fn consume(&mut self, batch: &[HostEvent]) {
        // Single pass over the batch, routing each retirement to the
        // pipelines that want it — cheaper inline than one filtered pass
        // per unit.
        for e in batch {
            match e {
                HostEvent::Retire(d) => {
                    self.shared.pipeline.retire(d);
                    match d.owner() {
                        Owner::App => {
                            if let Some(u) = &mut self.app_only {
                                u.pipeline.retire(d);
                            }
                        }
                        Owner::Tol => {
                            if let Some(u) = &mut self.tol_only {
                                u.pipeline.retire(d);
                            }
                        }
                    }
                }
                HostEvent::WindowMark { guest_insts }
                    if *guest_insts > self.shared.last_mark.guest_insts =>
                {
                    self.shared.sample_window(*guest_insts);
                }
                _ => {}
            }
        }
    }
}

/// Co-simulates against the authoritative emulator at every
/// [`HostEvent::StepBoundary`].
///
/// The boundary event carries the layer's emulated state and the running
/// guest-instruction total; the sink advances the authoritative side by
/// the delta since the previous boundary and compares architectural
/// state — no back-reference into the engine required.
#[derive(Debug)]
pub struct CheckerSink {
    name: String,
    checker: StateChecker,
    advanced: u64,
}

impl CheckerSink {
    /// Wraps the authoritative emulator; `name` labels panic messages.
    pub fn new(name: String, checker: StateChecker) -> CheckerSink {
        CheckerSink { name, checker, advanced: 0 }
    }

    /// Returns the authoritative emulator for end-of-run memory checks.
    pub fn into_inner(self) -> StateChecker {
        self.checker
    }
}

impl HostEventSink for CheckerSink {
    fn consume(&mut self, batch: &[HostEvent]) {
        for e in batch {
            if let HostEvent::StepBoundary { guest_insts, emulated } = e {
                let delta = guest_insts - self.advanced;
                self.checker
                    .advance(delta)
                    .unwrap_or_else(|e| panic!("{}: authoritative fault: {e}", self.name));
                self.checker
                    .check(emulated)
                    .unwrap_or_else(|e| panic!("{}: co-simulation failed: {e}", self.name));
                self.advanced = *guest_insts;
            }
        }
    }
}

/// How the timing pipelines are scheduled relative to functional
/// emulation. All three produce byte-identical reports; they differ only
/// in wall-clock overlap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TimingBackendKind {
    /// Resolve against the host at construction: [`Inline`] on a
    /// single-hardware-thread host (worker threads would only add
    /// channel overhead), [`Fanout`] otherwise.
    ///
    /// [`Inline`]: TimingBackendKind::Inline
    /// [`Fanout`]: TimingBackendKind::Fanout
    #[default]
    Auto,
    /// Timing consumes each batch on the emulation thread, as it flushes.
    Inline,
    /// All pipelines on one worker thread, overlapped with emulation.
    Threaded,
    /// One worker thread per pipeline, each fed the same shared batches.
    Fanout,
}

impl TimingBackendKind {
    /// Resolves [`TimingBackendKind::Auto`] against the host's
    /// available parallelism; concrete kinds pass through unchanged.
    pub fn resolve(self) -> TimingBackendKind {
        match self {
            TimingBackendKind::Auto => {
                if std::thread::available_parallelism().map_or(1, |n| n.get()) <= 1 {
                    TimingBackendKind::Inline
                } else {
                    TimingBackendKind::Fanout
                }
            }
            k => k,
        }
    }
}

/// How the [`TimingSink`] is scheduled relative to functional emulation.
#[derive(Debug)]
pub enum TimingBackend {
    /// Timing consumes each batch on the emulation thread, as it flushes.
    /// Boxed: the sink holds three full pipelines and would otherwise
    /// dwarf the threaded handles.
    Inline(Box<TimingSink>),
    /// Timing runs overlapped on one worker thread behind a bounded
    /// channel; the emulation thread only pays for the channel send.
    /// Identical batches in identical order make the results
    /// bit-identical to [`TimingBackend::Inline`].
    Threaded(ThreadedTiming),
    /// Each pipeline on its own worker thread, fed zero-copy by
    /// broadcasting the same `Arc<[HostEvent]>` batch to every worker.
    Fanout(FanoutTiming),
}

impl TimingBackend {
    /// Builds the backend the configuration asks for.
    pub fn new(cfg: &SystemConfig) -> TimingBackend {
        let sink = TimingSink::new(cfg);
        match cfg.timing_backend.resolve() {
            TimingBackendKind::Auto => unreachable!("resolve() returns a concrete kind"),
            TimingBackendKind::Inline => TimingBackend::Inline(Box::new(sink)),
            TimingBackendKind::Threaded => TimingBackend::Threaded(ThreadedTiming::spawn(sink)),
            TimingBackendKind::Fanout => TimingBackend::Fanout(FanoutTiming::spawn(sink)),
        }
    }

    /// Drains any in-flight work and returns the timing sink.
    ///
    /// # Panics
    ///
    /// Propagates a panic from a timing worker thread.
    pub fn finish(self) -> TimingSink {
        match self {
            TimingBackend::Inline(sink) => *sink,
            TimingBackend::Threaded(t) => t.join(),
            TimingBackend::Fanout(f) => f.join(),
        }
    }
}

impl HostEventSink for TimingBackend {
    fn consume(&mut self, batch: &[HostEvent]) {
        match self {
            TimingBackend::Inline(sink) => sink.consume(batch),
            TimingBackend::Threaded(t) => t.send(Arc::from(batch)),
            TimingBackend::Fanout(f) => f.send(Arc::from(batch)),
        }
    }

    fn wants_shared(&self) -> bool {
        !matches!(self, TimingBackend::Inline(_))
    }

    fn consume_shared(&mut self, batch: Arc<[HostEvent]>) {
        match self {
            TimingBackend::Inline(sink) => sink.consume(&batch),
            TimingBackend::Threaded(t) => t.send(batch),
            TimingBackend::Fanout(f) => f.send(batch),
        }
    }
}

/// Depth of the batch channel to each timing worker: enough to absorb
/// bursts, small enough to bound memory and keep back-pressure.
const TIMING_CHANNEL_DEPTH: usize = 8;

/// A [`TimingSink`] running on its own worker thread.
#[derive(Debug)]
pub struct ThreadedTiming {
    tx: Option<mpsc::SyncSender<Arc<[HostEvent]>>>,
    handle: Option<JoinHandle<TimingSink>>,
}

impl ThreadedTiming {
    /// Moves `sink` to a worker thread consuming batches off a bounded
    /// channel.
    pub fn spawn(mut sink: TimingSink) -> ThreadedTiming {
        let (tx, rx) = mpsc::sync_channel::<Arc<[HostEvent]>>(TIMING_CHANNEL_DEPTH);
        let handle = std::thread::Builder::new()
            .name("darco-timing".into())
            .spawn(move || {
                while let Ok(batch) = rx.recv() {
                    sink.consume(&batch);
                }
                sink
            })
            .expect("spawn timing worker");
        ThreadedTiming { tx: Some(tx), handle: Some(handle) }
    }

    fn send(&mut self, batch: Arc<[HostEvent]>) {
        let tx = self.tx.as_ref().expect("timing worker already joined");
        // A send error means the worker panicked; surface that panic
        // instead of a send error by joining.
        if tx.send(batch).is_err() {
            self.tx = None;
            let worker = self.handle.take().expect("timing worker handle");
            match worker.join() {
                Err(p) => std::panic::resume_unwind(p),
                Ok(_) => unreachable!("timing worker exited while the channel was open"),
            }
        }
    }

    fn join(mut self) -> TimingSink {
        drop(self.tx.take()); // close the channel: the worker drains and returns
        let worker = self.handle.take().expect("timing worker handle");
        match worker.join() {
            Ok(sink) => sink,
            Err(p) => std::panic::resume_unwind(p),
        }
    }
}

/// The fan-out backend: one worker thread per pipeline, each behind its
/// own bounded channel, all fed the same `Arc` batch (a send is one
/// refcount bump per worker). The slowest pipeline no longer rate-limits
/// the others, and back-pressure still bounds memory per channel.
#[derive(Debug)]
pub struct FanoutTiming {
    txs: Vec<mpsc::SyncSender<Arc<[HostEvent]>>>,
    handles: Vec<JoinHandle<PipelineSink>>,
}

impl FanoutTiming {
    /// Splits `sink` into its pipeline units and gives each a worker.
    pub fn spawn(sink: TimingSink) -> FanoutTiming {
        let TimingSink { shared, app_only, tol_only } = sink;
        let units = std::iter::once(shared).chain(app_only).chain(tol_only).collect::<Vec<_>>();
        let mut txs = Vec::with_capacity(units.len());
        let mut handles = Vec::with_capacity(units.len());
        for mut unit in units {
            let (tx, rx) = mpsc::sync_channel::<Arc<[HostEvent]>>(TIMING_CHANNEL_DEPTH);
            let handle = std::thread::Builder::new()
                .name(unit.role.thread_name().into())
                .spawn(move || {
                    while let Ok(batch) = rx.recv() {
                        unit.consume(&batch);
                    }
                    unit
                })
                .expect("spawn timing worker");
            txs.push(tx);
            handles.push(handle);
        }
        FanoutTiming { txs, handles }
    }

    fn send(&mut self, batch: Arc<[HostEvent]>) {
        let mut dead = false;
        for tx in &self.txs {
            dead |= tx.send(batch.clone()).is_err();
        }
        if dead {
            // A closed channel means that worker panicked; close the
            // rest, drain them, and surface the panic.
            self.txs.clear();
            for h in self.handles.drain(..) {
                if let Err(p) = h.join() {
                    std::panic::resume_unwind(p);
                }
            }
            unreachable!("timing worker exited while its channel was open");
        }
    }

    fn join(mut self) -> TimingSink {
        self.txs.clear(); // close every channel: workers drain and return
        let units = self
            .handles
            .drain(..)
            .map(|h| match h.join() {
                Ok(unit) => unit,
                Err(p) => std::panic::resume_unwind(p),
            })
            .collect::<Vec<_>>();
        let mut shared = None;
        let mut app_only = None;
        let mut tol_only = None;
        for u in units {
            match u.role {
                PipelineRole::Shared => shared = Some(u),
                PipelineRole::AppOnly => app_only = Some(u),
                PipelineRole::TolOnly => tol_only = Some(u),
            }
        }
        TimingSink { shared: shared.expect("fan-out always has a shared unit"), app_only, tol_only }
    }
}

/// The controller's full observer set, dispatching each batch to trace
/// statistics, the optional co-simulation checker, and the timing
/// backend — in that fixed order, so every consumer observes the same
/// stream prefix at any point. The checker stays inline by design: a
/// co-simulation divergence must fault at the boundary that caused it,
/// not batches later from a worker thread.
#[derive(Debug)]
pub struct SinkSet {
    /// Trace-level statistics (always on; costs one pass per batch).
    pub trace: TraceStatsSink,
    /// Co-simulation, when enabled.
    pub checker: Option<CheckerSink>,
    /// The timing pipelines, inline or overlapped.
    pub timing: TimingBackend,
}

impl HostEventSink for SinkSet {
    fn consume(&mut self, batch: &[HostEvent]) {
        self.trace.consume(batch);
        if let Some(chk) = &mut self.checker {
            chk.consume(batch);
        }
        self.timing.consume(batch);
    }

    fn wants_shared(&self) -> bool {
        // Shared (Arc) delivery pays off exactly when the timing backend
        // ships batches across threads; trace and checker borrow the
        // batch either way.
        self.timing.wants_shared()
    }

    fn consume_shared(&mut self, batch: Arc<[HostEvent]>) {
        self.trace.consume(&batch);
        if let Some(chk) = &mut self.checker {
            chk.consume(&batch);
        }
        self.timing.consume_shared(batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darco_guest::CpuState;
    use darco_host::{Component, DynInst, ExecClass};

    fn retire(pc: u64, component: Component) -> HostEvent {
        HostEvent::Retire(DynInst::plain(pc, ExecClass::SimpleInt, component))
    }

    fn test_cfg() -> SystemConfig {
        SystemConfig {
            app_only_pipeline: true,
            tol_only_pipeline: true,
            cosim: false,
            ..SystemConfig::default()
        }
    }

    #[test]
    fn timing_sink_routes_by_owner_and_samples_windows() {
        let mut sink = TimingSink::new(&test_cfg());
        sink.consume(&[
            retire(0x100, Component::AppCode),
            retire(0x104, Component::TolIm),
            retire(0x108, Component::AppCode),
            HostEvent::WindowMark { guest_insts: 10 },
            retire(0x10c, Component::TolBbm),
            HostEvent::WindowMark { guest_insts: 20 },
            // A stale mark (same total) must not produce an empty window.
            HostEvent::WindowMark { guest_insts: 20 },
        ]);
        let (shared, app, tol, timeline) = sink.into_parts();
        assert_eq!(shared.total_insts(), 4);
        assert_eq!(app.unwrap().owner_insts(Owner::App), 2);
        assert_eq!(tol.unwrap().owner_insts(Owner::Tol), 2);
        assert_eq!(timeline.len(), 2);
        assert_eq!(timeline[0].app_insts, 2);
        assert_eq!(timeline[0].tol_insts, 1);
        assert_eq!(timeline[1].tol_insts, 1);
    }

    fn mixed_batch() -> Vec<HostEvent> {
        (0..1000u64)
            .flat_map(|i| {
                let mut v = vec![retire(
                    i * 4,
                    if i % 3 == 0 { Component::TolOthers } else { Component::AppCode },
                )];
                if i % 100 == 99 {
                    v.push(HostEvent::WindowMark { guest_insts: i });
                }
                v
            })
            .collect()
    }

    fn backend_parts(
        kind: TimingBackendKind,
        chunk: usize,
    ) -> (Stats, Option<Stats>, Option<Stats>, Vec<Window>) {
        let cfg = SystemConfig { timing_backend: kind, ..test_cfg() };
        let mut backend = TimingBackend::new(&cfg);
        for c in mixed_batch().chunks(chunk) {
            backend.consume(c);
        }
        backend.finish().into_parts()
    }

    #[test]
    fn threaded_backend_matches_inline() {
        let (a, _, _, wa) = backend_parts(TimingBackendKind::Inline, 64);
        let (b, _, _, wb) = backend_parts(TimingBackendKind::Threaded, 64);
        assert_eq!(a.total_insts(), b.total_insts());
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(wa, wb);
    }

    #[test]
    fn fanout_backend_matches_inline_at_any_chunking() {
        let (a, app_a, tol_a, wa) = backend_parts(TimingBackendKind::Inline, 64);
        for chunk in [1, 7, 64, 4096] {
            let (b, app_b, tol_b, wb) = backend_parts(TimingBackendKind::Fanout, chunk);
            assert_eq!(a.total_insts(), b.total_insts(), "chunk {chunk}");
            assert_eq!(a.total_cycles, b.total_cycles, "chunk {chunk}");
            assert_eq!(app_a.as_ref().map(|s| s.total_cycles), app_b.map(|s| s.total_cycles));
            assert_eq!(tol_a.as_ref().map(|s| s.total_cycles), tol_b.map(|s| s.total_cycles));
            assert_eq!(wa, wb, "chunk {chunk}");
        }
    }

    #[test]
    fn shared_and_borrowed_delivery_agree() {
        let cfg = SystemConfig { timing_backend: TimingBackendKind::Fanout, ..test_cfg() };
        let mut borrowed = TimingBackend::new(&cfg);
        let mut shared = TimingBackend::new(&cfg);
        assert!(shared.wants_shared());
        for c in mixed_batch().chunks(128) {
            borrowed.consume(c);
            shared.consume_shared(Arc::from(c));
        }
        let (a, ..) = borrowed.finish().into_parts();
        let (b, ..) = shared.finish().into_parts();
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.total_insts(), b.total_insts());
    }

    #[test]
    fn checker_sink_advances_by_boundary_deltas() {
        use darco_guest::asm::Asm;
        use darco_guest::{exec, Gpr, GuestMem, Inst};
        let mut a = Asm::new(0x100);
        a.push(Inst::MovRI { dst: Gpr::Eax, imm: 7 });
        a.push(Inst::MovRI { dst: Gpr::Ebx, imm: 9 });
        a.push(Inst::Halt);
        let p = a.assemble();
        let mut mem = GuestMem::new();
        mem.write_bytes(p.base, &p.bytes);
        let initial = CpuState::at(p.base);

        // The "emulated" side: the same emulator stepped by hand.
        let mut emu = initial.clone();
        let mut emu_mem = mem.clone();
        let mut sink = CheckerSink::new("t".into(), StateChecker::new(initial, mem));

        exec::step(&mut emu, &mut emu_mem).unwrap();
        sink.consume(&[HostEvent::StepBoundary {
            guest_insts: 1,
            emulated: Box::new(emu.clone()),
        }]);
        exec::step(&mut emu, &mut emu_mem).unwrap();
        exec::step(&mut emu, &mut emu_mem).unwrap();
        sink.consume(&[HostEvent::StepBoundary {
            guest_insts: 3,
            emulated: Box::new(emu.clone()),
        }]);

        let chk = sink.into_inner();
        assert_eq!(chk.retired(), 3);
        assert_eq!(chk.checks(), 2);
    }

    #[test]
    #[should_panic(expected = "co-simulation failed")]
    fn checker_sink_panics_on_divergence() {
        use darco_guest::asm::Asm;
        use darco_guest::{Gpr, GuestMem, Inst};
        let mut a = Asm::new(0x100);
        a.push(Inst::MovRI { dst: Gpr::Eax, imm: 7 });
        a.push(Inst::Halt);
        let p = a.assemble();
        let mut mem = GuestMem::new();
        mem.write_bytes(p.base, &p.bytes);
        let initial = CpuState::at(p.base);
        let mut wrong = initial.clone();
        wrong.set_gpr(Gpr::Eax, 999);
        let mut sink = CheckerSink::new("t".into(), StateChecker::new(initial, mem));
        sink.consume(&[HostEvent::StepBoundary { guest_insts: 1, emulated: Box::new(wrong) }]);
    }
}
