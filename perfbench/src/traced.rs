//! The traced runner: `System::new` plus `System::run_to_completion`,
//! rebuilt call for call from the simulator crates' public parts so
//! that a span can sit around every call into a layer.
//!
//! It must run exactly the program the untraced run runs; the caller
//! checks that by comparing the serialized report digests of the two.

use crate::host;
use crate::trace::{Layer, Tracer};
use darco_core::{CheckerSink, Report, StateChecker, System, SystemConfig, TimingBackend};
use darco_host::{HostEvent, HostEventSink, TraceStatsSink};
use darco_tol::{Mode, Tol};
use darco_workloads::{generate, BenchProfile, Workload};
use std::collections::BTreeMap;
use std::sync::Arc;

/// `SinkSet` with a span around each sink's `consume` and a count of
/// the events and batches the engine delivered.
struct TracedSinks<'t> {
    trace: TraceStatsSink,
    checker: Option<CheckerSink>,
    timing: TimingBackend,
    tr: &'t mut Tracer,
    events: u64,
    batches: u64,
}

impl TracedSinks<'_> {
    fn observers(&mut self, batch: &[HostEvent]) {
        self.events += batch.len() as u64;
        self.batches += 1;
        let s = self.tr.open(Layer::TraceStats);
        self.trace.consume(batch);
        self.tr.close(s);
        if let Some(chk) = &mut self.checker {
            let s = self.tr.open(Layer::Checker);
            chk.consume(batch);
            self.tr.close(s);
        }
    }
}

impl HostEventSink for TracedSinks<'_> {
    fn consume(&mut self, batch: &[HostEvent]) {
        self.observers(batch);
        let s = self.tr.open(Layer::TimingSend);
        self.timing.consume(batch);
        self.tr.close(s);
    }

    fn wants_shared(&self) -> bool {
        self.timing.wants_shared()
    }

    fn consume_shared(&mut self, batch: Arc<[HostEvent]>) {
        self.observers(&batch);
        let s = self.tr.open(Layer::TimingSend);
        self.timing.consume_shared(batch);
        self.tr.close(s);
    }
}

/// What one traced run measured besides its spans.
pub struct Traced {
    /// The report, built exactly as `run_to_completion` builds it.
    pub report: Report,
    /// Wall seconds of the run span.
    pub run_wall_s: f64,
    /// Host events and batches the engine delivered to the sinks.
    pub events: u64,
    /// Batches delivered.
    pub batches: u64,
    /// CPU seconds of the `darco-timing-*` worker threads.
    pub timing_worker_cpu_s: f64,
    /// Threads alive just before the timing drain, by name.
    pub threads: BTreeMap<String, usize>,
    /// Σ `Tol::pass_nanos`, in seconds.
    pub passes_s: f64,
    /// `Tol::analysis_ns`, in seconds.
    pub analysis_s: f64,
    /// `Tol::pool_stats`.
    pub pool: darco_tol::TranslationPoolStats,
    /// `Tol::fast_stats`.
    pub fast: darco_guest::uops::FastStats,
    /// `TimingSink::memo_stats`.
    pub memo: darco_timing::MemoStats,
    /// Guest instructions the standalone authoritative pass retired.
    pub exec_retired: u64,
    /// Wall seconds of that pass.
    pub exec_wall_s: f64,
}

fn copy_workload(w: &Workload) -> Workload {
    Workload {
        name: w.name.clone(),
        mem: w.mem.clone(),
        entry: w.entry,
        initial: w.initial.clone(),
        static_insts: w.static_insts,
        dyn_estimate: w.dyn_estimate,
    }
}

/// Generates the workload and runs it once under the tracer.
///
/// # Panics
///
/// Panics where `run_to_completion` would (decode fault, divergence),
/// and if the standalone authoritative pass ends in another state.
pub fn run(profile: &BenchProfile, scale: f64, cfg: &SystemConfig, tr: &mut Tracer) -> Traced {
    let s = tr.open(Layer::Generate);
    let w = generate(profile, scale);
    tr.close(s);
    let spare = copy_workload(&w);
    let s = tr.open(Layer::SystemNew);
    let sys = System::new(copy_workload(&w), cfg.clone());
    tr.close(s);
    drop(sys);

    // The parts System::new builds, in the same order.
    let s = tr.open(Layer::Assemble);
    let mut tol = Tol::new(cfg.tol.clone(), w.entry);
    tol.set_state(&w.initial);
    let mut emu_mem = w.mem;
    emu_mem.set_fast_path(cfg.tol.guest_fast_path);
    let checker = cfg.cosim.then(|| {
        let mut chk = StateChecker::new(w.initial.clone(), emu_mem.clone());
        chk.set_fast_path(cfg.tol.guest_fast_path);
        chk
    });
    tr.close(s);

    let root = tr.open(Layer::Run);
    let cap = if cfg.max_guest_insts == 0 { u64::MAX } else { cfg.max_guest_insts };
    let s = tr.open(Layer::TimingNew);
    let timing = TimingBackend::new(cfg);
    tr.close(s);
    let mut sinks = TracedSinks {
        trace: TraceStatsSink::default(),
        checker: checker.map(|chk| CheckerSink::new(w.name.clone(), chk)),
        timing,
        tr: &mut *tr,
        events: 0,
        batches: 0,
    };
    let mut total = 0u64;
    let mut last_window = 0u64;
    while !tol.is_done() && total < cap {
        let budget = cfg.step_budget.min(cap - total);
        let s = sinks.tr.open(Layer::TolSbm);
        let out = tol
            .step(&mut emu_mem, &mut sinks, budget)
            .unwrap_or_else(|e| panic!("{}: guest decode fault: {e}", w.name));
        let layer = match out.mode {
            Mode::Im => Layer::TolIm,
            Mode::Bbm => Layer::TolBbm,
            Mode::Sbm => Layer::TolSbm,
        };
        sinks.tr.close_as(s, layer);
        total += out.guest_insts;
        if sinks.checker.is_some() {
            let s = sinks.tr.open(Layer::StepBoundary);
            sinks.consume(&[HostEvent::StepBoundary {
                guest_insts: total,
                emulated: Box::new(tol.emulated_state()),
            }]);
            sinks.tr.close(s);
        }
        let wg = cfg.window_guest_insts;
        if wg > 0 && total >= last_window + wg {
            sinks.consume(&[HostEvent::WindowMark { guest_insts: total }]);
            last_window = total;
        }
    }
    if cfg.window_guest_insts > 0 && total > last_window {
        sinks.consume(&[HostEvent::WindowMark { guest_insts: total }]);
    }
    let TracedSinks { trace, checker, timing, events, batches, .. } = sinks;

    // Timing workers exit inside `finish`: take their CPU time while
    // they are alive, then add what threads other than this one spent
    // during the drain.
    let tasks = host::tasks();
    let live_worker_cpu: f64 =
        tasks.iter().filter(|t| t.name.starts_with("darco-timing")).map(|t| t.cpu_s).sum();
    let has_workers = tasks.iter().any(|t| t.name.starts_with("darco-timing"));
    let (proc0, main0) = (host::process_cpu_s(), host::thread_cpu_s());
    let s = tr.open(Layer::TimingDrain);
    let timing = timing.finish();
    tr.close(s);
    let drain_other = (host::process_cpu_s() - proc0) - (host::thread_cpu_s() - main0);
    let timing_worker_cpu_s =
        if has_workers { live_worker_cpu + drain_other.max(0.0) } else { 0.0 };

    let checker = checker.map(CheckerSink::into_inner);
    if let Some(chk) = &checker {
        let s = tr.open(Layer::MemoryCheck);
        let r = chk.check_memory(&emu_mem);
        tr.close(s);
        if let Err(addr) = r {
            panic!("{}: memory divergence at guest address {addr:#x}", w.name);
        }
    }
    let s = tr.open(Layer::Report);
    let memo = timing.memo_stats();
    let (shared, app_only, tol_only, timeline) = timing.into_parts();
    let report = Report {
        name: w.name.clone(),
        timing: shared,
        app_only,
        tol_only,
        tol: tol.summary(),
        guest_insts: total,
        cosim_checks: checker.as_ref().map_or(0, |c| c.checks()),
        static_insts: w.static_insts,
        timeline,
        trace: trace.stats,
    };
    tr.close(s);
    tr.close(root);
    let run_wall_s = tr.seconds(root);

    // The guest layer on its own: the authoritative emulator over the
    // whole program. It must retire the same instructions and end in
    // the state the software layer reached.
    let s = tr.open(Layer::GuestExec);
    let mut exec = StateChecker::new(spare.initial, spare.mem);
    exec.set_fast_path(cfg.tol.guest_fast_path);
    exec.advance(u64::MAX).unwrap_or_else(|e| panic!("{}: authoritative fault: {e}", w.name));
    tr.close(s);
    let exec_wall_s = tr.seconds(s);
    exec.check(&tol.emulated_state())
        .unwrap_or_else(|d| panic!("{}: standalone guest pass diverged: {d}", w.name));

    Traced {
        run_wall_s,
        events,
        batches,
        timing_worker_cpu_s,
        threads: host::thread_census(&tasks),
        passes_s: tol.pass_nanos().iter().map(|(_, ns)| *ns).sum::<u64>() as f64 * 1e-9,
        analysis_s: tol.analysis_ns() as f64 * 1e-9,
        pool: tol.pool_stats(),
        fast: tol.fast_stats(),
        memo,
        exec_retired: exec.retired(),
        exec_wall_s,
        report,
    }
}
