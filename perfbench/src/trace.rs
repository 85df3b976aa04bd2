//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark's own code around its
//! calls into the simulator crates; nothing inside the program is
//! instrumented. Each span keeps its name, start, end, parent span and
//! run id. Self times are computed from the kept spans after the run,
//! and the spans can be written out as Chrome trace-event JSON, which
//! Perfetto and `chrome://tracing` load.

use std::fmt::Write as _;
use std::time::Instant;

/// The spans the traced runner records. Each `layer.function` label matches a
/// per-layer metric of `BENCHMARK.json`, where `_s` marks its summed
/// self time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum Layer {
    /// One traced `run_to_completion` equivalent; the root span.
    Run,
    /// `darco_workloads::generate`.
    Generate,
    /// `System::new`.
    SystemNew,
    /// Building the traced runner's own copy of the system parts.
    Assemble,
    /// `Tol::step` whose outcome ran in the interpreter.
    TolIm,
    /// `Tol::step` whose outcome translated a basic block and ran it.
    TolBbm,
    /// `Tol::step` whose outcome ran cached translated code.
    TolSbm,
    /// `TimingBackend::new` (spawns the timing workers, if any).
    TimingNew,
    /// `TraceStatsSink::consume`.
    TraceStats,
    /// `CheckerSink::consume`.
    Checker,
    /// `TimingBackend::consume` / `consume_shared`.
    TimingSend,
    /// `Tol::emulated_state` plus the `StepBoundary` dispatch.
    StepBoundary,
    /// `TimingBackend::finish`.
    TimingDrain,
    /// `StateChecker::check_memory`.
    MemoryCheck,
    /// `Tol::summary` and the rest of the report assembly.
    Report,
    /// Standalone `StateChecker::advance` over the whole program.
    GuestExec,
}

impl Layer {
    /// Number of layers.
    pub const COUNT: usize = Layer::GuestExec as usize + 1;

    /// The span's name in traces and metric names.
    pub fn label(self) -> &'static str {
        match self {
            Layer::Run => "run",
            Layer::Generate => "workloads.generate",
            Layer::SystemNew => "core.system_new",
            Layer::Assemble => "bench.assemble",
            Layer::TolIm => "tol.im",
            Layer::TolBbm => "tol.bbm",
            Layer::TolSbm => "tol.sbm",
            Layer::TimingNew => "core.timing_new",
            Layer::TraceStats => "host.trace_stats",
            Layer::Checker => "core.checker",
            Layer::TimingSend => "core.timing_send",
            Layer::StepBoundary => "core.step_boundary",
            Layer::TimingDrain => "core.timing_drain",
            Layer::MemoryCheck => "core.memory_check",
            Layer::Report => "core.report",
            Layer::GuestExec => "guest.exec",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    parent: u32,
    run: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    run: u32,
}

impl Tracer {
    /// An empty recorder whose timestamps count from now.
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new(), stack: Vec::new(), run: 0 }
    }

    /// Tags the spans opened from now on with `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, layer: Layer) -> Open {
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span { layer, parent, run: self.run, start_ns, end_ns: start_ns });
        self.stack.push(idx);
        Open(idx)
    }

    /// Closes the innermost open span, which must be `s`.
    pub fn close(&mut self, s: Open) {
        let end_ns = self.now_ns();
        let top = self.stack.pop().expect("close without an open span");
        assert_eq!(top, s.0, "spans must close innermost first");
        self.spans[s.0 as usize].end_ns = end_ns;
    }

    /// Closes `s` and renames it, for spans whose layer is known only
    /// from the call's result.
    pub fn close_as(&mut self, s: Open, layer: Layer) {
        self.close(s);
        self.spans[s.0 as usize].layer = layer;
    }

    /// Number of spans kept so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Wall seconds of span `s`.
    pub fn seconds(&self, s: Open) -> f64 {
        let sp = &self.spans[s.0 as usize];
        (sp.end_ns - sp.start_ns) as f64 * 1e-9
    }

    /// Self seconds per layer over the kept spans, indexed by `Layer as
    /// usize`: each span's duration minus the time its children cover.
    pub fn self_seconds(&self) -> [f64; Layer::COUNT] {
        let mut child_ns = vec![0u64; self.spans.len()];
        for sp in &self.spans {
            if sp.parent != NO_PARENT {
                child_ns[sp.parent as usize] += sp.end_ns - sp.start_ns;
            }
        }
        let mut by_layer = [0.0; Layer::COUNT];
        for (sp, c) in self.spans.iter().zip(&child_ns) {
            by_layer[sp.layer as usize] += ((sp.end_ns - sp.start_ns) - c) as f64 * 1e-9;
        }
        by_layer
    }

    /// Drops every kept span, including spans a panic left open.
    pub fn clear(&mut self) {
        self.stack.clear();
        self.spans.clear();
    }

    /// Chrome trace-event JSON of the first `limit` kept spans, one
    /// complete (`"ph":"X"`) event per span on a track per run id.
    pub fn chrome_json(&self, limit: usize, meta: &str) -> String {
        let mut out = String::with_capacity(self.spans.len().min(limit) * 120 + 256);
        out.push_str("{\"traceEvents\":[");
        for (i, sp) in self.spans.iter().take(limit).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = if sp.parent == NO_PARENT { -1 } else { i64::from(sp.parent) };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                sp.layer.label(),
                sp.run,
                sp.start_ns as f64 / 1e3,
                (sp.end_ns - sp.start_ns) as f64 / 1e3,
            );
        }
        let _ = write!(
            out,
            "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"spans_kept\":{},\"spans_written\":{},{meta}}}}}",
            self.spans.len(),
            self.spans.len().min(limit)
        );
        out
    }
}
