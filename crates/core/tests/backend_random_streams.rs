//! The two timing backends over random retire streams.
//!
//! Random translated blocks (a handful of instructions each, reused as
//! loops reuse them, occasionally replaced as self-modifying code
//! replaces them) interleave with random background traffic from both
//! the application and the software layer, plus timeline window marks.
//! The stream is fed to [`TimingBackend::Inline`] in one batch and to
//! [`TimingBackend::Fanout`] cut at random points, through both the
//! borrowed and the shared (`Arc`) delivery paths: every pipeline's
//! statistics and the timeline must match bit for bit.
//!
//! Driven by a seeded deterministic generator (no crates.io access, so
//! `proptest` is replaced by case loops over a `SmallRng`).

use std::sync::Arc;

use darco_core::{SystemConfig, TimingBackend, TimingBackendKind};
use darco_host::layout::{TOL_CODE_BASE, TOL_DATA_BASE};
use darco_host::stream::{int_reg, DynInst};
use darco_host::{BranchKind, Component, ExecClass, HostEvent, HostEventSink};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One random host instruction of `component` at `pc`. Addresses come
/// from a small pool of cache sets so blocks and background traffic
/// genuinely collide, and branch pcs from a small pool so predictor
/// state is genuinely shared.
fn random_inst(rng: &mut SmallRng, pc: u64, component: Component) -> DynInst {
    let class = match rng.gen_range(0u32..8) {
        0..=2 => ExecClass::SimpleInt,
        3 => ExecClass::ComplexInt,
        4 => ExecClass::SimpleFp,
        5 => ExecClass::Load,
        6 => ExecClass::Store,
        _ => ExecClass::Branch,
    };
    let mut d = DynInst::plain(pc, class, component)
        .with_srcs(int_reg(rng.gen_range(1u8..8)), int_reg(rng.gen_range(1u8..8)))
        .with_dst(int_reg(rng.gen_range(1u8..8)));
    match class {
        ExecClass::Load | ExecClass::Store => {
            let base = if component == Component::AppCode { 0x8000 } else { TOL_DATA_BASE };
            let addr = base + u64::from(rng.gen_range(0u32..64)) * 64;
            d = d.with_mem(addr, 4, class == ExecClass::Store);
        }
        ExecClass::Branch => {
            d = d.with_branch(
                BranchKind::CondDirect,
                pc + u64::from(rng.gen_range(1u32..16)) * 4,
                rng.gen_bool(0.5),
            );
        }
        _ => {}
    }
    d
}

/// A random translated block: a handful of application instructions
/// at a per-block pc base.
fn random_block(rng: &mut SmallRng, idx: u32) -> Arc<[DynInst]> {
    let base = 0x10_0000 + u64::from(idx) * 0x1000;
    let n = rng.gen_range(3usize..16);
    let v: Vec<DynInst> =
        (0..n).map(|i| random_inst(rng, base + i as u64 * 4, Component::AppCode)).collect();
    v.into()
}

/// A random event stream: hot blocks re-executed in runs, background
/// application and software-layer traffic, block replacement, and
/// occasional window marks.
fn random_stream(rng: &mut SmallRng) -> Vec<HostEvent> {
    let mut blocks: Vec<Arc<[DynInst]>> = (0..4).map(|i| random_block(rng, i)).collect();
    let mut events = Vec::new();
    let mut guest = 0u64;
    for _ in 0..rng.gen_range(40usize..120) {
        let i = rng.gen_range(0usize..4);
        match rng.gen_range(0u32..10) {
            0..=5 => {
                for _ in 0..rng.gen_range(1usize..8) {
                    events.extend(blocks[i].iter().map(|d| HostEvent::Retire(*d)));
                    guest += blocks[i].len() as u64 / 2 + 1;
                }
            }
            6 => {
                for k in 0..rng.gen_range(1usize..8) {
                    let d = random_inst(rng, 0x20_0000 + k as u64 * 4, Component::AppCode);
                    events.push(HostEvent::Retire(d));
                }
            }
            7..=8 => {
                for k in 0..rng.gen_range(1usize..24) {
                    let d = random_inst(rng, TOL_CODE_BASE + k as u64 * 4, Component::TolLookup);
                    events.push(HostEvent::Retire(d));
                }
            }
            _ => blocks[i] = random_block(rng, i as u32),
        }
        if rng.gen_bool(0.2) {
            events.push(HostEvent::WindowMark { guest_insts: guest });
        }
    }
    events.push(HostEvent::WindowMark { guest_insts: guest });
    events
}

/// Exact fingerprint of every pipeline's statistics and the timeline:
/// `Debug` on `f64` is shortest-roundtrip, so equal strings mean
/// bitwise-equal state.
fn fingerprint(backend: TimingBackend) -> String {
    format!("{:?}", backend.finish().into_parts())
}

fn backend(kind: TimingBackendKind) -> TimingBackend {
    TimingBackend::new(&SystemConfig {
        app_only_pipeline: true,
        tol_only_pipeline: true,
        cosim: false,
        timing_backend: kind,
        ..SystemConfig::default()
    })
}

#[test]
fn fanout_matches_inline_at_random_chunkings() {
    let mut rng = SmallRng::seed_from_u64(0x16_0001);
    for case in 0..24 {
        let stream = random_stream(&mut rng);
        let mut inline = backend(TimingBackendKind::Inline);
        inline.consume(&stream);
        let want = fingerprint(inline);

        let mut fanout = backend(TimingBackendKind::Fanout);
        let mut rest = stream.as_slice();
        while !rest.is_empty() {
            let n = rng.gen_range(1usize..rest.len().min(512) + 1);
            let (chunk, tail) = rest.split_at(n);
            if rng.gen_bool(0.5) {
                fanout.consume(chunk);
            } else {
                fanout.consume_shared(Arc::from(chunk));
            }
            rest = tail;
        }
        assert_eq!(want, fingerprint(fanout), "case {case}: fan-out diverged from inline");
    }
}
