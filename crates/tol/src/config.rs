//! Software-layer configuration.

use serde::{Deserialize, Serialize};

/// Tunable parameters of the Translation Optimization Layer.
///
/// Defaults are the paper's (Sec. III-A): promotion thresholds
/// `IM/BBth = 5` and `BB/SBth = 10_000`. The optimization-pass switches
/// exist for the ablation study in DESIGN.md §8.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TolConfig {
    /// Interpreter-to-BBM promotion threshold: a branch target is
    /// translated once it has been reached this many times.
    pub im_bb_threshold: u32,
    /// BBM-to-SBM promotion threshold: a translated basic block is
    /// promoted to a superblock once it has executed this many times.
    pub bb_sb_threshold: u32,
    /// Maximum number of basic blocks merged into one superblock.
    pub sb_max_bbs: u32,
    /// Maximum guest instructions in one superblock.
    pub sb_max_insts: u32,
    /// Minimum profiled edge bias (`taken / total`) required to keep
    /// growing a superblock along an edge.
    pub sb_edge_bias: f64,
    /// Code cache capacity in host instructions; what happens on
    /// overflow is decided by [`TolConfig::cache_policy`].
    pub code_cache_capacity: u32,
    /// Code-cache overflow policy: whole-cache flush (the default, cf.
    /// Hazelwood & Smith) or partial FIFO eviction with space reuse and
    /// selective unchaining (`--cache-policy fifo`).
    pub cache_policy: crate::codecache::CachePolicy,
    /// IBTC entries (direct-mapped, power of two).
    pub ibtc_entries: u32,
    /// Enable chaining (linking) of translations.
    pub chaining: bool,
    /// Apply the BBM peephole pass (dead-flag elision is always on; this
    /// controls constant propagation inside the basic block).
    pub bbm_peephole: bool,
    /// SBM pass switches, for ablations.
    pub opt_const_prop: bool,
    /// Constant folding.
    pub opt_const_fold: bool,
    /// Common-subexpression elimination.
    pub opt_cse: bool,
    /// Dead-code elimination.
    pub opt_dce: bool,
    /// List scheduling for the 2-issue in-order back-end.
    pub opt_schedule: bool,
    /// Analysis-driven dead-flag elimination (DESIGN.md §13). When on,
    /// the translator materializes a `FlagsArith` for every flag-writing
    /// guest instruction and the liveness-driven `deadflags` pass
    /// deletes the dead ones — converging to byte-identical host code;
    /// when off, the translator's intrinsic elision is used unchanged
    /// (the oracle configuration).
    pub opt_deadflags: bool,
    /// Known-bits/range simplification (`rangesimp`): fold statically
    /// decided `BrFlags`, rewrite constant-valued ALU ops to `li`, and
    /// reduce redundant masks to copies.
    pub opt_rangesimp: bool,
    /// Insert next-line software prefetches into superblocks (the first
    /// Sec. III-E recommendation; off by default as in the paper).
    pub opt_sw_prefetch: bool,
    /// Speculatively resolve indirect-branch exits by inline-comparing
    /// against the last observed target (Sec. III-E, cf. McFarlin &
    /// Zilles' "bungee jumps"; off by default as in the paper).
    pub speculate_indirect: bool,
    /// Scatter translations across the code cache instead of packing
    /// them sequentially — the *bad* placement policy, used to quantify
    /// the paper's code-placement recommendation (Sec. III-E).
    pub codecache_scattered: bool,
    /// Verify every optimization pass (structural invariants plus
    /// translation validation) and discard miscompiled blocks. Always on
    /// in debug builds regardless of this switch; this opts release
    /// builds in (`darco verify` sets it).
    pub verify: bool,
    /// Capacity of the retirement [`EventBuffer`]: how many
    /// [`HostEvent`]s are staged before a batch is delivered to the
    /// sink. `1` degenerates to per-instruction delivery (the old
    /// closure-sink behavior, kept reachable for benchmarking).
    ///
    /// [`EventBuffer`]: darco_host::events::EventBuffer
    /// [`HostEvent`]: darco_host::events::HostEvent
    pub event_batch: usize,
    /// Retire translated code and interpreter cost streams through
    /// precompiled templates ([`RetireTemplate`] per block instruction,
    /// per-shape interpreter emission templates) instead of re-deriving
    /// every record on the hot path. `false` keeps the straight
    /// re-derivation paths reachable as an oracle for equivalence tests
    /// and benchmarks; the emitted streams are bit-identical either way.
    ///
    /// [`RetireTemplate`]: darco_host::template::RetireTemplate
    pub retire_templates: bool,
    /// Cache decoded guest instructions in the interpreter (direct-mapped
    /// by guest pc, invalidated by the [`GuestMem`] per-page write
    /// generation), so hot not-yet-translated loops skip `decode()`.
    /// Purely a simulator-speed switch: the emitted stream is unchanged.
    ///
    /// [`GuestMem`]: darco_guest::GuestMem
    pub interp_decode_cache: bool,
    /// Background translation workers: the Rust-side compile work of a
    /// BBM/SBM translation (decode → IR → analysis → optimization →
    /// verification → emission) runs on this many pool threads,
    /// overlapped with emulation, and joined at the same deterministic
    /// simulated install point the synchronous path uses — so every
    /// serialized report is byte-identical across settings (DESIGN.md
    /// §15). `0` disables the pool entirely (the synchronous oracle).
    /// Defaults to the host's available parallelism. Purely a
    /// wall-clock switch.
    #[serde(default = "default_translate_workers")]
    pub translate_workers: usize,
    /// Guest-layer fast path: pre-decoded micro-op buffers with lazy
    /// flag materialization in the interpreter ([`ExecCtx`]), plus the
    /// width-native [`GuestMem`] access path with its L0 page-pointer
    /// cache. The byte-wise decode-per-step path stays reachable as the
    /// always-available oracle (`false`); architectural state, memory
    /// and every serialized report are byte-identical either way.
    /// Purely a simulator-speed switch (DESIGN.md §17).
    ///
    /// [`ExecCtx`]: darco_guest::uops::ExecCtx
    /// [`GuestMem`]: darco_guest::GuestMem
    #[serde(default = "default_guest_fast_path")]
    pub guest_fast_path: bool,
}

/// Serde default for [`TolConfig::guest_fast_path`] (profiles written
/// before the fast path existed deserialize with it enabled).
fn default_guest_fast_path() -> bool {
    true
}

/// Serde default for [`TolConfig::translate_workers`] (profiles written
/// before the pool existed deserialize to the pool default).
fn default_translate_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Default for TolConfig {
    fn default() -> TolConfig {
        TolConfig {
            im_bb_threshold: 5,
            bb_sb_threshold: 10_000,
            sb_max_bbs: 8,
            sb_max_insts: 128,
            sb_edge_bias: 0.6,
            code_cache_capacity: 1 << 20,
            cache_policy: crate::codecache::CachePolicy::Flush,
            ibtc_entries: 512,
            chaining: true,
            bbm_peephole: true,
            opt_const_prop: true,
            opt_const_fold: true,
            opt_cse: true,
            opt_dce: true,
            opt_schedule: true,
            opt_deadflags: true,
            opt_rangesimp: true,
            opt_sw_prefetch: false,
            speculate_indirect: false,
            codecache_scattered: false,
            verify: false,
            event_batch: darco_host::events::EVENT_BATCH,
            retire_templates: true,
            interp_decode_cache: true,
            translate_workers: default_translate_workers(),
            guest_fast_path: true,
        }
    }
}

impl TolConfig {
    /// Paper defaults with all SBM optimizations disabled (translation
    /// only), for ablations.
    pub fn no_optimization() -> TolConfig {
        TolConfig {
            opt_const_prop: false,
            opt_const_fold: false,
            opt_cse: false,
            opt_dce: false,
            opt_schedule: false,
            opt_deadflags: false,
            opt_rangesimp: false,
            bbm_peephole: false,
            ..TolConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_thresholds() {
        let c = TolConfig::default();
        assert_eq!(c.im_bb_threshold, 5);
        assert_eq!(c.bb_sb_threshold, 10_000);
        assert!(c.chaining);
    }

    #[test]
    fn ablation_config() {
        let c = TolConfig::no_optimization();
        assert!(!c.opt_cse && !c.opt_schedule && !c.bbm_peephole);
        assert_eq!(c.im_bb_threshold, 5, "thresholds unchanged");
    }
}
