//! The memory system: split L1s, unified L2, data TLB and stride
//! prefetcher, with switchable sharing between the software layer and
//! the application.
//!
//! Under [`Interaction::Shared`] both entities contend for one set of
//! structures — TOL's data-intensive code-cache lookups evict application
//! lines and vice versa (the "ping-pong" effect of Sec. III-D). Under
//! [`Interaction::Isolated`] each entity gets private copies, which is
//! the counterfactual used by Figs. 10 and 11. Demand statistics are
//! always kept per owner so miss rates can be reported per entity either
//! way.

use crate::cache::{Cache, Lookup};
use crate::config::{Interaction, TimingConfig};
use crate::prefetch::StridePrefetcher;
use crate::tlb::Tlb;
use darco_host::layout::is_guest_addr;
use darco_host::Owner;

/// Outcome of a data access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataAccess {
    /// Total latency in cycles (TLB + cache hierarchy).
    pub latency: u32,
    /// Missed in the L1 data cache.
    pub l1_miss: bool,
    /// Missed in the L2 as well.
    pub l2_miss: bool,
}

/// Outcome of an instruction fetch access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstAccess {
    /// Fetch latency in cycles.
    pub latency: u32,
    /// Missed in the L1 instruction cache.
    pub l1_miss: bool,
}

/// Per-owner demand counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct OwnerMemStats {
    /// Demand data accesses.
    pub d_accesses: u64,
    /// L1-D demand misses.
    pub d_misses: u64,
    /// Instruction-fetch line accesses.
    pub i_accesses: u64,
    /// L1-I misses.
    pub i_misses: u64,
    /// Data TLB walks.
    pub tlb_walks: u64,
    /// Software prefetches issued (the layer's optional pass).
    pub sw_prefetches: u64,
}

impl OwnerMemStats {
    /// L1-D miss rate (0 when idle).
    pub fn d_miss_rate(&self) -> f64 {
        if self.d_accesses == 0 {
            0.0
        } else {
            self.d_misses as f64 / self.d_accesses as f64
        }
    }

    /// L1-I miss rate (0 when idle).
    pub fn i_miss_rate(&self) -> f64 {
        if self.i_accesses == 0 {
            0.0
        } else {
            self.i_misses as f64 / self.i_accesses as f64
        }
    }
}

/// Sentinel for "no previous L1-D line": real line numbers fit in 58
/// bits (lines are at least 2 bytes).
const NO_LINE: u64 = u64::MAX;

/// The modeled cache/TLB/prefetch hierarchy.
#[derive(Debug)]
pub struct MemSystem {
    l1i: Vec<Cache>,
    l1d: Vec<Cache>,
    l2: Vec<Cache>,
    tlb: Vec<Tlb>,
    prefetch: Vec<StridePrefetcher>,
    stats: [OwnerMemStats; 2],
    l1_hit: u32,
    l2_hit: u32,
    mem_lat: u32,
    shared: bool,
    /// Per-copy line number of the previous demand data access, used by
    /// the last-line hit shortcut; [`NO_LINE`] after any L1-D fill
    /// (a fill may disturb replacement state in the same set).
    last_d_line: Vec<u64>,
    d_line_shift: u32,
    shortcuts: bool,
}

fn owner_idx(owner: Owner) -> usize {
    match owner {
        Owner::App => 0,
        Owner::Tol => 1,
    }
}

impl MemSystem {
    /// Builds the hierarchy from the configuration.
    pub fn new(cfg: &TimingConfig) -> MemSystem {
        let copies = match cfg.interaction {
            Interaction::Shared => 1,
            Interaction::Isolated => 2,
        };
        let mk = |f: &dyn Fn() -> Cache| (0..copies).map(|_| f()).collect::<Vec<_>>();
        MemSystem {
            l1i: mk(&|| Cache::with_layout(cfg.l1i, cfg.flat_mem)),
            l1d: mk(&|| Cache::with_layout(cfg.l1d, cfg.flat_mem)),
            l2: mk(&|| Cache::with_layout(cfg.l2, cfg.flat_mem)),
            tlb: (0..copies)
                .map(|_| {
                    Tlb::configured(
                        cfg.tlb1,
                        cfg.tlb2,
                        cfg.tlb_walk_latency,
                        cfg.flat_mem,
                        cfg.mem_shortcuts,
                    )
                })
                .collect(),
            prefetch: (0..copies).map(|_| StridePrefetcher::new(cfg.prefetcher_entries)).collect(),
            stats: [OwnerMemStats::default(); 2],
            l1_hit: cfg.l1d.hit_latency,
            l2_hit: cfg.l2.hit_latency,
            mem_lat: cfg.mem_latency,
            shared: copies == 1,
            last_d_line: vec![NO_LINE; copies],
            d_line_shift: cfg.l1d.block.trailing_zeros(),
            shortcuts: cfg.mem_shortcuts,
        }
    }

    #[inline]
    fn copy(&self, owner: Owner) -> usize {
        if self.shared {
            0
        } else {
            owner_idx(owner)
        }
    }

    /// Performs a demand data access (load or store) for `owner` at
    /// `addr`, issued by the instruction at `pc`.
    ///
    /// The data TLB is consulted only for guest-space addresses: the
    /// software layer works with physical addresses (Sec. II-A-2).
    pub fn access_data(&mut self, owner: Owner, pc: u64, addr: u64, _is_store: bool) -> DataAccess {
        let c = self.copy(owner);
        self.stats[owner_idx(owner)].d_accesses += 1;

        let line = addr >> self.d_line_shift;
        let fast_hit = self.shortcuts && line == self.last_d_line[c];

        let mut latency = 0;
        if is_guest_addr(addr) {
            let (outcome, tlb_lat) = self.tlb[c].access(addr);
            if outcome == crate::tlb::TlbOutcome::Walk {
                self.stats[owner_idx(owner)].tlb_walks += 1;
            }
            // An L1-TLB hit overlaps the cache access; only the excess
            // latency of lower levels is serialized.
            latency += tlb_lat.saturating_sub(1);
        }

        let mut l1_miss = false;
        let mut l2_miss = false;
        if fast_hit {
            // Same L1-D line as the previous demand access, with no fill
            // in between (fills clear `last_d_line`): the probe would hit
            // and its MRU re-touch would be a PLRU no-op, so only the
            // access counter needs to move.
            self.l1d[c].count_hit();
            latency += self.l1_hit;
        } else {
            l1_miss = self.l1d[c].access(addr) == Lookup::Miss;
            if l1_miss {
                self.stats[owner_idx(owner)].d_misses += 1;
                l2_miss = self.l2[c].access(addr) == Lookup::Miss;
                latency += if l2_miss { self.mem_lat } else { self.l2_hit };
            } else {
                latency += self.l1_hit;
            }
        }
        if self.shortcuts {
            self.last_d_line[c] = line;
        }

        // Stride prefetching on demand accesses. This runs on the
        // shortcut path too: the prefetcher's stride state is observable
        // through future fills.
        if let Some(pf_addr) = self.prefetch[c].observe(pc, addr) {
            if !self.l1d[c].contains(pf_addr) {
                self.l1d[c].fill(pf_addr);
                self.l2[c].fill(pf_addr);
                // The fill may have evicted or re-ordered lines in the
                // set the shortcut would vouch for.
                self.last_d_line[c] = NO_LINE;
            }
        }

        DataAccess { latency, l1_miss, l2_miss }
    }

    /// Brings a line toward the core for a software prefetch: fills L1D
    /// and L2 (and translates the page) without charging demand-miss
    /// statistics or latency.
    pub fn prefetch_fill(&mut self, owner: Owner, addr: u64) {
        let c = self.copy(owner);
        if is_guest_addr(addr) {
            let _ = self.tlb[c].access(addr);
        }
        self.stats[owner_idx(owner)].sw_prefetches += 1;
        self.l1d[c].fill(addr);
        self.l2[c].fill(addr);
        self.last_d_line[c] = NO_LINE;
    }

    /// Performs an instruction-fetch access for the line containing `pc`.
    pub fn access_inst(&mut self, owner: Owner, pc: u64) -> InstAccess {
        let c = self.copy(owner);
        let s = &mut self.stats[owner_idx(owner)];
        s.i_accesses += 1;
        let l1_miss = self.l1i[c].access(pc) == Lookup::Miss;
        let latency = if l1_miss {
            s.i_misses += 1;
            if self.l2[c].access(pc) == Lookup::Miss {
                self.mem_lat
            } else {
                self.l2_hit
            }
        } else {
            1
        };
        InstAccess { latency, l1_miss }
    }

    /// Per-owner demand statistics.
    pub fn owner_stats(&self, owner: Owner) -> OwnerMemStats {
        self.stats[owner_idx(owner)]
    }

    /// Total prefetches issued.
    pub fn prefetches(&self) -> u64 {
        self.prefetch.iter().map(|p| p.issued()).sum()
    }

    /// L1-I line size in bytes (for the pipeline's fetch grouping).
    pub fn i_line_bytes(&self) -> u64 {
        self.l1i[0].block_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darco_host::layout::TOL_DATA_BASE;

    fn shared() -> MemSystem {
        MemSystem::new(&TimingConfig::default())
    }

    #[test]
    fn data_hit_miss_latencies() {
        let mut m = shared();
        // Cold: TLB walk (128 - 1 overlapped) + memory (128).
        let a = m.access_data(Owner::App, 0x10, 0x8000, false);
        assert!(a.l1_miss && a.l2_miss);
        assert_eq!(a.latency, 127 + 128);
        // Warm: TLB L1 hit (overlapped) + L1D hit.
        let b = m.access_data(Owner::App, 0x10, 0x8000, false);
        assert!(!b.l1_miss);
        assert_eq!(b.latency, 1);
    }

    #[test]
    fn tol_addresses_skip_tlb() {
        let mut m = shared();
        let a = m.access_data(Owner::Tol, 0x10, TOL_DATA_BASE + 0x100, false);
        assert!(a.l1_miss && a.l2_miss);
        assert_eq!(a.latency, 128, "no TLB serialization for physical TOL data");
        assert_eq!(m.owner_stats(Owner::Tol).tlb_walks, 0);
    }

    #[test]
    fn sharing_pollutes_isolation_does_not() {
        // App touches a line; TOL then floods the same set under Shared,
        // evicting it. Under Isolated the app line survives.
        let run = |interaction: Interaction| {
            let cfg = TimingConfig { interaction, ..TimingConfig::default() };
            let mut m = MemSystem::new(&cfg);
            m.access_data(Owner::App, 0x10, 0x4000, false);
            // 4-way L1D, 128 sets, 64B lines: stride 8192 stays in one set.
            for i in 0..8u64 {
                m.access_data(Owner::Tol, 0x20, TOL_DATA_BASE + 0x4000 + i * 8192, false);
            }
            let again = m.access_data(Owner::App, 0x10, 0x4000, false);
            again.l1_miss
        };
        assert!(run(Interaction::Shared), "shared: TOL evicted the app line");
        assert!(!run(Interaction::Isolated), "isolated: app line survives");
    }

    #[test]
    fn per_owner_stats_tracked_even_when_shared() {
        let mut m = shared();
        m.access_data(Owner::App, 0x10, 0x1000, false);
        m.access_data(Owner::Tol, 0x20, TOL_DATA_BASE, true);
        assert_eq!(m.owner_stats(Owner::App).d_accesses, 1);
        assert_eq!(m.owner_stats(Owner::Tol).d_accesses, 1);
        assert_eq!(m.owner_stats(Owner::App).d_misses, 1);
    }

    #[test]
    fn inst_fetch_path() {
        let mut m = shared();
        let a = m.access_inst(Owner::App, 0x100);
        assert!(a.l1_miss);
        assert_eq!(a.latency, 128);
        let b = m.access_inst(Owner::App, 0x104);
        assert!(!b.l1_miss);
        assert_eq!(b.latency, 1);
        assert!(m.owner_stats(Owner::App).i_miss_rate() < 1.0);
    }

    #[test]
    fn fast_paths_match_full_probe_oracle() {
        // Flat layout + shortcuts vs legacy layout + full probes on a
        // mixed stream (repeats, strides, sw prefetches, both owners):
        // every access result and all counters must be identical.
        let fast = TimingConfig::default();
        let slow = TimingConfig { flat_mem: false, mem_shortcuts: false, ..fast.clone() };
        let mut f = MemSystem::new(&fast);
        let mut s = MemSystem::new(&slow);
        let mut x = 0x853C_49E6_748F_EA9Bu64;
        for i in 0..30_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let owner = if x & 8 == 0 { Owner::App } else { Owner::Tol };
            let base = if owner == Owner::App { 0 } else { TOL_DATA_BASE };
            let addr = match i % 4 {
                0 => base + (x % 0x40_0000),        // random
                3 => base + (i % 512) * 8,          // sw-prefetch target pool
                _ => base + (i / 7) * 8 % 0x1_0000, // strided with repeats
            };
            let pc = 0x100 + (x % 64) * 4;
            if i % 11 == 0 {
                f.prefetch_fill(owner, addr);
                s.prefetch_fill(owner, addr);
            } else {
                assert_eq!(
                    f.access_data(owner, pc, addr, x & 16 == 0),
                    s.access_data(owner, pc, addr, x & 16 == 0),
                    "access {i}"
                );
            }
            if i % 5 == 0 {
                assert_eq!(f.access_inst(owner, pc), s.access_inst(owner, pc));
            }
        }
        for o in [Owner::App, Owner::Tol] {
            let (a, b) = (f.owner_stats(o), s.owner_stats(o));
            assert_eq!(a.d_accesses, b.d_accesses);
            assert_eq!(a.d_misses, b.d_misses);
            assert_eq!(a.i_misses, b.i_misses);
            assert_eq!(a.tlb_walks, b.tlb_walks);
            assert_eq!(a.sw_prefetches, b.sw_prefetches);
        }
        assert_eq!(f.prefetches(), s.prefetches());
    }

    #[test]
    fn prefetcher_hides_stream_misses() {
        let mut m = shared();
        let pc = 0x500;
        let mut misses = 0;
        for i in 0..64u64 {
            let a = m.access_data(Owner::App, pc, 0x10000 + i * 64, false);
            if a.l1_miss {
                misses += 1;
            }
        }
        assert!(m.prefetches() > 0);
        // Far fewer misses than lines touched once prefetching kicks in.
        assert!(misses < 32, "prefetcher should cover the stream, got {misses}");
    }
}
