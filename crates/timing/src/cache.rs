//! Set-associative cache with tree-PLRU replacement.
//!
//! One structure serves the L1-I, L1-D and unified L2 of Table I; the
//! TLBs reuse it at page granularity via [`crate::tlb`].
//!
//! Two tag layouts are supported, selected at construction and
//! bit-exact to each other (same hits, same victims, same counters):
//!
//! * **Flat** (shipping, [`Cache::new`]): one contiguous set-major
//!   entry array for the whole cache, each entry `(tag << 1) | 1` with
//!   `0` meaning invalid — a probe touches a single short run of one
//!   allocation, and the common 2/4/8-way shapes get monomorphized
//!   probe loops with the associativity known at compile time.
//! * **Legacy** ([`Cache::legacy`]): the original per-set `Vec<u64>`
//!   tags + `Vec<bool>` valid layout (two heap allocations and three
//!   pointer hops per probe), kept reachable as the equivalence oracle
//!   behind `TimingConfig::flat_mem = false`.
//!
//! Presence checks and demand probes share one way-scan helper
//! (`find_way`) in the flat layout, so `contains` and `probe_fill`
//! cannot drift apart.

use crate::config::CacheParams;
use crate::plru::PlruSet;

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The line was present.
    Hit,
    /// The line was absent and has been filled (victim possibly evicted).
    Miss,
}

/// One set of the legacy (array-of-structs) layout.
#[derive(Debug, Clone)]
struct Set {
    tags: Vec<u64>,
    valid: Vec<bool>,
    plru: PlruSet,
}

/// Tag storage, in either layout.
#[derive(Debug, Clone)]
enum Store {
    /// Set-major interleaved entries (`sets * ways` of them) with the
    /// validity bit folded into bit 0; per-set PLRU state alongside.
    Flat { entries: Box<[u64]>, plru: Box<[PlruSet]> },
    /// The original per-set layout, kept as a bit-exact oracle.
    Legacy { sets: Vec<Set> },
}

/// A set-associative, write-allocate cache model (tags only — data lives
/// in the functional memory).
#[derive(Debug, Clone)]
pub struct Cache {
    store: Store,
    set_mask: u64,
    block_shift: u32,
    tag_shift: u32,
    ways: u32,
    accesses: u64,
    misses: u64,
}

/// Position of `key` in a set's entry run, if present. The single probe
/// helper shared by presence checks and demand probes (an invalid way is
/// found the same way, with `key = 0`).
#[inline(always)]
fn find_way(set: &[u64], key: u64) -> Option<usize> {
    set.iter().position(|&e| e == key)
}

/// Probe-and-fill over one flat set with compile-time associativity:
/// the slice length is pinned to `W`, so the scan unrolls.
#[inline(always)]
fn probe_set<const W: usize>(set: &mut [u64], plru: &mut PlruSet, key: u64) -> Lookup {
    let set: &mut [u64; W] = set.try_into().expect("set run matches associativity");
    probe_set_any(set, plru, key, W as u32)
}

/// Probe-and-fill over one flat set, associativity known at runtime.
#[inline(always)]
fn probe_set_any(set: &mut [u64], plru: &mut PlruSet, key: u64, ways: u32) -> Lookup {
    if let Some(w) = find_way(set, key) {
        plru.touch(w as u32, ways);
        return Lookup::Hit;
    }
    // Prefer an invalid way (entry 0), else the PLRU victim — the same
    // policy, in the same order, as the legacy layout.
    let victim = find_way(set, 0).unwrap_or_else(|| plru.victim(ways) as usize);
    set[victim] = key;
    plru.touch(victim as u32, ways);
    Lookup::Miss
}

impl Cache {
    /// Builds a cache from its parameters, in the flat layout.
    ///
    /// # Panics
    ///
    /// Panics if block size, way count or set count is not a power of
    /// two, or the block is smaller than 2 bytes (the flat encoding
    /// needs one spare tag bit).
    pub fn new(p: CacheParams) -> Cache {
        Cache::with_layout(p, true)
    }

    /// Builds a cache in the legacy per-set layout (the oracle).
    pub fn legacy(p: CacheParams) -> Cache {
        Cache::with_layout(p, false)
    }

    /// Builds a cache in the requested layout (`flat = true` for the
    /// shipping flat layout).
    pub fn with_layout(p: CacheParams, flat: bool) -> Cache {
        let sets = p.sets();
        assert!(p.block.is_power_of_two(), "block size must be a power of two");
        assert!(p.block >= 2, "flat tag encoding needs block >= 2 bytes");
        assert!(p.ways.is_power_of_two(), "ways must be a power of two");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        let store = if flat {
            Store::Flat {
                entries: vec![0u64; (sets * p.ways) as usize].into_boxed_slice(),
                plru: vec![PlruSet::default(); sets as usize].into_boxed_slice(),
            }
        } else {
            Store::Legacy {
                sets: (0..sets)
                    .map(|_| Set {
                        tags: vec![0; p.ways as usize],
                        valid: vec![false; p.ways as usize],
                        plru: PlruSet::default(),
                    })
                    .collect(),
            }
        };
        Cache {
            store,
            set_mask: (sets - 1) as u64,
            block_shift: p.block.trailing_zeros(),
            tag_shift: (sets - 1).count_ones(),
            ways: p.ways,
            accesses: 0,
            misses: 0,
        }
    }

    #[inline]
    fn index(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.block_shift;
        ((line & self.set_mask) as usize, line >> self.tag_shift)
    }

    /// Accesses `addr`, filling the line on a miss. Counted in the
    /// hit/miss statistics.
    pub fn access(&mut self, addr: u64) -> Lookup {
        self.accesses += 1;
        let r = self.probe_fill(addr);
        if r == Lookup::Miss {
            self.misses += 1;
        }
        r
    }

    /// Fills `addr` without counting statistics (used by the prefetcher,
    /// whose fills are not demand accesses).
    pub fn fill(&mut self, addr: u64) {
        let _ = self.probe_fill(addr);
    }

    /// Checks for presence without filling or counting.
    pub fn contains(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.index(addr);
        match &self.store {
            Store::Flat { entries, .. } => {
                let ways = self.ways as usize;
                find_way(&entries[set_idx * ways..(set_idx + 1) * ways], (tag << 1) | 1).is_some()
            }
            Store::Legacy { sets } => {
                let set = &sets[set_idx];
                (0..self.ways as usize).any(|w| set.valid[w] && set.tags[w] == tag)
            }
        }
    }

    /// Records a demand access known to hit, without probing (the
    /// last-line shortcuts prove the hit from the access history; the
    /// PLRU touch is elided because re-touching the MRU way is a
    /// no-op). Keeps the counters identical to a probed hit.
    #[inline]
    pub(crate) fn count_hit(&mut self) {
        self.accesses += 1;
    }

    fn probe_fill(&mut self, addr: u64) -> Lookup {
        let (set_idx, tag) = self.index(addr);
        let ways = self.ways;
        match &mut self.store {
            Store::Flat { entries, plru } => {
                let base = set_idx * ways as usize;
                let set = &mut entries[base..base + ways as usize];
                let plru = &mut plru[set_idx];
                let key = (tag << 1) | 1;
                match ways {
                    2 => probe_set::<2>(set, plru, key),
                    4 => probe_set::<4>(set, plru, key),
                    8 => probe_set::<8>(set, plru, key),
                    _ => probe_set_any(set, plru, key, ways),
                }
            }
            Store::Legacy { sets } => {
                let set = &mut sets[set_idx];
                for w in 0..ways as usize {
                    if set.valid[w] && set.tags[w] == tag {
                        set.plru.touch(w as u32, ways);
                        return Lookup::Hit;
                    }
                }
                // Prefer an invalid way, else the PLRU victim.
                let victim = (0..ways as usize)
                    .find(|&w| !set.valid[w])
                    .unwrap_or_else(|| set.plru.victim(ways) as usize);
                set.tags[victim] = tag;
                set.valid[victim] = true;
                set.plru.touch(victim as u32, ways);
                Lookup::Miss
            }
        }
    }

    /// Demand accesses so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Demand misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss rate over demand accesses (0 if never accessed).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Line (block) size in bytes.
    pub fn block_bytes(&self) -> u64 {
        1 << self.block_shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways x 16B blocks = 128 B.
        Cache::new(CacheParams { size: 128, block: 16, ways: 2, hit_latency: 1 })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = small();
        assert_eq!(c.access(0x40), Lookup::Miss);
        assert_eq!(c.access(0x40), Lookup::Hit);
        assert_eq!(c.access(0x4F), Lookup::Hit, "same 16B line");
        assert_eq!(c.access(0x50), Lookup::Miss, "next line");
        assert_eq!(c.accesses(), 4);
        assert_eq!(c.misses(), 2);
        assert!((c.miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn eviction_on_conflict() {
        let mut c = small();
        // Three lines mapping to set 0 (stride = sets*block = 64).
        assert_eq!(c.access(0x000), Lookup::Miss);
        assert_eq!(c.access(0x040), Lookup::Miss);
        assert_eq!(c.access(0x080), Lookup::Miss); // evicts one of the two
                                                   // The most recently used (0x040) must survive.
        assert!(c.contains(0x040));
        assert!(!c.contains(0x000));
    }

    #[test]
    fn prefetch_fill_not_counted() {
        let mut c = small();
        c.fill(0x100);
        assert_eq!(c.accesses(), 0);
        assert_eq!(c.access(0x100), Lookup::Hit);
    }

    #[test]
    fn distinct_tags_same_set() {
        let mut c = small();
        c.access(0x000);
        assert!(c.contains(0x000));
        assert!(!c.contains(0x040), "different tag, same set");
    }

    #[test]
    fn table_i_shapes_construct() {
        use crate::config::TimingConfig;
        let cfg = TimingConfig::default();
        let _ = Cache::new(cfg.l1i);
        let _ = Cache::new(cfg.l1d);
        let _ = Cache::new(cfg.l2);
        let _ = Cache::legacy(cfg.l2);
    }

    #[test]
    fn count_hit_matches_probed_hit_counters() {
        let mut probed = small();
        let mut shortcut = small();
        probed.access(0x40);
        shortcut.access(0x40);
        probed.access(0x40); // probed repeat hit
        shortcut.count_hit(); // shortcut repeat hit
        assert_eq!(probed.accesses(), shortcut.accesses());
        assert_eq!(probed.misses(), shortcut.misses());
    }

    #[test]
    fn flat_and_legacy_layouts_are_bit_exact() {
        // Random-ish address streams over several shapes, including the
        // odd 1-way case: every lookup outcome, presence answer and
        // counter must match between the two layouts.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for &(size, block, ways) in
            &[(128u32, 16u32, 2u32), (1024, 32, 4), (4096, 64, 8), (256, 16, 1)]
        {
            let p = CacheParams { size, block, ways, hit_latency: 1 };
            let mut flat = Cache::new(p);
            let mut legacy = Cache::legacy(p);
            for i in 0..4000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let addr = x % (8 * size as u64); // 8x capacity: plenty of evictions
                match i % 5 {
                    4 => {
                        flat.fill(addr);
                        legacy.fill(addr);
                    }
                    _ => assert_eq!(flat.access(addr), legacy.access(addr), "access {i}"),
                }
                assert_eq!(flat.contains(addr), legacy.contains(addr));
                assert_eq!(
                    flat.contains(addr ^ (size as u64)),
                    legacy.contains(addr ^ (size as u64))
                );
            }
            assert_eq!(flat.accesses(), legacy.accesses());
            assert_eq!(flat.misses(), legacy.misses());
        }
    }
}
