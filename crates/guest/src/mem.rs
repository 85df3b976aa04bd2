//! Sparse paged guest memory.
//!
//! The guest sees a flat 32-bit address space. Pages (4 KiB) are allocated
//! lazily on first touch, so programs with large but sparsely-used
//! footprints stay cheap to model.
//!
//! # Zero-fill semantics
//!
//! Reads of memory never touched by a write return zero — this is a
//! contract, not an accident, and the workload generator relies on it for
//! its data regions. It interacts with the generation stamps as follows:
//! an unmapped page reads as all-zero *and* reports [`GuestMem::page_gen`]
//! of 0; the first write to it allocates the page and stamps it with a
//! non-zero generation. Any cache layered on top (the interpreter's decode
//! cache, the micro-op buffers, or the internal L0 page-pointer cache
//! here) therefore must never memoize "page absent" — a later first-touch
//! write would not be observable through a cached negative. The L0 cache
//! below only ever holds *present* pages, so a first-touch write is always
//! seen (the page was a miss before it, and its slot is found through the
//! authoritative index after it).
//!
//! # Fast path vs. byte oracle
//!
//! Historically every multi-byte access was composed from per-byte
//! `HashMap` page lookups. That byte-wise code is retained as the
//! always-available oracle (`fast_path(false)`), while the default fast
//! path serves aligned-enough in-page accesses with a single page lookup
//! through a small most-recently-used page-pointer cache. Both paths
//! produce bit-identical memory contents *and* bit-identical generation
//! stamps: a width-`N` fast write advances the global write-generation
//! counter by `N` and stamps the page with the final value, exactly as
//! `N` byte writes would.

use std::cell::Cell;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u32 = (PAGE_SIZE as u32) - 1;

/// Ways in the L0 page-pointer cache (most-recently-used order).
const L0_WAYS: usize = 4;

/// One L0 entry: page number -> slot index. `pn == u32::MAX` marks an
/// empty way (u32::MAX is a legal *address* but not a legal page number,
/// since page numbers are `addr >> 12`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct L0Entry {
    pn: u32,
    slot: u32,
}

const L0_EMPTY: L0Entry = L0Entry { pn: u32::MAX, slot: 0 };

/// Sparse 32-bit guest address space with 4 KiB pages.
///
/// Every write bumps a global write-generation counter and stamps the
/// touched page with it, so consumers that cache derived views of memory
/// (e.g. the interpreter's decoded-instruction cache and the micro-op
/// buffers) can detect self-modifying code with one
/// [`GuestMem::page_gen`] comparison.
///
/// Page storage is a slot table (`slots`) addressed through an index map;
/// pages are never deallocated, so slot indices are stable for the life
/// of the address space and can be cached in the L0 page-pointer cache.
/// Generation stamps live beside the frames, one per slot: a page is
/// allocated by its first write, so every present page has a non-zero
/// stamp and an absent page needs none.
#[derive(Debug, Clone)]
pub struct GuestMem {
    /// Page frames. Stable: pages are only ever appended.
    slots: Vec<Box<[u8; PAGE_SIZE]>>,
    /// Page number -> index into `slots`.
    index: std::collections::HashMap<u32, u32>,
    /// Write generation of each slot's page, indexed like `slots`.
    gens: Vec<u64>,
    write_gen: u64,
    /// Gates the width-native access paths and the L0 cache. Off = the
    /// original per-byte oracle path.
    fast: bool,
    /// L0 page-pointer cache, MRU-ordered. Interior-mutable so reads can
    /// refresh it; this costs `Sync` (the type stays `Send`), which is
    /// fine — the address space is never shared across threads.
    l0: Cell<[L0Entry; L0_WAYS]>,
}

impl Default for GuestMem {
    fn default() -> GuestMem {
        GuestMem {
            slots: Vec::new(),
            index: std::collections::HashMap::new(),
            gens: Vec::new(),
            write_gen: 0,
            fast: true,
            l0: Cell::new([L0_EMPTY; L0_WAYS]),
        }
    }
}

impl GuestMem {
    /// Creates an empty address space (all bytes read as zero) with the
    /// fast path enabled.
    pub fn new() -> GuestMem {
        GuestMem::default()
    }

    /// Enables or disables the width-native fast path and L0 cache.
    /// Either setting produces bit-identical contents and generation
    /// stamps; off is the per-byte oracle.
    pub fn set_fast_path(&mut self, on: bool) {
        self.fast = on;
        self.l0.set([L0_EMPTY; L0_WAYS]);
    }

    /// Whether the width-native fast path is enabled.
    pub fn fast_path(&self) -> bool {
        self.fast
    }

    /// Number of pages that have been touched by a write.
    pub fn resident_pages(&self) -> usize {
        self.index.len()
    }

    /// Looks up the slot of a *present* page, consulting and refreshing
    /// the L0 cache when the fast path is on. Never caches absence (see
    /// the module docs on zero-fill semantics).
    #[inline]
    fn slot_of(&self, pn: u32) -> Option<u32> {
        if self.fast {
            let mut l0 = self.l0.get();
            for i in 0..L0_WAYS {
                if l0[i].pn == pn {
                    if i != 0 {
                        l0.swap(0, i);
                        self.l0.set(l0);
                    }
                    return Some(l0[0].slot);
                }
            }
            let slot = *self.index.get(&pn)?;
            for i in (1..L0_WAYS).rev() {
                l0[i] = l0[i - 1];
            }
            l0[0] = L0Entry { pn, slot };
            self.l0.set(l0);
            Some(slot)
        } else {
            self.index.get(&pn).copied()
        }
    }

    /// Accounts for a write of `n` bytes within page `pn`:
    /// advances the write-generation counter by `n`, stamps the page
    /// with the new value, and returns its frame, allocating it
    /// (zero-filled) on first touch.
    #[inline]
    fn write_page(&mut self, pn: u32, n: u64) -> &mut [u8; PAGE_SIZE] {
        let slot = match self.slot_of(pn) {
            Some(s) => s as usize,
            None => {
                let s = self.slots.len();
                self.slots.push(Box::new([0u8; PAGE_SIZE]));
                self.gens.push(0);
                self.index.insert(pn, s as u32);
                s
            }
        };
        self.write_gen += n;
        self.gens[slot] = self.write_gen;
        &mut self.slots[slot]
    }

    /// Reads one byte. Untouched memory reads as zero.
    #[inline]
    pub fn read_u8(&self, addr: u32) -> u8 {
        match self.slot_of(addr >> PAGE_SHIFT) {
            Some(s) => self.slots[s as usize][(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// Writes one byte, allocating the page if needed.
    #[inline]
    pub fn write_u8(&mut self, addr: u32, val: u8) {
        self.write_page(addr >> PAGE_SHIFT, 1)[(addr & PAGE_MASK) as usize] = val;
    }

    /// Write generation of the page containing `addr`: strictly
    /// monotonic across writes anywhere, per-page precise. A page never
    /// written is generation 0 (and reads as zero — see the module docs).
    #[inline]
    pub fn page_gen(&self, addr: u32) -> u64 {
        self.slot_of(addr >> PAGE_SHIFT).map_or(0, |s| self.gens[s as usize])
    }

    /// The global write-generation counter (total bytes written).
    pub fn write_gen(&self) -> u64 {
        self.write_gen
    }

    /// Reads `W` little-endian bytes in one page lookup when the access
    /// stays within a page; returns `None` (caller falls back to the
    /// byte path) on page-crossing or when the fast path is off.
    #[inline]
    fn read_in_page<const W: usize>(&self, addr: u32) -> Option<[u8; W]> {
        let off = (addr & PAGE_MASK) as usize;
        if !self.fast || off > PAGE_SIZE - W {
            return None;
        }
        Some(match self.slot_of(addr >> PAGE_SHIFT) {
            Some(s) => {
                let p = &self.slots[s as usize];
                p[off..off + W].try_into().expect("in-page slice of width W")
            }
            None => [0u8; W],
        })
    }

    /// Writes `W` little-endian bytes in one page lookup when in-page;
    /// generation arithmetic is identical to `W` byte writes (counter
    /// advances by `W`, page stamped with the final value). Returns
    /// `false` (caller falls back) on page-crossing or fast-path-off.
    #[inline]
    fn write_in_page<const W: usize>(&mut self, addr: u32, bytes: [u8; W]) -> bool {
        let off = (addr & PAGE_MASK) as usize;
        if !self.fast || off > PAGE_SIZE - W {
            return false;
        }
        self.write_page(addr >> PAGE_SHIFT, W as u64)[off..off + W].copy_from_slice(&bytes);
        true
    }

    /// Reads a little-endian 16-bit halfword.
    #[inline]
    pub fn read_u16(&self, addr: u32) -> u16 {
        if let Some(b) = self.read_in_page::<2>(addr) {
            return u16::from_le_bytes(b);
        }
        self.read_u8(addr) as u16 | (self.read_u8(addr.wrapping_add(1)) as u16) << 8
    }

    /// Writes a little-endian 16-bit halfword.
    #[inline]
    pub fn write_u16(&mut self, addr: u32, val: u16) {
        if self.write_in_page(addr, val.to_le_bytes()) {
            return;
        }
        self.write_u8(addr, val as u8);
        self.write_u8(addr.wrapping_add(1), (val >> 8) as u8);
    }

    /// Reads a little-endian 32-bit word (unaligned is fine, wrapping at
    /// the top of the address space).
    #[inline]
    pub fn read_u32(&self, addr: u32) -> u32 {
        if let Some(b) = self.read_in_page::<4>(addr) {
            return u32::from_le_bytes(b);
        }
        let mut v = 0u32;
        for i in 0..4 {
            v |= (self.read_u8(addr.wrapping_add(i)) as u32) << (8 * i);
        }
        v
    }

    /// Writes a little-endian 32-bit word.
    #[inline]
    pub fn write_u32(&mut self, addr: u32, val: u32) {
        if self.write_in_page(addr, val.to_le_bytes()) {
            return;
        }
        for (i, b) in val.to_le_bytes().iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u32), *b);
        }
    }

    /// Reads a little-endian 64-bit word.
    #[inline]
    pub fn read_u64(&self, addr: u32) -> u64 {
        if let Some(b) = self.read_in_page::<8>(addr) {
            return u64::from_le_bytes(b);
        }
        let lo = self.read_u32(addr) as u64;
        let hi = self.read_u32(addr.wrapping_add(4)) as u64;
        lo | (hi << 32)
    }

    /// Writes a little-endian 64-bit word.
    #[inline]
    pub fn write_u64(&mut self, addr: u32, val: u64) {
        if self.write_in_page(addr, val.to_le_bytes()) {
            return;
        }
        self.write_u32(addr, val as u32);
        self.write_u32(addr.wrapping_add(4), (val >> 32) as u32);
    }

    /// Reads an `f64` stored with [`GuestMem::write_f64`].
    pub fn read_f64(&self, addr: u32) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes an `f64` as its IEEE-754 bit pattern.
    pub fn write_f64(&mut self, addr: u32, val: f64) {
        self.write_u64(addr, val.to_bits());
    }

    /// Copies a byte slice into memory starting at `addr`. Under the
    /// fast path this goes page-chunk at a time with the same generation
    /// arithmetic as the byte loop (each touched page is stamped with
    /// the counter value after its last byte, in ascending order).
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) {
        if !self.fast {
            for (i, b) in bytes.iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as u32), *b);
            }
            return;
        }
        let mut a = addr;
        let mut rest = bytes;
        while !rest.is_empty() {
            let off = (a & PAGE_MASK) as usize;
            let n = rest.len().min(PAGE_SIZE - off);
            self.write_page(a >> PAGE_SHIFT, n as u64)[off..off + n].copy_from_slice(&rest[..n]);
            a = a.wrapping_add(n as u32);
            rest = &rest[n..];
        }
    }

    /// Copies `buf.len()` bytes out of memory starting at `addr`
    /// (untouched ranges read as zero).
    pub fn read_bytes(&self, addr: u32, buf: &mut [u8]) {
        if !self.fast {
            for (i, b) in buf.iter_mut().enumerate() {
                *b = self.read_u8(addr.wrapping_add(i as u32));
            }
            return;
        }
        let mut a = addr;
        let mut rest = &mut buf[..];
        while !rest.is_empty() {
            let off = (a & PAGE_MASK) as usize;
            let n = rest.len().min(PAGE_SIZE - off);
            match self.slot_of(a >> PAGE_SHIFT) {
                Some(s) => rest[..n].copy_from_slice(&self.slots[s as usize][off..off + n]),
                None => rest[..n].fill(0),
            }
            a = a.wrapping_add(n as u32);
            rest = &mut rest[n..];
        }
    }

    /// Returns up to `max` bytes starting at `addr`, for use by the
    /// instruction decoder.
    pub fn window(&self, addr: u32, max: usize) -> Vec<u8> {
        let mut buf = vec![0u8; max];
        self.read_bytes(addr, &mut buf);
        buf
    }

    /// Compares two address spaces byte-for-byte and returns the address
    /// of the first difference, treating absent pages as zero-filled.
    pub fn first_difference(&self, other: &GuestMem) -> Option<u32> {
        let mut pages: Vec<u32> = self.index.keys().chain(other.index.keys()).copied().collect();
        pages.sort_unstable();
        pages.dedup();
        const ZERO: [u8; PAGE_SIZE] = [0; PAGE_SIZE];
        for p in pages {
            let a = self.index.get(&p).map_or(&ZERO, |&s| &*self.slots[s as usize]);
            let b = other.index.get(&p).map_or(&ZERO, |&s| &*other.slots[s as usize]);
            if a != b {
                let off = a.iter().zip(b.iter()).position(|(x, y)| x != y).unwrap_or(0);
                return Some((p << PAGE_SHIFT) + off as u32);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let m = GuestMem::new();
        assert_eq!(m.read_u8(0), 0);
        assert_eq!(m.read_u32(0xFFFF_FFFC), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    /// Pins the contract documented at the top of this module: an
    /// unmapped page reads as zero with generation 0, and the first
    /// write is visible immediately through every access path — the L0
    /// cache must never have memoized the page's absence.
    #[test]
    fn zero_fill_first_touch_is_visible() {
        for fast in [false, true] {
            let mut m = GuestMem::new();
            m.set_fast_path(fast);
            // Read the page while unmapped (would prime any negative cache).
            assert_eq!(m.read_u32(0x9000), 0);
            assert_eq!(m.read_u8(0x9002), 0);
            assert_eq!(m.page_gen(0x9000), 0);
            // First-touch write must be observed by both access widths.
            m.write_u8(0x9002, 0xAB);
            assert_eq!(m.read_u8(0x9002), 0xAB);
            assert_eq!(m.read_u32(0x9000), 0x00AB_0000);
            assert!(m.page_gen(0x9000) > 0, "fast={fast}");
        }
    }

    #[test]
    fn rw_roundtrip() {
        let mut m = GuestMem::new();
        m.write_u32(0x1000, 0xDEAD_BEEF);
        assert_eq!(m.read_u32(0x1000), 0xDEAD_BEEF);
        assert_eq!(m.read_u8(0x1000), 0xEF);
        assert_eq!(m.read_u8(0x1003), 0xDE);
        m.write_u64(0x2000, 0x0123_4567_89AB_CDEF);
        assert_eq!(m.read_u64(0x2000), 0x0123_4567_89AB_CDEF);
        m.write_f64(0x3000, -1.5);
        assert_eq!(m.read_f64(0x3000), -1.5);
    }

    #[test]
    fn unaligned_cross_page() {
        let mut m = GuestMem::new();
        // Straddles the page boundary at 0x1000.
        m.write_u32(0x0FFE, 0xAABB_CCDD);
        assert_eq!(m.read_u32(0x0FFE), 0xAABB_CCDD);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn u16_roundtrip() {
        let mut m = GuestMem::new();
        m.write_u16(0x7FF, 0xBEEF); // straddles nothing special
        assert_eq!(m.read_u16(0x7FF), 0xBEEF);
        assert_eq!(m.read_u8(0x7FF), 0xEF);
        assert_eq!(m.read_u8(0x800), 0xBE);
    }

    #[test]
    fn bytes_roundtrip() {
        let mut m = GuestMem::new();
        let data: Vec<u8> = (0..=255).collect();
        m.write_bytes(0x5000, &data);
        let mut back = vec![0u8; 256];
        m.read_bytes(0x5000, &mut back);
        assert_eq!(back, data);
    }

    #[test]
    fn write_generations_are_per_page_precise() {
        let mut m = GuestMem::new();
        assert_eq!(m.page_gen(0x1000), 0);
        m.write_u8(0x1000, 1);
        let g1 = m.page_gen(0x1000);
        assert!(g1 > 0);
        // A write to a *different* page leaves this page's stamp alone.
        m.write_u8(0x5000, 2);
        assert_eq!(m.page_gen(0x1000), g1);
        assert!(m.page_gen(0x5000) > g1);
        // A second write to the same page advances its stamp.
        m.write_u8(0x1FFF, 3);
        assert!(m.page_gen(0x1000) > g1);
        assert_eq!(m.write_gen(), 3);
    }

    #[test]
    fn address_wraparound() {
        let mut m = GuestMem::new();
        m.write_u32(u32::MAX - 1, 0x1122_3344);
        assert_eq!(m.read_u32(u32::MAX - 1), 0x1122_3344);
        assert_eq!(m.read_u8(0), 0x22);
        assert_eq!(m.read_u8(1), 0x11);
    }

    /// Fast and oracle paths must agree on contents *and* generation
    /// stamps for every width, including page-straddling accesses.
    #[test]
    fn fast_path_matches_byte_oracle() {
        let addrs =
            [0x1000, 0x1001, 0x0FFE, 0x0FFF, 0x1FFC, 0x1FFD, 0x2FFA, u32::MAX - 3, u32::MAX];
        let mut fast = GuestMem::new();
        let mut oracle = GuestMem::new();
        oracle.set_fast_path(false);
        let mut x = 0x1234_5678_9ABC_DEFFu64;
        for &a in &addrs {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            fast.write_u8(a, x as u8);
            oracle.write_u8(a, x as u8);
            fast.write_u16(a.wrapping_add(2), x as u16);
            oracle.write_u16(a.wrapping_add(2), x as u16);
            fast.write_u32(a.wrapping_add(4), x as u32);
            oracle.write_u32(a.wrapping_add(4), x as u32);
            fast.write_u64(a.wrapping_add(8), x);
            oracle.write_u64(a.wrapping_add(8), x);
            fast.write_bytes(a.wrapping_add(16), &x.to_le_bytes());
            oracle.write_bytes(a.wrapping_add(16), &x.to_le_bytes());
        }
        assert_eq!(fast.write_gen(), oracle.write_gen());
        assert_eq!(fast.first_difference(&oracle), None);
        for &a in &addrs {
            assert_eq!(fast.page_gen(a), oracle.page_gen(a), "page_gen at {a:#x}");
            for off in 0..24u32 {
                let p = a.wrapping_add(off);
                assert_eq!(fast.read_u8(p), oracle.read_u8(p));
                assert_eq!(fast.read_u16(p), oracle.read_u16(p));
                assert_eq!(fast.read_u32(p), oracle.read_u32(p));
                assert_eq!(fast.read_u64(p), oracle.read_u64(p));
            }
            let mut bf = [0u8; 40];
            let mut bo = [0u8; 40];
            fast.read_bytes(a, &mut bf);
            oracle.read_bytes(a, &mut bo);
            assert_eq!(bf, bo);
        }
    }
}
