//! Simulated flat memory: an arena of `f32` words with byte addressing.
//!
//! The functional half of the simulator operates on real `f32` data stored in
//! one contiguous `Vec<f32>`; the timing half (the cache hierarchy) sees byte
//! addresses derived from the arena layout. Buffers are bump-allocated and
//! aligned to cache-line boundaries so that distinct buffers never share a
//! line, mirroring how `malloc`'d matrices behave in the original Darknet
//! code.

/// Base virtual address of the arena. Non-zero so that "address 0" bugs trap.
pub const ARENA_BASE: u64 = 0x0001_0000;

/// Alignment of every allocation, in `f32` words (64 B = one typical line).
pub const ALLOC_ALIGN_WORDS: usize = 16;

/// Words the arena reserves before its first allocation (64 MiB). glibc
/// maps a block this large on its own (it is above the 32 MiB ceiling of
/// the dynamic mmap threshold), so pages no allocation touches cost no
/// resident memory, and growth past the reservation is a remap rather than
/// a copy. An arena grown from empty instead copies itself at every
/// doubling, which raised the host benchmark's peak memory by up to 9%.
const RESERVE_WORDS: usize = 16 << 20;

/// A handle to a contiguous buffer of `f32` words inside a [`Memory`] arena.
///
/// `Buf` is `Copy` and carries no lifetime; it is validated against the arena
/// on access. Addresses are in bytes, like the hardware would see.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Buf {
    /// First byte address of the buffer.
    pub base: u64,
    /// Length in `f32` words.
    pub words: usize,
}

impl Buf {
    /// Byte address of element `idx`.
    ///
    /// # Panics
    /// Panics in debug builds if `idx` is out of bounds.
    #[inline]
    pub fn addr(&self, idx: usize) -> u64 {
        debug_assert!(idx < self.words, "Buf::addr: index {idx} out of {} words", self.words);
        self.base + 4 * idx as u64
    }

    /// Byte length of the buffer.
    #[inline]
    pub fn bytes(&self) -> usize {
        self.words * 4
    }

    /// A sub-buffer spanning `words` elements starting at element `offset`.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    #[inline]
    pub fn slice(&self, offset: usize, words: usize) -> Buf {
        assert!(
            offset + words <= self.words,
            "Buf::slice: range {offset}..{} exceeds {} words",
            offset + words,
            self.words
        );
        Buf { base: self.base + 4 * offset as u64, words }
    }
}

/// One live allocation: its handle plus a human-readable label, kept so
/// out-of-range accesses and sanitizer findings can name the buffer they
/// concern instead of reporting a bare address.
#[derive(Debug, Clone)]
pub struct AllocRecord {
    /// Label given at allocation time (`"buf{n}"` if unnamed).
    pub label: String,
    /// The handle returned to the caller (unpadded extent).
    pub buf: Buf,
}

impl AllocRecord {
    /// Whether byte address `addr` falls inside this allocation.
    #[inline]
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.buf.base && addr < self.buf.base + self.buf.bytes() as u64
    }
}

/// The simulated memory arena.
///
/// All tensors, packed matrices, and scratch buffers used by the simulated
/// kernels live here. Allocation is a bump pointer: the CNN inference working
/// set is allocated once per network and reused across layers, exactly like
/// Darknet's `workspace` buffer. The arena grows with the bump pointer, so
/// nothing sizes it in advance; addresses depend on the bump pointer alone.
#[derive(Debug)]
pub struct Memory {
    /// Backing words: at least `next` of them (more after a `reset`).
    data: Vec<f32>,
    /// Next free word offset.
    next: usize,
    /// Registry of live allocations, in address order (bump allocator).
    allocs: Vec<AllocRecord>,
}

impl Default for Memory {
    fn default() -> Self {
        Self::new()
    }
}

impl Memory {
    /// An empty arena that grows on demand.
    pub fn new() -> Self {
        Memory { data: Vec::with_capacity(RESERVE_WORDS), next: 0, allocs: Vec::new() }
    }

    /// Allocate a zero-initialised buffer of `words` elements with an
    /// auto-generated label (`"buf{n}"`).
    pub fn alloc(&mut self, words: usize) -> Buf {
        let label = format!("buf{}", self.allocs.len());
        self.alloc_named(&label, words)
    }

    /// Allocate a zero-initialised buffer of `words` elements, registered
    /// under `label` so that diagnostics can name it.
    pub fn alloc_named(&mut self, label: &str, words: usize) -> Buf {
        let base_word = self.next;
        self.next += words.div_ceil(ALLOC_ALIGN_WORDS) * ALLOC_ALIGN_WORDS;
        // Words below the backing length are memory reused after `reset`;
        // the words growth adds are zero already. Each is zeroed once.
        let reused = self.data.len().min(base_word + words);
        self.data[base_word..reused].fill(0.0);
        if self.data.len() < self.next {
            self.data.resize(self.next, 0.0);
        }
        let buf = Buf { base: ARENA_BASE + 4 * base_word as u64, words };
        self.allocs.push(AllocRecord { label: label.to_string(), buf });
        buf
    }

    /// Allocate and fill from a host slice.
    pub fn alloc_from(&mut self, src: &[f32]) -> Buf {
        let buf = self.alloc(src.len());
        self.slice_mut(buf).copy_from_slice(src);
        buf
    }

    /// Release everything allocated so far (the data is left in place until
    /// overwritten). Buffers handed out earlier must not be used afterwards.
    pub fn reset(&mut self) {
        self.next = 0;
        self.allocs.clear();
    }

    /// The registry of live allocations, in address order.
    pub fn allocs(&self) -> &[AllocRecord] {
        &self.allocs
    }

    /// The allocation containing byte address `addr`, if any.
    pub fn find_alloc(&self, addr: u64) -> Option<&AllocRecord> {
        self.allocs.iter().find(|r| r.contains(addr))
    }

    /// Validate that the byte range `[lo, hi)` lies inside the allocated
    /// portion of the arena. On failure, returns a message naming the
    /// nearest buffer (the one containing `lo`, or the last one before it)
    /// so the caller can report which `Buf` an access overran.
    ///
    /// This is the *coarse* check used for hard failures: accesses inside
    /// alignment padding between buffers are accepted here (kernels may
    /// legitimately read whole lines); per-allocation precision is the
    /// out-of-bounds sanitizer pass's job.
    pub fn check_range(&self, lo: u64, hi: u64) -> Result<(), String> {
        let end = ARENA_BASE + 4 * self.next as u64;
        if lo >= ARENA_BASE && hi <= end && lo <= hi {
            return Ok(());
        }
        let culprit = self
            .find_alloc(lo)
            .or_else(|| self.allocs.iter().rev().find(|r| r.buf.base <= lo))
            .or_else(|| self.allocs.first());
        let near = match culprit {
            Some(r) => format!(
                "nearest buffer `{}` spans {:#x}..{:#x} ({} words)",
                r.label,
                r.buf.base,
                r.buf.base + r.buf.bytes() as u64,
                r.buf.words
            ),
            None => "no buffers allocated".to_string(),
        };
        Err(format!(
            "address range {lo:#x}..{hi:#x} outside allocated arena {ARENA_BASE:#x}..{end:#x}; \
             {near}"
        ))
    }

    /// Words currently allocated.
    pub fn used_words(&self) -> usize {
        self.next
    }

    #[inline]
    fn word_index(&self, buf: Buf) -> usize {
        debug_assert!(buf.base >= ARENA_BASE, "Buf from a different arena");
        ((buf.base - ARENA_BASE) / 4) as usize
    }

    /// Immutable view of a buffer's data.
    #[inline]
    pub fn slice(&self, buf: Buf) -> &[f32] {
        let w = self.word_index(buf);
        &self.data[w..w + buf.words]
    }

    /// Mutable view of a buffer's data.
    #[inline]
    pub fn slice_mut(&mut self, buf: Buf) -> &mut [f32] {
        let w = self.word_index(buf);
        &mut self.data[w..w + buf.words]
    }

    /// Two disjoint mutable views (e.g. pack source and destination).
    ///
    /// # Panics
    /// Panics if the buffers overlap.
    pub fn slice_mut2(&mut self, a: Buf, b: Buf) -> (&mut [f32], &mut [f32]) {
        let wa = self.word_index(a);
        let wb = self.word_index(b);
        assert!(wa + a.words <= wb || wb + b.words <= wa, "slice_mut2: overlapping buffers");
        if wa < wb {
            let (lo, hi) = self.data.split_at_mut(wb);
            (&mut lo[wa..wa + a.words], &mut hi[..b.words])
        } else {
            let (lo, hi) = self.data.split_at_mut(wa);
            let (bs, as_) = (&mut lo[wb..wb + b.words], &mut hi[..a.words]);
            (as_, bs)
        }
    }

    /// Read one element.
    #[inline]
    pub fn read(&self, buf: Buf, idx: usize) -> f32 {
        self.slice(buf)[idx]
    }

    /// Write one element.
    #[inline]
    pub fn write(&mut self, buf: Buf, idx: usize, v: f32) {
        self.slice_mut(buf)[idx] = v;
    }

    /// Immutable view of `n` words starting at absolute byte address `addr`
    /// (must be in-arena and 4-byte aligned).
    #[inline]
    pub fn words(&self, addr: u64, n: usize) -> &[f32] {
        debug_assert!(addr >= ARENA_BASE && addr.is_multiple_of(4));
        let w = ((addr - ARENA_BASE) / 4) as usize;
        &self.data[w..w + n]
    }

    /// Mutable view of `n` words starting at absolute byte address `addr`.
    #[inline]
    pub fn words_mut(&mut self, addr: u64, n: usize) -> &mut [f32] {
        debug_assert!(addr >= ARENA_BASE && addr.is_multiple_of(4));
        let w = ((addr - ARENA_BASE) / 4) as usize;
        &mut self.data[w..w + n]
    }

    /// Raw word read by absolute byte address (must be in-arena and aligned).
    #[inline]
    pub fn read_addr(&self, addr: u64) -> f32 {
        debug_assert!(addr >= ARENA_BASE && addr.is_multiple_of(4));
        self.data[((addr - ARENA_BASE) / 4) as usize]
    }

    /// Raw word write by absolute byte address.
    #[inline]
    pub fn write_addr(&mut self, addr: u64, v: f32) {
        debug_assert!(addr >= ARENA_BASE && addr.is_multiple_of(4));
        self.data[((addr - ARENA_BASE) / 4) as usize] = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_line_aligned_and_disjoint() {
        let mut m = Memory::new();
        let a = m.alloc(5);
        let b = m.alloc(17);
        assert_eq!(a.base % 64, 0);
        assert_eq!(b.base % 64, 0);
        assert!(a.base + a.bytes() as u64 <= b.base);
    }

    #[test]
    fn alloc_zeroes_after_reset_reuse() {
        let mut m = Memory::new();
        let a = m.alloc(8);
        m.slice_mut(a).fill(3.0);
        m.reset();
        let b = m.alloc(8);
        assert!(m.slice(b).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = Memory::new();
        let a = m.alloc(10);
        m.write(a, 3, 1.5);
        assert_eq!(m.read(a, 3), 1.5);
        assert_eq!(m.read_addr(a.addr(3)), 1.5);
        m.write_addr(a.addr(4), 2.5);
        assert_eq!(m.read(a, 4), 2.5);
    }

    #[test]
    fn sub_buffer_addresses() {
        let mut m = Memory::new();
        let a = m.alloc(64);
        let s = a.slice(16, 8);
        assert_eq!(s.base, a.base + 64);
        assert_eq!(s.words, 8);
        m.write(a, 16, 7.0);
        assert_eq!(m.read(s, 0), 7.0);
    }

    #[test]
    fn slice_mut2_disjoint_both_orders() {
        let mut m = Memory::new();
        let a = m.alloc(16);
        let b = m.alloc(16);
        {
            let (sa, sb) = m.slice_mut2(a, b);
            sa.fill(1.0);
            sb.fill(2.0);
        }
        let (sb, sa) = m.slice_mut2(b, a);
        assert!(sb.iter().all(|&x| x == 2.0));
        assert!(sa.iter().all(|&x| x == 1.0));
    }

    #[test]
    fn arena_grows_past_its_reservation() {
        let mut m = Memory::new();
        let a = m.alloc_named("first", 5);
        m.slice_mut(a).fill(1.0);
        let big = m.alloc_named("big", RESERVE_WORDS);
        let last = m.alloc_named("last", 7);
        assert!(m.used_words() > RESERVE_WORDS, "the allocations straddle the reservation");
        assert_eq!(a.base, ARENA_BASE);
        assert_eq!(m.find_alloc(a.base).unwrap().buf, a);
        assert!(m.slice(a).iter().all(|&w| w == 1.0), "growth keeps earlier data");
        for b in [big, last] {
            assert_eq!(b.base % 64, 0);
            assert!(m.slice(b).iter().all(|&w| w == 0.0));
        }
        assert!(a.base + a.bytes() as u64 <= big.base);
        assert!(big.base + big.bytes() as u64 <= last.base);
        let end = ARENA_BASE + 4 * m.used_words() as u64;
        assert!(m.check_range(last.base, end).is_ok());
        let err = m.check_range(end, end + 4).unwrap_err();
        assert!(err.contains("last"), "error must name the last buffer: {err}");

        m.slice_mut(big).fill(2.0);
        m.reset();
        // Reuses every word allocated so far, then grows again.
        let again = m.alloc(RESERVE_WORDS + 64);
        assert!(m.slice(again).iter().all(|&w| w == 0.0), "reused words are zeroed");
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn slice_mut2_overlap_panics() {
        let mut m = Memory::new();
        let a = m.alloc(32);
        let sub = a.slice(8, 8);
        let _ = m.slice_mut2(a, sub);
    }

    #[test]
    fn named_allocs_are_registered_and_found() {
        let mut m = Memory::new();
        let a = m.alloc_named("weights", 10);
        let b = m.alloc(5);
        assert_eq!(m.allocs().len(), 2);
        assert_eq!(m.allocs()[0].label, "weights");
        assert_eq!(m.allocs()[1].label, "buf1");
        assert_eq!(m.find_alloc(a.addr(3)).unwrap().label, "weights");
        assert_eq!(m.find_alloc(b.addr(0)).unwrap().buf, b);
        // Padding between allocations belongs to no buffer.
        assert!(m.find_alloc(a.base + a.bytes() as u64).is_none());
        m.reset();
        assert!(m.allocs().is_empty());
    }

    #[test]
    fn check_range_accepts_allocated_and_names_culprit() {
        let mut m = Memory::new();
        let a = m.alloc_named("im2col", 32);
        assert!(m.check_range(a.base, a.base + a.bytes() as u64).is_ok());
        // Padding within the allocated bump region is coarse-OK.
        assert!(m.check_range(a.base, a.base + 64).is_ok());
        let err = m.check_range(a.base, a.base + 4096).unwrap_err();
        assert!(err.contains("im2col"), "error must name the buffer: {err}");
        assert!(m.check_range(0, 4).is_err(), "below the arena base");
    }

    #[test]
    fn reset_rewinds_the_allocator() {
        let mut m = Memory::new();
        let a = m.alloc(100);
        m.slice_mut(a).fill(1.0);
        m.reset();
        let b = m.alloc(10);
        assert_eq!(b.base, a.base, "the arena is reused from its start");
        assert!(m.used_words() < 100);
        assert!(m.slice(b).iter().all(|&w| w == 0.0), "reused words are zeroed");
    }
}
