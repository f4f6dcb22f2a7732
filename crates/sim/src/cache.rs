//! Set-associative, true-LRU, write-allocate / write-back cache model.
//!
//! The model is timing-directed, not data-carrying: data always lives in the
//! [`crate::Memory`] arena; the cache tracks only which lines are resident,
//! their LRU order, and dirtiness, and counts hits/misses/writebacks. This is
//! the same separation gem5's classic caches make between functional and
//! timing state in syscall-emulation mode.

/// Whether an access reads or writes the line (writes set the dirty bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    Read,
    Write,
}

/// Static geometry and latency of one cache level.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Human-readable name used in reports ("L1D", "L2", "VC").
    pub name: &'static str,
    /// Total capacity in bytes. Must be a multiple of `line_bytes * assoc`.
    pub bytes: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Access (hit) latency in cycles.
    pub hit_latency: u32,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    /// Panics when [`CacheConfig::try_sets`] rejects the geometry.
    pub fn sets(&self) -> usize {
        self.try_sets().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Number of sets implied by the geometry, or why it implies none: a
    /// capacity below one set or not a whole number of sets, or a set count
    /// or line size that is not a power of two.
    pub fn try_sets(&self) -> Result<usize, String> {
        let sets = self.bytes / (self.line_bytes * self.assoc);
        if sets == 0 {
            Err(format!("{}: capacity smaller than one set", self.name))
        } else if sets * self.line_bytes * self.assoc != self.bytes {
            Err(format!("{}: capacity {} not divisible by line*assoc", self.name, self.bytes))
        } else if !sets.is_power_of_two() {
            Err(format!("{}: set count {sets} not a power of two", self.name))
        } else if !self.line_bytes.is_power_of_two() {
            Err(format!("{}: line size {} not a power of two", self.name, self.line_bytes))
        } else {
            Ok(sets)
        }
    }
}

/// 3C classification of demand misses (Hill's taxonomy): *compulsory*
/// misses touch a line for the first time ever (an infinite cache would
/// also miss), *capacity* misses would recur in a fully-associative LRU
/// cache of the same size (reuse distance ≥ capacity), and *conflict*
/// misses are the remainder — set-contention artifacts a fully-associative
/// cache of the same size would have avoided.
///
/// The cache model itself cannot classify its own misses (it has no
/// infinite/fully-associative shadow); the counters are filled in by the
/// `lva-prof` reuse-distance profiler when a run is profiled, and stay zero
/// otherwise. `classified()` distinguishes "never profiled" from "profiled,
/// zero misses".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Miss3C {
    pub compulsory: u64,
    pub capacity: u64,
    pub conflict: u64,
}

impl Miss3C {
    /// Total classified misses (0 ⇒ the run was not profiled or never
    /// missed).
    pub fn classified(&self) -> u64 {
        self.compulsory + self.capacity + self.conflict
    }

    /// Merge counters from another block.
    pub fn merge(&mut self, other: &Miss3C) {
        self.compulsory += other.compulsory;
        self.capacity += other.capacity;
        self.conflict += other.conflict;
    }
}

/// Aggregate counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub accesses: u64,
    pub hits: u64,
    pub misses: u64,
    /// Dirty lines evicted (write-back traffic).
    pub writebacks: u64,
    /// Lines installed by a prefetcher rather than a demand miss.
    pub prefetch_fills: u64,
    /// Demand misses that hit a prefetched line before its first use.
    pub prefetch_hits: u64,
    /// 3C classification of `misses`, filled in by `lva-prof` when the run
    /// is profiled (all-zero otherwise; see [`Miss3C`]).
    pub three_c: Miss3C,
}

impl CacheStats {
    /// Miss rate over demand accesses, in `[0,1]`. Zero when never accessed.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Hit rate over demand accesses, in `[0,1]`. Zero when never accessed.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    /// Prefetcher accuracy: the fraction of prefetched lines that served a
    /// demand access before eviction, in `[0,1]`. Zero when nothing was
    /// prefetched.
    pub fn prefetch_accuracy(&self) -> f64 {
        if self.prefetch_fills == 0 {
            0.0
        } else {
            self.prefetch_hits as f64 / self.prefetch_fills as f64
        }
    }

    /// Merge counters from another stats block.
    pub fn merge(&mut self, other: &CacheStats) {
        self.accesses += other.accesses;
        self.hits += other.hits;
        self.misses += other.misses;
        self.writebacks += other.writebacks;
        self.prefetch_fills += other.prefetch_fills;
        self.prefetch_hits += other.prefetch_hits;
        self.three_c.merge(&other.three_c);
    }
}

/// Outcome of a demand access, reported to the caller so the next level can
/// be probed and so writeback traffic can be accounted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    Hit,
    /// Line was not resident; it has been allocated. `victim_dirty` says
    /// whether the eviction produced a writeback to the next level.
    Miss {
        victim_dirty: bool,
    },
}

const INVALID: u64 = u64::MAX;

/// Per-way metadata bit: the line has been written since installation.
const DIRTY: u8 = 1;
/// Per-way metadata bit: installed by a prefetcher, not yet demanded.
const PREFETCHED: u8 = 2;

/// One cache level. See module docs.
///
/// Ways are stored as two parallel flat arrays (`tags` / `meta`) rather than
/// an array of structs: the LRU scan in [`Self::access_line`] — the hottest
/// loop in the simulator — then touches one densely packed `u64` per way,
/// and a whole 8-way set of tags fits in a single host cache line.
#[derive(Debug)]
pub struct Cache {
    cfg: CacheConfig,
    set_shift: u32,
    /// `sets - 1`: set index mask, hoisted out of the hot loop.
    set_mask: usize,
    /// `log2(sets)`: how far a line shifts to become a tag.
    tag_shift: u32,
    /// `sets * assoc` line tags, per-set in LRU order: index 0 is MRU.
    /// `u64::MAX` marks an invalid way.
    tags: Vec<u64>,
    /// Dirty/prefetched flag bits, parallel to `tags`.
    meta: Vec<u8>,
    pub stats: CacheStats,
}

impl Cache {
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        assert!(cfg.assoc >= 1 && cfg.assoc <= 256, "associativity out of supported range");
        Cache {
            set_shift: cfg.line_bytes.trailing_zeros(),
            set_mask: sets - 1,
            tag_shift: sets.trailing_zeros(),
            tags: vec![INVALID; sets * cfg.assoc],
            meta: vec![0; sets * cfg.assoc],
            cfg,
            stats: CacheStats::default(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Line index (address divided by line size).
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.set_shift
    }

    /// Invalidate all lines and keep statistics.
    pub fn flush(&mut self) {
        self.tags.fill(INVALID);
        self.meta.fill(0);
    }

    /// Reset statistics (e.g. after a warm-up phase).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    #[inline]
    fn set_range(&self, line: u64) -> (usize, u64) {
        let set = (line as usize) & self.set_mask;
        let tag = line >> self.tag_shift;
        (set * self.cfg.assoc, tag)
    }

    /// Demand access to the line containing `addr` (line-granular: callers
    /// must deduplicate element accesses within one line themselves when that
    /// matters for counting).
    pub fn access_line(&mut self, line: u64, kind: AccessKind) -> Lookup {
        self.stats.accesses += 1;
        let (base, tag) = self.set_range(line);
        let assoc = self.cfg.assoc;
        // MRU fast path: spatial/temporal locality makes way 0 serve the
        // bulk of all hits, and no rotation is needed there.
        if self.tags[base] == tag {
            self.stats.hits += 1;
            let m = &mut self.meta[base];
            if *m & PREFETCHED != 0 {
                self.stats.prefetch_hits += 1;
                *m &= !PREFETCHED;
            }
            if kind == AccessKind::Write {
                *m |= DIRTY;
            }
            return Lookup::Hit;
        }
        // Search the remaining ways.
        for i in 1..assoc {
            if self.tags[base + i] == tag {
                self.stats.hits += 1;
                let mut m = self.meta[base + i];
                if m & PREFETCHED != 0 {
                    self.stats.prefetch_hits += 1;
                    m &= !PREFETCHED;
                }
                if kind == AccessKind::Write {
                    m |= DIRTY;
                }
                // Move to MRU position (both parallel arrays rotate).
                self.tags[base..=base + i].rotate_right(1);
                self.meta[base..=base + i].rotate_right(1);
                self.meta[base] = m;
                return Lookup::Hit;
            }
        }
        // Miss: evict LRU way (last slot) and install at MRU.
        self.stats.misses += 1;
        let last = base + assoc - 1;
        let victim_dirty = self.tags[last] != INVALID && self.meta[last] & DIRTY != 0;
        if victim_dirty {
            self.stats.writebacks += 1;
        }
        self.tags[base..=last].rotate_right(1);
        self.meta[base..=last].rotate_right(1);
        self.tags[base] = tag;
        self.meta[base] = if kind == AccessKind::Write { DIRTY } else { 0 };
        Lookup::Miss { victim_dirty }
    }

    /// Install a line via a prefetcher. Returns `true` if the line was newly
    /// installed (a no-op if already resident; does not bump LRU in that case
    /// to avoid prefetch pollution of recency).
    pub fn prefetch_line(&mut self, line: u64) -> bool {
        let (base, tag) = self.set_range(line);
        let assoc = self.cfg.assoc;
        if self.tags[base..base + assoc].contains(&tag) {
            return false;
        }
        let last = base + assoc - 1;
        let victim_dirty = self.tags[last] != INVALID && self.meta[last] & DIRTY != 0;
        if victim_dirty {
            self.stats.writebacks += 1;
        }
        self.tags[base..=last].rotate_right(1);
        self.meta[base..=last].rotate_right(1);
        self.tags[base] = tag;
        self.meta[base] = PREFETCHED;
        self.stats.prefetch_fills += 1;
        true
    }

    /// Whether the line containing `addr` is resident (no state change).
    pub fn contains_line(&self, line: u64) -> bool {
        let (base, tag) = self.set_range(line);
        self.tags[base..base + self.cfg.assoc].contains(&tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways x 64B = 512B
        Cache::new(CacheConfig { name: "T", bytes: 512, line_bytes: 64, assoc: 2, hit_latency: 1 })
    }

    /// A never-accessed cache must report rates of exactly 0.0 — never NaN
    /// (0/0) — so downstream JSON reports and tolerance comparisons stay
    /// well-defined without per-call-site guards.
    #[test]
    fn zero_access_rates_are_zero_not_nan() {
        let fresh = CacheStats::default();
        for r in [fresh.hit_rate(), fresh.miss_rate(), fresh.prefetch_accuracy()] {
            assert!(!r.is_nan(), "zero-denominator rate must not be NaN");
            assert_eq!(r, 0.0);
        }
        // Same through a real (untouched) cache level.
        let c = small();
        assert_eq!(c.stats.hit_rate(), 0.0);
        assert_eq!(c.stats.miss_rate(), 0.0);
        assert_eq!(c.stats.prefetch_accuracy(), 0.0);
        assert_eq!(c.stats.three_c.classified(), 0);
    }

    #[test]
    fn miss_3c_merge_adds_counters() {
        let mut a = Miss3C { compulsory: 1, capacity: 2, conflict: 3 };
        let b = Miss3C { compulsory: 10, capacity: 20, conflict: 30 };
        a.merge(&b);
        assert_eq!(a, Miss3C { compulsory: 11, capacity: 22, conflict: 33 });
        assert_eq!(a.classified(), 66);
    }

    #[test]
    fn geometry() {
        let c = small();
        assert_eq!(c.config().sets(), 4);
        assert_eq!(c.line_of(64), 1);
        assert_eq!(c.line_of(63), 0);
    }

    #[test]
    fn hit_after_miss() {
        let mut c = small();
        assert!(matches!(c.access_line(0, AccessKind::Read), Lookup::Miss { .. }));
        assert_eq!(c.access_line(0, AccessKind::Read), Lookup::Hit);
        assert_eq!(c.stats.accesses, 2);
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // Three lines mapping to set 0: line = k * sets (sets = 4).
        let (a, b, d) = (0u64, 4u64, 8u64);
        c.access_line(a, AccessKind::Read);
        c.access_line(b, AccessKind::Read);
        c.access_line(a, AccessKind::Read); // a is MRU, b is LRU
        c.access_line(d, AccessKind::Read); // evicts b
        assert!(c.contains_line(a));
        assert!(!c.contains_line(b));
        assert!(c.contains_line(d));
    }

    #[test]
    fn writeback_on_dirty_eviction() {
        let mut c = small();
        c.access_line(0, AccessKind::Write);
        c.access_line(4, AccessKind::Read);
        let r = c.access_line(8, AccessKind::Read); // evicts dirty line 0
        assert_eq!(r, Lookup::Miss { victim_dirty: true });
        assert_eq!(c.stats.writebacks, 1);
    }

    #[test]
    fn clean_eviction_no_writeback() {
        let mut c = small();
        c.access_line(0, AccessKind::Read);
        c.access_line(4, AccessKind::Read);
        let r = c.access_line(8, AccessKind::Read);
        assert_eq!(r, Lookup::Miss { victim_dirty: false });
        assert_eq!(c.stats.writebacks, 0);
    }

    #[test]
    fn prefetch_fill_then_demand_hit() {
        let mut c = small();
        assert!(c.prefetch_line(0));
        assert!(!c.prefetch_line(0));
        assert_eq!(c.access_line(0, AccessKind::Read), Lookup::Hit);
        assert_eq!(c.stats.prefetch_fills, 1);
        assert_eq!(c.stats.prefetch_hits, 1);
        // Second demand access is a plain hit, not a prefetch hit.
        c.access_line(0, AccessKind::Read);
        assert_eq!(c.stats.prefetch_hits, 1);
    }

    #[test]
    fn flush_invalidates() {
        let mut c = small();
        c.access_line(0, AccessKind::Write);
        c.flush();
        assert!(!c.contains_line(0));
        assert!(matches!(c.access_line(0, AccessKind::Read), Lookup::Miss { victim_dirty: false }));
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = small();
        for line in 0..4 {
            c.access_line(line, AccessKind::Read);
        }
        for line in 0..4 {
            assert_eq!(c.access_line(line, AccessKind::Read), Lookup::Hit);
        }
    }

    #[test]
    #[should_panic]
    fn bad_geometry_panics() {
        let _ = Cache::new(CacheConfig {
            name: "bad",
            bytes: 500, // not divisible by 64*2
            line_bytes: 64,
            assoc: 2,
            hit_latency: 1,
        });
    }

    /// LRU inclusion property: on the same trace, a cache with the same
    /// associativity geometry but more sets can only have fewer-or-equal
    /// misses for traces that stay within one set's worth of conflict...
    /// The strong property that holds for *fully-associative* LRU is
    /// capacity-monotonicity, checked here with assoc = capacity/line.
    #[test]
    fn fully_assoc_lru_miss_monotone_in_capacity() {
        let mk = |lines: usize| {
            Cache::new(CacheConfig {
                name: "FA",
                bytes: lines * 64,
                line_bytes: 64,
                assoc: lines,
                hit_latency: 1,
            })
        };
        let trace: Vec<u64> = (0..1000u64).map(|i| (i * 7919) % 37).collect();
        let mut last = u64::MAX;
        for lines in [4usize, 8, 16, 32] {
            let mut c = mk(lines);
            for &l in &trace {
                c.access_line(l, AccessKind::Read);
            }
            assert!(c.stats.misses <= last, "misses must not increase with capacity");
            last = c.stats.misses;
        }
    }

    /// Randomized property: splitting a counter block into arbitrary shards
    /// and re-merging must reproduce the whole, and the derived rates of the
    /// merge must equal the rates of the pooled counters (merge is counter
    /// addition, never rate averaging).
    #[test]
    fn merge_and_rates_consistent_under_arbitrary_splits() {
        let mut rng = crate::rng::Rng::new(0xca5e);
        for _ in 0..200 {
            // A random "whole" with hits+misses = accesses and plausible
            // prefetch counters.
            let hits = rng.gen_range(0, 10_000);
            let misses = rng.gen_range(0, 10_000);
            let prefetch_fills = rng.gen_range(0, 1000);
            let whole = CacheStats {
                accesses: hits + misses,
                hits,
                misses,
                writebacks: rng.gen_range(0, 1000),
                prefetch_fills,
                prefetch_hits: rng.gen_range(0, prefetch_fills + 1),
                ..CacheStats::default()
            };
            // Split every counter independently at a random point.
            let cut = |total: u64, rng: &mut crate::rng::Rng| {
                let a = if total == 0 { 0 } else { rng.gen_range(0, total + 1) };
                (a, total - a)
            };
            let (a_acc, b_acc) = cut(whole.accesses, &mut rng);
            let (a_hit, b_hit) = cut(whole.hits, &mut rng);
            let (a_mis, b_mis) = cut(whole.misses, &mut rng);
            let (a_wb, b_wb) = cut(whole.writebacks, &mut rng);
            let (a_pf, b_pf) = cut(whole.prefetch_fills, &mut rng);
            let (a_ph, b_ph) = cut(whole.prefetch_hits, &mut rng);
            let a = CacheStats {
                accesses: a_acc,
                hits: a_hit,
                misses: a_mis,
                writebacks: a_wb,
                prefetch_fills: a_pf,
                prefetch_hits: a_ph,
                ..CacheStats::default()
            };
            let b = CacheStats {
                accesses: b_acc,
                hits: b_hit,
                misses: b_mis,
                writebacks: b_wb,
                prefetch_fills: b_pf,
                prefetch_hits: b_ph,
                ..CacheStats::default()
            };
            let mut merged = a;
            merged.merge(&b);
            assert_eq!(merged.accesses, whole.accesses);
            assert_eq!(merged.hits, whole.hits);
            assert_eq!(merged.misses, whole.misses);
            assert_eq!(merged.writebacks, whole.writebacks);
            assert_eq!(merged.prefetch_fills, whole.prefetch_fills);
            assert_eq!(merged.prefetch_hits, whole.prefetch_hits);
            assert_eq!(merged.miss_rate(), whole.miss_rate());
            assert_eq!(merged.hit_rate(), whole.hit_rate());
            assert_eq!(merged.prefetch_accuracy(), whole.prefetch_accuracy());
            // Rates stay in range and hit + miss rates partition demand.
            // Rates stay in range and hit + miss rates partition demand —
            // for blocks that are internally consistent (shards split each
            // counter independently, so only check the ones that are).
            for s in [&a, &b, &merged] {
                if s.hits + s.misses == s.accesses {
                    assert!((0.0..=1.0).contains(&s.miss_rate()));
                    if s.accesses > 0 {
                        assert!((s.hit_rate() + s.miss_rate() - 1.0).abs() < 1e-12);
                    }
                }
                if s.prefetch_hits <= s.prefetch_fills {
                    assert!((0.0..=1.0).contains(&s.prefetch_accuracy()));
                }
            }
        }
    }
}
