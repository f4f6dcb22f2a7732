//! Mattson stack-distance (reuse-distance) computation in `O(log n)` per
//! access.
//!
//! The classical result (Mattson et al., 1970): for any stack algorithm —
//! LRU in particular — a single pass over the address stream yields the hit
//! count at *every* cache capacity simultaneously. An access with stack
//! distance `d` (number of **distinct** lines touched since the previous
//! access to the same line) hits in a fully-associative LRU cache of
//! capacity `C` lines iff `d < C`.
//!
//! [`StackDistance`] implements the standard tree-based algorithm: each live
//! line owns a *slot* in a Fenwick (binary indexed) tree ordered by
//! recency; the distance of a re-reference is the number of live slots more
//! recent than its old slot, computed with one prefix sum. Re-referenced
//! lines move to a fresh newest slot; when the slot array grows past twice
//! the live-line count it is compacted, keeping the amortized cost
//! `O(log n)` per access with memory proportional to the working set.

use std::collections::HashMap;

/// Exact LRU stack-distance tracker over a line-address stream.
#[derive(Debug, Default)]
pub struct StackDistance {
    /// Fenwick tree over slots (1-based); `bit[i]` sums occupancy.
    bit: Vec<i64>,
    /// line -> current slot (1-based).
    slot_of: HashMap<u64, usize>,
    /// Highest slot handed out (slots above `slot_of.len()` are dead).
    n_slots: usize,
}

impl StackDistance {
    pub fn new() -> Self {
        Self::default()
    }

    fn bit_add(&mut self, mut i: usize, delta: i64) {
        while i < self.bit.len() {
            self.bit[i] += delta;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of occupancies over slots `1..=i`.
    fn bit_prefix(&self, mut i: usize) -> i64 {
        let mut s = 0;
        while i > 0 {
            s += self.bit[i];
            i -= i & i.wrapping_neg();
        }
        s
    }

    fn push_slot(&mut self, line: u64) {
        self.n_slots += 1;
        if self.n_slots >= self.bit.len() {
            let new_len = (self.bit.len().max(8) * 2).max(self.n_slots + 1);
            self.bit.resize(new_len, 0);
            // Rebuild: resizing a Fenwick tree in place would require
            // re-threading parents; with the occupancy map at hand a full
            // rebuild is O(n log n) and happens O(log n) times total.
            self.bit.iter_mut().for_each(|b| *b = 0);
            let slots: Vec<usize> = self.slot_of.values().copied().collect();
            for s in slots {
                self.bit_add(s, 1);
            }
        }
        self.bit_add(self.n_slots, 1);
        self.slot_of.insert(line, self.n_slots);
    }

    /// Re-number live lines into slots `1..=live` preserving recency order.
    fn compact(&mut self) {
        let mut pairs: Vec<(usize, u64)> =
            self.slot_of.iter().map(|(&line, &slot)| (slot, line)).collect();
        pairs.sort_unstable();
        self.bit.iter_mut().for_each(|b| *b = 0);
        self.slot_of.clear();
        self.n_slots = 0;
        for (_, line) in pairs {
            self.push_slot(line);
        }
    }

    /// Observe one line access. Returns `Some(distance)` — the number of
    /// distinct other lines touched since the last access to `line` — or
    /// `None` on the first-ever touch (a *compulsory* / cold access).
    pub fn access(&mut self, line: u64) -> Option<u64> {
        let dist = match self.slot_of.get(&line) {
            Some(&slot) => {
                let newer = self.slot_of.len() as i64 - self.bit_prefix(slot);
                self.bit_add(slot, -1);
                self.slot_of.remove(&line);
                Some(newer as u64)
            }
            None => None,
        };
        self.push_slot(line);
        if self.n_slots > 64 && self.n_slots > 2 * self.slot_of.len() {
            self.compact();
        }
        dist
    }
}

/// Log2-bucketed reuse-distance histogram with cold (first-touch) count.
///
/// Bucket 0 counts distance 0 (immediate re-reference); bucket `j >= 1`
/// counts distances in `[2^(j-1), 2^j)`. Every cache geometry in the
/// repository has a power-of-two line capacity, for which the bucketing is
/// *exact*: predicted hits at `C = 2^k` lines is the sum of buckets
/// `0..=k`, because every distance in those buckets is `< C` and every
/// distance outside them is `>= C`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DistanceHistogram {
    /// First-ever touches (infinite-capacity misses).
    pub cold: u64,
    /// `buckets[0]` = distance 0; `buckets[j]` = distances `[2^(j-1), 2^j)`.
    pub buckets: Vec<u64>,
}

impl DistanceHistogram {
    pub fn bucket_of(dist: u64) -> usize {
        if dist == 0 {
            0
        } else {
            64 - dist.leading_zeros() as usize
        }
    }

    pub fn record(&mut self, dist: Option<u64>) {
        match dist {
            None => self.cold += 1,
            Some(d) => {
                let b = Self::bucket_of(d);
                if self.buckets.len() <= b {
                    self.buckets.resize(b + 1, 0);
                }
                self.buckets[b] += 1;
            }
        }
    }

    /// Total accesses recorded (cold + warm).
    pub fn total(&self) -> u64 {
        self.cold + self.buckets.iter().sum::<u64>()
    }

    /// Predicted hit count in a fully-associative LRU cache of
    /// `capacity_lines` lines (must be a power of two — the bucket edges).
    pub fn predicted_hits(&self, capacity_lines: u64) -> u64 {
        assert!(
            capacity_lines.is_power_of_two(),
            "bucketed prediction is exact only at power-of-two capacities, got {capacity_lines}"
        );
        let k = capacity_lines.trailing_zeros() as usize;
        self.buckets.iter().take(k + 1).sum()
    }

    /// Predicted hit rate at `capacity_lines` (0.0 on an empty histogram).
    pub fn predicted_hit_rate(&self, capacity_lines: u64) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.predicted_hits(capacity_lines) as f64 / total as f64
        }
    }

    /// The full hit-rate-vs-capacity curve: `(capacity_lines, hit_rate)`
    /// at every power-of-two capacity up to the largest observed distance.
    pub fn curve(&self) -> Vec<(u64, f64)> {
        let total = self.total();
        if total == 0 {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.buckets.len().max(1));
        let mut hits = 0u64;
        for (k, b) in self.buckets.iter().enumerate() {
            hits += b;
            out.push((1u64 << k, hits as f64 / total as f64));
        }
        out
    }

    pub fn merge(&mut self, other: &DistanceHistogram) {
        self.cold += other.cold;
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lva_sim::Rng;

    /// O(n) reference: scan back through the access history counting
    /// distinct lines since the previous occurrence.
    #[derive(Default)]
    struct BruteForce {
        history: Vec<u64>,
    }

    impl BruteForce {
        fn access(&mut self, line: u64) -> Option<u64> {
            let r = self.history.iter().rposition(|&l| l == line).map(|pos| {
                let mut seen = std::collections::HashSet::new();
                for &l in &self.history[pos + 1..] {
                    seen.insert(l);
                }
                seen.len() as u64
            });
            self.history.push(line);
            r
        }
    }

    #[test]
    fn known_small_stream() {
        // a b c a b b a : classic example.
        let mut t = StackDistance::new();
        assert_eq!(t.access(0), None);
        assert_eq!(t.access(1), None);
        assert_eq!(t.access(2), None);
        assert_eq!(t.access(0), Some(2)); // b, c in between
        assert_eq!(t.access(1), Some(2)); // c, a
        assert_eq!(t.access(1), Some(0)); // immediate reuse
        assert_eq!(t.access(0), Some(1)); // b
    }

    #[test]
    fn matches_brute_force_on_random_streams() {
        let mut rng = Rng::new(0x5eed_cafe);
        for round in 0..4u64 {
            let universe = 1 + (rng.next_u64() % 96);
            let mut t = StackDistance::new();
            let mut oracle = BruteForce::default();
            for i in 0..3000 {
                // Mix of uniform-random and strided phases to exercise
                // compaction and long distances.
                let line = if i % 512 < 128 {
                    (i as u64) % (universe * 2)
                } else {
                    rng.next_u64() % universe
                };
                assert_eq!(
                    t.access(line),
                    oracle.access(line),
                    "round {round} access {i} line {line}"
                );
            }
        }
    }

    #[test]
    fn histogram_prediction_matches_exact_lru_hits() {
        // Direct check of the Mattson property: predicted hits at capacity
        // C equals the hits of a simulated fully-associative LRU of C lines.
        struct Lru {
            cap: usize,
            stack: Vec<u64>, // most recent last
        }
        impl Lru {
            fn access(&mut self, line: u64) -> bool {
                let hit = if let Some(p) = self.stack.iter().position(|&l| l == line) {
                    self.stack.remove(p);
                    true
                } else {
                    if self.stack.len() == self.cap {
                        self.stack.remove(0);
                    }
                    false
                };
                self.stack.push(line);
                hit
            }
        }

        let mut rng = Rng::new(42);
        let stream: Vec<u64> = (0..5000).map(|_| rng.next_u64() % 300).collect();

        let mut hist = DistanceHistogram::default();
        let mut t = StackDistance::new();
        for &l in &stream {
            hist.record(t.access(l));
        }
        for cap in [1u64, 4, 16, 64, 256, 1024] {
            let mut lru = Lru { cap: cap as usize, stack: Vec::new() };
            let sim_hits = stream.iter().filter(|&&l| lru.access(l)).count() as u64;
            assert_eq!(
                hist.predicted_hits(cap),
                sim_hits,
                "capacity {cap} lines: Mattson prediction must be exact for full-assoc LRU"
            );
        }
        assert_eq!(hist.total(), stream.len() as u64);
    }

    #[test]
    fn histogram_bucketing_and_merge() {
        assert_eq!(DistanceHistogram::bucket_of(0), 0);
        assert_eq!(DistanceHistogram::bucket_of(1), 1);
        assert_eq!(DistanceHistogram::bucket_of(2), 2);
        assert_eq!(DistanceHistogram::bucket_of(3), 2);
        assert_eq!(DistanceHistogram::bucket_of(4), 3);
        assert_eq!(DistanceHistogram::bucket_of(1023), 10);
        assert_eq!(DistanceHistogram::bucket_of(1024), 11);

        let mut a = DistanceHistogram::default();
        a.record(None);
        a.record(Some(0));
        a.record(Some(5));
        let mut b = DistanceHistogram::default();
        b.record(Some(5));
        b.record(Some(100));
        a.merge(&b);
        assert_eq!(a.cold, 1);
        assert_eq!(a.total(), 5);
        assert_eq!(a.buckets[DistanceHistogram::bucket_of(5)], 2);
        // Curve is monotone non-decreasing and ends at the warm-hit ratio.
        let curve = a.curve();
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
        assert!((curve.last().unwrap().1 - 4.0 / 5.0).abs() < 1e-12);
    }
}
