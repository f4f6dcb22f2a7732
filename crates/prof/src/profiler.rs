//! The memory-hierarchy profiler: an [`AccessSink`] that feeds every
//! per-level demand stream through a [`StackDistance`] tracker.
//!
//! One profiled run yields, per cache level:
//!
//! * a reuse-distance histogram and the **predicted hit rate at every
//!   power-of-two capacity** (Mattson), answering the paper's §V–§VI
//!   capacity questions without re-running the sweep;
//! * an exact **3C miss classification** — compulsory (first touch),
//!   capacity (stack distance ≥ the level's line capacity: a
//!   fully-associative cache of the same size would also miss), conflict
//!   (the set-associative cache missed although the distance says a
//!   fully-associative one would have hit);
//! * per-layer and per-phase histograms via the [`TapScope`] markers the
//!   simulator forwards through the tap.
//!
//! The profiler observes the *demand* stream only. Prefetch fills are
//! counted but do not enter the stack model: they perturb the real cache's
//! contents, which is precisely why predicted-vs-simulated agreement is
//! validated on the gem5 profiles (no prefetchers) in `lva-check`.

use crate::mattson::{DistanceHistogram, StackDistance};
use lva_sim::{AccessKind, AccessSink, MemSystem, Miss3C, TapLevel, TapScope};
use lva_trace::Json;
use std::cell::RefCell;
use std::rc::Rc;

const NUM_LEVELS: usize = 3;

fn level_idx(level: TapLevel) -> usize {
    match level {
        TapLevel::L1 => 0,
        TapLevel::VectorCache => 1,
        TapLevel::L2 => 2,
    }
}

const LEVELS: [TapLevel; NUM_LEVELS] = [TapLevel::L1, TapLevel::VectorCache, TapLevel::L2];

/// Per-level stack model plus the counters derived from it.
#[derive(Debug, Default)]
struct LevelState {
    capacity_lines: u64,
    line_bytes: u64,
    tree: StackDistance,
    hist: DistanceHistogram,
    three_c: Miss3C,
    accesses: u64,
    sim_hits: u64,
    prefetch_fills: u64,
}

/// Histograms attributed to one scope (a layer or a kernel phase).
#[derive(Debug, Clone, Default)]
pub struct ScopeProfile {
    pub name: String,
    /// One histogram per level, indexed like [`TapLevel`] (l1d, vcache, l2).
    pub hist: [DistanceHistogram; NUM_LEVELS],
    pub accesses: u64,
}

/// The [`AccessSink`] installed on a [`MemSystem`] tap.
#[derive(Debug, Default)]
pub struct MemProfiler {
    levels: [LevelState; NUM_LEVELS],
    layers: Vec<ScopeProfile>,
    phases: Vec<ScopeProfile>,
    cur_layer: Option<usize>,
    cur_phase: Option<usize>,
}

impl MemProfiler {
    fn configure(&mut self, sys: &MemSystem) {
        let set = |st: &mut LevelState, bytes: usize, line: usize| {
            st.capacity_lines = (bytes / line) as u64;
            st.line_bytes = line as u64;
        };
        set(&mut self.levels[0], sys.l1.config().bytes, sys.l1.config().line_bytes);
        set(&mut self.levels[2], sys.l2.config().bytes, sys.l2.config().line_bytes);
        if let Some(vc) = &sys.vcache {
            set(&mut self.levels[1], vc.config().bytes, vc.config().line_bytes);
        }
    }

    fn observe(&mut self, level: TapLevel, line: u64, hit: bool) {
        let st = &mut self.levels[level_idx(level)];
        let dist = st.tree.access(line);
        st.hist.record(dist);
        st.accesses += 1;
        if hit {
            st.sim_hits += 1;
        } else {
            match dist {
                None => st.three_c.compulsory += 1,
                Some(d) if d >= st.capacity_lines => st.three_c.capacity += 1,
                Some(_) => st.three_c.conflict += 1,
            }
        }
        let li = level_idx(level);
        if let Some(i) = self.cur_layer {
            self.layers[i].hist[li].record(dist);
            self.layers[i].accesses += 1;
        }
        if let Some(i) = self.cur_phase {
            self.phases[i].hist[li].record(dist);
            self.phases[i].accesses += 1;
        }
    }

    fn enter_scope(scopes: &mut Vec<ScopeProfile>, name: String) -> usize {
        if let Some(i) = scopes.iter().position(|s| s.name == name) {
            i
        } else {
            scopes.push(ScopeProfile { name, ..ScopeProfile::default() });
            scopes.len() - 1
        }
    }

    fn into_profile(self) -> MemProfile {
        let levels = LEVELS
            .iter()
            .zip(self.levels)
            .filter(|(_, st)| st.accesses > 0 || st.capacity_lines > 0)
            .map(|(&level, st)| LevelProfile {
                level,
                capacity_lines: st.capacity_lines,
                line_bytes: st.line_bytes,
                hist: st.hist,
                three_c: st.three_c,
                accesses: st.accesses,
                sim_hits: st.sim_hits,
                prefetch_fills: st.prefetch_fills,
            })
            .collect();
        MemProfile { levels, layers: self.layers, phases: self.phases }
    }
}

impl AccessSink for MemProfiler {
    fn access(&mut self, level: TapLevel, line: u64, _kind: AccessKind, hit: bool) {
        self.observe(level, line, hit);
    }

    fn prefetch_fill(&mut self, level: TapLevel, _line: u64) {
        self.levels[level_idx(level)].prefetch_fills += 1;
    }

    fn scope(&mut self, scope: TapScope<'_>) {
        match scope {
            TapScope::LayerBegin { index, desc } => {
                let i = Self::enter_scope(&mut self.layers, format!("L{index} {desc}"));
                self.cur_layer = Some(i);
            }
            TapScope::LayerEnd => self.cur_layer = None,
            TapScope::PhaseBegin { name } => {
                let i = Self::enter_scope(&mut self.phases, name.to_string());
                self.cur_phase = Some(i);
            }
            TapScope::PhaseEnd => self.cur_phase = None,
        }
    }
}

/// Shared handle kept by the caller while a clone of the profiler sits in
/// the [`MemSystem`] tap slot.
struct Shared(Rc<RefCell<MemProfiler>>);

impl AccessSink for Shared {
    fn access(&mut self, level: TapLevel, line: u64, kind: AccessKind, hit: bool) {
        self.0.borrow_mut().access(level, line, kind, hit);
    }
    fn prefetch_fill(&mut self, level: TapLevel, line: u64) {
        self.0.borrow_mut().prefetch_fill(level, line);
    }
    fn scope(&mut self, scope: TapScope<'_>) {
        self.0.borrow_mut().scope(scope);
    }
}

/// Owner side of an attached profiler; call [`ProfilerHandle::detach`] when
/// the run is over.
pub struct ProfilerHandle(Rc<RefCell<MemProfiler>>);

/// Install a [`MemProfiler`] as `sys`'s address-stream tap.
///
/// The profiler snapshots each level's geometry at attach time; attach
/// *after* configuring the hierarchy and *before* running the kernel.
pub fn attach(sys: &mut MemSystem) -> ProfilerHandle {
    let mut p = MemProfiler::default();
    p.configure(sys);
    let rc = Rc::new(RefCell::new(p));
    sys.set_tap(Box::new(Shared(Rc::clone(&rc))));
    ProfilerHandle(rc)
}

impl ProfilerHandle {
    /// Remove the tap, write the 3C classification into the simulated
    /// caches' [`lva_sim::CacheStats`], and return the full profile.
    pub fn detach(self, sys: &mut MemSystem) -> MemProfile {
        drop(sys.take_tap());
        let profiler = Rc::try_unwrap(self.0)
            .unwrap_or_else(|_| panic!("profiler tap still installed elsewhere"))
            .into_inner();
        sys.l1.stats.three_c = profiler.levels[0].three_c;
        sys.l2.stats.three_c = profiler.levels[2].three_c;
        if let Some(vc) = sys.vcache.as_mut() {
            vc.stats.three_c = profiler.levels[1].three_c;
        }
        profiler.into_profile()
    }
}

/// One cache level's profile: histogram, classification, and the
/// simulated outcome on the identical stream for validation.
#[derive(Debug, Clone)]
pub struct LevelProfile {
    pub level: TapLevel,
    pub capacity_lines: u64,
    pub line_bytes: u64,
    pub hist: DistanceHistogram,
    pub three_c: Miss3C,
    pub accesses: u64,
    pub sim_hits: u64,
    pub prefetch_fills: u64,
}

impl LevelProfile {
    /// Hit rate the simulated (set-associative) cache achieved.
    pub fn sim_hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.sim_hits as f64 / self.accesses as f64
        }
    }

    /// Mattson-predicted hit rate at this level's actual capacity.
    pub fn predicted_hit_rate(&self) -> f64 {
        if self.capacity_lines == 0 {
            0.0
        } else {
            self.hist.predicted_hit_rate(self.capacity_lines)
        }
    }

    /// Hit-rate-vs-capacity curve as `(capacity_bytes, hit_rate)`.
    pub fn curve_bytes(&self) -> Vec<(u64, f64)> {
        self.hist.curve().into_iter().map(|(lines, hr)| (lines * self.line_bytes, hr)).collect()
    }
}

/// Result of a profiled run.
#[derive(Debug, Clone, Default)]
pub struct MemProfile {
    pub levels: Vec<LevelProfile>,
    pub layers: Vec<ScopeProfile>,
    pub phases: Vec<ScopeProfile>,
}

impl MemProfile {
    pub fn level(&self, level: TapLevel) -> Option<&LevelProfile> {
        self.levels.iter().find(|l| l.level == level)
    }

    fn hist_json(h: &DistanceHistogram) -> Json {
        Json::obj()
            .field("cold", h.cold)
            .field(
                "buckets",
                Json::Arr(h.buckets.iter().map(|&b| Json::from(b)).collect::<Vec<_>>()),
            )
            .field("total", h.total())
    }

    pub fn to_json(&self) -> Json {
        let levels: Vec<Json> = self
            .levels
            .iter()
            .filter(|l| l.accesses > 0)
            .map(|l| {
                let curve: Vec<Json> = l
                    .curve_bytes()
                    .into_iter()
                    .map(|(bytes, hr)| Json::obj().field("bytes", bytes).field("hit_rate", hr))
                    .collect();
                Json::obj()
                    .field("level", l.level.name())
                    .field("capacity_lines", l.capacity_lines)
                    .field("line_bytes", l.line_bytes)
                    .field("accesses", l.accesses)
                    .field("sim_hit_rate", l.sim_hit_rate())
                    .field("predicted_hit_rate", l.predicted_hit_rate())
                    .field(
                        "miss_classes",
                        Json::obj()
                            .field("compulsory", l.three_c.compulsory)
                            .field("capacity", l.three_c.capacity)
                            .field("conflict", l.three_c.conflict),
                    )
                    .field("prefetch_fills", l.prefetch_fills)
                    .field("reuse_histogram", Self::hist_json(&l.hist))
                    .field("capacity_curve", Json::Arr(curve))
            })
            .collect();
        let scope_json = |scopes: &[ScopeProfile]| {
            Json::Arr(
                scopes
                    .iter()
                    .map(|s| {
                        let mut o = Json::obj()
                            .field("name", s.name.as_str())
                            .field("accesses", s.accesses);
                        for (i, level) in LEVELS.iter().enumerate() {
                            if s.hist[i].total() > 0 {
                                o = o.field(level.name(), Self::hist_json(&s.hist[i]));
                            }
                        }
                        o
                    })
                    .collect::<Vec<_>>(),
            )
        };
        Json::obj()
            .field("levels", Json::Arr(levels))
            .field("layers", scope_json(&self.layers))
            .field("phases", scope_json(&self.phases))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lva_isa::{KernelPhase, Machine, MachineConfig};

    fn workload(m: &mut Machine) {
        let a = m.mem.alloc(8192);
        let b = m.mem.alloc(8192);
        let vl = m.setvl(64);
        m.phase(KernelPhase::Pack, |m| {
            for rep in 0..4 {
                let _ = rep;
                for i in 0..32 {
                    m.vle(0, a.addr(i * 64), vl);
                    m.vse(0, b.addr(i * 64), vl);
                }
            }
        });
    }

    #[test]
    fn profiling_is_timing_neutral_and_annotates_3c() {
        let cfg = MachineConfig::rvv_gem5(2048, 8, 1 << 20);
        let mut plain = Machine::new(cfg.clone());
        workload(&mut plain);

        let mut prof = Machine::new(cfg);
        let handle = attach(&mut prof.sys);
        workload(&mut prof);
        let profile = handle.detach(&mut prof.sys);

        assert_eq!(prof.cycles(), plain.cycles(), "profiling must not perturb timing");

        // RVV: vector traffic goes vcache -> L2; the L2 sees the filtered
        // stream and the profiler observed every access the cache counted.
        let l2 = profile.level(TapLevel::L2).expect("l2 profiled");
        assert_eq!(l2.accesses, prof.sys.l2.stats.accesses);
        assert_eq!(l2.sim_hits, prof.sys.l2.stats.hits);
        // Misses fully classified, and the classification landed in stats.
        let c = prof.sys.l2.stats.three_c;
        assert_eq!(c.classified(), prof.sys.l2.stats.misses);
        assert_eq!(c, l2.three_c);
        // The working set (16 KB) fits in 1 MB: no capacity misses, and
        // the second pass re-hits so compulsory < accesses.
        assert_eq!(c.capacity, 0);
        assert!(c.compulsory > 0);

        // Phase attribution captured the Pack phase.
        assert_eq!(profile.phases.len(), 1);
        assert!(!profile.phases[0].name.is_empty());
        assert!(profile.phases[0].accesses > 0);

        // JSON report round-trips through the parser.
        let j = profile.to_json();
        let parsed = lva_trace::Json::parse(&j.to_string_pretty()).expect("valid json");
        assert_eq!(parsed, j);
    }

    #[test]
    fn prediction_matches_simulated_cache_on_thrash_and_fit() {
        // Working set fits: predicted == simulated == high hit rate.
        let cfg = MachineConfig::rvv_gem5(2048, 8, 1 << 20);
        let mut m = Machine::new(cfg);
        let handle = attach(&mut m.sys);
        workload(&mut m);
        let profile = handle.detach(&mut m.sys);
        let l2 = profile.level(TapLevel::L2).expect("l2");
        let err = (l2.predicted_hit_rate() - l2.sim_hit_rate()).abs();
        assert!(
            err < 0.01,
            "predicted {} vs simulated {} (err {err})",
            l2.predicted_hit_rate(),
            l2.sim_hit_rate()
        );
        // And the curve is monotone in capacity.
        let curve = l2.curve_bytes();
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
    }
}
