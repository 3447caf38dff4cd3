//! Set-associative cache hierarchy simulator.
//!
//! Models a three-level hierarchy (per-core L1D and L2, shared LLC) with
//! LRU replacement. Every simulated load and store is pushed through
//! [`CacheHierarchy::access`], which returns where the access hit so the
//! cost model can charge the right latency; per-level hit/miss counters
//! feed the `perf stat -e cache-…` reproduction (experiment X3).
//!
//! The model is deliberately simple — physical indexing, no coherence
//! traffic, write-allocate/write-back — which is sufficient for the
//! *relative* comparisons the paper's plots make.

/// Configuration of a single cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total size in bytes.
    pub size: u64,
    /// Associativity (ways per set).
    pub ways: u64,
    /// Line size in bytes.
    pub line: u64,
    /// Hit latency in cycles.
    pub latency: u64,
}

impl CacheConfig {
    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size / (self.ways * self.line)
    }
}

/// Identifies a cache level in results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheLevel {
    /// First-level data cache.
    L1,
    /// Second-level cache.
    L2,
    /// Last-level cache.
    Llc,
}

/// Where an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HitLevel {
    /// Hit in L1.
    L1,
    /// Missed L1, hit L2.
    L2,
    /// Missed L2, hit LLC.
    Llc,
    /// Missed everywhere — served from memory.
    Memory,
}

/// Per-level access statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that reached this level.
    pub accesses: u64,
    /// Lookups satisfied at this level.
    pub hits: u64,
}

impl CacheStats {
    /// Misses at this level.
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Miss ratio in `[0, 1]`; zero when there were no accesses.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses as f64
        }
    }
}

/// Sentinel marking an invalid (never filled or flushed) cache way. No
/// real line can carry it: a tag is `addr / line`, and an address high
/// enough to produce `u64::MAX` is not representable.
const INVALID_TAG: u64 = u64::MAX;

/// One set-associative cache with LRU replacement.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `config.ways`, pre-widened for slice indexing.
    ways: usize,
    /// `config.sets()`, precomputed so the hot lookup never divides to
    /// re-derive the geometry.
    sets_count: u64,
    /// `log2(line)` when the line size is a power of two (it always is
    /// for realistic geometries): tag extraction becomes a shift.
    line_shift: Option<u32>,
    /// `sets - 1` when the set count is a power of two: set selection
    /// becomes a mask.
    set_mask: Option<u64>,
    /// `sets × ways` tags in one flat row-major allocation;
    /// [`INVALID_TAG`] = invalid line. Within each set's row, index 0 is
    /// the most recently used way.
    tags: Vec<u64>,
    stats: CacheStats,
    /// Tag of the most recently accessed line, if any. Because *every*
    /// access updates this memo, the memoized line is always the last
    /// line touched in its own set too, i.e. it sits at way 0: re-touching
    /// it cannot change LRU order, so the set walk can be skipped.
    mru: Option<u64>,
    /// Whether the MRU memo short-circuit is taken (off only for the
    /// slow reference path; results are identical either way).
    fast_path: bool,
}

impl Cache {
    /// Creates an empty (cold) cache.
    pub fn new(config: CacheConfig) -> Self {
        assert!(
            config.size.is_multiple_of(config.ways * config.line),
            "size must be sets*ways*line"
        );
        let sets_count = config.sets();
        let ways = config.ways as usize;
        Cache {
            config,
            ways,
            sets_count,
            line_shift: config.line.is_power_of_two().then(|| config.line.trailing_zeros()),
            set_mask: sets_count.is_power_of_two().then(|| sets_count - 1),
            tags: vec![INVALID_TAG; sets_count as usize * ways],
            stats: CacheStats::default(),
            mru: None,
            fast_path: true,
        }
    }

    /// Enables or disables the MRU fast path. Disabling also drops the
    /// memo so the slow path is exercised from the next access on.
    pub fn set_fast_path(&mut self, on: bool) {
        self.fast_path = on;
        if !on {
            self.mru = None;
        }
    }

    /// This cache's configuration.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Access statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up `addr`; on miss the line is filled. Returns `true` on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.stats.accesses += 1;
        let tag = match self.line_shift {
            Some(s) => addr >> s,
            None => addr / self.config.line,
        };
        if self.fast_path && self.mru == Some(tag) {
            // The memoized line is already at way 0 of its set; moving it
            // to the MRU position would be a no-op. Identical stats, no walk.
            self.stats.hits += 1;
            return true;
        }
        let set_idx = match self.set_mask {
            Some(m) => (tag & m) as usize,
            None => (tag % self.sets_count) as usize,
        };
        let base = set_idx * self.ways;
        let set = &mut self.tags[base..base + self.ways];
        if let Some(pos) = set.iter().position(|t| *t == tag) {
            // Move to MRU position, preserving the order of the rest.
            set[..=pos].rotate_right(1);
            self.stats.hits += 1;
            self.mru = Some(tag);
            true
        } else {
            // Evict the LRU way: shift everything down, fill way 0.
            set.rotate_right(1);
            set[0] = tag;
            self.mru = Some(tag);
            false
        }
    }

    /// Invalidates all lines and keeps statistics (used between parfor
    /// chunks to model cold per-core caches).
    pub fn flush(&mut self) {
        self.tags.fill(INVALID_TAG);
        self.mru = None;
    }
}

/// A full hierarchy: per-core L1 and L2, one shared LLC.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1: Vec<Cache>,
    l2: Vec<Cache>,
    llc: Cache,
    mem_latency: u64,
}

/// Default L1D: 32 KiB, 8-way, 64 B lines, 4-cycle hit.
pub const DEFAULT_L1: CacheConfig = CacheConfig { size: 32 * 1024, ways: 8, line: 64, latency: 4 };
/// Default L2: 256 KiB, 8-way, 64 B lines, 12-cycle hit.
pub const DEFAULT_L2: CacheConfig =
    CacheConfig { size: 256 * 1024, ways: 8, line: 64, latency: 12 };
/// Default LLC: 8 MiB, 16-way, 64 B lines, 40-cycle hit.
pub const DEFAULT_LLC: CacheConfig =
    CacheConfig { size: 8 * 1024 * 1024, ways: 16, line: 64, latency: 40 };
/// Default main-memory latency in cycles.
pub const DEFAULT_MEM_LATENCY: u64 = 200;

impl CacheHierarchy {
    /// Builds a hierarchy for `cores` cores.
    pub fn new(
        cores: usize,
        l1: CacheConfig,
        l2: CacheConfig,
        llc: CacheConfig,
        mem_latency: u64,
    ) -> Self {
        CacheHierarchy {
            l1: (0..cores).map(|_| Cache::new(l1)).collect(),
            l2: (0..cores).map(|_| Cache::new(l2)).collect(),
            llc: Cache::new(llc),
            mem_latency,
        }
    }

    /// Builds a hierarchy with the default geometry.
    pub fn with_defaults(cores: usize) -> Self {
        Self::new(cores, DEFAULT_L1, DEFAULT_L2, DEFAULT_LLC, DEFAULT_MEM_LATENCY)
    }

    /// Number of cores this hierarchy serves.
    pub fn cores(&self) -> usize {
        self.l1.len()
    }

    /// Performs one access from `core` and returns `(where it hit, cycles)`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access(&mut self, core: usize, addr: u64) -> (HitLevel, u64) {
        if self.l1[core].access(addr) {
            return (HitLevel::L1, self.l1[core].config.latency);
        }
        if self.l2[core].access(addr) {
            return (HitLevel::L2, self.l2[core].config.latency);
        }
        if self.llc.access(addr) {
            return (HitLevel::Llc, self.llc.config.latency);
        }
        (HitLevel::Memory, self.mem_latency)
    }

    /// Statistics for one level; per-core levels are summed across cores.
    pub fn stats(&self, level: CacheLevel) -> CacheStats {
        match level {
            CacheLevel::L1 => sum_stats(&self.l1),
            CacheLevel::L2 => sum_stats(&self.l2),
            CacheLevel::Llc => self.llc.stats(),
        }
    }

    /// Flushes the private caches of `core` (cold-start for a parfor chunk).
    pub fn flush_core(&mut self, core: usize) {
        self.l1[core].flush();
        self.l2[core].flush();
    }

    /// Enables or disables the MRU fast path on every level.
    pub fn set_fast_path(&mut self, on: bool) {
        for c in self.l1.iter_mut().chain(self.l2.iter_mut()) {
            c.set_fast_path(on);
        }
        self.llc.set_fast_path(on);
    }
}

fn sum_stats(caches: &[Cache]) -> CacheStats {
    let mut s = CacheStats::default();
    for c in caches {
        s.accesses += c.stats().accesses;
        s.hits += c.stats().hits;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets × 2 ways × 64 B = 256 B.
        Cache::new(CacheConfig { size: 256, ways: 2, line: 64, latency: 1 })
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = tiny();
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(63)); // same line
        assert!(!c.access(64)); // next line, other set
        assert_eq!(c.stats().accesses, 4);
        assert_eq!(c.stats().hits, 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Lines 0, 128, 256 all map to set 0 (line/sets: tag%2==0).
        assert!(!c.access(0));
        assert!(!c.access(128));
        // Touch 0 again so 128 is LRU.
        assert!(c.access(0));
        // 256 evicts 128.
        assert!(!c.access(256));
        assert!(c.access(0));
        assert!(!c.access(128));
    }

    #[test]
    fn flush_keeps_stats_but_clears_lines() {
        let mut c = tiny();
        c.access(0);
        c.flush();
        assert!(!c.access(0));
        assert_eq!(c.stats().accesses, 2);
        assert_eq!(c.stats().hits, 0);
    }

    #[test]
    fn hierarchy_miss_then_faster_levels() {
        let mut h = CacheHierarchy::with_defaults(2);
        let (lvl, lat) = h.access(0, 0x1000);
        assert_eq!(lvl, HitLevel::Memory);
        assert_eq!(lat, DEFAULT_MEM_LATENCY);
        let (lvl, lat) = h.access(0, 0x1000);
        assert_eq!(lvl, HitLevel::L1);
        assert_eq!(lat, DEFAULT_L1.latency);
        // Other core misses its private caches but hits the shared LLC.
        let (lvl, _) = h.access(1, 0x1000);
        assert_eq!(lvl, HitLevel::Llc);
    }

    #[test]
    fn stats_aggregate_across_cores() {
        let mut h = CacheHierarchy::with_defaults(2);
        h.access(0, 0);
        h.access(1, 0);
        assert_eq!(h.stats(CacheLevel::L1).accesses, 2);
        assert_eq!(h.stats(CacheLevel::Llc).accesses, 2);
        assert_eq!(h.stats(CacheLevel::Llc).hits, 1);
    }

    /// A pseudo-random but deterministic address stream with enough
    /// locality to exercise both the MRU memo and the set walk.
    fn address_stream(n: usize) -> Vec<u64> {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut addrs = Vec::with_capacity(n);
        let mut last = 0u64;
        for i in 0..n {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            // Every other access re-touches the previous line (the MRU
            // case); the rest jump within a 16 KiB window.
            last = if i % 2 == 1 { last } else { (state >> 33) % (16 * 1024) };
            addrs.push(last);
        }
        addrs
    }

    #[test]
    fn mru_fast_path_is_observationally_identical() {
        let mut fast = tiny();
        let mut slow = tiny();
        slow.set_fast_path(false);
        for a in address_stream(4096) {
            assert_eq!(fast.access(a), slow.access(a), "hit/miss diverged at addr {a}");
        }
        assert_eq!(fast.stats(), slow.stats());
        // The internal line state must match too: drain both caches with
        // a fresh probe pass and compare every outcome.
        fast.set_fast_path(false);
        for a in (0..4096).step_by(64) {
            assert_eq!(fast.access(a), slow.access(a), "line state diverged at addr {a}");
        }
    }

    #[test]
    fn mru_hierarchy_matches_slow_hierarchy() {
        let mut fast = CacheHierarchy::with_defaults(2);
        let mut slow = CacheHierarchy::with_defaults(2);
        slow.set_fast_path(false);
        for (i, a) in address_stream(4096).into_iter().enumerate() {
            let core = i % 2;
            assert_eq!(fast.access(core, a), slow.access(core, a));
        }
        for lvl in [CacheLevel::L1, CacheLevel::L2, CacheLevel::Llc] {
            assert_eq!(fast.stats(lvl), slow.stats(lvl));
        }
    }

    #[test]
    fn flush_drops_the_mru_memo() {
        let mut c = tiny();
        c.access(0);
        assert!(c.access(0), "second touch is the memoized hit");
        c.flush();
        // A stale memo would report a hit on invalidated lines.
        assert!(!c.access(0), "flushed line must miss");
    }

    #[test]
    fn miss_ratio_bounds() {
        let s = CacheStats { accesses: 0, hits: 0 };
        assert_eq!(s.miss_ratio(), 0.0);
        let s = CacheStats { accesses: 10, hits: 4 };
        assert!((s.miss_ratio() - 0.6).abs() < 1e-12);
    }
}
