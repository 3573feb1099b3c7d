//! A set-associative LRU cache simulator.
//!
//! Models the per-SM texture L1 cache the adaptive simulator leans on: the
//! paper stores the lookup table in texture memory because "the texture
//! memory has the texture (L2) cache, which will speed up the access when
//! the same star data in lookup table has been accessed several times"
//! (§III-C). Each executor worker (one virtual SM) owns one instance, so
//! accesses need no locking.

/// Set-associative cache with true-LRU replacement.
#[derive(Debug, Clone)]
pub struct CacheSim {
    line_bytes: usize,
    /// `log2(line_bytes)` — the line size is asserted to be a power of two,
    /// so address → line is a shift, not a division.
    line_shift: u32,
    sets: usize,
    ways: usize,
    /// `tags[set * ways + way]`: cached line tag, `u64::MAX` = invalid.
    tags: Vec<u64>,
    /// LRU stamps parallel to `tags`.
    stamps: Vec<u64>,
    clock: u64,
    hits: u64,
    misses: u64,
    /// Line of the most recent access (`u64::MAX` = none) and its slot in
    /// `tags`/`stamps`. A repeat access to this line is a guaranteed hit —
    /// nothing can evict between two consecutive accesses of a
    /// single-threaded cache — so the set scan is skipped. The texture
    /// swizzle makes runs of same-line fetches the common case.
    last_line: u64,
    last_slot: usize,
}

impl CacheSim {
    /// A cache of `capacity_bytes` with `line_bytes` lines and `ways`-way
    /// associativity.
    ///
    /// # Panics
    /// Panics when parameters are zero, non-power-of-two line size, or the
    /// geometry doesn't divide evenly.
    pub fn new(capacity_bytes: usize, line_bytes: usize, ways: usize) -> Self {
        assert!(capacity_bytes > 0 && line_bytes > 0 && ways > 0);
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two, got {line_bytes}"
        );
        let lines = capacity_bytes / line_bytes;
        assert!(
            lines >= ways && lines.is_multiple_of(ways),
            "cache of {lines} lines cannot be {ways}-way associative"
        );
        let sets = lines / ways;
        CacheSim {
            line_bytes,
            line_shift: line_bytes.trailing_zeros(),
            sets,
            ways,
            tags: vec![u64::MAX; lines],
            stamps: vec![0; lines],
            clock: 0,
            hits: 0,
            misses: 0,
            last_line: u64::MAX,
            last_slot: 0,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> usize {
        self.line_bytes
    }

    /// Performs one access at byte address `addr`; returns `true` on hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let line = addr >> self.line_shift;
        // MRU shortcut: the last-touched line is resident by construction
        // (its slot was filled or refreshed on the previous access and the
        // cache is single-threaded), and refreshing its stamp with the new
        // clock is exactly what the full scan would do — same stamps, same
        // statistics, same future evictions.
        if line == self.last_line {
            self.stamps[self.last_slot] = self.clock;
            self.hits += 1;
            return true;
        }
        let set = (line % self.sets as u64) as usize;
        let base = set * self.ways;
        let slots = &self.tags[base..base + self.ways];

        if let Some(way) = slots.iter().position(|&t| t == line) {
            self.stamps[base + way] = self.clock;
            self.hits += 1;
            self.last_line = line;
            self.last_slot = base + way;
            return true;
        }
        // Miss: evict the LRU way of this set.
        let lru = (0..self.ways)
            .min_by_key(|&w| self.stamps[base + w])
            .expect("ways > 0");
        self.tags[base + lru] = line;
        self.stamps[base + lru] = self.clock;
        self.misses += 1;
        self.last_line = line;
        self.last_slot = base + lru;
        false
    }

    /// Performs one access per address of `addrs`, in order; returns the
    /// number of hits.
    ///
    /// Each run of same-line addresses costs one set lookup plus one
    /// clock/stamp/hit update. This is exact: after the run's first access
    /// its line is the MRU line, so [`Self::access`] would serve every
    /// repeat through the MRU shortcut — one clock tick, a stamp refresh
    /// and a hit each. Folding `n` repeats into `clock += n` and one stamp
    /// write leaves the same tags, stamps, clock and statistics.
    #[inline]
    pub fn access_batch(&mut self, addrs: &[u64]) -> u64 {
        let hits_before = self.hits;
        let mut rest = addrs;
        while let Some((&first, tail)) = rest.split_first() {
            let line = first >> self.line_shift;
            let repeats = tail
                .iter()
                .position(|&a| a >> self.line_shift != line)
                .unwrap_or(tail.len());
            self.access(first);
            if repeats > 0 {
                self.clock += repeats as u64;
                self.stamps[self.last_slot] = self.clock;
                self.hits += repeats as u64;
            }
            rest = &tail[repeats..];
        }
        self.hits - hits_before
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Invalidates all contents, keeping statistics.
    pub fn flush(&mut self) {
        self.tags.fill(u64::MAX);
        self.stamps.fill(0);
        self.last_line = u64::MAX;
        self.last_slot = 0;
    }

    /// Resets both contents and statistics.
    pub fn reset(&mut self) {
        self.flush();
        self.hits = 0;
        self.misses = 0;
        self.clock = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_then_hit() {
        let mut c = CacheSim::new(1024, 64, 2);
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(63), "same line");
        assert!(!c.access(64), "next line");
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // 2 sets × 2 ways × 64B = 256B. Addresses 0, 128, 256 share set 0.
        let mut c = CacheSim::new(256, 64, 2);
        assert!(!c.access(0));
        assert!(!c.access(128));
        assert!(c.access(0)); // refresh line 0
        assert!(!c.access(256)); // evicts 128 (LRU)
        assert!(c.access(0), "line 0 must survive");
        assert!(!c.access(128), "line 128 was evicted");
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        let mut c = CacheSim::new(256, 64, 2);
        assert!(!c.access(0)); // set 0
        assert!(!c.access(64)); // set 1
        assert!(c.access(0));
        assert!(c.access(64));
    }

    #[test]
    fn working_set_within_capacity_fully_hits_on_second_pass() {
        let mut c = CacheSim::new(8192, 128, 8);
        for pass in 0..2 {
            for addr in (0..8192u64).step_by(4) {
                let hit = c.access(addr);
                if pass == 1 {
                    assert!(hit, "second pass over resident set must hit");
                }
            }
        }
    }

    #[test]
    fn working_set_beyond_capacity_thrashes() {
        let mut c = CacheSim::new(1024, 64, 4);
        // Stream 16 KB twice: second pass misses too (LRU streaming).
        for _ in 0..2 {
            for addr in (0..16384u64).step_by(64) {
                c.access(addr);
            }
        }
        assert!(c.misses() > c.hits());
    }

    #[test]
    fn flush_and_reset() {
        let mut c = CacheSim::new(256, 64, 2);
        c.access(0);
        c.access(0);
        c.flush();
        assert!(!c.access(0), "flushed line must miss");
        assert_eq!(c.hits(), 1);
        c.reset();
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 0);
    }

    #[test]
    fn geometry_accessors() {
        let c = CacheSim::new(12 * 1024, 128, 16);
        assert_eq!(c.sets(), 6);
        assert_eq!(c.line_bytes(), 128);
    }

    /// A seeded stream mixing the shapes a row-folded lookup meets:
    /// same-line runs, runs straddling a line boundary, and lines that
    /// come back after enough traffic to evict them — eight runs per cache
    /// line, over a span four times the cache.
    fn mixed_stream(rng: &mut simrng::Rng64, line: u64, lines: u64) -> Vec<u64> {
        let mut out = Vec::new();
        let mut recent = Vec::new();
        for _ in 0..8 * lines {
            let base = match rng.range_usize(0, 3) {
                // A fresh line somewhere in a span several times the cache.
                0 => rng.range_u64(0, 4 * lines) * line,
                // A run ending just before a line boundary, so it spills
                // into the next line.
                1 => rng.range_u64(1, 4 * lines) * line - rng.range_u64(1, line / 2),
                // A line seen earlier, likely evicted by the traffic since.
                _ => match recent.len() {
                    0 => 0,
                    n => recent[rng.range_usize(0, n)],
                },
            };
            recent.push(base);
            for i in 0..rng.range_u64(1, 24) {
                out.push(base + 4 * i);
            }
        }
        out
    }

    /// `access_batch` over row-sized slices of a stream must leave the
    /// cache exactly as per-address `access` does: same hit count, same
    /// statistics, same tags, stamps and clock, and the same hit/miss
    /// sequence for any later probe. The slices are cut at random, so runs
    /// also straddle batch (ROI row) boundaries.
    #[test]
    fn access_batch_is_per_address_access() {
        let gtx480 = crate::device::DeviceSpec::gtx480();
        let geometries = [
            (
                gtx480.tex_cache_per_sm_bytes(),
                gtx480.tex_cache_line,
                gtx480.tex_cache_ways,
            ),
            (256, 64, 2),
        ];
        for (capacity, line, ways) in geometries {
            for seed in 0..8 {
                let mut rng = simrng::Rng64::new(seed);
                let lines = (capacity / line) as u64;
                let stream = mixed_stream(&mut rng, line as u64, lines);
                let probe = mixed_stream(&mut rng, line as u64, lines);

                let mut one = CacheSim::new(capacity, line, ways);
                let mut batch = CacheSim::new(capacity, line, ways);
                let mut hits_one = 0u64;
                let mut hits_batch = 0u64;
                // Misses on lines seen before: evicted lines coming back.
                let mut seen = std::collections::HashSet::new();
                let mut remisses = 0u64;
                let mut rest = &stream[..];
                while !rest.is_empty() {
                    let (row, tail) = rest.split_at(rng.range_usize(1, 33).min(rest.len()));
                    for &a in row {
                        let hit = one.access(a);
                        hits_one += u64::from(hit);
                        remisses += u64::from(!seen.insert(a / line as u64) && !hit);
                    }
                    hits_batch += batch.access_batch(row);
                    rest = tail;
                }
                let label = format!("{capacity} B / {line} B lines / {ways} ways, seed {seed}");
                assert!(remisses > 0, "{label}: the stream must evict and revisit");
                assert_eq!(hits_one, hits_batch, "{label}");
                assert_eq!(one.hits(), batch.hits(), "{label}");
                assert_eq!(one.misses(), batch.misses(), "{label}");
                // The whole replacement state, not just what the next
                // accesses can observe.
                assert_eq!(
                    (
                        &one.tags,
                        &one.stamps,
                        one.clock,
                        one.last_line,
                        one.last_slot
                    ),
                    (
                        &batch.tags,
                        &batch.stamps,
                        batch.clock,
                        batch.last_line,
                        batch.last_slot
                    ),
                    "{label}"
                );
                for &a in &probe {
                    assert_eq!(one.access(a), batch.access(a), "{label}: probe {a:#x}");
                }
            }
        }
    }

    #[test]
    fn access_batch_counts_repeats_as_hits() {
        let mut c = CacheSim::new(256, 64, 2);
        assert_eq!(c.access_batch(&[]), 0);
        // Line 0 cold then three repeats; line 1 cold then one repeat.
        assert_eq!(c.access_batch(&[0, 4, 8, 60, 64, 68]), 4);
        assert_eq!((c.hits(), c.misses()), (4, 2));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_line_rejected() {
        let _ = CacheSim::new(1024, 100, 2);
    }

    #[test]
    #[should_panic]
    fn bad_geometry_rejected() {
        let _ = CacheSim::new(64, 64, 2); // 1 line, 2 ways
    }
}
