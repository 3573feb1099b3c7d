//! A set-associative LRU cache simulator.
//!
//! Models the per-SM texture L1 cache the adaptive simulator leans on: the
//! paper stores the lookup table in texture memory because "the texture
//! memory has the texture (L2) cache, which will speed up the access when
//! the same star data in lookup table has been accessed several times"
//! (§III-C). The executor keeps one instance per virtual SM, each behind a
//! `Mutex`: an SM's blocks run on one worker at a time, so the lock is
//! never contended, and the simulator itself is single-threaded.

use std::collections::HashSet;

/// Most distinct lines [`CacheSim::access_walk`] replays as one
/// transaction; a walk over more lines runs access by access. 32 covers
/// the widest ROI (32 × 32 texels, 4 KiB) on 128-B lines.
const WALK_REPLAY_LINES: usize = 32;

/// An access sequence reduced to what [`CacheSim::access_walk`] needs:
/// its runs of same-line accesses in order, and its distinct lines, each
/// with the walk index of its last access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineWalk {
    line_bytes: usize,
    /// `(line, accesses)` per run of consecutive same-line accesses.
    runs: Vec<(u64, u64)>,
    /// `(line, index of its last access)`, ascending by that index, so
    /// the final entry is the walk's last line.
    lines: Vec<(u64, u64)>,
    len: u64,
}

impl LineWalk {
    /// The walk over `addrs`, in order, on a cache of `line_bytes` lines.
    /// O(`addrs`).
    ///
    /// # Panics
    /// Panics when `line_bytes` is not a power of two.
    pub fn new(addrs: impl IntoIterator<Item = u64>, line_bytes: usize) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two, got {line_bytes}"
        );
        let shift = line_bytes.trailing_zeros();
        let mut runs: Vec<(u64, u64)> = Vec::new();
        for line in addrs.into_iter().map(|a| a >> shift) {
            match runs.last_mut() {
                Some((l, n)) if *l == line => *n += 1,
                _ => runs.push((line, 1)),
            }
        }
        let len = runs.iter().map(|&(_, n)| n).sum();
        // Backwards, the first sighting of a line is its last access.
        let mut seen = HashSet::new();
        let mut end = len;
        let mut lines = Vec::new();
        for &(line, n) in runs.iter().rev() {
            if seen.insert(line) {
                lines.push((line, end - 1));
            }
            end -= n;
        }
        lines.reverse();
        LineWalk {
            line_bytes,
            runs,
            lines,
            len,
        }
    }
}

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

    /// Where `line` lives: `Ok(slot)` when resident, else `Err(base)`, the
    /// first slot of its set. The MRU line skips the set scan: its slot
    /// was filled or refreshed by the previous access and the cache is
    /// single-threaded, so it is still there.
    #[inline]
    fn lookup(&self, line: u64) -> Result<usize, usize> {
        if line == self.last_line {
            return Ok(self.last_slot);
        }
        let base = (line % self.sets as u64) as usize * self.ways;
        match self.tags[base..base + self.ways]
            .iter()
            .position(|&t| t == line)
        {
            Some(way) => Ok(base + way),
            None => Err(base),
        }
    }

    /// Performs one access at byte address `addr`; returns `true` on hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.access_line(addr >> self.line_shift)
    }

    #[inline]
    fn access_line(&mut self, line: u64) -> bool {
        self.clock += 1;
        let (slot, hit) = match self.lookup(line) {
            Ok(slot) => {
                self.hits += 1;
                (slot, true)
            }
            // Miss: evict the LRU way of this set.
            Err(base) => {
                let lru = (base..base + self.ways)
                    .min_by_key(|&s| self.stamps[s])
                    .expect("ways > 0");
                self.tags[lru] = line;
                self.misses += 1;
                (lru, false)
            }
        };
        self.stamps[slot] = self.clock;
        self.last_line = line;
        self.last_slot = slot;
        hit
    }

    /// Performs every access of `walk`, each shifted by `line_offset`
    /// lines, in order; returns the number of hits. The cache ends exactly
    /// as per-address [`Self::access`] would leave it.
    ///
    /// When every line of the walk is resident at the start, the walk is
    /// replayed as one transaction: only a miss evicts, so every access
    /// hits, and per-address access would leave each line stamped with the
    /// clock of its last access, `clock + last + 1`, the clock and hits
    /// each `len` higher, and the walk's last line as the MRU line — so
    /// that is what the replay writes, one residency check and one stamp
    /// per distinct line. Otherwise (or past [`WALK_REPLAY_LINES`] lines)
    /// the walk runs access by access, each run of same-line accesses
    /// folded into one set lookup: after the run's first access its line
    /// is the MRU line, so each repeat is one clock tick, a stamp refresh
    /// and a hit, and `n` repeats are `clock += n`, one stamp write and
    /// `hits += n`.
    ///
    /// # Panics
    /// Panics when `walk` was cut for another line size.
    pub fn access_walk(&mut self, walk: &LineWalk, line_offset: u64) -> u64 {
        assert_eq!(
            walk.line_bytes, self.line_bytes,
            "walk cut for {}-B lines replayed on {}-B lines",
            walk.line_bytes, self.line_bytes
        );
        let Some(&(last_line, _)) = walk.lines.last() else {
            return 0;
        };
        let mut slots = [0usize; WALK_REPLAY_LINES];
        let resident = walk.lines.len() <= WALK_REPLAY_LINES
            && walk.lines.iter().zip(&mut slots).all(|(&(line, _), slot)| {
                self.lookup(line + line_offset).map(|s| *slot = s).is_ok()
            });
        if resident {
            for (&(_, last), &slot) in walk.lines.iter().zip(&slots) {
                self.stamps[slot] = self.clock + last + 1;
            }
            self.clock += walk.len;
            self.hits += walk.len;
            self.last_line = last_line + line_offset;
            self.last_slot = slots[walk.lines.len() - 1];
            return walk.len;
        }
        let hits_before = self.hits;
        for &(line, n) in &walk.runs {
            self.access_line(line + line_offset);
            let repeats = n - 1;
            if repeats > 0 {
                self.clock += repeats;
                self.stamps[self.last_slot] = self.clock;
                self.hits += repeats;
            }
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

    /// A seeded stream mixing the shapes a texture lookup meets:
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

    /// Addresses visiting `lines` in order, each in a run of one to four
    /// accesses at random words of the line.
    fn visit(rng: &mut simrng::Rng64, lines: &[u64], line_bytes: u64) -> Vec<u64> {
        let mut out = Vec::new();
        for &l in lines {
            for _ in 0..rng.range_u64(1, 5) {
                out.push(l * line_bytes + 4 * rng.range_u64(0, line_bytes / 4));
            }
        }
        out
    }

    /// The line sequences of the walk shapes the replay must get right:
    /// all lines resident, one line not resident, a line the walk itself
    /// evicts, the MRU line first, an empty walk, more lines than the
    /// replay's cap, and a slice of a mixed stream.
    fn walk_lines(rng: &mut simrng::Rng64, c: &CacheSim, case: usize) -> Vec<u64> {
        let resident: Vec<u64> = c.tags.iter().copied().filter(|&t| t != u64::MAX).collect();
        let sets = c.sets as u64;
        // Far above anything the warm-up touched: never resident.
        let fresh = |rng: &mut simrng::Rng64| rng.range_u64(1 << 40, 1 << 41);
        // One to eight resident lines, then a revisit of up to two.
        let some_resident = |rng: &mut simrng::Rng64| -> Vec<u64> {
            let n = rng.range_usize(1, 9);
            let mut out: Vec<u64> = (0..n)
                .map(|_| resident[rng.range_usize(0, resident.len())])
                .collect();
            for _ in 0..rng.range_usize(0, 3) {
                out.push(out[rng.range_usize(0, n)]);
            }
            out
        };
        match case {
            0 => some_resident(rng),
            1 => {
                let mut lines = some_resident(rng);
                let at = rng.range_usize(0, lines.len() + 1);
                lines.insert(at, fresh(rng));
                lines
            }
            2 => {
                // ways + 1 new lines of one set, then the first again: the
                // walk evicts it itself before coming back to it.
                let first = fresh(rng) / sets * sets + rng.range_u64(0, sets);
                let mut lines: Vec<u64> = (0..=c.ways as u64).map(|k| first + k * sets).collect();
                lines.push(first);
                lines
            }
            3 => {
                let mut lines = vec![c.last_line];
                lines.extend(some_resident(rng));
                lines
            }
            4 => Vec::new(),
            5 => {
                let n = WALK_REPLAY_LINES + rng.range_usize(1, 9);
                if resident.len() >= n {
                    resident[..n].to_vec()
                } else {
                    (0..n as u64).map(|k| k + fresh(rng)).collect()
                }
            }
            _ => unreachable!(),
        }
    }

    /// The whole replacement state, not just what the next accesses can
    /// observe.
    fn state(c: &CacheSim) -> (&[u64], &[u64], u64, u64, u64, u64, usize) {
        (
            &c.tags,
            &c.stamps,
            c.clock,
            c.hits,
            c.misses,
            c.last_line,
            c.last_slot,
        )
    }

    /// `access_walk` must leave the cache exactly as per-address `access`
    /// does — same hit count, tags, stamps, clock and statistics, and the
    /// same hit/miss sequence for any later probe — for every walk shape,
    /// replayed at a line offset or not, on a warm cache.
    #[test]
    fn access_walk_is_per_address_access() {
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
                let label = format!("{capacity} B / {line} B lines / {ways} ways, seed {seed}");
                let line = line as u64;
                let lines = (capacity as u64) / line;
                let mut one = CacheSim::new(capacity, line as usize, ways);
                for &a in &mixed_stream(&mut rng, line, lines) {
                    one.access(a);
                }
                let mut walked = one.clone();
                let mut replays = 0;
                for step in 0..64 {
                    // Every shape eight times, then slices of a stream.
                    let addrs = match step / 8 {
                        case @ 0..=5 => {
                            let lines = walk_lines(&mut rng, &one, case);
                            visit(&mut rng, &lines, line)
                        }
                        _ => {
                            let stream = mixed_stream(&mut rng, line, 4);
                            let from = rng.range_usize(0, stream.len());
                            stream[from..].to_vec()
                        }
                    };
                    // Cut the walk as a template one or more lines below
                    // the addresses it replays.
                    let min_line = addrs.iter().map(|a| a / line).min().unwrap_or(0);
                    let offset = rng.range_u64(0, min_line + 1);
                    let walk =
                        LineWalk::new(addrs.iter().map(|a| a - offset * line), line as usize);
                    assert_eq!(walk.len, addrs.len() as u64);

                    let hits_one = addrs.iter().filter(|&&a| one.access(a)).count() as u64;
                    replays += u64::from(hits_one == walk.len && walk.len > 0);
                    let hits_walk = walked.access_walk(&walk, offset);
                    let label = format!("{label}, step {step}");
                    assert_eq!(hits_one, hits_walk, "{label}");
                    assert_eq!(state(&one), state(&walked), "{label}");
                }
                assert!(replays > 8, "{label}: too few all-hit walks");
                for &a in &mixed_stream(&mut rng, line, lines) {
                    assert_eq!(one.access(a), walked.access(a), "{label}: probe {a:#x}");
                }
            }
        }
    }

    #[test]
    fn line_walk_keeps_runs_and_last_accesses() {
        // Lines 0, 0, 1, 0, 2 (64-B lines): three distinct, last access of
        // line 1 at index 2, of line 0 at 3, of line 2 at 4.
        let walk = LineWalk::new([0, 4, 64, 8, 128], 64);
        assert_eq!(walk.runs, [(0, 2), (1, 1), (0, 1), (2, 1)]);
        assert_eq!(walk.lines, [(1, 2), (0, 3), (2, 4)]);
        assert_eq!(walk.len, 5);
        let empty = LineWalk::new([], 64);
        assert_eq!((empty.len, empty.lines.len()), (0, 0));

        let mut c = CacheSim::new(256, 64, 2);
        assert_eq!(c.access_walk(&empty, 0), 0);
        // Cold: misses on the three lines, hits on the two repeats.
        assert_eq!(c.access_walk(&walk, 0), 2);
        assert_eq!((c.hits(), c.misses()), (2, 3));
        // One line up (lines 1, 1, 2, 1, 3): line 3 is not resident, so
        // the walk runs access by access — four hits and one miss.
        assert_eq!(c.access_walk(&walk, 1), 4);
        assert_eq!((c.hits(), c.misses()), (6, 4));
        // Now all three lines are resident: one replay, five hits, the
        // clock five ticks on, and line 3 the MRU line.
        assert_eq!(c.access_walk(&walk, 1), 5);
        assert_eq!((c.hits(), c.misses(), c.clock), (11, 4, 15));
        assert_eq!((c.last_line, c.tags[c.last_slot]), (3, 3));
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
