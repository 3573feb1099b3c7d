//! Event counters gathered during kernel execution.
//!
//! Executors accumulate into plain [`Counters`] (no synchronization on the
//! hot path) and combine per-role bundles with [`Counters::merge`].

/// Classes of arithmetic the cost model prices separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlopClass {
    /// Adds/subtracts/compares — full-rate on the SP pipeline.
    Add,
    /// Multiplies — full rate.
    Mul,
    /// Fused multiply-adds — one instruction, two flops.
    Fma,
    /// Special-function ops (`exp`, `pow`, `rsqrt`, ...) on the SFU pipeline.
    Special,
}

/// Plain (single-threaded) counter bundle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Scalar add-class flops.
    pub flops_add: u64,
    /// Scalar mul-class flops.
    pub flops_mul: u64,
    /// Scalar FMA instructions (each counts 2 flops in GFLOPS).
    pub flops_fma: u64,
    /// Scalar special-function ops.
    pub flops_special: u64,
    /// Warp-level arithmetic instruction issues (add/mul/fma pipelines).
    pub arith_issues: u64,
    /// Warp-level special-function instruction issues (SFU pipeline).
    pub special_issues: u64,
    /// Warp-level texture fetch instruction issues.
    pub tex_requests: u64,
    /// Warp-level global memory requests (one per warp instruction).
    pub global_requests: u64,
    /// 128-byte segments actually moved (coalescing-analyzed).
    pub global_transactions: u64,
    /// Warp-level shared memory requests.
    pub shared_requests: u64,
    /// Extra bank-conflict cycles beyond the first access.
    pub shared_conflicts: u64,
    /// Scalar texture fetches.
    pub tex_fetches: u64,
    /// Texture fetches that hit the cache.
    pub tex_hits: u64,
    /// Warp-level atomic instructions.
    pub atomic_requests: u64,
    /// Extra serialization steps from same-address atomics within a warp.
    pub atomic_conflicts: u64,
    /// Warp-level branch instructions.
    pub branches: u64,
    /// Branches whose warp diverged (both paths taken).
    pub divergent_branches: u64,
    /// Block-wide barriers executed (per warp).
    pub barriers: u64,
    /// Threads that ran to completion.
    pub threads: u64,
    /// Warp-phase executions.
    pub warps: u64,
    /// Shared-memory same-phase read-after-write hazards detected
    /// (a correctness diagnostic, not a cost input).
    pub shared_hazards: u64,
}

impl Counters {
    /// Adds `n` scalar flops of the given class.
    #[inline]
    pub fn add_flops(&mut self, class: FlopClass, n: u64) {
        match class {
            FlopClass::Add => self.flops_add += n,
            FlopClass::Mul => self.flops_mul += n,
            FlopClass::Fma => self.flops_fma += n,
            FlopClass::Special => self.flops_special += n,
        }
    }

    /// Total floating-point operations (FMA counts two, special counts one).
    pub fn total_flops(&self) -> u64 {
        self.flops_add + self.flops_mul + 2 * self.flops_fma + self.flops_special
    }

    /// Texture misses.
    pub fn tex_misses(&self) -> u64 {
        self.tex_fetches - self.tex_hits
    }

    /// Texture hit rate in `[0, 1]`; 1.0 when no fetches occurred.
    pub fn tex_hit_rate(&self) -> f64 {
        if self.tex_fetches == 0 {
            1.0
        } else {
            self.tex_hits as f64 / self.tex_fetches as f64
        }
    }

    /// Component-wise merge.
    pub fn merge(&mut self, other: &Counters) {
        self.flops_add += other.flops_add;
        self.flops_mul += other.flops_mul;
        self.flops_fma += other.flops_fma;
        self.flops_special += other.flops_special;
        self.arith_issues += other.arith_issues;
        self.special_issues += other.special_issues;
        self.tex_requests += other.tex_requests;
        self.global_requests += other.global_requests;
        self.global_transactions += other.global_transactions;
        self.shared_requests += other.shared_requests;
        self.shared_conflicts += other.shared_conflicts;
        self.tex_fetches += other.tex_fetches;
        self.tex_hits += other.tex_hits;
        self.atomic_requests += other.atomic_requests;
        self.atomic_conflicts += other.atomic_conflicts;
        self.branches += other.branches;
        self.divergent_branches += other.divergent_branches;
        self.barriers += other.barriers;
        self.threads += other.threads;
        self.warps += other.warps;
        self.shared_hazards += other.shared_hazards;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flop_classes_accumulate() {
        let mut c = Counters::default();
        c.add_flops(FlopClass::Add, 3);
        c.add_flops(FlopClass::Mul, 4);
        c.add_flops(FlopClass::Fma, 5);
        c.add_flops(FlopClass::Special, 2);
        assert_eq!(c.total_flops(), 3 + 4 + 10 + 2);
    }

    #[test]
    fn tex_rates() {
        let c = Counters {
            tex_fetches: 10,
            tex_hits: 7,
            ..Default::default()
        };
        assert_eq!(c.tex_misses(), 3);
        assert!((c.tex_hit_rate() - 0.7).abs() < 1e-12);
        assert_eq!(Counters::default().tex_hit_rate(), 1.0);
    }

    #[test]
    fn merge_is_componentwise() {
        let mut a = Counters {
            flops_add: 1,
            global_transactions: 5,
            threads: 10,
            ..Default::default()
        };
        let b = Counters {
            flops_add: 2,
            global_transactions: 7,
            shared_hazards: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.flops_add, 3);
        assert_eq!(a.global_transactions, 12);
        assert_eq!(a.threads, 10);
        assert_eq!(a.shared_hazards, 1);
    }
}
