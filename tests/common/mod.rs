//! Helpers shared by the integration suites that run a worker-count matrix.

/// The worker counts a matrix runs at: one worker (no lane to stall), two,
/// the host's cores, and one per SM of the GTX480.
pub fn worker_counts() -> Vec<usize> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut counts = vec![1, 2, cores.min(15), 15];
    counts.sort_unstable();
    counts.dedup();
    counts
}
