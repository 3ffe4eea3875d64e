//! Worker-pool sizing for the event loop.

/// Effective worker count: `requested`, or (when 0) the machine's available
/// parallelism, never more than `jobs`.
///
/// Contract: **zero jobs need zero workers** — `effective_threads(_, 0)`
/// returns 0 and callers must not spawn. For `jobs > 0` the result is
/// always in `1..=jobs`.
#[must_use]
pub fn effective_threads(requested: usize, jobs: usize) -> usize {
    if jobs == 0 {
        return 0;
    }
    let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let base = if requested == 0 { hw } else { requested };
    base.clamp(1, jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_threads_bounds() {
        assert_eq!(effective_threads(4, 2), 2);
        assert_eq!(effective_threads(1, 100), 1);
        assert!(effective_threads(0, 100) >= 1);
    }

    #[test]
    fn effective_threads_zero_jobs_means_zero_workers() {
        assert_eq!(effective_threads(0, 0), 0);
        assert_eq!(effective_threads(4, 0), 0);
        assert_eq!(effective_threads(usize::MAX, 0), 0);
    }
}
