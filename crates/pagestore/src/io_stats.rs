//! Per-query I/O counters.

/// Counters describing the physical I/O performed through a
/// [`crate::BufferPool`].
///
/// `pages_read` is the paper's "I/O cost": the number of page fetches that
/// went to the (simulated) disk. Buffer-pool hits are tracked separately so
/// experiments can also report cache effectiveness.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoStats {
    /// Physical page reads (buffer-pool misses).
    pub pages_read: u64,
    /// Logical reads served from the buffer pool.
    pub cache_hits: u64,
}

impl IoStats {
    /// Total logical page accesses (hits + misses).
    pub fn logical_reads(&self) -> u64 {
        self.pages_read + self.cache_hits
    }

    /// Cache hit ratio in `[0, 1]`; zero when nothing was read.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.logical_reads();
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Component-wise difference `self − earlier`, used to extract per-query
    /// costs from a cumulative counter.
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            pages_read: self.pages_read.saturating_sub(earlier.pages_read),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
        }
    }

    /// Component-wise accumulation.
    pub fn accumulate(&mut self, other: &IoStats) {
        self.pages_read += other.pages_read;
        self.cache_hits += other.cache_hits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logical_reads_and_hit_ratio() {
        let s = IoStats { pages_read: 3, cache_hits: 7 };
        assert_eq!(s.logical_reads(), 10);
        assert!((s.hit_ratio() - 0.7).abs() < 1e-12);
        assert_eq!(IoStats::default().hit_ratio(), 0.0);
    }

    #[test]
    fn since_subtracts_componentwise() {
        let before = IoStats { pages_read: 10, cache_hits: 5 };
        let after = IoStats { pages_read: 25, cache_hits: 9 };
        assert_eq!(after.since(&before), IoStats { pages_read: 15, cache_hits: 4 });
    }

    #[test]
    fn since_saturates_instead_of_underflowing() {
        let before = IoStats { pages_read: 10, cache_hits: 0 };
        let after = IoStats::default();
        assert_eq!(after.since(&before).pages_read, 0);
    }

    #[test]
    fn accumulate_sums_componentwise() {
        let mut total = IoStats::default();
        total.accumulate(&IoStats { pages_read: 2, cache_hits: 1 });
        total.accumulate(&IoStats { pages_read: 3, cache_hits: 0 });
        assert_eq!(total, IoStats { pages_read: 5, cache_hits: 1 });
    }
}
