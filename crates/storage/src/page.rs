//! Key-to-page mapping used to emulate Berkeley DB's page-granularity
//! locking and versioning (Sec. 4.2 of the thesis).
//!
//! Berkeley DB acquires locks on whole database pages; two transactions
//! touching *different* rows conflict whenever the rows happen to share a
//! page. The thesis sizes its SmallBank experiments in pages ("the savings
//! and checking tables both consisted of approximately 100 leaf pages", Sec.
//! 6.1.2) and attributes a measurable rate of false positives to this
//! coarseness (Sec. 6.1.5).
//!
//! We reproduce the effect by hashing keys into a configurable number of
//! pages. The statistical behaviour that matters for the evaluation — the
//! probability that two independently chosen rows collide on a lock — is the
//! same as for a real B-tree page assignment with the same page count, while
//! the implementation stays independent of physical storage layout.

/// Maps keys to page numbers.
#[derive(Clone, Debug)]
pub struct PageMap {
    pages: u64,
}

impl PageMap {
    /// Creates a page map with the given number of pages (minimum 1).
    pub fn new(pages: u64) -> Self {
        PageMap {
            pages: pages.max(1),
        }
    }

    /// Number of pages keys are spread over.
    pub fn page_count(&self) -> u64 {
        self.pages
    }

    /// Page number for a key (stable FNV-1a hash, independent of platform).
    pub fn page_of(&self, key: &[u8]) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        for &b in key {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
        h % self.pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_in_range_and_stable() {
        let map = PageMap::new(100);
        for i in 0u32..1000 {
            let key = i.to_be_bytes();
            let p = map.page_of(&key);
            assert!(p < 100);
            assert_eq!(p, map.page_of(&key), "page assignment must be stable");
        }
    }

    #[test]
    fn single_page_map_collapses_everything() {
        let map = PageMap::new(1);
        assert_eq!(map.page_of(b"a"), 0);
        assert_eq!(map.page_of(b"zzz"), 0);
        assert_eq!(map.page_count(), 1);
    }

    #[test]
    fn zero_pages_is_clamped() {
        let map = PageMap::new(0);
        assert_eq!(map.page_count(), 1);
    }

    #[test]
    fn keys_spread_over_pages() {
        let map = PageMap::new(100);
        let mut used = std::collections::HashSet::new();
        for i in 0u32..10_000 {
            used.insert(map.page_of(&i.to_be_bytes()));
        }
        // With 10k keys over 100 pages essentially every page must be hit.
        assert!(used.len() >= 95, "only {} pages used", used.len());
    }

    #[test]
    fn collision_probability_matches_page_count() {
        // The property the Berkeley DB experiments rely on: the chance that
        // two random keys share a page is ~1/pages.
        let map = PageMap::new(100);
        let keys: Vec<u64> = (0..400u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        let pages: Vec<u64> = keys.iter().map(|k| map.page_of(&k.to_be_bytes())).collect();
        let mut collisions = 0u64;
        let mut pairs = 0u64;
        for i in 0..pages.len() {
            for j in (i + 1)..pages.len() {
                pairs += 1;
                if pages[i] == pages[j] {
                    collisions += 1;
                }
            }
        }
        let rate = collisions as f64 / pairs as f64;
        assert!(rate > 0.005 && rate < 0.02, "collision rate {rate}");
    }
}
