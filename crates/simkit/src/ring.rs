//! The bounded evict-oldest ring behind every retained record stream.
//!
//! Telemetry records, finished spans, the forensic event log's severity
//! lanes and the daemon's ops log all keep "the newest N, and how many
//! were lost" — one [`BoundedRing`] each.

use std::collections::VecDeque;

/// The most items a new ring reserves before its first push.
const PREALLOC: usize = 4096;

/// Keeps the newest `cap` items pushed into it: once full, each push
/// evicts the oldest item and counts the eviction.
///
/// At most 4096 items are reserved up front and storage grows with use,
/// so a generous bound (a million-record telemetry ring, say) costs no
/// more to create than a small one.
///
/// # Example
///
/// ```
/// use simkit::ring::BoundedRing;
///
/// let mut ring = BoundedRing::new(2);
/// for i in 0..3 {
///     ring.push(i);
/// }
/// assert_eq!(ring.iter().copied().collect::<Vec<_>>(), [1, 2]);
/// assert_eq!(ring.evicted(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundedRing<T> {
    items: VecDeque<T>,
    cap: usize,
    evicted: u64,
}

impl<T> BoundedRing<T> {
    /// Creates an empty ring holding at most `cap` items.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "ring capacity must be non-zero");
        BoundedRing {
            items: VecDeque::with_capacity(cap.min(PREALLOC)),
            cap,
            evicted: 0,
        }
    }

    /// Appends `item`, evicting the oldest item first when full.
    pub fn push(&mut self, item: T) {
        if self.items.len() == self.cap {
            self.items.pop_front();
            self.evicted += 1;
        }
        self.items.push_back(item);
    }

    /// Number of retained items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// How many items were evicted because the ring was full.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The retained items, oldest first.
    pub fn iter(&self) -> std::collections::vec_deque::Iter<'_, T> {
        self.items.iter()
    }

    /// Consumes the ring, returning the retained items oldest first.
    pub fn into_vec(self) -> Vec<T> {
        self.items.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_oldest_and_counts() {
        let mut ring = BoundedRing::new(3);
        for i in 0..5u32 {
            ring.push(i);
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.evicted(), 2);
        assert_eq!(ring.into_vec(), vec![2, 3, 4], "oldest two evicted");
    }

    #[test]
    fn huge_bound_is_cheap_to_create() {
        let mut ring = BoundedRing::new(usize::MAX);
        assert!(ring.is_empty());
        ring.push(1u8);
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.evicted(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        BoundedRing::<u8>::new(0);
    }
}
