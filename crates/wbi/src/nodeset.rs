//! A dense set of node ids: one bit per node, iterated in ascending order.
//!
//! The WBI directory keeps its sharer set and its per-node line states in
//! these. Membership tests and updates cost O(1) and a walk costs one word
//! per 64 nodes, so the host work per directory message no longer grows
//! with the sharer count the way an ordered tree's did.

use std::fmt;

use ssmp_core::addr::NodeId;

/// A set of node ids stored as a bitset that grows on insert.
///
/// Equality is set equality: two sets with the same members are equal
/// whatever their word lengths (a set that once held node 200 and dropped
/// it equals one that never did).
#[derive(Clone, Default)]
pub struct NodeSet {
    words: Vec<u64>,
}

impl NodeSet {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The set `{node}`.
    pub fn single(node: NodeId) -> Self {
        let mut s = Self::new();
        s.insert(node);
        s
    }

    /// True if `node` is a member.
    pub fn contains(&self, node: NodeId) -> bool {
        self.words
            .get(node / 64)
            .is_some_and(|w| w & (1 << (node % 64)) != 0)
    }

    /// Adds `node`; returns whether it was absent.
    pub fn insert(&mut self, node: NodeId) -> bool {
        let i = node / 64;
        if i >= self.words.len() {
            self.words.resize(i + 1, 0);
        }
        let bit = 1 << (node % 64);
        let absent = self.words[i] & bit == 0;
        self.words[i] |= bit;
        absent
    }

    /// Removes `node`; returns whether it was present.
    pub fn remove(&mut self, node: NodeId) -> bool {
        match self.words.get_mut(node / 64) {
            Some(w) => {
                let bit = 1 << (node % 64);
                let present = *w & bit != 0;
                *w &= !bit;
                present
            }
            None => false,
        }
    }

    /// Adds or removes `node`.
    pub fn set(&mut self, node: NodeId, member: bool) {
        if member {
            self.insert(node);
        } else {
            self.remove(node);
        }
    }

    /// Keeps only the members that are also in `other`.
    pub fn intersect_with(&mut self, other: &NodeSet) {
        for (i, w) in self.words.iter_mut().enumerate() {
            *w &= other.words.get(i).copied().unwrap_or(0);
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if the set has no members.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The lowest member.
    pub fn first(&self) -> Option<NodeId> {
        self.iter().next()
    }

    /// Members in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            words: &self.words,
            base: 0,
            cur: self.words.first().copied().unwrap_or(0),
        }
    }
}

impl PartialEq for NodeSet {
    fn eq(&self, other: &Self) -> bool {
        let (short, long) = if self.words.len() <= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        short == &long[..short.len()] && long[short.len()..].iter().all(|&w| w == 0)
    }
}

impl Eq for NodeSet {}

impl fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<NodeId> for NodeSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut s = Self::new();
        for n in iter {
            s.insert(n);
        }
        s
    }
}

/// Ascending iterator over a [`NodeSet`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    words: &'a [u64],
    /// Index of the word `cur` came from.
    base: usize,
    /// The unvisited bits of that word.
    cur: u64,
}

impl Iterator for Iter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        while self.cur == 0 {
            self.base += 1;
            self.cur = *self.words.get(self.base)?;
        }
        let bit = self.cur.trailing_zeros() as usize;
        self.cur &= self.cur - 1;
        Some(self.base * 64 + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iterates_ascending_across_word_boundaries() {
        let ids = [511, 64, 0, 127, 63];
        let s: NodeSet = ids.into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 127, 511]);
        assert_eq!(s.len(), 5);
        assert_eq!(s.first(), Some(0));
        for n in [0, 63, 64, 127, 511] {
            assert!(s.contains(n), "{n}");
        }
        for n in [1, 62, 65, 126, 128, 510, 512, 10_000] {
            assert!(!s.contains(n), "{n}");
        }
    }

    #[test]
    fn first_skips_empty_low_words() {
        let mut s = NodeSet::single(3);
        s.insert(130);
        assert!(s.remove(3));
        assert_eq!(s.first(), Some(130));
        assert!(s.remove(130));
        assert!(!s.remove(130));
        assert_eq!(s.first(), None);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn equality_ignores_trailing_zero_words() {
        let mut wide = NodeSet::single(5);
        wide.insert(300);
        wide.remove(300);
        let narrow = NodeSet::single(5);
        assert_eq!(wide, narrow);
        assert_eq!(narrow, wide);
        assert_eq!(NodeSet::new(), {
            let mut e = NodeSet::single(1000);
            e.remove(1000);
            e
        });
        assert_ne!(NodeSet::single(5), NodeSet::single(69));
        assert_ne!(NodeSet::single(5), wide.iter().chain([64]).collect());
    }

    #[test]
    fn intersect_keeps_common_members() {
        let mut a: NodeSet = [1, 64, 200].into_iter().collect();
        let b: NodeSet = [64, 1].into_iter().collect();
        a.intersect_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 64]);
    }

    #[test]
    fn debug_renders_like_an_ordered_set() {
        let s: NodeSet = [70, 2].into_iter().collect();
        assert_eq!(format!("{s:?}"), "{2, 70}");
    }
}
