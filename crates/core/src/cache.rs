//! The per-node data cache for shared blocks.
//!
//! The paper's simulation (Table 4) uses a 1024-block cache with 4-word
//! blocks and tracks 32 shared blocks exactly, modelling private traffic
//! probabilistically via a hit ratio — so shared blocks never face capacity
//! pressure in the baseline experiments. The cache here is nevertheless a
//! real set-associative structure with LRU replacement so that capacity
//! ablations (and the lock-cache overflow scenario of §4.3) can be studied.

use crate::addr::BlockId;
use crate::line::{BlockData, CacheLine};

/// What `insert` had to do to make room.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Eviction {
    /// No victim (free way available).
    None,
    /// A clean victim was dropped silently.
    Clean(BlockId),
    /// A dirty victim must be written back: only the masked words travel
    /// (per-word dirty bits, paper Fig. 2a).
    WriteBack {
        /// Victim block id.
        block: BlockId,
        /// Dirty-word mask.
        mask: u64,
        /// Victim line contents.
        data: BlockData,
    },
}

/// Marks a block that is not resident in the slot table.
const ABSENT: u32 = u32::MAX;

/// One resident line and the tick of its last use.
#[derive(Debug, Clone)]
struct Way {
    block: BlockId,
    /// The cache's tick when the line was last inserted or promoted; the
    /// line with the smallest stamp in a set is its LRU line.
    used: u64,
    line: CacheLine,
}

/// A set-associative, LRU-replacement cache mapping `BlockId` to
/// [`CacheLine`].
///
/// Lookups go through a block-indexed slot table, so a hit costs the same
/// whatever the associativity and occupancy; recency is a per-line stamp
/// rather than a position, so promoting a line moves nothing. Only an
/// insertion into a full set scans the set (for its victim).
#[derive(Debug, Clone)]
pub struct DataCache {
    /// Per-set storage, in no particular order.
    sets: Vec<Vec<Way>>,
    /// `slot[block]` is the block's position in its set, or `ABSENT`.
    /// Sized to the largest block id ever inserted.
    slot: Vec<u32>,
    /// Use counter; every insertion or promotion takes the next tick.
    tick: u64,
    assoc: usize,
    block_words: u8,
}

impl DataCache {
    /// Creates a cache of `num_sets × assoc` lines.
    pub fn new(num_sets: usize, assoc: usize, block_words: u8) -> Self {
        assert!(num_sets >= 1 && assoc >= 1);
        Self {
            sets: vec![Vec::with_capacity(assoc); num_sets],
            slot: Vec::new(),
            tick: 0,
            assoc,
            block_words,
        }
    }

    /// A fully-associative cache of `capacity` lines.
    pub fn fully_associative(capacity: usize, block_words: u8) -> Self {
        Self::new(1, capacity, block_words)
    }

    fn set_of(&self, block: BlockId) -> usize {
        block % self.sets.len()
    }

    /// `block`'s position in its set, if resident.
    fn pos(&self, block: BlockId) -> Option<usize> {
        match self.slot.get(block) {
            Some(&p) if p != ABSENT => Some(p as usize),
            _ => None,
        }
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Removes the way at `pos` of set `s`, keeping the slot table in step
    /// with the way that moves into its place.
    fn take(&mut self, s: usize, pos: usize) -> Way {
        let way = self.sets[s].swap_remove(pos);
        self.slot[way.block] = ABSENT;
        if let Some(moved) = self.sets[s].get(pos) {
            self.slot[moved.block] = pos as u32;
        }
        way
    }

    /// Total lines currently resident.
    pub fn len(&self) -> usize {
        self.sets.iter().map(|s| s.len()).sum()
    }

    /// True if no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `block` is resident.
    pub fn contains(&self, block: BlockId) -> bool {
        self.pos(block).is_some()
    }

    /// Read-only access to a resident line (does not touch LRU state).
    pub fn peek(&self, block: BlockId) -> Option<&CacheLine> {
        let pos = self.pos(block)?;
        Some(&self.sets[self.set_of(block)][pos].line)
    }

    /// Mutable access to a resident line; promotes it to MRU.
    pub fn get_mut(&mut self, block: BlockId) -> Option<&mut CacheLine> {
        let pos = self.pos(block)?;
        let (s, used) = (self.set_of(block), self.next_tick());
        let way = &mut self.sets[s][pos];
        way.used = used;
        Some(&mut way.line)
    }

    /// Inserts (or replaces) a line for `block`, evicting the LRU line of
    /// the set if full. Lines whose lock field is active are never chosen
    /// as victims (they live in the lock cache in hardware; pinning them
    /// here models the same guarantee for configurations without a separate
    /// lock cache) unless every line of the set is locked, in which case
    /// the set's LRU line goes.
    pub fn insert(&mut self, block: BlockId, line: CacheLine) -> Eviction {
        let (s, used) = (self.set_of(block), self.next_tick());
        if let Some(pos) = self.pos(block) {
            self.sets[s][pos] = Way { block, used, line };
            return Eviction::None;
        }
        let mut evicted = Eviction::None;
        if self.sets[s].len() >= self.assoc {
            // the LRU line whose lock field is inactive, else the LRU line
            let set = &self.sets[s];
            let pos = (0..set.len())
                .min_by_key(|&i| {
                    let locked = !matches!(set[i].line.lock, crate::line::LockField::None);
                    (locked, set[i].used)
                })
                .expect("full set");
            let victim = self.take(s, pos);
            evicted = if victim.line.is_dirty() {
                Eviction::WriteBack {
                    block: victim.block,
                    mask: victim.line.dirty,
                    data: victim.line.data,
                }
            } else {
                Eviction::Clean(victim.block)
            };
        }
        if block >= self.slot.len() {
            self.slot.resize(block + 1, ABSENT);
        }
        self.slot[block] = self.sets[s].len() as u32;
        self.sets[s].push(Way { block, used, line });
        evicted
    }

    /// Removes and returns the line for `block`.
    pub fn remove(&mut self, block: BlockId) -> Option<CacheLine> {
        let pos = self.pos(block)?;
        Some(self.take(self.set_of(block), pos).line)
    }

    /// Ensures a line exists for `block` (inserting an invalid one if
    /// needed) and returns it mutably, along with any eviction performed.
    pub fn entry(&mut self, block: BlockId) -> (&mut CacheLine, Eviction) {
        let ev = if self.contains(block) {
            Eviction::None
        } else {
            self.insert(block, CacheLine::new(self.block_words))
        };
        (self.get_mut(block).expect("just inserted"), ev)
    }

    /// Iterates over resident `(block, line)` pairs (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, &CacheLine)> {
        self.sets
            .iter()
            .flat_map(|s| s.iter().map(|w| (w.block, &w.line)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line::LockField;
    use crate::primitive::LockMode;

    fn line4() -> CacheLine {
        let mut l = CacheLine::new(4);
        l.valid = true;
        l
    }

    #[test]
    fn insert_and_lookup() {
        let mut c = DataCache::new(4, 2, 4);
        assert_eq!(c.insert(0, line4()), Eviction::None);
        assert!(c.contains(0));
        assert!(!c.contains(4));
        assert!(c.peek(0).unwrap().valid);
    }

    #[test]
    fn lru_eviction_order() {
        // 1 set, 2 ways: blocks 0, 1 fill it; touching 0 makes 1 the LRU.
        let mut c = DataCache::new(1, 2, 4);
        c.insert(0, line4());
        c.insert(1, line4());
        c.get_mut(0);
        match c.insert(2, line4()) {
            Eviction::Clean(b) => assert_eq!(b, 1),
            other => panic!("expected clean eviction of 1, got {other:?}"),
        }
        assert!(c.contains(0) && c.contains(2));
    }

    #[test]
    fn dirty_eviction_carries_masked_words() {
        let mut c = DataCache::new(1, 1, 4);
        let mut l = line4();
        l.data.set(2, 42);
        l.mark_dirty(2);
        c.insert(7, l);
        match c.insert(8, line4()) {
            Eviction::WriteBack { block, mask, data } => {
                assert_eq!(block, 7);
                assert_eq!(mask, 0b100);
                assert_eq!(data.get(2), 42);
            }
            other => panic!("expected write-back, got {other:?}"),
        }
    }

    #[test]
    fn locked_lines_are_pinned() {
        let mut c = DataCache::new(1, 2, 4);
        let mut locked = line4();
        locked.lock = LockField::Held(LockMode::Write);
        c.insert(0, locked);
        c.insert(1, line4());
        // inserting a third line must evict block 1 (unlocked), not block 0
        match c.insert(2, line4()) {
            Eviction::Clean(b) => assert_eq!(b, 1),
            other => panic!("{other:?}"),
        }
        assert!(c.contains(0));
    }

    #[test]
    fn reinsert_replaces_without_eviction() {
        let mut c = DataCache::new(1, 1, 4);
        c.insert(0, line4());
        let mut l2 = line4();
        l2.data.set(0, 5);
        assert_eq!(c.insert(0, l2), Eviction::None);
        assert_eq!(c.peek(0).unwrap().data.get(0), 5);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn remove_and_entry() {
        let mut c = DataCache::new(2, 2, 4);
        c.insert(0, line4());
        assert!(c.remove(0).is_some());
        assert!(c.remove(0).is_none());
        let (l, ev) = c.entry(3);
        assert_eq!(ev, Eviction::None);
        assert!(!l.valid, "entry() creates an invalid placeholder");
        assert!(c.contains(3));
    }

    #[test]
    fn sets_partition_blocks() {
        let mut c = DataCache::new(4, 1, 4);
        for b in 0..4 {
            c.insert(b, line4());
        }
        assert_eq!(c.len(), 4);
        // block 4 maps to set 0, evicting block 0 only
        c.insert(4, line4());
        assert!(!c.contains(0));
        assert!(c.contains(1) && c.contains(2) && c.contains(3));
    }

    #[test]
    fn iter_visits_all() {
        let mut c = DataCache::new(4, 2, 4);
        for b in 0..6 {
            c.insert(b, line4());
        }
        let mut blocks: Vec<_> = c.iter().map(|(b, _)| b).collect();
        blocks.sort_unstable();
        assert_eq!(blocks, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn all_locked_set_evicts_its_lru_line() {
        let mut c = DataCache::new(1, 2, 4);
        for b in [0, 1] {
            let mut l = line4();
            l.lock = LockField::Held(LockMode::Write);
            c.insert(b, l);
        }
        c.get_mut(0);
        assert_eq!(c.insert(2, line4()), Eviction::Clean(1));
        assert!(c.contains(0) && c.contains(2));
    }

    /// Reference model: an ordered-`Vec` cache in which each set keeps its
    /// lines in LRU order (front = LRU) and every hit shifts the line to
    /// the back, so the victim is read off the order directly.
    struct OrderedCache {
        sets: Vec<Vec<(BlockId, CacheLine)>>,
        assoc: usize,
    }

    impl OrderedCache {
        fn new(num_sets: usize, assoc: usize) -> Self {
            Self {
                sets: vec![Vec::new(); num_sets],
                assoc,
            }
        }

        fn set(&mut self, block: BlockId) -> &mut Vec<(BlockId, CacheLine)> {
            let n = self.sets.len();
            &mut self.sets[block % n]
        }

        fn peek(&self, block: BlockId) -> Option<&CacheLine> {
            self.sets[block % self.sets.len()]
                .iter()
                .find(|(b, _)| *b == block)
                .map(|(_, l)| l)
        }

        fn get_mut(&mut self, block: BlockId) -> Option<&mut CacheLine> {
            let set = self.set(block);
            let pos = set.iter().position(|(b, _)| *b == block)?;
            let entry = set.remove(pos);
            set.push(entry);
            set.last_mut().map(|(_, l)| l)
        }

        fn insert(&mut self, block: BlockId, line: CacheLine) -> Eviction {
            let assoc = self.assoc;
            let set = self.set(block);
            if let Some(pos) = set.iter().position(|(b, _)| *b == block) {
                set.remove(pos);
                set.push((block, line));
                return Eviction::None;
            }
            let mut evicted = Eviction::None;
            if set.len() >= assoc {
                let pos = set
                    .iter()
                    .position(|(_, l)| matches!(l.lock, LockField::None))
                    .unwrap_or(0);
                let (vb, vl) = set.remove(pos);
                evicted = if vl.is_dirty() {
                    Eviction::WriteBack {
                        block: vb,
                        mask: vl.dirty,
                        data: vl.data,
                    }
                } else {
                    Eviction::Clean(vb)
                };
            }
            set.push((block, line));
            evicted
        }

        fn remove(&mut self, block: BlockId) -> Option<CacheLine> {
            let set = self.set(block);
            let pos = set.iter().position(|(b, _)| *b == block)?;
            Some(set.remove(pos).1)
        }

        fn entry(&mut self, block: BlockId) -> (&mut CacheLine, Eviction) {
            let ev = if self.peek(block).is_some() {
                Eviction::None
            } else {
                self.insert(block, CacheLine::new(4))
            };
            (self.get_mut(block).expect("just inserted"), ev)
        }

        fn contents(&self) -> Vec<(BlockId, CacheLine)> {
            let mut v: Vec<_> = self.sets.iter().flatten().cloned().collect();
            v.sort_by_key(|(b, _)| *b);
            v
        }
    }

    fn contents(c: &DataCache) -> Vec<(BlockId, CacheLine)> {
        let mut v: Vec<_> = c.iter().map(|(b, l)| (b, l.clone())).collect();
        v.sort_by_key(|(b, _)| *b);
        v
    }

    /// A valid line stamped with `stamp`, dirty and/or locked per `flag`.
    fn flagged_line(flag: u8, stamp: u64) -> CacheLine {
        let mut l = line4();
        l.data.set(0, stamp);
        mutate(&mut l, flag, stamp);
        l
    }

    /// The in-place change `get_mut`/`entry` callers make: dirty a word,
    /// take the lock, drop it, or nothing.
    fn mutate(l: &mut CacheLine, flag: u8, stamp: u64) {
        match flag {
            1 => {
                l.data.set(1, stamp);
                l.mark_dirty(1);
            }
            2 => l.lock = LockField::Held(LockMode::Write),
            3 => l.lock = LockField::None,
            _ => {}
        }
    }

    proptest::proptest! {
        /// Random operation streams on small sets (so evictions are
        /// frequent), with dirty and locked lines: the slot-table cache
        /// returns exactly what the ordered-`Vec` oracle returns (victims
        /// included) and holds the same lines after every step.
        #[test]
        fn prop_matches_ordered_vec_oracle(
            sets in 1usize..3,
            assoc in 1usize..4,
            ops in proptest::collection::vec((0u8..6, 0usize..10, 0u8..4), 1..120),
        ) {
            let mut c = DataCache::new(sets, assoc, 4);
            let mut o = OrderedCache::new(sets, assoc);
            for (stamp, (op, block, flag)) in ops.into_iter().enumerate() {
                let stamp = stamp as u64 + 1;
                match op {
                    0 => {
                        let l = flagged_line(flag, stamp);
                        proptest::prop_assert_eq!(c.insert(block, l.clone()), o.insert(block, l));
                    }
                    1 => match (c.get_mut(block), o.get_mut(block)) {
                        (Some(a), Some(b)) => {
                            proptest::prop_assert_eq!(&*a, &*b);
                            mutate(a, flag, stamp);
                            mutate(b, flag, stamp);
                        }
                        (a, b) => proptest::prop_assert_eq!(a.is_some(), b.is_some()),
                    },
                    2 => proptest::prop_assert_eq!(c.peek(block), o.peek(block)),
                    3 => {
                        let (a, ea) = c.entry(block);
                        let (b, eb) = o.entry(block);
                        proptest::prop_assert_eq!(ea, eb);
                        proptest::prop_assert_eq!(&*a, &*b);
                        mutate(a, flag, stamp);
                        mutate(b, flag, stamp);
                    }
                    4 => proptest::prop_assert_eq!(c.remove(block), o.remove(block)),
                    _ => proptest::prop_assert_eq!(c.contains(block), o.peek(block).is_some()),
                }
                let want = o.contents();
                proptest::prop_assert_eq!(c.len(), want.len());
                proptest::prop_assert_eq!(contents(&c), want);
            }
        }
    }
}
