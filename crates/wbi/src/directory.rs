//! The write-back-invalidate (MSI) directory protocol for one block.
//!
//! A blocking home directory: at most one transaction is in flight per
//! block; requests arriving in the meantime are queued in arrival order.
//! Remote-dirty misses resolve in four hops (requester → home → owner →
//! home → requester), the `2C_R + 2C_B` of the paper's Table 2.
//!
//! Like the protocol controllers in `ssmp-core`, this is a pure
//! message-level state machine; the machine crate assigns timing. The
//! `WriteBack`/`Fetch` race is resolved with a `WbRace` reply: a fetch that
//! misses at the (former) owner tells the home to satisfy the request from
//! memory, which is correct because the owner's replacement already merged
//! its data into memory.
//!
//! Per-block state is dense: the sharer set and the per-node line states
//! are [`NodeSet`] bitsets and the per-node copies sit in one node-indexed
//! word slab, so a delivered message costs the same host time whatever
//! the number of sharers (only an invalidation fan-out walks the set, one
//! word per 64 nodes).

use std::collections::VecDeque;
use std::fmt;

use ssmp_core::addr::NodeId;
use ssmp_core::cbl::Endpoint;
use ssmp_core::line::BlockData;

use crate::nodeset::NodeSet;

/// Directory state for the block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirState {
    /// No cached copies.
    Uncached,
    /// Read-only copies at the listed nodes.
    Shared(NodeSet),
    /// One dirty exclusive copy.
    Modified(NodeId),
}

/// Cache-line state at a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineState {
    /// Clean, read-only.
    Shared,
    /// Clean but exclusive (MESI 'E'): may be written without directory
    /// traffic (silently becoming Modified). Only granted when the MESI
    /// extension is enabled.
    Exclusive,
    /// Dirty, exclusive.
    Modified,
}

/// WBI protocol message kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WbiKind {
    /// Node → home: read miss.
    ReadReq,
    /// Node → home: write miss or upgrade request.
    WriteReq,
    /// Home → node: shared copy (block data).
    DataShared,
    /// Home → node: exclusive-clean copy (MESI 'E'; sole reader).
    DataExclClean,
    /// Home → node: exclusive copy; `upgrade` means the requester already
    /// held the data and only ownership travels (one word).
    DataExcl {
        /// No data payload, ownership only.
        upgrade: bool,
    },
    /// Home → sharer: invalidate.
    Inv,
    /// Sharer → home: invalidation acknowledged.
    InvAck,
    /// Home → owner: send data, downgrade to shared.
    FetchShared,
    /// Home → owner: send data, invalidate.
    FetchExcl,
    /// Owner → home: the dirty data (block).
    OwnerData {
        /// Owner kept a shared copy (read fetch) vs. invalidated (write).
        downgrade: bool,
    },
    /// Owner → home: replacement write-back of a dirty line (block).
    WriteBack,
    /// (Former) owner → home: fetch arrived after the line was replaced;
    /// memory is already up to date.
    WbRace,
}

/// A WBI protocol message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WbiMsg {
    /// Sender.
    pub src: Endpoint,
    /// Receiver.
    pub dst: Endpoint,
    /// Payload words.
    pub words: u32,
    /// Protocol content.
    pub kind: WbiKind,
}

/// Externally visible effects, consumed by the machine simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WbiEffect {
    /// A shared copy arrived at `node`.
    FilledShared {
        /// Receiving node.
        node: NodeId,
        /// Block contents.
        data: BlockData,
    },
    /// An exclusive copy arrived at `node`; the pending store may proceed.
    FilledExcl {
        /// Receiving node.
        node: NodeId,
        /// Block contents.
        data: BlockData,
    },
    /// Ownership arrived without data (requester already had the block).
    UpgradeGranted {
        /// Receiving node.
        node: NodeId,
    },
    /// The node's copy was invalidated (write elsewhere). Spinning
    /// processors re-read on this signal.
    Invalidated {
        /// The invalidated node.
        node: NodeId,
    },
    /// The node's dirty copy was downgraded to shared (read elsewhere).
    Downgraded {
        /// The downgraded node.
        node: NodeId,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Txn {
    Read,
    /// A read that must first evict a sharer (limited directory overflow).
    ReadEvict,
    Write {
        /// Requester already held a shared copy (upgrade).
        had_copy: bool,
    },
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Pending {
    txn: Txn,
    requester: NodeId,
    acks_left: usize,
}

/// The WBI coherence controller for one block: memory copy, directory
/// state, per-node lines, and the blocking-transaction queue.
#[derive(Clone)]
pub struct WbiBlock {
    block_words: u8,
    mem: BlockData,
    dir: DirState,
    /// Nodes holding a valid copy.
    valid: NodeSet,
    /// Nodes holding it writable: Modified or Exclusive.
    owned: NodeSet,
    /// Nodes holding it Exclusive-clean (a subset of `owned`).
    clean: NodeSet,
    /// Node `n`'s copy is `data[n * block_words..][..block_words]`; the
    /// words of a node outside `valid` are stale and never read.
    data: Vec<u64>,
    busy: Option<Pending>,
    queue: VecDeque<(NodeId, Txn)>,
    /// Maximum sharers the directory can record (`None` = full map). A
    /// read that would exceed the limit first invalidates a sharer — the
    /// "limited directory" organisation of Stenström's survey that the
    /// paper rejects in favour of its O(1) pointer chain (§4.1).
    sharer_limit: Option<usize>,
    /// Evictions forced by the sharer limit.
    dir_evictions: u64,
    /// MESI extension: grant Exclusive-clean to a sole reader so a
    /// subsequent write needs no upgrade transaction.
    mesi: bool,
}

impl WbiBlock {
    /// Creates a controller for a block of `block_words` words.
    pub fn new(block_words: u8) -> Self {
        Self {
            block_words,
            mem: BlockData::new(block_words),
            dir: DirState::Uncached,
            valid: NodeSet::new(),
            owned: NodeSet::new(),
            clean: NodeSet::new(),
            data: Vec::new(),
            busy: None,
            queue: VecDeque::new(),
            sharer_limit: None,
            dir_evictions: 0,
            mesi: false,
        }
    }

    /// Creates a controller with the MESI exclusive-clean extension: a
    /// read miss on an uncached block returns an 'E' copy, and the sole
    /// owner's first write is silent (no upgrade round trip).
    pub fn with_mesi(block_words: u8) -> Self {
        let mut b = Self::new(block_words);
        b.mesi = true;
        b
    }

    /// Creates a controller whose directory records at most `limit`
    /// sharers (a `Dir_i` limited directory; reads beyond the limit evict).
    pub fn with_sharer_limit(block_words: u8, limit: usize) -> Self {
        assert!(limit >= 1);
        let mut b = Self::new(block_words);
        b.sharer_limit = Some(limit);
        b
    }

    /// Evictions the sharer limit has forced so far.
    pub fn dir_evictions(&self) -> u64 {
        self.dir_evictions
    }

    fn ctl(src: Endpoint, dst: Endpoint, kind: WbiKind) -> WbiMsg {
        WbiMsg {
            src,
            dst,
            words: 1,
            kind,
        }
    }

    fn blk(&self, src: Endpoint, dst: Endpoint, kind: WbiKind) -> WbiMsg {
        WbiMsg {
            src,
            dst,
            words: self.block_words as u32,
            kind,
        }
    }

    /// The authoritative memory copy (may be stale while a line is
    /// Modified, as in real hardware).
    pub fn mem(&self) -> &BlockData {
        &self.mem
    }

    /// Directory state (for tests and stats).
    pub fn dir_state(&self) -> &DirState {
        &self.dir
    }

    /// The node's line state, if cached.
    pub fn line_state(&self, node: NodeId) -> Option<LineState> {
        if !self.valid.contains(node) {
            None
        } else if !self.owned.contains(node) {
            Some(LineState::Shared)
        } else if self.clean.contains(node) {
            Some(LineState::Exclusive)
        } else {
            Some(LineState::Modified)
        }
    }

    /// The words of `node`'s slab entry (meaningful only while valid).
    fn line(&self, node: NodeId) -> &[u64] {
        let bw = self.block_words as usize;
        &self.data[node * bw..(node + 1) * bw]
    }

    fn set_state(&mut self, node: NodeId, state: LineState) {
        self.valid.insert(node);
        self.owned.set(node, state != LineState::Shared);
        self.clean.set(node, state == LineState::Exclusive);
    }

    /// Installs a copy of memory at `node` in `state`; returns the copy
    /// for the fill effect.
    fn fill(&mut self, node: NodeId, state: LineState) -> BlockData {
        let bw = self.block_words as usize;
        let end = (node + 1) * bw;
        if self.data.len() < end {
            self.data.resize(end, 0);
        }
        self.data[node * bw..end].copy_from_slice(self.mem.words());
        self.set_state(node, state);
        self.mem.clone()
    }

    /// Drops `node`'s copy; returns the state it had.
    fn drop_line(&mut self, node: NodeId) -> Option<LineState> {
        let state = self.line_state(node);
        self.valid.remove(node);
        self.owned.remove(node);
        self.clean.remove(node);
        state
    }

    /// Copies `node`'s line into memory.
    fn write_back(&mut self, node: NodeId) {
        let bw = self.block_words as usize;
        self.mem
            .words_mut()
            .copy_from_slice(&self.data[node * bw..(node + 1) * bw]);
    }

    /// Valid lines in ascending node order.
    fn lines(&self) -> impl Iterator<Item = (NodeId, LineState, &[u64])> + '_ {
        self.valid.iter().map(|n| {
            (
                n,
                self.line_state(n).expect("valid node has a state"),
                self.line(n),
            )
        })
    }

    /// True if the directory is mid-transaction on this block.
    pub fn is_busy(&self) -> bool {
        self.busy.is_some()
    }

    /// Local read hit: returns the word if the node has any valid copy.
    pub fn local_read(&self, node: NodeId, word: u8) -> Option<u64> {
        self.valid
            .contains(node)
            .then(|| self.line(node)[word as usize])
    }

    /// Local write hit: performs the store iff the node holds the line
    /// Modified. Returns whether it hit.
    pub fn local_write(&mut self, node: NodeId, word: u8, value: u64) -> bool {
        // Exclusive -> Modified is MESI's silent upgrade; no directory
        // traffic. (`fetch_and_store` needs the same write permission.)
        self.fetch_and_store(node, word, value).is_some()
    }

    /// Atomic read-modify-write, valid only with the line held Modified
    /// (the machine first obtains ownership via `WriteReq`). Returns the
    /// old value.
    pub fn fetch_and_store(&mut self, node: NodeId, word: u8, value: u64) -> Option<u64> {
        if !self.owned.contains(node) {
            return None;
        }
        self.clean.remove(node);
        let slot = &mut self.data[node * self.block_words as usize + word as usize];
        Some(std::mem::replace(slot, value))
    }

    /// Processor read miss.
    pub fn read_req(&mut self, node: NodeId) -> Vec<WbiMsg> {
        debug_assert!(!self.valid.contains(node), "read request with a valid line");
        vec![Self::ctl(
            Endpoint::Node(node),
            Endpoint::Dir,
            WbiKind::ReadReq,
        )]
    }

    /// Processor write miss or upgrade.
    pub fn write_req(&mut self, node: NodeId) -> Vec<WbiMsg> {
        debug_assert!(
            self.line_state(node) != Some(LineState::Modified),
            "write request while already owner"
        );
        vec![Self::ctl(
            Endpoint::Node(node),
            Endpoint::Dir,
            WbiKind::WriteReq,
        )]
    }

    /// The node replaces its line. Dirty lines emit a write-back (memory is
    /// updated immediately — monotone freshness — with the directory state
    /// transition applied when the message arrives); shared lines are
    /// dropped silently.
    pub fn replace(&mut self, node: NodeId) -> Vec<WbiMsg> {
        match self.drop_line(node) {
            Some(LineState::Modified) => {
                self.write_back(node);
                vec![self.blk(Endpoint::Node(node), Endpoint::Dir, WbiKind::WriteBack)]
            }
            // Silent replacement of a clean line. The directory may send a
            // spurious Inv later; the node just acks it.
            _ => vec![],
        }
    }

    /// Delivers a protocol message.
    pub fn deliver(&mut self, msg: WbiMsg) -> (Vec<WbiMsg>, Vec<WbiEffect>) {
        match msg.dst {
            Endpoint::Dir => self.deliver_at_dir(msg),
            Endpoint::Node(n) => self.deliver_at_node(n, msg),
        }
    }

    fn deliver_at_dir(&mut self, msg: WbiMsg) -> (Vec<WbiMsg>, Vec<WbiEffect>) {
        let Endpoint::Node(src) = msg.src else {
            panic!("directory message from directory: {msg:?}")
        };
        match msg.kind {
            WbiKind::ReadReq => self.begin_or_queue(src, Txn::Read),
            WbiKind::WriteReq => {
                let had = self.line_state(src) == Some(LineState::Shared);
                self.begin_or_queue(src, Txn::Write { had_copy: had })
            }
            WbiKind::InvAck => {
                let p = self.busy.as_mut().expect("ack with no transaction");
                debug_assert!(p.acks_left > 0);
                p.acks_left -= 1;
                if p.acks_left == 0 {
                    let p = self.busy.take().expect("checked");
                    let mut msgs = match p.txn {
                        Txn::Write { had_copy } => vec![self.grant_excl(p.requester, had_copy)],
                        Txn::ReadEvict => {
                            // The victim's ack arrived: record the new
                            // sharer set and serve the read.
                            match &mut self.dir {
                                DirState::Shared(s) => {
                                    s.intersect_with(&self.valid);
                                    s.insert(p.requester);
                                }
                                other => panic!("read-evict on {other:?}"),
                            }
                            vec![self.blk(
                                Endpoint::Dir,
                                Endpoint::Node(p.requester),
                                WbiKind::DataShared,
                            )]
                        }
                        Txn::Read => unreachable!("plain reads collect no acks"),
                    };
                    msgs.extend(self.pump_queue());
                    (msgs, vec![])
                } else {
                    (vec![], vec![])
                }
            }
            WbiKind::OwnerData { downgrade } => {
                // Owner's data arrives; memory is refreshed and the waiting
                // requester served.
                if self.valid.contains(src) {
                    // (downgraded owner keeps a clean shared copy)
                    self.write_back(src);
                } // else: owner invalidated; data was stashed at fetch time
                let p = self.busy.take().expect("owner data with no transaction");
                let mut msgs = Vec::new();
                match p.txn {
                    Txn::Read => {
                        debug_assert!(downgrade);
                        self.dir = DirState::Shared([src, p.requester].into_iter().collect());
                        msgs.push(self.blk(
                            Endpoint::Dir,
                            Endpoint::Node(p.requester),
                            WbiKind::DataShared,
                        ));
                    }
                    Txn::ReadEvict => unreachable!("evictions fetch nothing from owners"),
                    Txn::Write { .. } => {
                        debug_assert!(!downgrade);
                        self.dir = DirState::Modified(p.requester);
                        msgs.push(self.blk(
                            Endpoint::Dir,
                            Endpoint::Node(p.requester),
                            WbiKind::DataExcl { upgrade: false },
                        ));
                    }
                }
                msgs.extend(self.pump_queue());
                (msgs, vec![])
            }
            WbiKind::WbRace => {
                // The fetch missed: the owner replaced the line and its
                // write-back (already applied to memory) is in flight.
                let p = self.busy.take().expect("race reply with no transaction");
                let mut msgs = Vec::new();
                match p.txn {
                    Txn::ReadEvict => unreachable!("evictions never fetch"),
                    Txn::Read => {
                        self.dir = DirState::Shared(NodeSet::single(p.requester));
                        msgs.push(self.blk(
                            Endpoint::Dir,
                            Endpoint::Node(p.requester),
                            WbiKind::DataShared,
                        ));
                    }
                    Txn::Write { .. } => {
                        self.dir = DirState::Modified(p.requester);
                        msgs.push(self.blk(
                            Endpoint::Dir,
                            Endpoint::Node(p.requester),
                            WbiKind::DataExcl { upgrade: false },
                        ));
                    }
                }
                msgs.extend(self.pump_queue());
                (msgs, vec![])
            }
            WbiKind::WriteBack => {
                // Memory was already updated at replace(); retire the
                // directory's owner record if it still names the sender.
                if self.dir == DirState::Modified(src) {
                    self.dir = DirState::Uncached;
                }
                (vec![], vec![])
            }
            other => panic!("directory cannot handle {other:?}"),
        }
    }

    fn begin_or_queue(&mut self, node: NodeId, txn: Txn) -> (Vec<WbiMsg>, Vec<WbiEffect>) {
        if self.busy.is_some() {
            self.queue.push_back((node, txn));
            return (vec![], vec![]);
        }
        (self.begin(node, txn), vec![])
    }

    fn begin(&mut self, node: NodeId, txn: Txn) -> Vec<WbiMsg> {
        match txn {
            // A queued ReadEvict restarts as a plain read against the
            // current state (the eviction may no longer be necessary).
            Txn::Read | Txn::ReadEvict => match &mut self.dir {
                DirState::Uncached => {
                    if self.mesi {
                        // sole reader: grant exclusive-clean; the directory
                        // conservatively records an owner (it cannot see
                        // the silent E -> M upgrade).
                        self.dir = DirState::Modified(node);
                        vec![self.blk(Endpoint::Dir, Endpoint::Node(node), WbiKind::DataExclClean)]
                    } else {
                        self.dir = DirState::Shared(NodeSet::single(node));
                        vec![self.blk(Endpoint::Dir, Endpoint::Node(node), WbiKind::DataShared)]
                    }
                }
                DirState::Shared(s) => {
                    if let Some(limit) = self.sharer_limit {
                        if !s.contains(node) && s.len() >= limit {
                            // Limited directory: no pointer left — evict
                            // the lowest-id sharer, then serve the read.
                            let victim = s.first().expect("non-empty");
                            self.dir_evictions += 1;
                            self.busy = Some(Pending {
                                txn: Txn::ReadEvict,
                                requester: node,
                                acks_left: 1,
                            });
                            return vec![Self::ctl(
                                Endpoint::Dir,
                                Endpoint::Node(victim),
                                WbiKind::Inv,
                            )];
                        }
                    }
                    s.insert(node);
                    vec![self.blk(Endpoint::Dir, Endpoint::Node(node), WbiKind::DataShared)]
                }
                &mut DirState::Modified(owner) => {
                    self.busy = Some(Pending {
                        txn,
                        requester: node,
                        acks_left: 0,
                    });
                    vec![Self::ctl(
                        Endpoint::Dir,
                        Endpoint::Node(owner),
                        WbiKind::FetchShared,
                    )]
                }
            },
            Txn::Write { had_copy } => match &self.dir {
                DirState::Uncached => {
                    self.dir = DirState::Modified(node);
                    vec![self.blk(
                        Endpoint::Dir,
                        Endpoint::Node(node),
                        WbiKind::DataExcl { upgrade: false },
                    )]
                }
                DirState::Shared(s) => {
                    let had_copy = had_copy && s.contains(node);
                    let others = s.len() - usize::from(s.contains(node));
                    if others == 0 {
                        vec![self.grant_excl(node, had_copy)]
                    } else {
                        // Invalidate every other sharer, in ascending id
                        // order; the set stays recorded until the last ack.
                        let invs = s
                            .iter()
                            .filter(|&o| o != node)
                            .map(|o| Self::ctl(Endpoint::Dir, Endpoint::Node(o), WbiKind::Inv))
                            .collect();
                        self.busy = Some(Pending {
                            txn: Txn::Write { had_copy },
                            requester: node,
                            acks_left: others,
                        });
                        invs
                    }
                }
                &DirState::Modified(owner) => {
                    debug_assert_ne!(owner, node, "owner write-missed its own line");
                    self.busy = Some(Pending {
                        txn,
                        requester: node,
                        acks_left: 0,
                    });
                    vec![Self::ctl(
                        Endpoint::Dir,
                        Endpoint::Node(owner),
                        WbiKind::FetchExcl,
                    )]
                }
            },
        }
    }

    fn grant_excl(&mut self, node: NodeId, upgrade: bool) -> WbiMsg {
        self.dir = DirState::Modified(node);
        if upgrade {
            Self::ctl(
                Endpoint::Dir,
                Endpoint::Node(node),
                WbiKind::DataExcl { upgrade: true },
            )
        } else {
            self.blk(
                Endpoint::Dir,
                Endpoint::Node(node),
                WbiKind::DataExcl { upgrade: false },
            )
        }
    }

    fn pump_queue(&mut self) -> Vec<WbiMsg> {
        let mut out = Vec::new();
        while self.busy.is_none() {
            let Some((node, mut txn)) = self.queue.pop_front() else {
                break;
            };
            // Refresh the upgrade observation: the copy may have been
            // invalidated while queued.
            if let Txn::Write { had_copy } = &mut txn {
                *had_copy = self.line_state(node) == Some(LineState::Shared);
            }
            // A queued read may already be satisfied (e.g. granted shared
            // while this request waited); serve it anyway from memory.
            out.extend(self.begin(node, txn));
        }
        out
    }

    fn deliver_at_node(&mut self, node: NodeId, msg: WbiMsg) -> (Vec<WbiMsg>, Vec<WbiEffect>) {
        match msg.kind {
            WbiKind::DataShared => {
                let data = self.fill(node, LineState::Shared);
                (vec![], vec![WbiEffect::FilledShared { node, data }])
            }
            WbiKind::DataExclClean => {
                let data = self.fill(node, LineState::Exclusive);
                // a read completes exactly like a shared fill
                (vec![], vec![WbiEffect::FilledShared { node, data }])
            }
            // The requester still holds its copy: only ownership travels.
            WbiKind::DataExcl { upgrade: true } if self.valid.contains(node) => {
                self.set_state(node, LineState::Modified);
                (vec![], vec![WbiEffect::UpgradeGranted { node }])
            }
            // A full exclusive fill. An upgrade grant lands here too if a
            // delay-injected invalidation overtook it (unreachable on a
            // fault-free network): the grant is authoritative.
            WbiKind::DataExcl { .. } => {
                let data = self.fill(node, LineState::Modified);
                (vec![], vec![WbiEffect::FilledExcl { node, data }])
            }
            WbiKind::Inv => {
                let had = self.drop_line(node).is_some();
                let effects = if had {
                    vec![WbiEffect::Invalidated { node }]
                } else {
                    vec![] // spurious Inv after silent replacement
                };
                (
                    vec![Self::ctl(
                        Endpoint::Node(node),
                        Endpoint::Dir,
                        WbiKind::InvAck,
                    )],
                    effects,
                )
            }
            WbiKind::FetchShared if self.valid.contains(node) => {
                self.set_state(node, LineState::Shared);
                self.write_back(node);
                (
                    vec![self.blk(
                        Endpoint::Node(node),
                        Endpoint::Dir,
                        WbiKind::OwnerData { downgrade: true },
                    )],
                    vec![WbiEffect::Downgraded { node }],
                )
            }
            WbiKind::FetchExcl if self.valid.contains(node) => {
                self.write_back(node);
                self.drop_line(node);
                (
                    vec![self.blk(
                        Endpoint::Node(node),
                        Endpoint::Dir,
                        WbiKind::OwnerData { downgrade: false },
                    )],
                    vec![WbiEffect::Invalidated { node }],
                )
            }
            // The fetch found no line: it was replaced and its write-back
            // is in flight.
            WbiKind::FetchShared | WbiKind::FetchExcl => (
                vec![Self::ctl(
                    Endpoint::Node(node),
                    Endpoint::Dir,
                    WbiKind::WbRace,
                )],
                vec![],
            ),
            other => panic!("node cannot handle {other:?}"),
        }
    }

    /// Protocol invariant, valid at quiescence: directory state matches the
    /// actual line states.
    pub fn check_quiescent(&self) -> Result<(), String> {
        if self.busy.is_some() || !self.queue.is_empty() {
            return Err("transaction still in flight".into());
        }
        let modified: Vec<NodeId> = self.owned.iter().collect();
        match &self.dir {
            DirState::Uncached => {
                if !self.valid.is_empty() {
                    let lines: Vec<NodeId> = self.valid.iter().collect();
                    return Err(format!("uncached but lines exist: {lines:?}"));
                }
            }
            DirState::Shared(s) => {
                if !modified.is_empty() {
                    return Err(format!("shared dir but modified lines {modified:?}"));
                }
                if let Some(n) = self.valid.iter().find(|&n| !s.contains(n)) {
                    return Err(format!("line at {n} not in sharer set"));
                }
            }
            DirState::Modified(o) => {
                if modified != vec![*o] {
                    return Err(format!("dir owner {o} but modified lines {modified:?}"));
                }
                if self.valid.len() != 1 {
                    return Err("stale copies alongside an owner".into());
                }
            }
        }
        Ok(())
    }

    /// Single-writer invariant, valid at all times.
    pub fn check_single_writer(&self) -> Result<(), String> {
        let writers = self.owned.len();
        if writers > 1 {
            return Err(format!("{writers} simultaneous owners"));
        }
        if writers == 1 && self.valid.len() > 1 {
            return Err("owner coexists with other copies".into());
        }
        Ok(())
    }
}

/// The valid lines of a block as a `node: (state, words)` map.
struct Lines<'a>(&'a WbiBlock);

impl fmt::Debug for Lines<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.0.lines().map(|(n, st, words)| (n, (st, words))))
            .finish()
    }
}

/// Renders the logical state: stale slab words of invalid lines are not
/// shown.
impl fmt::Debug for WbiBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WbiBlock")
            .field("block_words", &self.block_words)
            .field("mem", &self.mem)
            .field("dir", &self.dir)
            .field("lines", &Lines(self))
            .field("busy", &self.busy)
            .field("queue", &self.queue)
            .field("sharer_limit", &self.sharer_limit)
            .field("dir_evictions", &self.dir_evictions)
            .field("mesi", &self.mesi)
            .finish()
    }
}

/// Logical equality: stale slab words of invalid lines and trailing
/// bitset words do not count.
impl PartialEq for WbiBlock {
    fn eq(&self, other: &Self) -> bool {
        self.block_words == other.block_words
            && self.mem == other.mem
            && self.dir == other.dir
            && self.lines().eq(other.lines())
            && self.busy == other.busy
            && self.queue == other.queue
            && self.sharer_limit == other.sharer_limit
            && self.dir_evictions == other.dir_evictions
            && self.mesi == other.mesi
    }
}

impl Eq for WbiBlock {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    struct Harness {
        b: WbiBlock,
        wire: VecDeque<WbiMsg>,
        effects: Vec<WbiEffect>,
        messages: usize,
    }

    impl Harness {
        fn new() -> Self {
            Self {
                b: WbiBlock::new(4),
                wire: VecDeque::new(),
                effects: Vec::new(),
                messages: 0,
            }
        }

        fn send(&mut self, msgs: Vec<WbiMsg>) {
            self.messages += msgs.len();
            self.wire.extend(msgs);
        }

        fn drain(&mut self) {
            while let Some(m) = self.wire.pop_front() {
                let (msgs, eff) = self.b.deliver(m);
                self.b.check_single_writer().unwrap();
                self.messages += msgs.len();
                self.wire.extend(msgs);
                self.effects.extend(eff);
            }
        }

        fn read(&mut self, n: NodeId) {
            let m = self.b.read_req(n);
            self.send(m);
            self.drain();
        }

        fn write(&mut self, n: NodeId, word: u8, v: u64) {
            if self.b.local_write(n, word, v) {
                return;
            }
            let m = self.b.write_req(n);
            self.send(m);
            self.drain();
            assert!(self.b.local_write(n, word, v), "store after ownership");
        }
    }

    #[test]
    fn read_sharing_accumulates() {
        let mut h = Harness::new();
        for n in 0..4 {
            h.read(n);
        }
        match h.b.dir_state() {
            DirState::Shared(s) => assert_eq!(s.len(), 4),
            other => panic!("{other:?}"),
        }
        h.b.check_quiescent().unwrap();
    }

    #[test]
    fn write_invalidates_all_sharers() {
        let mut h = Harness::new();
        for n in 0..4 {
            h.read(n);
        }
        h.effects.clear();
        h.write(4, 0, 99);
        let invalidated: Vec<NodeId> = h
            .effects
            .iter()
            .filter_map(|e| match e {
                WbiEffect::Invalidated { node } => Some(*node),
                _ => None,
            })
            .collect();
        assert_eq!(invalidated, vec![0, 1, 2, 3]);
        assert_eq!(h.b.dir_state(), &DirState::Modified(4));
        assert_eq!(h.b.local_read(4, 0), Some(99));
        h.b.check_quiescent().unwrap();
    }

    #[test]
    fn upgrade_from_shared_carries_no_data() {
        let mut h = Harness::new();
        h.read(0);
        h.read(1);
        h.effects.clear();
        h.write(0, 1, 7);
        assert!(h
            .effects
            .iter()
            .any(|e| matches!(e, WbiEffect::UpgradeGranted { node: 0 })));
        assert_eq!(h.b.dir_state(), &DirState::Modified(0));
    }

    #[test]
    fn sole_sharer_upgrade_is_two_messages() {
        let mut h = Harness::new();
        h.read(0);
        h.messages = 0;
        h.write(0, 0, 5);
        // WriteReq + upgrade-DataExcl
        assert_eq!(h.messages, 2);
    }

    #[test]
    fn dirty_remote_read_is_four_hops() {
        let mut h = Harness::new();
        h.write(0, 2, 42);
        h.messages = 0;
        h.effects.clear();
        h.read(1);
        // ReadReq, FetchShared, OwnerData, DataShared
        assert_eq!(h.messages, 4);
        assert!(h
            .effects
            .iter()
            .any(|e| matches!(e, WbiEffect::Downgraded { node: 0 })));
        // reader sees the dirty value
        assert!(matches!(
            h.effects.iter().find(|e| matches!(e, WbiEffect::FilledShared { node: 1, .. })),
            Some(WbiEffect::FilledShared { data, .. }) if data.get(2) == 42
        ));
        h.b.check_quiescent().unwrap();
    }

    #[test]
    fn dirty_remote_write_transfers_ownership() {
        let mut h = Harness::new();
        h.write(0, 0, 1);
        h.write(1, 0, 2);
        assert_eq!(h.b.dir_state(), &DirState::Modified(1));
        assert_eq!(h.b.local_read(1, 0), Some(2));
        assert_eq!(h.b.line_state(0), None, "previous owner invalidated");
        h.b.check_quiescent().unwrap();
    }

    #[test]
    fn writeback_on_replacement() {
        let mut h = Harness::new();
        h.write(0, 3, 8);
        let m = h.b.replace(0);
        assert_eq!(m.len(), 1);
        h.send(m);
        h.drain();
        assert_eq!(h.b.dir_state(), &DirState::Uncached);
        assert_eq!(h.b.mem().get(3), 8);
        h.b.check_quiescent().unwrap();
        // fresh reader sees the written-back value
        h.effects.clear();
        h.read(1);
        assert!(matches!(
            h.effects.iter().find(|e| matches!(e, WbiEffect::FilledShared { node: 1, .. })),
            Some(WbiEffect::FilledShared { data, .. }) if data.get(3) == 8
        ));
    }

    #[test]
    fn shared_replacement_is_silent_and_inv_spurious() {
        let mut h = Harness::new();
        h.read(0);
        h.read(1);
        let m = h.b.replace(0);
        assert!(m.is_empty(), "shared replacement sends nothing");
        h.effects.clear();
        // write from 2 sends Inv to both recorded sharers; node 0 acks
        // without an Invalidated effect.
        h.write(2, 0, 1);
        let invalidated: Vec<NodeId> = h
            .effects
            .iter()
            .filter_map(|e| match e {
                WbiEffect::Invalidated { node } => Some(*node),
                _ => None,
            })
            .collect();
        assert_eq!(invalidated, vec![1]);
        h.b.check_quiescent().unwrap();
    }

    #[test]
    fn writeback_fetch_race_resolves_from_memory() {
        let mut h = Harness::new();
        h.write(0, 1, 77);
        // Node 0 replaces the dirty line; write-back in flight.
        let wb = h.b.replace(0);
        // Node 1 reads while the write-back has not yet arrived.
        let rd = h.b.read_req(1);
        h.send(rd);
        h.drain(); // FetchShared to 0 -> WbRace -> DataShared from memory
        assert_eq!(h.b.local_read(1, 1), Some(77), "memory had the data");
        // deliver the late write-back
        h.send(wb);
        h.drain();
        match h.b.dir_state() {
            DirState::Shared(s) => assert!(s.contains(1)),
            other => panic!("{other:?}"),
        }
        h.b.check_quiescent().unwrap();
    }

    #[test]
    fn queued_requests_serve_in_order() {
        let mut h = Harness::new();
        h.write(0, 0, 1);
        // Two reads and a write arrive while the dirty fetch is pending.
        let r1 = h.b.read_req(1);
        let r2 = h.b.read_req(2);
        let w3 = h.b.write_req(3);
        // deliver all requests first (directory queues 2 of them)
        h.send(r1);
        h.send(r2);
        h.send(w3);
        h.drain();
        // final state: 3 owns the line
        assert_eq!(h.b.dir_state(), &DirState::Modified(3));
        assert!(h.b.local_write(3, 0, 9));
        h.b.check_quiescent().unwrap();
        // and the readers were served before the writer invalidated them
        let filled: Vec<NodeId> = h
            .effects
            .iter()
            .filter_map(|e| match e {
                WbiEffect::FilledShared { node, .. } => Some(*node),
                _ => None,
            })
            .collect();
        assert_eq!(filled, vec![1, 2]);
    }

    #[test]
    fn false_sharing_ping_pong() {
        // Two nodes writing *different words* of the same block: every
        // write transfers ownership — the WBI pathology the paper's
        // per-word dirty bits eliminate.
        let mut h = Harness::new();
        h.write(0, 0, 1);
        h.messages = 0;
        for i in 0..10u64 {
            h.write(1, 1, i); // node 1 writes word 1
            h.write(0, 0, i); // node 0 writes word 0
        }
        // each write after the first costs a 4-hop ownership transfer
        assert!(
            h.messages >= 20 * 4,
            "expected ping-pong traffic, got {} messages",
            h.messages
        );
        // no update was lost despite the transfers
        assert_eq!(h.b.local_read(0, 0), Some(9));
        assert_eq!(h.b.local_read(0, 1), Some(9));
    }

    /// Sharer ids on both sides of every 64-bit word boundary.
    const SPREAD: [NodeId; 5] = [0, 63, 64, 127, 511];

    #[test]
    fn inv_fan_out_is_ascending_across_words() {
        let mut h = Harness::new();
        for n in SPREAD.into_iter().rev() {
            h.read(n);
        }
        let m = h.b.write_req(100);
        let invs = h.b.deliver(m[0]).0;
        let dsts: Vec<Endpoint> = invs.iter().map(|m| m.dst).collect();
        assert!(invs.iter().all(|m| m.kind == WbiKind::Inv));
        assert_eq!(dsts, SPREAD.map(Endpoint::Node).to_vec());
        // an upgrading sharer is skipped, the others keep their order
        let mut h = Harness::new();
        for n in SPREAD {
            h.read(n);
        }
        let m = h.b.write_req(64);
        let (invs, _) = h.b.deliver(m[0]);
        let dsts: Vec<Endpoint> = invs.iter().map(|m| m.dst).collect();
        assert_eq!(dsts, [0, 63, 127, 511].map(Endpoint::Node).to_vec());
        h.send(invs);
        h.drain();
        assert_eq!(h.b.dir_state(), &DirState::Modified(64));
        h.b.check_quiescent().unwrap();
    }

    #[test]
    fn dir_state_equality_is_set_equality() {
        let mut h = Harness::new();
        h.read(3);
        h.read(400);
        // {3, 400} minus 400 keeps seven words, six of them zero
        let wide = match h.b.dir_state() {
            DirState::Shared(s) => {
                let mut s = s.clone();
                s.remove(400);
                DirState::Shared(s)
            }
            other => panic!("{other:?}"),
        };
        assert_eq!(wide, DirState::Shared(NodeSet::single(3)));
        assert_ne!(wide, DirState::Shared(NodeSet::single(67)));
        assert_ne!(wide, DirState::Modified(3));
    }

    #[test]
    fn block_equality_and_debug_ignore_stale_lines() {
        // Node 9 read then was invalidated: its slab words are stale but
        // the block is logically the same as one where 9 never read.
        let mut a = Harness::new();
        a.read(9);
        a.write(2, 0, 5);
        let mut b = Harness::new();
        b.write(2, 0, 5);
        assert_eq!(a.b.line_state(9), None);
        assert_eq!(a.b, b.b);
        assert_eq!(format!("{:?}", a.b), format!("{:?}", b.b));
    }

    #[test]
    fn rmw_requires_ownership() {
        let mut h = Harness::new();
        assert_eq!(h.b.fetch_and_store(0, 0, 1), None);
        h.write(0, 0, 5);
        assert_eq!(h.b.fetch_and_store(0, 0, 6), Some(5));
        assert_eq!(h.b.local_read(0, 0), Some(6));
    }

    proptest::proptest! {
        /// Random read/write/replace sequences keep the directory sound and
        /// every completed write readable by a subsequent reader.
        #[test]
        fn prop_directory_soundness(ops in proptest::collection::vec((0usize..5, 0u8..3, 0u64..100), 1..80)) {
            let mut h = Harness::new();
            let mut last_write: Option<(u8, u64)> = None;
            let mut stamp = 1000u64;
            for (node, op, _) in ops {
                match op {
                    0 => {
                        if h.b.line_state(node).is_none() {
                            h.read(node);
                        }
                    }
                    1 => {
                        stamp += 1;
                        let word = (stamp % 4) as u8;
                        h.write(node, word, stamp);
                        last_write = Some((word, stamp));
                    }
                    _ => {
                        let m = h.b.replace(node);
                        h.send(m);
                        h.drain();
                    }
                }
                h.b.check_single_writer().unwrap();
                h.b.check_quiescent().unwrap();
            }
            // A fresh reader observes the last completed write.
            if let Some((word, val)) = last_write {
                let reader = 7usize; // never used above (nodes 0..5)
                h.read(reader);
                proptest::prop_assert_eq!(h.b.local_read(reader, word), Some(val));
            }
        }
    }
}

#[cfg(test)]
mod limited_dir_tests {
    use super::*;
    use std::collections::VecDeque;

    struct H {
        b: WbiBlock,
        wire: VecDeque<WbiMsg>,
        invalidated: Vec<NodeId>,
    }

    impl H {
        fn new(limit: usize) -> Self {
            Self {
                b: WbiBlock::with_sharer_limit(4, limit),
                wire: VecDeque::new(),
                invalidated: Vec::new(),
            }
        }

        fn read(&mut self, n: NodeId) {
            let m = self.b.read_req(n);
            self.wire.extend(m);
            self.drain();
        }

        fn drain(&mut self) {
            while let Some(m) = self.wire.pop_front() {
                let (ms, eff) = self.b.deliver(m);
                self.b.check_single_writer().unwrap();
                self.wire.extend(ms);
                for e in eff {
                    if let WbiEffect::Invalidated { node } = e {
                        self.invalidated.push(node);
                    }
                }
            }
        }
    }

    #[test]
    fn within_limit_no_evictions() {
        let mut h = H::new(4);
        for n in 0..4 {
            h.read(n);
        }
        assert_eq!(h.b.dir_evictions(), 0);
        assert!(h.invalidated.is_empty());
    }

    #[test]
    fn overflow_evicts_a_sharer() {
        let mut h = H::new(2);
        for n in 0..3 {
            h.read(n);
        }
        assert_eq!(h.b.dir_evictions(), 1);
        assert_eq!(h.invalidated.len(), 1);
        match h.b.dir_state() {
            DirState::Shared(s) => {
                assert_eq!(s.len(), 2, "limit respected: {s:?}");
                assert!(s.contains(2), "new reader recorded");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn round_robin_readers_thrash_a_dir1() {
        // Dir_1: every new reader evicts the previous one — the pathology
        // the paper's pointer chain avoids at O(1) directory cost.
        let mut h = H::new(1);
        for round in 0..3 {
            for n in 0..4 {
                h.read(n);
            }
            let _ = round;
        }
        assert!(h.b.dir_evictions() >= 11, "{}", h.b.dir_evictions());
        h.b.check_quiescent().unwrap();
    }

    #[test]
    fn victim_is_the_lowest_id_sharer_across_words() {
        let mut h = H::new(3);
        for n in [511, 127, 64] {
            h.read(n);
        }
        h.read(63); // evicts 64, the lowest of {64, 127, 511}
        h.read(0); // evicts 63
        assert_eq!(h.invalidated, vec![64, 63]);
        match h.b.dir_state() {
            DirState::Shared(s) => assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 127, 511]),
            other => panic!("{other:?}"),
        }
        h.b.check_quiescent().unwrap();
    }

    #[test]
    fn evicted_sharer_can_return() {
        let mut h = H::new(1);
        h.read(0);
        h.read(1); // evicts 0
        h.read(0); // evicts 1, 0 returns
        match h.b.dir_state() {
            DirState::Shared(s) => assert!(s.contains(0)),
            other => panic!("{other:?}"),
        }
        assert_eq!(h.b.dir_evictions(), 2);
    }

    #[test]
    fn writes_still_work_under_limit() {
        let mut h = H::new(2);
        h.read(0);
        h.read(1);
        let m = h.b.write_req(2);
        h.wire.extend(m);
        h.drain();
        assert!(h.b.local_write(2, 0, 9));
        assert_eq!(h.b.dir_state(), &DirState::Modified(2));
    }
}

#[cfg(test)]
mod mesi_tests {
    use super::*;
    use std::collections::VecDeque;

    struct H {
        b: WbiBlock,
        wire: VecDeque<WbiMsg>,
        messages: usize,
    }

    impl H {
        fn new(mesi: bool) -> Self {
            Self {
                b: if mesi {
                    WbiBlock::with_mesi(4)
                } else {
                    WbiBlock::new(4)
                },
                wire: VecDeque::new(),
                messages: 0,
            }
        }

        fn send(&mut self, msgs: Vec<WbiMsg>) {
            self.messages += msgs.len();
            self.wire.extend(msgs);
            while let Some(m) = self.wire.pop_front() {
                let (ms, _) = self.b.deliver(m);
                self.b.check_single_writer().unwrap();
                self.messages += ms.len();
                self.wire.extend(ms);
            }
        }
    }

    #[test]
    fn sole_reader_gets_exclusive_clean() {
        let mut h = H::new(true);
        let m = h.b.read_req(0);
        h.send(m);
        assert_eq!(h.b.line_state(0), Some(LineState::Exclusive));
    }

    #[test]
    fn silent_upgrade_costs_nothing() {
        let mut h = H::new(true);
        let m = h.b.read_req(0);
        h.send(m);
        let before = h.messages;
        assert!(h.b.local_write(0, 1, 42), "E line must accept the write");
        assert_eq!(h.messages, before, "the E -> M upgrade is silent");
        assert_eq!(h.b.line_state(0), Some(LineState::Modified));
    }

    #[test]
    fn msi_needs_an_upgrade_transaction() {
        let mut h = H::new(false);
        let m = h.b.read_req(0);
        h.send(m);
        assert_eq!(h.b.line_state(0), Some(LineState::Shared));
        assert!(
            !h.b.local_write(0, 1, 42),
            "MSI shared line cannot be written"
        );
        let m = h.b.write_req(0);
        h.send(m); // upgrade round trip
        assert!(h.b.local_write(0, 1, 42));
    }

    #[test]
    fn read_then_write_message_counts_mesi_vs_msi() {
        let count = |mesi: bool| {
            let mut h = H::new(mesi);
            let m = h.b.read_req(0);
            h.send(m);
            if !h.b.local_write(0, 0, 1) {
                let m = h.b.write_req(0);
                h.send(m);
                assert!(h.b.local_write(0, 0, 1));
            }
            h.messages
        };
        assert_eq!(count(true), 2, "MESI: read + E grant");
        assert_eq!(count(false), 4, "MSI: read + data + upgrade + ack");
    }

    #[test]
    fn second_reader_downgrades_the_e_copy() {
        let mut h = H::new(true);
        let m = h.b.read_req(0);
        h.send(m);
        let m = h.b.read_req(1);
        h.send(m); // fetch-shared from the E owner
        assert_eq!(h.b.line_state(0), Some(LineState::Shared));
        assert_eq!(h.b.line_state(1), Some(LineState::Shared));
        match h.b.dir_state() {
            DirState::Shared(s) => assert_eq!(s.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn silently_dropped_e_line_resolves_via_race() {
        let mut h = H::new(true);
        let m = h.b.read_req(0);
        h.send(m);
        // replace the clean E line: silent, directory still names node 0
        let wb = h.b.replace(0);
        assert!(wb.is_empty(), "clean replacement is silent");
        // next reader: fetch misses at node 0, WbRace serves from memory
        let m = h.b.read_req(1);
        h.send(m);
        // the race path serves the read from memory as a shared copy
        assert_eq!(h.b.line_state(1), Some(LineState::Shared));
    }
}
