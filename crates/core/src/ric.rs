//! **Reader-initiated coherence** (RIC), paper §4.1.
//!
//! Instead of the writer deciding how to keep readers coherent (invalidate
//! or update), readers *opt in* to updates: `READ-UPDATE` fetches the block
//! and enrolls the reader in the block's update list; `RESET-UPDATE` (or a
//! line replacement) leaves it. The list is a doubly-linked list threaded
//! through the enrolled cache lines; the central directory stores only its
//! head (Fig. 2b). When a `WRITE-GLOBAL` updates memory, memory pushes the
//! updated block to the head, and each member forwards it to its successor.
//!
//! Compared with classic write-update protocols the reader set is *live*:
//! a reader that stops caring stops receiving updates, and "a smart
//! compiler could selectively determine regions in the program where
//! updates may be needed" (e.g. the FFT phase pattern of §4.2).
//!
//! Like [`crate::cbl`], this module is a pure message-level state machine;
//! list pointer surgery is applied atomically at the initiating event (the
//! fix-up messages are emitted for cost accounting, their delivery is a
//! no-op — see the modelling note in `cbl`).
//!
//! A member that leaves while an update push is in flight towards it simply
//! drops the push ([`RicEffect::UpdateDropped`]); downstream members miss
//! that push. This is benign: memory is always up to date, and program
//! correctness never depends on pushes (synchronization transfers data
//! explicitly); pushes are a freshness optimisation.

use crate::addr::NodeId;
use crate::cbl::Endpoint;
use crate::line::BlockData;

/// RIC protocol message kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RicKind {
    /// Node → directory: plain read miss (fetch, no enrollment).
    ReadMiss,
    /// Node → directory: fetch and enroll in the update list.
    ReadUpdateReq,
    /// Directory → node: block data in response to either read.
    ReadReply {
        /// Whether the requester was enrolled.
        enrolled: bool,
    },
    /// Node → directory: `READ-GLOBAL` (bypass cache, one word).
    ReadGlobalReq {
        /// Word offset requested.
        word: u8,
    },
    /// Directory → node: `READ-GLOBAL` result.
    ReadGlobalReply {
        /// Word offset.
        word: u8,
    },
    /// Node → directory: `WRITE-GLOBAL` of one word.
    WriteGlobal {
        /// Word offset written.
        word: u8,
        /// Value (version stamp).
        value: u64,
        /// Write-buffer id, echoed in the ack.
        wid: u64,
    },
    /// Directory → node: global write performed at memory.
    WriteAck {
        /// Write-buffer id being acknowledged.
        wid: u64,
    },
    /// Directory → head, then member → member: updated block pushed down
    /// the update list.
    UpdatePush,
    /// Node → directory: head hand-off when the head leaves (accounting).
    HeadChange,
    /// Node → node: list fix-up (accounting only).
    Splice,
}

/// A RIC protocol message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RicMsg {
    /// Sender.
    pub src: Endpoint,
    /// Receiver.
    pub dst: Endpoint,
    /// Payload words (1 control / block size for data).
    pub words: u32,
    /// Protocol content.
    pub kind: RicKind,
}

/// Externally visible effects, consumed by the machine simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RicEffect {
    /// Block data arrived at `node` in response to a read; install it in
    /// the cache (setting the update bit if `enrolled`).
    Filled {
        /// Receiving node.
        node: NodeId,
        /// Block contents.
        data: BlockData,
        /// Whether the node is now on the update list.
        enrolled: bool,
    },
    /// The node's global write `wid` is globally performed; retire the
    /// write-buffer entry.
    WriteDone {
        /// Writing node.
        node: NodeId,
        /// Write-buffer id.
        wid: u64,
    },
    /// A pushed update arrived; refresh the cached copy.
    UpdateApplied {
        /// Receiving node.
        node: NodeId,
        /// Fresh block contents.
        data: BlockData,
    },
    /// A push arrived at a node that had left the list; dropped.
    UpdateDropped {
        /// The stale destination.
        node: NodeId,
    },
    /// A `READ-GLOBAL` result.
    ReadValue {
        /// Requesting node.
        node: NodeId,
        /// Word offset.
        word: u8,
        /// Value read straight from memory.
        value: u64,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Member {
    prev: Option<NodeId>,
    next: Option<NodeId>,
}

/// The RIC controller for one memory block: the authoritative memory copy,
/// the central-directory head pointer, and the members' list linkage.
///
/// Linkage is node-indexed (`links[node]` is `Some` exactly for members),
/// so every lookup on the push path is one index whatever the list length.
#[derive(Debug, Clone)]
pub struct UpdateList {
    block_words: u32,
    mem: BlockData,
    head: Option<NodeId>,
    /// Per-node list links, sized to the largest node id ever enrolled.
    links: Vec<Option<Member>>,
    /// Number of members (`Some` entries of `links`).
    count: usize,
}

impl UpdateList {
    /// Creates the controller for a block of `block_words` words.
    pub fn new(block_words: u8) -> Self {
        Self {
            block_words: block_words as u32,
            mem: BlockData::new(block_words),
            head: None,
            links: Vec::new(),
            count: 0,
        }
    }

    fn member(&self, node: NodeId) -> Option<&Member> {
        self.links.get(node).and_then(Option::as_ref)
    }

    fn member_mut(&mut self, node: NodeId) -> Option<&mut Member> {
        self.links.get_mut(node).and_then(Option::as_mut)
    }

    fn ctl(src: Endpoint, dst: Endpoint, kind: RicKind) -> RicMsg {
        RicMsg {
            src,
            dst,
            words: 1,
            kind,
        }
    }

    fn data_msg(&self, src: Endpoint, dst: Endpoint, kind: RicKind) -> RicMsg {
        RicMsg {
            src,
            dst,
            words: self.block_words,
            kind,
        }
    }

    /// The authoritative memory copy.
    pub fn mem(&self) -> &BlockData {
        &self.mem
    }

    /// Directly writes memory (used by other protocols sharing the block,
    /// e.g. a CBL release write-back merging dirty words).
    pub fn mem_mut(&mut self) -> &mut BlockData {
        &mut self.mem
    }

    /// Current update-list membership, head first.
    pub fn members_in_order(&self) -> Vec<NodeId> {
        let mut v = Vec::with_capacity(self.count);
        let mut cur = self.head;
        while let Some(n) = cur {
            v.push(n);
            cur = self.member(n).and_then(|m| m.next);
            if v.len() > self.count {
                panic!("update list cycle");
            }
        }
        v
    }

    /// Whether `node` is enrolled.
    pub fn is_member(&self, node: NodeId) -> bool {
        self.member(node).is_some()
    }

    /// Number of enrolled nodes.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when nobody is enrolled.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Processor issues a plain read miss (no enrollment).
    pub fn read_miss(&mut self, node: NodeId) -> Vec<RicMsg> {
        vec![Self::ctl(
            Endpoint::Node(node),
            Endpoint::Dir,
            RicKind::ReadMiss,
        )]
    }

    /// Processor issues `READ-UPDATE` (cache miss or update bit clear).
    ///
    /// Panics if already enrolled — the cache services that case locally
    /// ("a read-update request is serviced locally by the cache if the
    /// update bit of the cache line is already set").
    pub fn read_update(&mut self, node: NodeId) -> Vec<RicMsg> {
        assert!(
            !self.is_member(node),
            "node {node} issued READ-UPDATE while already enrolled"
        );
        vec![Self::ctl(
            Endpoint::Node(node),
            Endpoint::Dir,
            RicKind::ReadUpdateReq,
        )]
    }

    /// Processor issues `READ-GLOBAL` for one word.
    pub fn read_global(&mut self, node: NodeId, word: u8) -> Vec<RicMsg> {
        vec![Self::ctl(
            Endpoint::Node(node),
            Endpoint::Dir,
            RicKind::ReadGlobalReq { word },
        )]
    }

    /// The write buffer issues a buffered `WRITE-GLOBAL`.
    pub fn write_global(&mut self, node: NodeId, word: u8, value: u64, wid: u64) -> Vec<RicMsg> {
        vec![Self::ctl(
            Endpoint::Node(node),
            Endpoint::Dir,
            RicKind::WriteGlobal { word, value, wid },
        )]
    }

    /// Processor issues `RESET-UPDATE`, or the cache replaces an enrolled
    /// line: leave the list. Pointer surgery is atomic; the returned
    /// messages are the fix-up traffic (accounting).
    pub fn leave(&mut self, node: NodeId) -> Vec<RicMsg> {
        let Some(m) = self.links.get_mut(node).and_then(Option::take) else {
            return vec![]; // idempotent: already gone
        };
        self.count -= 1;
        let me = Endpoint::Node(node);
        let mut msgs = Vec::new();
        if let Some(p) = m.prev {
            self.member_mut(p).expect("prev member").next = m.next;
            msgs.push(Self::ctl(me, Endpoint::Node(p), RicKind::Splice));
        } else {
            // We were the head: tell the directory.
            self.head = m.next;
            msgs.push(Self::ctl(me, Endpoint::Dir, RicKind::HeadChange));
        }
        if let Some(n) = m.next {
            self.member_mut(n).expect("next member").prev = m.prev;
            msgs.push(Self::ctl(me, Endpoint::Node(n), RicKind::Splice));
        }
        msgs
    }

    /// Delivers a protocol message at its destination, returning the
    /// outgoing messages and effects in fresh vectors.
    pub fn deliver(&mut self, msg: RicMsg) -> (Vec<RicMsg>, Vec<RicEffect>) {
        let (mut msgs, mut effects) = (Vec::new(), Vec::new());
        self.deliver_into(msg, &mut msgs, &mut effects);
        (msgs, effects)
    }

    /// Delivers a protocol message at its destination, appending the
    /// outgoing messages to `msgs` and the effects to `effects` (neither is
    /// cleared), so a caller that reuses its buffers delivers without
    /// allocating.
    pub fn deliver_into(
        &mut self,
        msg: RicMsg,
        msgs: &mut Vec<RicMsg>,
        effects: &mut Vec<RicEffect>,
    ) {
        match msg.dst {
            Endpoint::Dir => self.deliver_at_dir(msg, msgs),
            Endpoint::Node(n) => self.deliver_at_node(n, msg, msgs, effects),
        }
    }

    fn deliver_at_dir(&mut self, msg: RicMsg, msgs: &mut Vec<RicMsg>) {
        let Endpoint::Node(src) = msg.src else {
            panic!("directory message from directory: {msg:?}");
        };
        match msg.kind {
            RicKind::ReadMiss => msgs.push(self.data_msg(
                Endpoint::Dir,
                Endpoint::Node(src),
                RicKind::ReadReply { enrolled: false },
            )),
            RicKind::ReadUpdateReq => {
                if !self.is_member(src) {
                    // Enroll at the head (cheapest insertion point: only the
                    // directory pointer and the old head's back pointer move).
                    let old_head = self.head;
                    if src >= self.links.len() {
                        self.links.resize(src + 1, None);
                    }
                    self.links[src] = Some(Member {
                        prev: None,
                        next: old_head,
                    });
                    self.count += 1;
                    if let Some(h) = old_head {
                        self.member_mut(h).expect("old head").prev = Some(src);
                        msgs.push(Self::ctl(Endpoint::Dir, Endpoint::Node(h), RicKind::Splice));
                    }
                    self.head = Some(src);
                }
                msgs.push(self.data_msg(
                    Endpoint::Dir,
                    Endpoint::Node(src),
                    RicKind::ReadReply { enrolled: true },
                ));
            }
            RicKind::ReadGlobalReq { word } => msgs.push(Self::ctl(
                Endpoint::Dir,
                Endpoint::Node(src),
                RicKind::ReadGlobalReply { word },
            )),
            RicKind::WriteGlobal { word, value, wid } => {
                self.mem.set(word, value);
                msgs.push(Self::ctl(
                    Endpoint::Dir,
                    Endpoint::Node(src),
                    RicKind::WriteAck { wid },
                ));
                if let Some(h) = self.head {
                    msgs.push(self.data_msg(Endpoint::Dir, Endpoint::Node(h), RicKind::UpdatePush));
                }
            }
            RicKind::HeadChange => {} // applied atomically at leave()
            other => panic!("directory cannot handle {other:?}"),
        }
    }

    fn deliver_at_node(
        &mut self,
        node: NodeId,
        msg: RicMsg,
        msgs: &mut Vec<RicMsg>,
        effects: &mut Vec<RicEffect>,
    ) {
        match msg.kind {
            RicKind::ReadReply { enrolled } => effects.push(RicEffect::Filled {
                node,
                data: self.mem.clone(),
                enrolled,
            }),
            RicKind::ReadGlobalReply { word } => effects.push(RicEffect::ReadValue {
                node,
                word,
                value: self.mem.get(word),
            }),
            RicKind::WriteAck { wid } => effects.push(RicEffect::WriteDone { node, wid }),
            RicKind::UpdatePush => match self.member(node) {
                Some(m) => {
                    if let Some(nx) = m.next {
                        msgs.push(self.data_msg(
                            Endpoint::Node(node),
                            Endpoint::Node(nx),
                            RicKind::UpdatePush,
                        ));
                    }
                    effects.push(RicEffect::UpdateApplied {
                        node,
                        data: self.mem.clone(),
                    });
                }
                // Left the list while the push was in flight.
                None => effects.push(RicEffect::UpdateDropped { node }),
            },
            RicKind::Splice => {}
            other => panic!("node cannot handle {other:?}"),
        }
    }

    /// Checks list well-formedness (valid at all times thanks to atomic
    /// pointer surgery): the chain from `head` visits every member exactly
    /// once with consistent back pointers.
    ///
    /// One walk of the chain, O(members), with no visited set: while every
    /// back pointer so far has matched, the chain cannot have revisited a
    /// node (a revisit arrives from a different predecessor than the first
    /// visit, or at the head with a predecessor at all), so a revisit
    /// always surfaces as a back-pointer mismatch. Only then does the check
    /// re-walk the visited prefix to tell a cycle from a broken pointer.
    pub fn check_list(&self) -> Result<(), String> {
        let mut steps = 0;
        let mut prev: Option<NodeId> = None;
        let mut cur = self.head;
        while let Some(n) = cur {
            let m = self
                .member(n)
                .ok_or_else(|| format!("chain references non-member {n}"))?;
            if m.prev != prev {
                if self.chain_prefix_contains(steps, n) {
                    return Err(format!("cycle at {n}"));
                }
                return Err(format!("node {n}: prev = {:?}, expected {prev:?}", m.prev));
            }
            steps += 1;
            prev = Some(n);
            cur = m.next;
        }
        if steps != self.count {
            return Err(format!("chain covers {steps} of {} members", self.count));
        }
        Ok(())
    }

    /// Whether `node` is among the first `steps` nodes of the chain from
    /// the head (all members, as [`Self::check_list`] has walked them).
    fn chain_prefix_contains(&self, steps: usize, node: NodeId) -> bool {
        let mut cur = self.head;
        for _ in 0..steps {
            match cur {
                Some(n) if n == node => return true,
                Some(n) => cur = self.member(n).and_then(|m| m.next),
                None => return false,
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmp_engine::SimRng;
    use std::collections::VecDeque;

    struct Harness {
        u: UpdateList,
        wire: VecDeque<RicMsg>,
        effects: Vec<RicEffect>,
        messages: usize,
    }

    impl Harness {
        fn new() -> Self {
            Self {
                u: UpdateList::new(4),
                wire: VecDeque::new(),
                effects: Vec::new(),
                messages: 0,
            }
        }

        fn send(&mut self, msgs: Vec<RicMsg>) {
            self.messages += msgs.len();
            self.wire.extend(msgs);
        }

        fn drain(&mut self) {
            while let Some(m) = self.wire.pop_front() {
                let (msgs, eff) = self.u.deliver(m);
                self.u.check_list().unwrap();
                self.messages += msgs.len();
                self.wire.extend(msgs);
                self.effects.extend(eff);
            }
        }

        fn updates_applied_to(&self) -> Vec<NodeId> {
            self.effects
                .iter()
                .filter_map(|e| match e {
                    RicEffect::UpdateApplied { node, .. } => Some(*node),
                    _ => None,
                })
                .collect()
        }
    }

    #[test]
    fn read_miss_fetches_without_enrolling() {
        let mut h = Harness::new();
        let m = h.u.read_miss(3);
        h.send(m);
        h.drain();
        assert!(!h.u.is_member(3));
        assert!(matches!(
            h.effects[0],
            RicEffect::Filled {
                node: 3,
                enrolled: false,
                ..
            }
        ));
    }

    #[test]
    fn read_update_enrolls_at_head() {
        let mut h = Harness::new();
        for n in [5, 2, 9] {
            let m = h.u.read_update(n);
            h.send(m);
            h.drain();
        }
        assert_eq!(
            h.u.members_in_order(),
            vec![9, 2, 5],
            "newest enrollee is the head"
        );
        h.u.check_list().unwrap();
    }

    #[test]
    fn write_pushes_down_the_chain_in_order() {
        let mut h = Harness::new();
        for n in [0, 1, 2] {
            let m = h.u.read_update(n);
            h.send(m);
            h.drain();
        }
        h.effects.clear();
        let m = h.u.write_global(7, 1, 42, 0);
        h.send(m);
        h.drain();
        assert_eq!(h.u.mem().get(1), 42);
        // chain order: head (last enrollee) first
        assert_eq!(h.updates_applied_to(), vec![2, 1, 0]);
        // writer got its ack
        assert!(h
            .effects
            .iter()
            .any(|e| matches!(e, RicEffect::WriteDone { node: 7, wid: 0 })));
        // pushed data is fresh
        for e in &h.effects {
            if let RicEffect::UpdateApplied { data, .. } = e {
                assert_eq!(data.get(1), 42);
            }
        }
    }

    #[test]
    fn write_with_no_members_only_acks() {
        let mut h = Harness::new();
        let m = h.u.write_global(0, 0, 5, 3);
        h.send(m);
        h.drain();
        assert_eq!(h.effects.len(), 1);
        assert!(matches!(
            h.effects[0],
            RicEffect::WriteDone { node: 0, wid: 3 }
        ));
    }

    #[test]
    fn leave_middle_and_head() {
        let mut h = Harness::new();
        for n in [0, 1, 2] {
            let m = h.u.read_update(n);
            h.send(m);
            h.drain();
        }
        // order: 2, 1, 0
        let m = h.u.leave(1);
        h.send(m);
        h.drain();
        assert_eq!(h.u.members_in_order(), vec![2, 0]);
        let m = h.u.leave(2); // head
        h.send(m);
        h.drain();
        assert_eq!(h.u.members_in_order(), vec![0]);
        h.u.check_list().unwrap();
        // writes now reach only node 0
        h.effects.clear();
        let m = h.u.write_global(9, 0, 1, 0);
        h.send(m);
        h.drain();
        assert_eq!(h.updates_applied_to(), vec![0]);
    }

    #[test]
    fn leave_is_idempotent() {
        let mut h = Harness::new();
        assert!(h.u.leave(4).is_empty());
        let m = h.u.read_update(4);
        h.send(m);
        h.drain();
        let m = h.u.leave(4);
        assert!(!m.is_empty());
        h.send(m);
        h.drain();
        assert!(h.u.leave(4).is_empty());
        assert!(h.u.is_empty());
    }

    #[test]
    fn push_to_departed_member_is_dropped() {
        let mut h = Harness::new();
        for n in [0, 1] {
            let m = h.u.read_update(n);
            h.send(m);
            h.drain();
        }
        // Write: push to head (1) in flight...
        let m = h.u.write_global(9, 0, 7, 0);
        h.send(m);
        // deliver only the WriteGlobal at dir, putting UpdatePush in flight
        let wg = h.wire.pop_front().unwrap();
        let (msgs, eff) = h.u.deliver(wg);
        h.wire.extend(msgs);
        h.effects.extend(eff);
        // ... while the head leaves.
        let m = h.u.leave(1);
        h.send(m);
        h.drain();
        assert!(h
            .effects
            .iter()
            .any(|e| matches!(e, RicEffect::UpdateDropped { node: 1 })));
        // memory still authoritative
        assert_eq!(h.u.mem().get(0), 7);
    }

    #[test]
    fn read_global_returns_memory_value() {
        let mut h = Harness::new();
        let m = h.u.write_global(0, 2, 31, 0);
        h.send(m);
        h.drain();
        let m = h.u.read_global(5, 2);
        h.send(m);
        h.drain();
        assert!(h.effects.iter().any(|e| matches!(
            e,
            RicEffect::ReadValue {
                node: 5,
                word: 2,
                value: 31
            }
        )));
    }

    #[test]
    fn message_sizes() {
        let mut u = UpdateList::new(4);
        let req = u.read_update(0);
        assert_eq!(req[0].words, 1);
        let (reply, _) = u.deliver(req[0]);
        assert_eq!(
            reply.last().unwrap().words,
            4,
            "read reply carries the block"
        );
        let w = u.write_global(1, 0, 9, 0);
        assert_eq!(w[0].words, 1, "a global write sends one word");
        let (out, _) = u.deliver(w[0]);
        let push = out.iter().find(|m| m.kind == RicKind::UpdatePush).unwrap();
        assert_eq!(push.words, 4, "the push carries the whole block");
    }

    #[test]
    fn reenroll_after_leave() {
        let mut h = Harness::new();
        let m = h.u.read_update(0);
        h.send(m);
        h.drain();
        let m = h.u.leave(0);
        h.send(m);
        h.drain();
        let m = h.u.read_update(0);
        h.send(m);
        h.drain();
        assert!(h.u.is_member(0));
        h.u.check_list().unwrap();
    }

    #[test]
    #[should_panic(expected = "already enrolled")]
    fn double_enroll_panics() {
        let mut h = Harness::new();
        let m = h.u.read_update(0);
        h.send(m);
        h.drain();
        let _ = h.u.read_update(0);
    }

    /// Every message kind at a valid destination, on a list holding
    /// `[2, 1, 0]` (so pushes reach a member with a successor, the tail,
    /// and a non-member).
    fn one_of_each_kind() -> Vec<RicMsg> {
        let (dir, node) = (Endpoint::Dir, Endpoint::Node);
        let msg = |src, dst, kind| RicMsg {
            src,
            dst,
            words: 1,
            kind,
        };
        vec![
            msg(node(4), dir, RicKind::ReadMiss),
            msg(node(4), dir, RicKind::ReadUpdateReq),
            msg(node(1), dir, RicKind::ReadUpdateReq),
            msg(dir, node(4), RicKind::ReadReply { enrolled: false }),
            msg(dir, node(2), RicKind::ReadReply { enrolled: true }),
            msg(node(4), dir, RicKind::ReadGlobalReq { word: 1 }),
            msg(dir, node(4), RicKind::ReadGlobalReply { word: 1 }),
            msg(
                node(4),
                dir,
                RicKind::WriteGlobal {
                    word: 2,
                    value: 77,
                    wid: 5,
                },
            ),
            msg(dir, node(4), RicKind::WriteAck { wid: 5 }),
            msg(dir, node(2), RicKind::UpdatePush),
            msg(node(1), node(0), RicKind::UpdatePush),
            msg(node(0), node(4), RicKind::UpdatePush),
            msg(node(2), dir, RicKind::HeadChange),
            msg(node(1), node(0), RicKind::Splice),
        ]
    }

    #[test]
    fn deliver_into_appends_what_deliver_returns() {
        let mut base = UpdateList::new(4);
        base.mem_mut().set(0, 9);
        for n in [0, 1, 2] {
            let req = base.read_update(n);
            base.deliver(req[0]);
        }
        let kept_msg = UpdateList::ctl(Endpoint::Dir, Endpoint::Node(7), RicKind::Splice);
        let kept_effect = RicEffect::UpdateDropped { node: 7 };
        for msg in one_of_each_kind() {
            let (mut a, mut b) = (base.clone(), base.clone());
            let (want_msgs, want_effects) = a.deliver(msg);
            let mut msgs = vec![kept_msg];
            let mut effects = vec![kept_effect.clone()];
            b.deliver_into(msg, &mut msgs, &mut effects);
            assert_eq!(msgs[0], kept_msg, "{msg:?}: caller's messages kept");
            assert_eq!(effects[0], kept_effect, "{msg:?}: caller's effects kept");
            assert_eq!(msgs[1..], want_msgs[..], "{msg:?}: messages");
            assert_eq!(effects[1..], want_effects[..], "{msg:?}: effects");
            assert_eq!(a.members_in_order(), b.members_in_order(), "{msg:?}");
            assert_eq!(a.mem(), b.mem(), "{msg:?}");
        }
    }

    /// `(node, prev, next)` links of a hand-built list state.
    type Links = [(NodeId, Option<NodeId>, Option<NodeId>)];

    /// A list whose head and links are set directly, bypassing the
    /// protocol's pointer surgery.
    fn with_links(head: Option<NodeId>, links: &Links) -> UpdateList {
        let mut u = UpdateList::new(4);
        u.head = head;
        for &(n, prev, next) in links {
            if n >= u.links.len() {
                u.links.resize(n + 1, None);
            }
            u.links[n] = Some(Member { prev, next });
        }
        u.count = u.links.iter().flatten().count();
        u
    }

    /// Reference model of `check_list`: a walk that records every visited
    /// node in a `BTreeSet`, over the same state held in a `BTreeMap`.
    fn oracle_check(head: Option<NodeId>, links: &Links) -> Result<(), String> {
        let members: std::collections::BTreeMap<NodeId, Member> = links
            .iter()
            .map(|&(n, prev, next)| (n, Member { prev, next }))
            .collect();
        let mut seen = std::collections::BTreeSet::new();
        let mut prev: Option<NodeId> = None;
        let mut cur = head;
        while let Some(n) = cur {
            if !seen.insert(n) {
                return Err(format!("cycle at {n}"));
            }
            let m = members
                .get(&n)
                .ok_or_else(|| format!("chain references non-member {n}"))?;
            if m.prev != prev {
                return Err(format!("node {n}: prev = {:?}, expected {prev:?}", m.prev));
            }
            prev = Some(n);
            cur = m.next;
        }
        if seen.len() != members.len() {
            return Err(format!(
                "chain covers {} of {} members",
                seen.len(),
                members.len()
            ));
        }
        Ok(())
    }

    fn assert_same_verdict(head: Option<NodeId>, links: &Links) {
        assert_eq!(
            with_links(head, links).check_list(),
            oracle_check(head, links),
            "head {head:?}, links {links:?}"
        );
    }

    #[test]
    fn check_list_matches_oracle_on_corrupted_lists() {
        // well-formed: empty, one member, three members
        assert_same_verdict(None, &[]);
        assert_same_verdict(Some(3), &[(3, None, None)]);
        let ok = [
            (2, None, Some(1)),
            (1, Some(2), Some(0)),
            (0, Some(1), None),
        ];
        assert_same_verdict(Some(2), &ok);
        assert!(with_links(Some(2), &ok).check_list().is_ok());
        let cases: &[(Option<NodeId>, &Links, &str)] = &[
            // the tail points back at the head
            (
                Some(2),
                &[
                    (2, None, Some(1)),
                    (1, Some(2), Some(0)),
                    (0, Some(1), Some(2)),
                ],
                "cycle at 2",
            ),
            // a self-loop in mid-list
            (
                Some(2),
                &[(2, None, Some(1)), (1, Some(2), Some(1))],
                "cycle at 1",
            ),
            // a back pointer that skips a member
            (
                Some(2),
                &[
                    (2, None, Some(1)),
                    (1, Some(2), Some(0)),
                    (0, Some(2), None),
                ],
                "node 0: prev = Some(2), expected Some(1)",
            ),
            // a head with a back pointer
            (Some(2), &[(2, Some(1), None), (1, None, None)], "node 2"),
            // the chain runs into a node that never enrolled
            (
                Some(2),
                &[(2, None, Some(1)), (1, Some(2), Some(5))],
                "non-member 5",
            ),
            (Some(70), &[], "non-member 70"),
            // a member the chain never reaches
            (
                Some(2),
                &[(2, None, None), (1, Some(2), None)],
                "chain covers 1 of 2 members",
            ),
            (None, &[(0, None, None)], "chain covers 0 of 1 members"),
        ];
        for &(head, links, want) in cases {
            assert_same_verdict(head, links);
            let got = with_links(head, links).check_list().unwrap_err();
            assert!(got.contains(want), "{got:?} should mention {want:?}");
        }
    }

    proptest::proptest! {
        /// A well-formed list of up to six members with up to three links
        /// overwritten at random (including pointers to non-members and the
        /// head itself): the dense walk and the `BTreeSet` walk agree on
        /// every state, error text included.
        #[test]
        fn prop_check_list_matches_oracle(
            order in proptest::collection::vec(0usize..8, 0..7),
            edits in proptest::collection::vec((0usize..9, 0u8..3, 0usize..10), 0..4),
        ) {
            let mut chain: Vec<NodeId> = Vec::new();
            for n in order {
                if !chain.contains(&n) {
                    chain.push(n);
                }
            }
            let mut head = chain.first().copied();
            let mut links: Vec<_> = chain
                .iter()
                .enumerate()
                .map(|(i, &n)| {
                    let prev = i.checked_sub(1).map(|p| chain[p]);
                    (n, prev, chain.get(i + 1).copied())
                })
                .collect();
            // edit (target, field, value): value 9 means `None`
            for (target, field, value) in edits {
                let value = (value < 9).then_some(value);
                match (field, links.iter_mut().find(|l| l.0 == target)) {
                    (0, Some(l)) => l.1 = value,
                    (1, Some(l)) => l.2 = value,
                    _ => head = value,
                }
            }
            proptest::prop_assert_eq!(
                with_links(head, &links).check_list(),
                oracle_check(head, &links)
            );
        }
    }

    proptest::proptest! {
        /// Arbitrary join/leave/write interleavings keep the list
        /// well-formed, and after a drain every current member has observed
        /// the latest write (via push or its enrollment fill).
        #[test]
        fn prop_membership_churn(seed: u64, ops in proptest::collection::vec((0usize..8, 0u8..3), 1..60)) {
            let mut rng = SimRng::new(seed);
            let mut h = Harness::new();
            let mut stamp = 1u64;
            for (node, op) in ops {
                match op {
                    0 => {
                        if !h.u.is_member(node) {
                            let m = h.u.read_update(node);
                            h.send(m);
                        }
                    }
                    1 => {
                        let m = h.u.leave(node);
                        h.send(m);
                    }
                    _ => {
                        let w = rng.below(4) as u8;
                        let m = h.u.write_global(node, w, stamp, stamp);
                        stamp += 1;
                        h.send(m);
                    }
                }
                h.drain();
                h.u.check_list().unwrap();
            }
            // After the final drain, push the latest state once more and
            // confirm every member sees it.
            let members = h.u.members_in_order();
            h.effects.clear();
            let m = h.u.write_global(0, 0, 999_999, 0);
            h.send(m);
            h.drain();
            let got = h.updates_applied_to();
            proptest::prop_assert_eq!(got, members);
        }
    }
}
