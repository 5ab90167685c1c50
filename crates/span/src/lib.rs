//! # ssmp-span
//!
//! Transaction-level causal tracing, folded from trace events.
//!
//! The paper's claims are ultimately about the *path one transaction
//! takes* — a global write through the write buffer and omega network to
//! the directory and back, a lock handoff through the CBL queue — yet
//! aggregate counters and even the stall-attribution profiler only show
//! totals. This crate stitches the existing event stream into
//! per-transaction **spans**:
//!
//! * every stalled memory reference, lock acquire, barrier episode, and
//!   buffered global write becomes a span (`SpanBegin`/`SpanEnd`, machine
//!   transaction ids);
//! * `Link` events bind each injected wire to the transaction that caused
//!   it, so the span owns its request, forward, and reply messages
//!   (`NetInject`/`NetDeliver` pairs, matched by wire id);
//! * each closed span is tiled into segments — issue, wbuf residency,
//!   network transit, memory/directory service, CBL queue wait,
//!   completion — that **sum exactly to its end-to-end latency** (the
//!   same invariant style as the profiler's stall attribution);
//! * a wakeup delivered by *another* transaction's wire (a CBL grant, an
//!   invalidation that wakes a spinner, a barrier release) is adopted as
//!   a causal edge, and the longest dependency chain over those edges is
//!   the run's **critical path**;
//! * raw per-type latencies are retained, so p50/p95/p99/p999 are exact
//!   nearest-rank quantiles, not bucket upper bounds.
//!
//! The same [`SpanSet`] accumulator backs both pipelines: **live**, a
//! [`SpanSink`] attached as a [`TraceSink`] folds events as the machine
//! runs; **offline**, [`SpanSet::from_jsonl`] replays a JSONL trace file
//! through the identical fold. Given the same event stream the two paths
//! produce byte-identical JSON ([`SpanSet::to_json`], schema [`SCHEMA`]).
//!
//! Folding an event allocates nothing per span in steady state: wires and
//! transactions live in id-indexed tables, open spans in a slab that
//! reuses its wire lists, span types are interned, and a closed span is a
//! fixed-size record with array-indexed segments and family transit.

#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::BufRead;
use std::rc::Rc;

use ssmp_engine::trace::{fold_jsonl, OwnedEvent};
use ssmp_engine::{Cycle, Family, Json, Kind, TraceEvent, TraceSink};

/// The stable schema identifier stamped into rendered span reports.
pub const SCHEMA: &str = "ssmp-span-v1";

/// Segment labels, in rendering order. Every cycle of a span's
/// end-to-end latency lands in exactly one segment, so per span the
/// segment sum equals the span's duration. [`ClosedSpan::segments`] is
/// indexed like this array.
pub const SEGMENTS: [&str; 7] = ["issue", "wbuf", "net", "mem", "queue", "complete", "local"];

/// Indices into [`SEGMENTS`] and [`ClosedSpan::segments`].
const ISSUE: usize = 0;
const WBUF: usize = 1;
const NET: usize = 2;
const MEM: usize = 3;
const QUEUE: usize = 4;
const COMPLETE: usize = 5;
const LOCAL: usize = 6;

/// Number of protocol families; [`ClosedSpan::family_net`] is indexed by
/// `Family as usize`.
const FAMILIES: usize = Family::ALL.len();

/// Exact nearest-rank quantile — the engine's shared definition, re-exported
/// so span consumers keep their historical import path. The diff engine's
/// distribution comparison uses the same function, so both layers pin
/// identical percentile semantics.
pub use ssmp_engine::stats::nearest_rank;

/// The "no entry" value of a `u32` table index.
const NONE: u32 = u32::MAX;

/// Ids an [`IdTable`] may add to its dense part beyond twice the number
/// of ids it holds.
const DENSE_SLACK: u64 = 1024;

/// Per-id state indexed by a machine-allocated id (wires, transactions).
///
/// The machine numbers wires and transactions densely and monotonically,
/// so a vector indexed by id holds them with no per-id lookup cost. A
/// hand-written or filtered trace may use sparse or huge ids; an id too
/// far past the dense part (more than twice the ids held plus
/// [`DENSE_SLACK`]) goes to an ordered overflow map instead, so memory
/// stays proportional to the number of distinct ids seen. Every overflow
/// id is at or past the dense part's end; growing the dense part moves the
/// ids it reaches. A slot equal to `T::default()` is unused.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct IdTable<T> {
    dense: Vec<T>,
    sparse: BTreeMap<u64, T>,
    /// Distinct ids held (dense slots touched plus overflow entries).
    held: u64,
}

impl<T: Clone + Default + PartialEq> IdTable<T> {
    /// `id`'s index in the dense part, if it lies there.
    fn dense_index(&self, id: u64) -> Option<usize> {
        usize::try_from(id).ok().filter(|&i| i < self.dense.len())
    }

    fn get(&self, id: u64) -> Option<&T> {
        match self.dense_index(id) {
            Some(i) => Some(&self.dense[i]),
            None => self.sparse.get(&id),
        }
    }

    /// The slot for `id`, created empty if the id is new. The caller
    /// must leave it non-empty.
    fn slot(&mut self, id: u64) -> &mut T {
        let len = self.dense.len() as u64;
        if id >= len && id < 2 * self.held + DENSE_SLACK {
            self.dense.resize(id as usize + 1, T::default());
            while let Some(e) = self.sparse.first_entry() {
                if *e.key() > id {
                    break;
                }
                let (k, v) = e.remove_entry();
                self.dense[k as usize] = v;
            }
        }
        let slot = match self.dense_index(id) {
            Some(i) => &mut self.dense[i],
            None => self.sparse.entry(id).or_default(),
        };
        if *slot == T::default() {
            self.held += 1;
        }
        slot
    }

    fn iter(&self) -> impl Iterator<Item = &T> {
        self.dense.iter().chain(self.sparse.values())
    }
}

/// What the fold knows about one wire id (a routed protocol message).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Wire {
    /// Injection cycle and protocol family, once `NetInject` was seen.
    inject: Option<(Cycle, Family)>,
    /// Delivery cycle, once processed at the destination.
    deliver: Option<Cycle>,
    /// The owning transaction, from the wire's `Link` event.
    owner: Option<u64>,
}

impl IdTable<Wire> {
    /// The injected wire `id`, if `NetInject` was seen for it.
    fn injected(&self, id: u64) -> Option<&Wire> {
        self.get(id).filter(|w| w.inject.is_some())
    }

    fn owner(&self, id: u64) -> Option<u64> {
        self.get(id).and_then(|w| w.owner)
    }
}

/// Where one transaction id's state lives: its open span's slab index
/// and its closed record's index, each [`NONE`] when absent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Txn {
    open: u32,
    closed: u32,
}

impl Default for Txn {
    fn default() -> Self {
        Self {
            open: NONE,
            closed: NONE,
        }
    }
}

/// A span that has begun but not yet ended (one slab entry; a freed
/// entry keeps its wire list's capacity for the next span).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct OpenSpan {
    node: i64,
    ty: u32,
    begin: Cycle,
    /// Wires linked to this transaction, in link order.
    wires: Vec<u64>,
}

/// One interned span type.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SpanType {
    name: Box<str>,
    /// `"wbuf.write"`: a buffered write, whose leading gap is wbuf time.
    wbuf_write: bool,
    /// May adopt a foreign wakeup wire. Timer spans end by local
    /// countdown and buffered writes end on their own acknowledged wire,
    /// so a foreign delivery inside their window is coincidence, not
    /// cause.
    adoptable: bool,
}

/// A finished transaction span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClosedSpan {
    /// Transaction id (machine-allocated, unique per run).
    pub txn: u64,
    /// The node the transaction ran on.
    pub node: i64,
    /// Interned transaction type; [`SpanSet::detail`] resolves it to the
    /// stall cause tag (`"fill"`, `"lock"`, `"flush.cp-synch"`, ...),
    /// `"wbuf.write"` for buffered global writes, or the op name for
    /// fire-and-forget sends.
    pub ty: u32,
    /// Begin cycle.
    pub begin: Cycle,
    /// End cycle.
    pub end: Cycle,
    /// End-to-end latency (`end - begin`).
    pub dur: Cycle,
    /// Exact-sum segment breakdown, indexed like [`SEGMENTS`]:
    /// `segments.iter().sum() == dur`.
    pub segments: [Cycle; 7],
    /// Network-transit cycles attributed per protocol family, indexed by
    /// `Family as usize`.
    pub family_net: [Cycle; FAMILIES],
    /// A foreign wire whose delivery woke this span (cross-transaction
    /// causal edge), if one was adopted.
    pub adopted_wire: Option<u64>,
    /// Program-order predecessor on the same node (txn id).
    pub prog_parent: Option<u64>,
    /// The transaction owning the adopted wire (causal parent).
    pub causal_parent: Option<u64>,
    /// Critical-path distance: `dur` plus the longest parent distance.
    pub dist: Cycle,
    /// The parent achieving `dist` (backpointer for the path walk).
    pub path_parent: Option<u64>,
}

/// Stitching-health counters: a truncated or filtered trace shows up
/// here instead of silently under-counting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Health {
    /// Spans closed normally.
    pub spans: u64,
    /// `SpanBegin` without a matching `SpanEnd` (still open at EOF).
    pub orphan_begins: u64,
    /// `SpanEnd` without a matching `SpanBegin`.
    pub orphan_ends: u64,
    /// `Link` events observed.
    pub links: u64,
    /// Links naming a transaction that never began.
    pub dangling_links: u64,
    /// Links arriving after their transaction already closed (benign:
    /// update fan-out outliving a write span).
    pub late_links: u64,
    /// Wires injected.
    pub wires: u64,
    /// Wires injected but never delivered.
    pub undelivered_wires: u64,
    /// `NetDeliver` without a matching `NetInject`.
    pub unmatched_delivers: u64,
    /// Cross-transaction wakeup wires adopted into spans.
    pub adopted: u64,
}

impl Health {
    /// Whether the trace stitched cleanly (no orphans, no dangling
    /// links, no unmatched wire ids).
    pub fn clean(&self) -> bool {
        self.orphan_ends == 0 && self.dangling_links == 0 && self.unmatched_delivers == 0
    }
}

/// Gap classification: cycles between one wire's delivery and the next
/// wire's injection are time the transaction sat *at* the component that
/// received the first wire — the CBL queue for lock messages, directory
/// or memory service otherwise.
fn gap_after(family: Family) -> usize {
    match family {
        Family::Cbl => QUEUE,
        _ => MEM,
    }
}

/// Node ids at or past this bound (and below -1) keep their logs in an
/// ordered map instead of the node-indexed vector.
const DENSE_NODES: i64 = 1 << 16;

/// One node's history, both in stream order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct NodeLog {
    /// Wire deliveries `(cycle, wire)`.
    delivered: Vec<(Cycle, u64)>,
    /// Closed spans `(end, txn)`. Ends are monotone in a machine trace,
    /// so this is binary-searchable.
    closed: Vec<(Cycle, u64)>,
}

/// Per-node logs: a vector indexed by `node + 1` for the machine's ids
/// (`-1` is the directory), an ordered map for any other id a
/// hand-written trace uses.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct NodeLogs {
    dense: Vec<NodeLog>,
    odd: BTreeMap<i64, NodeLog>,
}

impl NodeLogs {
    fn index(node: i64) -> Option<usize> {
        (-1..DENSE_NODES)
            .contains(&node)
            .then(|| (node + 1) as usize)
    }

    fn get(&self, node: i64) -> Option<&NodeLog> {
        match Self::index(node) {
            Some(i) => self.dense.get(i),
            None => self.odd.get(&node),
        }
    }

    fn get_mut(&mut self, node: i64) -> &mut NodeLog {
        match Self::index(node) {
            Some(i) => {
                if i >= self.dense.len() {
                    self.dense.resize_with(i + 1, NodeLog::default);
                }
                &mut self.dense[i]
            }
            None => self.odd.entry(node).or_default(),
        }
    }
}

/// The span accumulator: folds trace events into closed spans, latency
/// distributions, and the critical path. Identical whether fed live
/// (via [`SpanSink`]) or offline (via [`SpanSet::from_jsonl`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanSet {
    wires: IdTable<Wire>,
    txns: IdTable<Txn>,
    /// Open-span slab; `free` lists its unused entries.
    open: Vec<OpenSpan>,
    free: Vec<u32>,
    /// Finished spans in close order, one per transaction id (a reused id
    /// keeps the position of its first close and holds its latest span).
    closed: Vec<ClosedSpan>,
    /// Interned span types, in first-seen order.
    types: Vec<SpanType>,
    nodes: NodeLogs,
    /// Scratch for one close: the span's wires as `(inject, wire, family,
    /// deliver)`.
    timeline: Vec<(Cycle, u64, Family, Option<Cycle>)>,
    /// Health counters (orphans, dangling links, adoption count).
    pub health: Health,
}

impl SpanSet {
    /// An empty span set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one live trace event.
    pub fn fold(&mut self, ev: &TraceEvent) {
        self.observe(
            ev.cycle, ev.node, ev.family, ev.kind, ev.detail, ev.id, ev.arg,
        );
    }

    /// Folds one event parsed back from a JSONL trace file.
    pub fn fold_owned(&mut self, ev: &OwnedEvent) {
        self.observe(
            ev.cycle, ev.node, ev.family, ev.kind, &ev.detail, ev.id, ev.arg,
        );
    }

    /// The single fold both pipelines share.
    #[allow(clippy::too_many_arguments)] // mirrors the TraceEvent field list
    pub fn observe(
        &mut self,
        cycle: Cycle,
        node: i64,
        family: Family,
        kind: Kind,
        detail: &str,
        id: u64,
        arg: u64,
    ) {
        match kind {
            Kind::NetInject => {
                self.health.wires += 1;
                let w = self.wires.slot(id);
                w.inject = Some((cycle, family));
                w.deliver = None;
            }
            Kind::NetDeliver => {
                if self.wires.injected(id).is_none() {
                    self.health.unmatched_delivers += 1;
                    return;
                }
                let w = self.wires.slot(id);
                if w.deliver.is_none() {
                    w.deliver = Some(cycle);
                    self.nodes.get_mut(node).delivered.push((cycle, id));
                }
            }
            Kind::Link => {
                // id = wire, arg = owning transaction.
                self.health.links += 1;
                self.wires.slot(id).owner = Some(arg);
                match self.txns.get(arg).copied().unwrap_or_default() {
                    Txn { open, .. } if open != NONE => self.open[open as usize].wires.push(id),
                    Txn { closed, .. } if closed != NONE => self.health.late_links += 1,
                    _ => self.health.dangling_links += 1,
                }
            }
            Kind::SpanBegin => {
                let ty = self.intern(detail);
                let t = self.txns.slot(id);
                if t.open == NONE {
                    t.open = match self.free.pop() {
                        Some(i) => i,
                        None => {
                            let i = to_index(self.open.len());
                            self.open.push(OpenSpan::default());
                            i
                        }
                    };
                }
                // A duplicate begin restarts the open span.
                let o = &mut self.open[t.open as usize];
                o.node = node;
                o.ty = ty;
                o.begin = cycle;
                o.wires.clear();
            }
            Kind::SpanEnd => self.close(id, cycle),
            _ => {}
        }
    }

    /// The type index of `detail`, interned on first sight.
    fn intern(&mut self, detail: &str) -> u32 {
        if let Some(i) = self.types.iter().position(|t| &*t.name == detail) {
            return i as u32;
        }
        let i = to_index(self.types.len());
        let wbuf_write = detail == "wbuf.write";
        self.types.push(SpanType {
            name: detail.into(),
            wbuf_write,
            adoptable: !wbuf_write && !detail.starts_with("timer"),
        });
        i
    }

    /// The closed record of transaction `txn`, if it closed.
    fn record(&self, txn: u64) -> Option<&ClosedSpan> {
        let t = self.txns.get(txn)?;
        self.closed.get(t.closed as usize) // `NONE` lies past the end
    }

    /// Closes span `txn` at `end`: adopts a foreign wakeup wire if one
    /// explains the end, tiles the window into exact-sum segments, and
    /// extends the critical-path DP.
    fn close(&mut self, txn: u64, end: Cycle) {
        let slab = match self.txns.get(txn) {
            Some(t) if t.open != NONE => t.open,
            _ => {
                self.health.orphan_ends += 1;
                return;
            }
        };
        let o = &mut self.open[slab as usize];
        let (node, ty, begin) = (o.node, o.ty, o.begin);
        let mut span_wires = std::mem::take(&mut o.wires);
        let ty_info = &self.types[ty as usize];
        let dur = end.saturating_sub(begin);

        // Adoption: the latest wire delivered to this node inside the
        // span window. If it is foreign, *its* transaction caused the
        // wakeup (a CBL grant, an invalidation, a barrier release) —
        // adopt it so its transit is tiled and record the causal edge.
        let mut adopted_wire = None;
        if ty_info.adoptable && dur > 0 {
            if let Some(log) = self.nodes.get(node) {
                for &(c, w) in log.delivered.iter().rev() {
                    if c > end {
                        continue;
                    }
                    if c < begin {
                        break;
                    }
                    if self.wires.owner(w) != Some(txn) {
                        adopted_wire = Some(w);
                        self.health.adopted += 1;
                    }
                    break; // only the latest delivery explains the end
                }
            }
        }
        let causal_parent = adopted_wire
            .and_then(|w| self.wires.owner(w))
            .filter(|&p| p != txn);

        // Tile [begin, end] by walking the span's wires in injection
        // order with a monotone cursor: gaps before a wire are issue /
        // wbuf / queue / mem time, the transit itself is net time, and
        // the remainder is completion (or purely local work). Every
        // cursor advance lands in exactly one segment, so the segment
        // sum equals `dur` by construction.
        let wires = &self.wires;
        self.timeline.clear();
        self.timeline.extend(
            span_wires
                .iter()
                .chain(adopted_wire.iter())
                .filter_map(|&w| {
                    let wire = wires.get(w)?;
                    let (inject, family) = wire.inject?;
                    Some((inject, w, family, wire.deliver))
                }),
        );
        self.timeline
            .sort_unstable_by_key(|&(inject, w, ..)| (inject, w));
        let mut segments = [0; 7];
        let mut family_net = [0; FAMILIES];
        let first_gap = if ty_info.wbuf_write { WBUF } else { ISSUE };
        let mut cursor = begin;
        let mut prev: Option<Family> = None;
        for &(inject, _, family, deliver) in &self.timeline {
            if cursor >= end {
                break;
            }
            let at = inject.clamp(cursor, end);
            if at > cursor {
                segments[prev.map_or(first_gap, gap_after)] += at - cursor;
                cursor = at;
            }
            let Some(deliver) = deliver else {
                continue; // truncated trace; shows up as undelivered
            };
            let until = deliver.clamp(cursor, end);
            if until > cursor {
                segments[NET] += until - cursor;
                family_net[family as usize] += until - cursor;
                cursor = until;
            }
            prev = Some(family);
        }
        if cursor < end {
            segments[if prev.is_none() { LOCAL } else { COMPLETE }] += end - cursor;
        }
        span_wires.clear();
        self.open[slab as usize].wires = span_wires;
        self.free.push(slab);

        // Critical-path DP over program-order and causal edges. Ends
        // are monotone in stream order, so the per-node history is
        // sorted and the program-order predecessor (latest span on this
        // node ending at or before `begin`) is a binary search away.
        let prog_parent = self.nodes.get(node).and_then(|log| {
            let idx = log.closed.partition_point(|&(e, _)| e <= begin);
            idx.checked_sub(1).map(|i| log.closed[i].1)
        });
        let parent_dist = |p: Option<u64>| -> Option<(Cycle, u64)> {
            p.and_then(|p| self.record(p).map(|s| (s.dist, p)))
        };
        let best = [parent_dist(prog_parent), parent_dist(causal_parent)]
            .into_iter()
            .flatten()
            .max_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let (dist, path_parent) = match best {
            Some((d, p)) => (dur + d, Some(p)),
            None => (dur, None),
        };

        self.nodes.get_mut(node).closed.push((end, txn));
        self.health.spans += 1;
        let record = ClosedSpan {
            txn,
            node,
            ty,
            begin,
            end,
            dur,
            segments,
            family_net,
            adopted_wire,
            prog_parent,
            causal_parent,
            dist,
            path_parent,
        };
        let t = self.txns.slot(txn);
        t.open = NONE;
        if t.closed == NONE {
            t.closed = to_index(self.closed.len());
            self.closed.push(record);
        } else {
            self.closed[t.closed as usize] = record;
        }
    }

    /// Replays a JSONL trace (one event object per line) through the
    /// fold, streaming it line by line. Blank lines are skipped; any
    /// malformed line aborts with its line number.
    pub fn from_jsonl<R: BufRead>(reader: R) -> Result<SpanSet, String> {
        let mut s = SpanSet::new();
        fold_jsonl(reader, |ev| s.fold_owned(ev))?;
        Ok(s)
    }

    /// Health counters with end-of-stream state folded in (spans still
    /// open become orphaned begins, wires still in flight undelivered).
    pub fn health(&self) -> Health {
        let mut h = self.health;
        h.orphan_begins = (self.open.len() - self.free.len()) as u64;
        h.undelivered_wires = self
            .wires
            .iter()
            .filter(|w| w.inject.is_some() && w.deliver.is_none())
            .count() as u64;
        h
    }

    /// Every closed span in close order, one record per transaction id.
    pub fn closed(&self) -> &[ClosedSpan] {
        &self.closed
    }

    /// The transaction type of `span` (a span of this set).
    pub fn detail(&self, span: &ClosedSpan) -> &str {
        &self.types[span.ty as usize].name
    }

    /// Raw end-to-end latencies per type index, each ascending, ordered
    /// by type name; a type with no closed span is left out.
    fn latencies_per_type(&self) -> Vec<(usize, Vec<u64>)> {
        let mut per_type = vec![Vec::new(); self.types.len()];
        for s in &self.closed {
            per_type[s.ty as usize].push(s.dur);
        }
        let mut v: Vec<(usize, Vec<u64>)> = per_type
            .into_iter()
            .enumerate()
            .filter(|(_, lats)| !lats.is_empty())
            .collect();
        v.sort_unstable_by(|a, b| self.types[a.0].name.cmp(&self.types[b.0].name));
        for (_, lats) in &mut v {
            lats.sort_unstable();
        }
        v
    }

    /// Raw end-to-end latencies per transaction type, ascending.
    pub fn latencies_by_type(&self) -> BTreeMap<&str, Vec<u64>> {
        self.latencies_per_type()
            .into_iter()
            .map(|(t, lats)| (&*self.types[t].name, lats))
            .collect()
    }

    /// All end-to-end latencies, ascending.
    pub fn latencies(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.closed.iter().map(|s| s.dur).collect();
        v.sort_unstable();
        v
    }

    /// Total cycles per segment label across every closed span; a
    /// segment no span spent a cycle in is absent.
    pub fn segment_totals(&self) -> BTreeMap<&'static str, Cycle> {
        nonzero(SEGMENTS, sum_segments(&self.closed))
    }

    /// Network-transit cycles per protocol family across every span; a
    /// family with no transit is absent.
    pub fn family_totals(&self) -> BTreeMap<&'static str, Cycle> {
        nonzero(Family::ALL.map(Family::token), sum_families(&self.closed))
    }

    /// The critical path: the longest dependency chain of spans, walked
    /// back from the maximal critical-path distance (ties broken toward
    /// the lowest transaction id), returned begin-to-end.
    pub fn critical_path(&self) -> Vec<&ClosedSpan> {
        let Some(tail) = self
            .closed
            .iter()
            .max_by(|a, b| a.dist.cmp(&b.dist).then(b.txn.cmp(&a.txn)))
        else {
            return Vec::new();
        };
        let mut chain = vec![tail];
        let mut cur = tail;
        // A transaction id reused on one node can make a record its own
        // ancestor (its earlier instance, since overwritten, was the
        // program-order parent); an acyclic chain never repeats a record,
        // so it never outgrows the set.
        while chain.len() < self.closed.len() {
            let Some(p) = cur.path_parent.and_then(|p| self.record(p)) else {
                break;
            };
            chain.push(p);
            cur = p;
        }
        chain.reverse();
        chain
    }

    fn quantile_obj(sorted: &[u64]) -> Json {
        let mean = if sorted.is_empty() {
            0.0
        } else {
            sorted.iter().sum::<u64>() as f64 / sorted.len() as f64
        };
        Json::Obj(vec![
            ("count".into(), Json::num(sorted.len() as u64)),
            ("mean".into(), Json::num(mean)),
            ("p50".into(), Json::num(nearest_rank(sorted, 0.50))),
            ("p95".into(), Json::num(nearest_rank(sorted, 0.95))),
            ("p99".into(), Json::num(nearest_rank(sorted, 0.99))),
            ("p999".into(), Json::num(nearest_rank(sorted, 0.999))),
            ("max".into(), Json::num(sorted.last().copied().unwrap_or(0))),
        ])
    }

    fn segments_obj(segments: &[Cycle; 7]) -> Json {
        Json::Obj(
            SEGMENTS
                .iter()
                .zip(segments)
                .map(|(&s, &v)| (s.to_string(), Json::num(v)))
                .collect(),
        )
    }

    /// Renders the span report as the stable `ssmp-span-v1` JSON
    /// document. Deterministic: every map is ordered, every number
    /// rendered the same way regardless of pipeline.
    pub fn to_json(&self) -> Json {
        let overall = self.latencies();
        let mut type_segments = vec![[0; 7]; self.types.len()];
        for s in &self.closed {
            add(&mut type_segments[s.ty as usize], &s.segments);
        }
        let txns: Vec<Json> = self
            .latencies_per_type()
            .into_iter()
            .map(|(t, lats)| {
                let mut obj = vec![("type".to_string(), Json::str(&*self.types[t].name))];
                if let Json::Obj(stats) = Self::quantile_obj(&lats) {
                    obj.extend(stats);
                }
                obj.push(("segments".into(), Self::segments_obj(&type_segments[t])));
                Json::Obj(obj)
            })
            .collect();
        let chain = self.critical_path();
        let chain_cycles: Cycle = chain.iter().map(|s| s.dur).sum();
        let chain_segments = sum_segments(chain.iter().copied());
        let chain_families = sum_families(chain.iter().copied());
        let mut top: Vec<&&ClosedSpan> = chain.iter().collect();
        top.sort_by(|a, b| b.dur.cmp(&a.dur).then(a.txn.cmp(&b.txn)));
        let top: Vec<Json> = top
            .into_iter()
            .take(32)
            .map(|s| {
                Json::Obj(vec![
                    ("txn".into(), Json::num(s.txn)),
                    ("node".into(), Json::num(s.node)),
                    ("type".into(), Json::str(self.detail(s))),
                    ("begin".into(), Json::num(s.begin)),
                    ("dur".into(), Json::num(s.dur)),
                    ("segments".into(), Self::segments_obj(&s.segments)),
                ])
            })
            .collect();
        let families_obj = |totals: [Cycle; FAMILIES]| {
            Json::Obj(
                nonzero(Family::ALL.map(Family::token), totals)
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), Json::num(v)))
                    .collect(),
            )
        };
        let h = self.health();
        Json::Obj(vec![
            ("schema".into(), Json::str(SCHEMA)),
            ("overall".into(), Self::quantile_obj(&overall)),
            ("txns".into(), Json::Arr(txns)),
            (
                "segments".into(),
                Self::segments_obj(&sum_segments(&self.closed)),
            ),
            ("families".into(), families_obj(sum_families(&self.closed))),
            (
                "critical_path".into(),
                Json::Obj(vec![
                    ("spans".into(), Json::num(chain.len() as u64)),
                    ("cycles".into(), Json::num(chain_cycles)),
                    ("segments".into(), Self::segments_obj(&chain_segments)),
                    ("families".into(), families_obj(chain_families)),
                    ("top".into(), Json::Arr(top)),
                ]),
            ),
            (
                "health".into(),
                Json::Obj(vec![
                    ("spans".into(), Json::num(h.spans)),
                    ("orphan_begins".into(), Json::num(h.orphan_begins)),
                    ("orphan_ends".into(), Json::num(h.orphan_ends)),
                    ("links".into(), Json::num(h.links)),
                    ("dangling_links".into(), Json::num(h.dangling_links)),
                    ("late_links".into(), Json::num(h.late_links)),
                    ("wires".into(), Json::num(h.wires)),
                    ("undelivered_wires".into(), Json::num(h.undelivered_wires)),
                    ("unmatched_delivers".into(), Json::num(h.unmatched_delivers)),
                    ("adopted".into(), Json::num(h.adopted)),
                ]),
            ),
        ])
    }

    /// Renders the human-readable table view (`ssmp spans` default):
    /// per-type latency quantiles, segment attribution, per-family net
    /// transit, the critical path's top-`k` spans, and stitching health.
    pub fn render_table(&self, k: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== transaction latency (cycles) ==");
        let _ = writeln!(
            out,
            "{:<16} {:>7} {:>9} {:>7} {:>7} {:>7} {:>7} {:>7}",
            "type", "count", "mean", "p50", "p95", "p99", "p999", "max"
        );
        let row = |out: &mut String, name: &str, lats: &[u64]| {
            let mean = if lats.is_empty() {
                0.0
            } else {
                lats.iter().sum::<u64>() as f64 / lats.len() as f64
            };
            let _ = writeln!(
                out,
                "{:<16} {:>7} {:>9.1} {:>7} {:>7} {:>7} {:>7} {:>7}",
                name,
                lats.len(),
                mean,
                nearest_rank(lats, 0.50),
                nearest_rank(lats, 0.95),
                nearest_rank(lats, 0.99),
                nearest_rank(lats, 0.999),
                lats.last().copied().unwrap_or(0)
            );
        };
        for (ty, lats) in self.latencies_by_type() {
            row(&mut out, ty, &lats);
        }
        row(&mut out, "(all)", &self.latencies());

        let totals = sum_segments(&self.closed);
        let grand: Cycle = totals.iter().sum();
        let _ = writeln!(out, "\n== segment attribution (cycles, all spans) ==");
        for (s, &v) in SEGMENTS.iter().zip(&totals) {
            let share = if grand == 0 {
                0.0
            } else {
                v as f64 * 100.0 / grand as f64
            };
            let _ = writeln!(out, "{s:<10} {v:>10}  {share:>5.1}%");
        }

        let fams = self.family_totals();
        if !fams.is_empty() {
            let _ = writeln!(out, "\n== net transit by protocol family (cycles) ==");
            for (f, v) in &fams {
                let _ = writeln!(out, "{f:<10} {v:>10}");
            }
        }

        let chain = self.critical_path();
        let chain_cycles: Cycle = chain.iter().map(|s| s.dur).sum();
        let _ = writeln!(
            out,
            "\n== critical path ({} spans, {} cycles) — top {k} by duration ==",
            chain.len(),
            chain_cycles
        );
        let _ = writeln!(
            out,
            "{:>8} {:>5} {:<16} {:>9} {:>7}  {:>6} {:>6} {:>6} {:>6}",
            "txn", "node", "type", "begin", "dur", "net", "mem", "queue", "local"
        );
        let mut top: Vec<&&ClosedSpan> = chain.iter().collect();
        top.sort_by(|a, b| b.dur.cmp(&a.dur).then(a.txn.cmp(&b.txn)));
        for s in top.into_iter().take(k) {
            let _ = writeln!(
                out,
                "{:>8} {:>5} {:<16} {:>9} {:>7}  {:>6} {:>6} {:>6} {:>6}",
                s.txn,
                s.node,
                self.detail(s),
                s.begin,
                s.dur,
                s.segments[NET],
                s.segments[MEM],
                s.segments[QUEUE],
                s.segments[LOCAL]
            );
        }

        let h = self.health();
        let _ = writeln!(out, "\n== stitching health ==");
        let _ = writeln!(
            out,
            "spans={} orphan-begins={} orphan-ends={} links={} dangling-links={} \
             late-links={} wires={} undelivered={} unmatched-delivers={} adopted={}",
            h.spans,
            h.orphan_begins,
            h.orphan_ends,
            h.links,
            h.dangling_links,
            h.late_links,
            h.wires,
            h.undelivered_wires,
            h.unmatched_delivers,
            h.adopted
        );
        out
    }
}

/// `len` as a `u32` table index ([`NONE`] is never a valid one).
fn to_index(len: usize) -> u32 {
    u32::try_from(len)
        .ok()
        .filter(|&i| i != NONE)
        .expect("a span set holds fewer than 2^32 - 1 spans, open spans or types")
}

/// Adds `from` into `into` element-wise.
fn add<const N: usize>(into: &mut [Cycle; N], from: &[Cycle; N]) {
    for (a, b) in into.iter_mut().zip(from) {
        *a += b;
    }
}

/// Segment totals over `spans`.
fn sum_segments<'a>(spans: impl IntoIterator<Item = &'a ClosedSpan>) -> [Cycle; 7] {
    let mut t = [0; 7];
    for s in spans {
        add(&mut t, &s.segments);
    }
    t
}

/// Per-family net transit totals over `spans`.
fn sum_families<'a>(spans: impl IntoIterator<Item = &'a ClosedSpan>) -> [Cycle; FAMILIES] {
    let mut t = [0; FAMILIES];
    for s in spans {
        add(&mut t, &s.family_net);
    }
    t
}

/// The labelled nonzero entries of `totals`, ordered by label.
fn nonzero<const N: usize>(
    labels: [&'static str; N],
    totals: [Cycle; N],
) -> BTreeMap<&'static str, Cycle> {
    labels
        .into_iter()
        .zip(totals)
        .filter(|&(_, v)| v > 0)
        .collect()
}

/// Shared handle to a [`SpanSet`] being filled by a [`SpanSink`].
pub type SharedSpans = Rc<RefCell<SpanSet>>;

/// A [`TraceSink`] that folds events into a [`SpanSet`] as the machine
/// runs. Attach it to a tracer with an *unrestricted* filter — a filter
/// that drops span or wire events orphans the stitch (the health
/// counters will say so, but the report will be incomplete).
#[derive(Debug, Default)]
pub struct SpanSink {
    spans: SharedSpans,
}

impl SpanSink {
    /// Creates the sink plus the shared handle to read the spans back
    /// after the run (the tracer consumes the sink itself).
    pub fn new() -> (Self, SharedSpans) {
        let spans: SharedSpans = Rc::new(RefCell::new(SpanSet::new()));
        (
            Self {
                spans: spans.clone(),
            },
            spans,
        )
    }
}

impl TraceSink for SpanSink {
    fn record(&mut self, ev: &TraceEvent) {
        self.spans.borrow_mut().fold(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn ev(
        cycle: Cycle,
        node: i64,
        family: Family,
        kind: Kind,
        detail: &'static str,
        id: u64,
        arg: u64,
    ) -> TraceEvent {
        TraceEvent {
            cycle,
            node,
            family,
            kind,
            detail,
            id,
            arg,
        }
    }

    /// A read miss: request wire out at 10, served at the directory,
    /// fill wire back, delivered at 30, span 10→30.
    fn fill_events() -> Vec<TraceEvent> {
        vec![
            ev(10, 0, Family::Ric, Kind::NetInject, "msg.ric.read", 1, 5),
            ev(10, 0, Family::Node, Kind::SpanBegin, "fill", 100, 0),
            ev(10, 0, Family::Ric, Kind::Link, "wire", 1, 100),
            ev(16, -1, Family::Ric, Kind::NetDeliver, "msg.ric.read", 1, 0),
            ev(20, -1, Family::Ric, Kind::NetInject, "msg.ric.fill", 2, 0),
            ev(20, -1, Family::Ric, Kind::Link, "wire", 2, 100),
            ev(30, 0, Family::Ric, Kind::NetDeliver, "msg.ric.fill", 2, 0),
            ev(30, 0, Family::Node, Kind::SpanEnd, "fill", 100, 20),
        ]
    }

    #[test]
    fn fill_span_tiles_exactly() {
        let mut s = SpanSet::new();
        for e in fill_events() {
            s.fold(&e);
        }
        let span = s.record(100).unwrap();
        assert_eq!(span.dur, 20);
        assert_eq!(span.segments.iter().sum::<Cycle>(), 20);
        assert_eq!(span.segments[NET], 6 + 10, "two transits: 10→16, 20→30");
        assert_eq!(span.segments[MEM], 4, "directory service 16→20");
        assert_eq!(span.segments[ISSUE], 0, "inject at begin");
        assert_eq!(span.family_net[Family::Ric as usize], 16);
        assert!(s.health().clean());
    }

    #[test]
    fn cbl_gap_is_queue_time() {
        let mut s = SpanSet::new();
        let evs = vec![
            ev(5, 1, Family::Cbl, Kind::NetInject, "msg.cbl.request", 7, 0),
            ev(5, 1, Family::Node, Kind::SpanBegin, "lock", 50, 0),
            ev(5, 1, Family::Cbl, Kind::Link, "wire", 7, 50),
            ev(
                9,
                -1,
                Family::Cbl,
                Kind::NetDeliver,
                "msg.cbl.request",
                7,
                0,
            ),
            ev(40, -1, Family::Cbl, Kind::NetInject, "msg.cbl.grant", 8, 0),
            ev(40, -1, Family::Cbl, Kind::Link, "wire", 8, 50),
            ev(44, 1, Family::Cbl, Kind::NetDeliver, "msg.cbl.grant", 8, 0),
            ev(44, 1, Family::Node, Kind::SpanEnd, "lock", 50, 39),
        ];
        for e in evs {
            s.fold(&e);
        }
        let span = s.record(50).unwrap();
        assert_eq!(span.dur, 39);
        assert_eq!(span.segments.iter().sum::<Cycle>(), 39);
        assert_eq!(span.segments[QUEUE], 31, "9→40 waiting in the CBL queue");
        assert_eq!(span.segments[NET], 8);
    }

    /// Node 0 releases a lock (async span owning the release wire); the
    /// directory forwards a grant to node 1, whose lock span adopts it.
    fn handoff_events() -> Vec<TraceEvent> {
        vec![
            // node 1 requests the lock and stalls
            ev(5, 1, Family::Cbl, Kind::NetInject, "msg.cbl.request", 1, 0),
            ev(5, 1, Family::Node, Kind::SpanBegin, "lock", 10, 0),
            ev(5, 1, Family::Cbl, Kind::Link, "wire", 1, 10),
            ev(
                8,
                -1,
                Family::Cbl,
                Kind::NetDeliver,
                "msg.cbl.request",
                1,
                0,
            ),
            // node 0 releases: fire-and-forget span
            ev(20, 0, Family::Node, Kind::SpanBegin, "unlock", 11, 0),
            ev(20, 0, Family::Cbl, Kind::NetInject, "msg.cbl.release", 2, 0),
            ev(20, 0, Family::Cbl, Kind::Link, "wire", 2, 11),
            ev(20, 0, Family::Node, Kind::SpanEnd, "unlock", 11, 0),
            ev(
                23,
                -1,
                Family::Cbl,
                Kind::NetDeliver,
                "msg.cbl.release",
                2,
                0,
            ),
            // the directory hands the lock to node 1 (caused by txn 11)
            ev(23, -1, Family::Cbl, Kind::NetInject, "msg.cbl.grant", 3, 0),
            ev(23, -1, Family::Cbl, Kind::Link, "wire", 3, 11),
            ev(27, 1, Family::Cbl, Kind::NetDeliver, "msg.cbl.grant", 3, 0),
            ev(27, 1, Family::Node, Kind::SpanEnd, "lock", 10, 22),
        ]
    }

    #[test]
    fn adoption_builds_cross_txn_causal_edge() {
        let mut s = SpanSet::new();
        for e in handoff_events() {
            s.fold(&e);
        }
        let lock = s.record(10).unwrap();
        assert_eq!(lock.adopted_wire, Some(3), "grant wire adopted");
        assert_eq!(lock.causal_parent, Some(11), "edge to the releaser");
        assert_eq!(lock.dur, 22);
        assert_eq!(lock.segments.iter().sum::<Cycle>(), 22);
        // grant transit 23→27 tiled as net
        assert_eq!(lock.segments[NET], 3 + 4);
        let path = s.critical_path();
        let txns: Vec<u64> = path.iter().map(|p| p.txn).collect();
        assert_eq!(txns, vec![11, 10], "release → grant chain");
        assert_eq!(s.health().adopted, 1);
    }

    #[test]
    fn zero_length_async_span_has_no_segments() {
        let mut s = SpanSet::new();
        let evs = vec![
            ev(20, 0, Family::Node, Kind::SpanBegin, "unlock", 1, 0),
            ev(20, 0, Family::Cbl, Kind::NetInject, "msg.cbl.release", 9, 0),
            ev(20, 0, Family::Cbl, Kind::Link, "wire", 9, 1),
            ev(20, 0, Family::Node, Kind::SpanEnd, "unlock", 1, 0),
        ];
        for e in evs {
            s.fold(&e);
        }
        let span = s.record(1).unwrap();
        assert_eq!(span.dur, 0);
        assert_eq!(span.segments.iter().sum::<Cycle>(), 0);
    }

    #[test]
    fn program_order_chains_same_node_spans() {
        let mut s = SpanSet::new();
        for (b, e, t) in [(10u64, 20u64, 1u64), (25, 45, 2), (50, 60, 3)] {
            s.fold(&ev(b, 0, Family::Node, Kind::SpanBegin, "fill", t, 0));
            s.fold(&ev(e, 0, Family::Node, Kind::SpanEnd, "fill", t, e - b));
        }
        assert_eq!(s.record(2).unwrap().prog_parent, Some(1));
        assert_eq!(s.record(3).unwrap().prog_parent, Some(2));
        assert_eq!(s.record(3).unwrap().dist, 10 + 20 + 10);
        let chain: Vec<u64> = s.critical_path().iter().map(|p| p.txn).collect();
        assert_eq!(chain, vec![1, 2, 3]);
    }

    #[test]
    fn health_counts_orphans_and_dangles() {
        let mut s = SpanSet::new();
        s.fold(&ev(1, 0, Family::Node, Kind::SpanBegin, "fill", 1, 0));
        s.fold(&ev(2, 0, Family::Node, Kind::SpanEnd, "fill", 99, 0)); // orphan end
        s.fold(&ev(3, 0, Family::Ric, Kind::Link, "wire", 5, 77)); // dangling
        s.fold(&ev(
            4,
            0,
            Family::Ric,
            Kind::NetInject,
            "msg.ric.read",
            6,
            0,
        ));
        s.fold(&ev(
            5,
            0,
            Family::Ric,
            Kind::NetDeliver,
            "msg.ric.fill",
            42,
            0,
        )); // unmatched
        let h = s.health();
        assert_eq!(h.orphan_begins, 1, "txn 1 still open");
        assert_eq!(h.orphan_ends, 1);
        assert_eq!(h.dangling_links, 1);
        assert_eq!(h.undelivered_wires, 1);
        assert_eq!(h.unmatched_delivers, 1);
        assert!(!h.clean());
    }

    #[test]
    fn nearest_rank_is_exact() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 0.50), 50);
        assert_eq!(nearest_rank(&v, 0.95), 95);
        assert_eq!(nearest_rank(&v, 0.99), 99);
        assert_eq!(nearest_rank(&v, 0.999), 100);
        assert_eq!(nearest_rank(&[7], 0.5), 7);
        assert_eq!(nearest_rank(&[], 0.5), 0);
    }

    #[test]
    fn live_and_offline_folds_agree_byte_for_byte() {
        let mut events = fill_events();
        events.extend(handoff_events());
        let (mut sink, live) = SpanSink::new();
        let mut jsonl = String::new();
        for e in &events {
            sink.record(e);
            jsonl.push_str(&e.to_jsonl());
            jsonl.push('\n');
        }
        let offline = SpanSet::from_jsonl(Cursor::new(jsonl)).unwrap();
        assert_eq!(*live.borrow(), offline);
        assert_eq!(live.borrow().to_json().render(), offline.to_json().render());
    }

    /// `n` read misses on nodes 0..8, each owning a request and a reply
    /// wire; wire `k` gets id `map(k)` (machine ids are `1..=2n`).
    fn fills(n: u64, map: impl Fn(u64) -> u64) -> Vec<TraceEvent> {
        let mut evs = Vec::new();
        for k in 0..n {
            let (node, t, txn) = ((k % 8) as i64, 10 * k, 1_000 + k);
            let (req, rep) = (map(2 * k + 1), map(2 * k + 2));
            evs.extend([
                ev(
                    t,
                    node,
                    Family::Wbi,
                    Kind::NetInject,
                    "msg.wbi.read_req",
                    req,
                    0,
                ),
                ev(t, node, Family::Node, Kind::SpanBegin, "fill", txn, 0),
                ev(t, node, Family::Wbi, Kind::Link, "wire", req, txn),
                ev(t + 4, -1, Family::Wbi, Kind::NetDeliver, "x", req, 0),
                ev(t + 6, -1, Family::Wbi, Kind::NetInject, "x", rep, 0),
                ev(t + 6, -1, Family::Wbi, Kind::Link, "wire", rep, txn),
                ev(t + 9, node, Family::Wbi, Kind::NetDeliver, "x", rep, 0),
                ev(t + 9, node, Family::Node, Kind::SpanEnd, "fill", txn, 9),
            ]);
        }
        evs
    }

    fn fold_all(evs: &[TraceEvent]) -> SpanSet {
        let mut s = SpanSet::new();
        for e in evs {
            s.fold(e);
        }
        s
    }

    fn assert_bounded(s: &SpanSet) {
        let t = &s.wires;
        assert!(t.dense.len() as u64 <= 2 * t.held + DENSE_SLACK);
        assert_eq!(
            t.iter().filter(|w| **w != Wire::default()).count() as u64,
            t.held
        );
        assert!(t.sparse.keys().all(|&k| k >= t.dense.len() as u64));
    }

    #[test]
    fn huge_and_sparse_wire_ids_stay_bounded_and_stitch_the_same() {
        const N: u64 = 3_000;
        let dense = fold_all(&fills(N, |k| k));
        let want = dense.to_json().render();
        assert_eq!(dense.wires.held, 2 * N);
        assert!(dense.wires.sparse.is_empty(), "machine ids stay dense");
        assert_bounded(&dense);
        for (name, map) in [
            (
                "2^40 offset",
                Box::new(|k: u64| (1 << 40) + k) as Box<dyn Fn(u64) -> u64>,
            ),
            ("stride 7", Box::new(|k| 7 * k)),
            ("reversed", Box::new(|k| 10 * N - k)),
        ] {
            let s = fold_all(&fills(N, map));
            assert_eq!(s.to_json().render(), want, "{name}");
            assert_eq!(s.wires.held, 2 * N, "{name}");
            assert_bounded(&s);
        }
        let huge = fold_all(&fills(N, |k| (1 << 40) + k));
        assert!(
            huge.wires.dense.is_empty(),
            "no slot below 2^40 is allocated"
        );
    }

    #[test]
    fn overflow_ids_move_into_the_dense_part_when_it_reaches_them() {
        // wires 1 and 2_500 swap ids: the first wire seen (2_500) overflows,
        // then the dense part grows past it
        let swap = |k| match k {
            1 => 2_500,
            2_500 => 1,
            k => k,
        };
        let s = fold_all(&fills(2_000, swap));
        assert!(s.wires.sparse.is_empty(), "{:?}", s.wires.sparse.keys());
        assert_bounded(&s);
        assert!(s.health().clean());
        assert_eq!(s.wires.owner(2_500), Some(1_000));
        assert_eq!(s.wires.owner(2), Some(1_000));
        assert_eq!(
            s.to_json().render(),
            fold_all(&fills(2_000, |k| k)).to_json().render()
        );
    }

    #[test]
    fn open_spans_reuse_slab_entries_and_wire_lists() {
        let first = fold_all(&fills(1, |k| k));
        let s = fold_all(&fills(500, |k| k));
        assert_eq!(s.open.len(), 1, "one span open at a time needs one entry");
        assert_eq!(s.free, vec![0]);
        assert!(s.open[0].wires.is_empty());
        assert_eq!(s.open[0].wires.capacity(), first.open[0].wires.capacity());
        assert_eq!(s.timeline.capacity(), first.timeline.capacity());
        assert_eq!(s.types.len(), 1, "one interned type");
        assert_eq!(s.closed().len(), 500);
        assert!(s.closed().iter().all(|c| s.detail(c) == "fill"));
    }

    #[test]
    fn odd_node_and_huge_txn_ids_stay_out_of_the_dense_tables() {
        let mut s = SpanSet::new();
        for (k, node) in [(0u64, -7i64), (1, 1 << 40), (2, 3), (3, -1)] {
            let txn = (1 << 40) + 1_000 - k;
            s.fold(&ev(
                10 * k,
                node,
                Family::Node,
                Kind::SpanBegin,
                "fill",
                txn,
                0,
            ));
            s.fold(&ev(
                10 * k + 4,
                node,
                Family::Node,
                Kind::SpanEnd,
                "fill",
                txn,
                4,
            ));
        }
        assert_eq!(s.nodes.dense.len(), 5, "-1..=3 indexed by node + 1");
        assert_eq!(
            s.nodes.odd.keys().copied().collect::<Vec<_>>(),
            vec![-7, 1 << 40]
        );
        assert!(s.txns.dense.is_empty(), "no slot below 2^40 is allocated");
        assert_eq!(s.txns.held, 4);
        assert_eq!(s.health().spans, 4);
    }

    #[test]
    fn txn_id_reused_on_one_node_ends_the_critical_path_walk() {
        let mut s = SpanSet::new();
        for (b, e) in [(1, 5), (7, 9)] {
            s.fold(&ev(b, 0, Family::Node, Kind::SpanBegin, "fill", 1, 0));
            s.fold(&ev(e, 0, Family::Node, Kind::SpanEnd, "fill", 1, e - b));
        }
        let span = s.record(1).unwrap();
        assert_eq!(span.path_parent, Some(1), "its earlier instance");
        assert_eq!(span.dist, 4 + 2);
        assert_eq!(s.critical_path().len(), 1);
        assert!(s
            .render_table(8)
            .contains("critical path (1 spans, 2 cycles)"));
    }

    #[test]
    fn json_schema_and_table_render() {
        let mut s = SpanSet::new();
        for e in handoff_events() {
            s.fold(&e);
        }
        let doc = s.to_json();
        assert_eq!(doc.get("schema").and_then(|v| v.as_str()), Some(SCHEMA));
        for field in ["overall", "txns", "segments", "critical_path", "health"] {
            assert!(doc.get(field).is_some(), "missing {field}");
        }
        let reparsed = Json::parse(&doc.render()).expect("rendered report parses");
        assert_eq!(reparsed.render(), doc.render());
        let table = s.render_table(5);
        assert!(table.contains("transaction latency"));
        assert!(table.contains("critical path"));
        assert!(table.contains("stitching health"));
    }

    /// Hand-written event streams under `src/testdata/`, each beside the
    /// JSON report (`<case>.json`, as `ssmp spans --json` prints it) and
    /// the top-8 table (`<case>.txt`) the fold renders for it.
    const TRANSCRIPTS: [&str; 5] = [
        "txn_reuse",
        "wire_edges",
        "odd_nodes",
        "huge_txn_ids",
        "span_types",
    ];

    #[test]
    fn edge_case_transcripts_render_as_recorded() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src/testdata");
        for case in TRANSCRIPTS {
            let read = |ext: &str| {
                std::fs::read_to_string(format!("{dir}/{case}.{ext}"))
                    .unwrap_or_else(|e| panic!("{case}.{ext}: {e}"))
            };
            let stream = read("jsonl");
            let offline = SpanSet::from_jsonl(Cursor::new(&stream)).unwrap();
            // The live path folds `TraceEvent`s, whose details are static.
            let mut live = SpanSet::new();
            for line in stream.lines().filter(|l| !l.trim().is_empty()) {
                let ev =
                    ssmp_engine::trace::parse_jsonl_event(&Json::parse(line).unwrap()).unwrap();
                live.fold(&TraceEvent {
                    cycle: ev.cycle,
                    node: ev.node,
                    family: ev.family,
                    kind: ev.kind,
                    detail: Box::leak(ev.detail.into_boxed_str()),
                    id: ev.id,
                    arg: ev.arg,
                });
            }
            assert_eq!(live, offline, "{case}: live and offline folds differ");
            assert_eq!(offline.to_json().render() + "\n", read("json"), "{case}");
            assert_eq!(offline.render_table(8), read("txt"), "{case}");
        }
    }

    #[test]
    fn from_jsonl_rejects_malformed_lines() {
        assert!(SpanSet::from_jsonl(Cursor::new("not json\n")).is_err());
        let bad =
            r#"{"cycle":1,"node":0,"family":"zzz","kind":"issue","detail":"x","id":0,"arg":0}"#;
        let err = SpanSet::from_jsonl(Cursor::new(bad)).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        assert!(SpanSet::from_jsonl(Cursor::new("\n\n")).unwrap() == SpanSet::new());
    }
}
