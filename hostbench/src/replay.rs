//! Isolated replays of single layers through their public functions.
//!
//! Each replay drives one structure for about `target` operations, times
//! the whole loop, and ends by asserting the structure is quiescent: a
//! replay that breaks the protocol returns an error instead of a faster
//! number. Inputs are drawn before the clock starts.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use ssmp_core::cbl::LockQueue;
use ssmp_core::ric::UpdateList;
use ssmp_core::wbuf::{Enqueue, WriteBuffer};
use ssmp_core::{LockMode, SharedAddr};
use ssmp_engine::{Cycle, SimRng, WheelQueue};
use ssmp_net::{NetConfig, OmegaNetwork};
use ssmp_wbi::WbiBlock;

use crate::alloc;

/// The outcome of one replay.
#[derive(Debug, Clone, Copy)]
pub struct Replay {
    /// Host nanoseconds per operation.
    pub ns_per_op: f64,
    /// Operations timed.
    pub ops: u64,
    /// Heap allocations per operation (0 unless the counting allocator is
    /// installed).
    pub allocs_per_op: f64,
}

/// Delivers every message on `wire`, appending each delivery's output,
/// until the wire is empty. Returns the number of deliveries.
fn pump<M, F>(wire: &mut VecDeque<M>, mut deliver: F) -> u64
where
    F: FnMut(M) -> Vec<M>,
{
    let mut n = 0;
    while let Some(m) = wire.pop_front() {
        let out = deliver(m);
        wire.extend(out);
        n += 1;
    }
    n
}

fn finish(t: Instant, a0: alloc::Snapshot, ops: u64) -> Replay {
    let ns = t.elapsed().as_nanos() as f64;
    let allocs = alloc::snapshot().allocs - a0.allocs;
    Replay {
        ns_per_op: ns / ops as f64,
        ops,
        allocs_per_op: allocs as f64 / ops as f64,
    }
}

/// The machine's wheel (1024 slots): `schedule_in` + `pop` with 256
/// events pending, 90% of delays within 32 cycles and 10% past the
/// wheel's horizon. One op is one schedule or one pop.
pub fn wheel(seed: u64, target: u64) -> Result<Replay, String> {
    const PENDING: usize = 256;
    let n = (target / 2).max(PENDING as u64) as usize;
    let mut rng = SimRng::new(seed);
    let delays: Vec<Cycle> = (0..n)
        .map(|_| {
            if rng.chance(0.9) {
                1 + rng.below(32)
            } else {
                1024 + rng.below(3072)
            }
        })
        .collect();
    let mut q: WheelQueue<usize> = WheelQueue::new(1024);
    let mut last = 0;
    let mut in_order = true;
    let a0 = alloc::snapshot();
    let t = Instant::now();
    for (i, &d) in delays.iter().enumerate() {
        if i >= PENDING {
            let e = q.pop().expect("events pending");
            in_order &= e.at >= last;
            last = e.at;
            black_box(e.event);
        }
        q.schedule_in(d, i);
    }
    while let Some(e) = q.pop() {
        in_order &= e.at >= last;
        last = e.at;
        black_box(e.event);
    }
    let r = finish(t, a0, 2 * n as u64);
    if !in_order || !q.is_empty() || q.popped() != n as u64 {
        return Err(format!(
            "wheel replay: in order {in_order}, {} left, {} of {n} popped",
            q.len(),
            q.popped()
        ));
    }
    Ok(r)
}

/// `OmegaNetwork::send` at `ports` ports under uniform random traffic,
/// each port injecting a packet every second cycle; one op is one send.
pub fn omega(ports: usize, seed: u64, target: u64) -> Result<Replay, String> {
    let mut rng = SimRng::new(seed);
    let sends: Vec<(Cycle, usize, usize, u32)> = (0..target)
        .map(|i| {
            let words = if rng.chance(0.5) { 1 } else { 4 };
            (
                2 * i / ports as u64,
                rng.index(ports),
                rng.index(ports),
                words,
            )
        })
        .collect();
    let mut net = OmegaNetwork::new(ports, NetConfig::default());
    let a0 = alloc::snapshot();
    let t = Instant::now();
    for &(at, s, d, w) in &sends {
        black_box(net.send(at, s, d, w));
    }
    let r = finish(t, a0, target);
    if net.stats().packets != target {
        return Err(format!(
            "omega replay: {} of {target} packets counted",
            net.stats().packets
        ));
    }
    Ok(r)
}

/// A `WbiBlock` shared by `sharers` nodes: every node without a copy
/// read-misses, then one node writes (invalidating the others), round
/// after round. One op is one `deliver`.
pub fn wbi(sharers: usize, target: u64) -> Result<Replay, String> {
    let mut b = WbiBlock::new(4);
    let mut wire = VecDeque::with_capacity(4 * sharers + 16);
    let mut delivers = 0u64;
    let a0 = alloc::snapshot();
    let t = Instant::now();
    let mut round = 0;
    while delivers < target {
        for n in 0..sharers {
            if b.line_state(n).is_none() {
                wire.extend(b.read_req(n));
                delivers += pump(&mut wire, |m| deliver_wbi(&mut b, m));
            }
        }
        wire.extend(b.write_req(round % sharers));
        delivers += pump(&mut wire, |m| deliver_wbi(&mut b, m));
        round += 1;
    }
    let r = finish(t, a0, delivers);
    b.check_quiescent()
        .and_then(|()| b.check_single_writer())
        .map_err(|e| format!("wbi replay ({sharers} sharers): {e}"))?;
    Ok(r)
}

fn deliver_wbi(b: &mut WbiBlock, m: ssmp_wbi::WbiMsg) -> Vec<ssmp_wbi::WbiMsg> {
    let (out, fx) = b.deliver(m);
    black_box(fx);
    out
}

/// An `UpdateList` with 16 members: enrolment, then write-global rounds
/// that push each write to every member, then every member leaves. One
/// op is one `deliver`.
pub fn ric(target: u64) -> Result<Replay, String> {
    const MEMBERS: usize = 16;
    let mut u = UpdateList::new(4);
    let mut wire = VecDeque::with_capacity(4 * MEMBERS);
    let mut delivers = 0u64;
    let deliver = |u: &mut UpdateList, m| {
        let (out, fx) = u.deliver(m);
        black_box(fx);
        out
    };
    let a0 = alloc::snapshot();
    let t = Instant::now();
    for n in 0..MEMBERS {
        wire.extend(u.read_update(n));
        delivers += pump(&mut wire, |m| deliver(&mut u, m));
    }
    let mut i = 0u64;
    while delivers < target {
        wire.extend(u.write_global((i % MEMBERS as u64) as usize, (i % 4) as u8, i, i + 1));
        delivers += pump(&mut wire, |m| deliver(&mut u, m));
        i += 1;
    }
    u.check_list().map_err(|e| format!("ric replay: {e}"))?;
    for n in 0..MEMBERS {
        wire.extend(u.leave(n));
        delivers += pump(&mut wire, |m| deliver(&mut u, m));
    }
    let r = finish(t, a0, delivers);
    if !u.is_empty() || !wire.is_empty() {
        return Err(format!(
            "ric replay: {} members left after leaving",
            u.len()
        ));
    }
    Ok(r)
}

/// A `LockQueue` with chains of 8 write requesters: all request, then
/// each releases to its successor in turn. One op is one `deliver`
/// (request and release calls are inside the timed loop).
pub fn cbl(target: u64) -> Result<Replay, String> {
    const CHAIN: usize = 8;
    let mut q = LockQueue::new(4);
    let mut wire = VecDeque::with_capacity(4 * CHAIN);
    let mut delivers = 0u64;
    let deliver = |q: &mut LockQueue, m| {
        let (out, fx) = q.deliver(m);
        black_box(fx);
        out
    };
    let a0 = alloc::snapshot();
    let t = Instant::now();
    while delivers < target {
        for n in 0..CHAIN {
            wire.extend(q.request(n, LockMode::Write));
            delivers += pump(&mut wire, |m| deliver(&mut q, m));
        }
        q.check_exclusion()
            .map_err(|e| format!("cbl replay: {e}"))?;
        for n in 0..CHAIN {
            let (out, fx) = q.release(n);
            black_box(fx);
            wire.extend(out);
            delivers += pump(&mut wire, |m| deliver(&mut q, m));
        }
    }
    let r = finish(t, a0, delivers);
    if !q.is_quiescent_free() {
        return Err("cbl replay: lock queue not quiescent and free".into());
    }
    q.check_quiescent()
        .map_err(|e| format!("cbl replay: {e}"))?;
    Ok(r)
}

/// A `WriteBuffer` with up to 8 writes in flight: push, issue, and ack
/// the oldest. One op is one push plus its ack.
pub fn wbuf(target: u64) -> Result<Replay, String> {
    const IN_FLIGHT: usize = 8;
    let mut wb = WriteBuffer::unbounded();
    let mut ids = VecDeque::with_capacity(IN_FLIGHT + 1);
    let mut acked = 0u64;
    let a0 = alloc::snapshot();
    let t = Instant::now();
    for i in 0..target {
        match wb.push(SharedAddr::new((i % 32) as usize, (i % 4) as u8), i) {
            Enqueue::Accepted(id) => ids.push_back(id),
            Enqueue::Full => return Err("wbuf replay: unbounded buffer reported full".into()),
        }
        black_box(wb.next_unissued());
        if ids.len() > IN_FLIGHT {
            acked += wb.ack(ids.pop_front().expect("in flight")) as u64;
        }
    }
    while let Some(id) = ids.pop_front() {
        acked += wb.ack(id) as u64;
    }
    let r = finish(t, a0, target);
    if !wb.is_drained() || acked != target {
        return Err(format!(
            "wbuf replay: {acked} of {target} acked, {} pending",
            wb.pending()
        ));
    }
    Ok(r)
}
