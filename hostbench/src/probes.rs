//! The traced run's probes: a trace sink that attributes host time to
//! event families, and a timing shim around the workload generator.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use ssmp_engine::{Cycle, Family, SimRng, TraceEvent, TraceSink};
use ssmp_machine::{Op, Workload};

/// Host time attributed per event family.
#[derive(Debug, Clone, Default)]
pub struct HostShare {
    last: Option<(Instant, Family)>,
    /// Time per family, indexed by `Family as usize`.
    pub by_family: [Duration; Family::ALL.len()],
    /// Events seen.
    pub events: u64,
}

impl HostShare {
    /// Time attributed to any family.
    pub fn attributed(&self) -> Duration {
        self.by_family.iter().sum()
    }

    /// Time attributed to `f`.
    pub fn of(&self, f: Family) -> Duration {
        self.by_family[f as usize]
    }
}

/// Stamps `Instant` at each event and charges the host time between two
/// consecutive events to the family of the event that opens the gap. The
/// time before the first event and after the last is left to the caller's
/// `untraced` row, so the rows sum exactly to the timed `run()`.
pub struct HostShareSink(pub Rc<RefCell<HostShare>>);

impl TraceSink for HostShareSink {
    fn record(&mut self, ev: &TraceEvent) {
        let now = Instant::now();
        let mut s = self.0.borrow_mut();
        if let Some((t, f)) = s.last {
            s.by_family[f as usize] += now - t;
        }
        s.last = Some((now, ev.family));
        s.events += 1;
    }
}

/// Calls and time spent in the workload generator.
#[derive(Debug, Clone, Copy, Default)]
pub struct GenStats {
    /// `next_op` calls.
    pub calls: u64,
    /// Calls that returned an operation.
    pub ops: u64,
    /// Time inside `next_op`, including one clock read per call.
    pub time: Duration,
}

/// Wraps a workload and times every `next_op` call.
pub struct TimedWorkload {
    inner: Box<dyn Workload>,
    stats: Rc<RefCell<GenStats>>,
}

impl TimedWorkload {
    /// Wraps `inner`; the stats land in `stats`.
    pub fn new(inner: Box<dyn Workload>, stats: Rc<RefCell<GenStats>>) -> Self {
        Self { inner, stats }
    }
}

impl Workload for TimedWorkload {
    fn next_op(&mut self, node: usize, now: Cycle, rng: &mut SimRng) -> Option<Op> {
        let t = Instant::now();
        let op = self.inner.next_op(node, now, rng);
        let dt = t.elapsed();
        let mut s = self.stats.borrow_mut();
        s.calls += 1;
        s.ops += op.is_some() as u64;
        s.time += dt;
        op
    }

    fn nodes(&self) -> usize {
        self.inner.nodes()
    }
}
