//! The correctness gate: every run's simulated statistics must be exact.
//!
//! A fingerprint is the handful of simulated counts a host-speed change
//! must leave untouched. `fingerprints.tsv` records them for seeds 0–15;
//! a run at a recorded seed must match the record, and every run must
//! repeat the first run of its process exactly. A run also fails on a
//! deadlock, a sanitizer violation, span stitching that is not clean, or
//! (armed runs) a report that differs from the unarmed twin's.

use ssmp_engine::stats::keys;
use ssmp_machine::Report;

/// The simulated statistics a run is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Completion time, simulated cycles.
    pub completion: u64,
    /// Events dispatched by the engine.
    pub events: u64,
    /// All protocol messages.
    pub msgs: u64,
    /// WBI directory messages.
    pub wbi: u64,
    /// RIC update-list messages.
    pub ric: u64,
    /// CBL lock-queue messages.
    pub cbl: u64,
    /// Hardware-barrier messages.
    pub bar: u64,
    /// Private-data miss messages.
    pub priv_: u64,
    /// Lock acquisitions.
    pub locks: u64,
    /// Packets injected into the network.
    pub packets: u64,
    /// Operations completed over all nodes.
    pub ops: u64,
}

impl Fingerprint {
    /// Column names of `fingerprints.tsv`, after `workload` and `seed`.
    pub const COLUMNS: [&'static str; 11] = [
        "completion",
        "events",
        "msgs",
        "wbi",
        "ric",
        "cbl",
        "bar",
        "priv",
        "locks",
        "packets",
        "ops",
    ];

    /// Reads the fingerprint off a report.
    pub fn of(r: &Report) -> Self {
        Self {
            completion: r.completion,
            events: r.events_popped,
            msgs: r.total_messages(),
            wbi: r.messages(keys::MSG_WBI_PREFIX),
            ric: r.messages(keys::MSG_RIC_PREFIX),
            cbl: r.messages(keys::MSG_CBL_PREFIX),
            bar: r.messages(keys::MSG_BAR_PREFIX),
            priv_: r.messages(keys::MSG_PRIV),
            locks: r.lock_wait.count(),
            packets: r.net_packets,
            ops: r.ops_completed.iter().sum(),
        }
    }

    fn values(&self) -> [u64; 11] {
        [
            self.completion,
            self.events,
            self.msgs,
            self.wbi,
            self.ric,
            self.cbl,
            self.bar,
            self.priv_,
            self.locks,
            self.packets,
            self.ops,
        ]
    }

    fn from_values(v: [u64; 11]) -> Self {
        let [completion, events, msgs, wbi, ric, cbl, bar, priv_, locks, packets, ops] = v;
        Self {
            completion,
            events,
            msgs,
            wbi,
            ric,
            cbl,
            bar,
            priv_,
            locks,
            packets,
            ops,
        }
    }

    /// One `fingerprints.tsv` row.
    pub fn row(&self, workload: &str, seed: u64) -> String {
        let mut s = format!("{workload}\t{seed}");
        for v in self.values() {
            s.push_str(&format!("\t{v}"));
        }
        s
    }
}

/// The recorded fingerprints.
pub const RECORDED: &str = include_str!("../fingerprints.tsv");

/// Looks up the fingerprint recorded for `workload` at `seed` in `table`
/// (`None` for a seed the table does not hold: such runs are checked for
/// invariants only).
pub fn lookup(table: &str, workload: &str, seed: u64) -> Option<Fingerprint> {
    table
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .find_map(|l| {
            let cols: Vec<&str> = l.split('\t').collect();
            if cols.len() != 2 + Fingerprint::COLUMNS.len()
                || cols[0] != workload
                || cols[1].parse::<u64>().ok()? != seed
            {
                return None;
            }
            let mut v = [0u64; 11];
            for (slot, c) in v.iter_mut().zip(&cols[2..]) {
                *slot = c.parse().ok()?;
            }
            Some(Fingerprint::from_values(v))
        })
}

/// Judges every run of one process and counts failures.
#[derive(Debug)]
pub struct Gate {
    expected: Option<Fingerprint>,
    first: Option<Fingerprint>,
    /// Runs judged.
    pub attempted: u64,
    /// Runs that failed a check.
    pub failed: u64,
    /// The first few failure reasons.
    pub errors: Vec<String>,
}

impl Gate {
    /// A gate for `workload` at `seed`, checked against `table`.
    pub fn new(table: &str, workload: &str, seed: u64) -> Self {
        Self {
            expected: lookup(table, workload, seed),
            first: None,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    /// Whether this seed has a recorded fingerprint.
    pub fn has_record(&self) -> bool {
        self.expected.is_some()
    }

    /// Judges one run. `twin` is the unarmed run of the same seed when
    /// `report` had observers armed; the two must be identical apart from
    /// the observers' own outputs.
    pub fn judge(&mut self, report: &Report, twin: Option<&Report>) -> bool {
        self.attempted += 1;
        match self.verdict(report, twin) {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 4 {
                    self.errors.push(e);
                }
                false
            }
        }
    }

    fn verdict(&mut self, report: &Report, twin: Option<&Report>) -> Result<(), String> {
        if let Some(d) = &report.deadlock {
            return Err(format!("deadlock: {}", d.render()));
        }
        if let Some(v) = report.violations.first() {
            return Err(format!(
                "{} sanitizer violation(s), first: {v:?}",
                report.violations.len()
            ));
        }
        if let Some(h) = report.spans.as_ref().map(|s| s.health()) {
            if !h.clean() {
                return Err(format!("span stitching not clean: {h:?}"));
            }
        }
        if let Some(t) = twin {
            let mut bare = report.clone();
            bare.profile = None;
            bare.spans = None;
            if format!("{bare:?}") != format!("{t:?}") {
                return Err("armed report differs from the unarmed report".into());
            }
        }
        let fp = Fingerprint::of(report);
        if let Some(e) = self.expected {
            if fp != e {
                return Err(format!("fingerprint {fp:?} differs from recorded {e:?}"));
            }
        }
        match self.first {
            None => self.first = Some(fp),
            Some(f) if f != fp => {
                return Err(format!("fingerprint {fp:?} differs from first run {f:?}"))
            }
            Some(_) => {}
        }
        Ok(())
    }
}
