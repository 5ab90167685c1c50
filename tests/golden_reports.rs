//! Golden `--json` reports for the WBI directory and the RIC update path.
//!
//! Each case runs the work-queue or hotspot model and renders the report
//! exactly as `ssmp run --json` prints it, then the final shared-memory and
//! lock-block views. The committed files under `tests/golden/` pin those
//! bytes, so a change to how the directory stores its sharers and lines, or
//! to how RIC update lists and node caches are stored, must reproduce them
//! exactly.
//!
//! WBI cases: the node counts put sharer ids on both sides of the 64-bit
//! word boundaries (128 and 256 nodes; the machine only accepts powers of
//! two), and the variants cover the limited directory (victim choice) and
//! the MESI exclusive-clean extension. The hotspot cases aim half of all
//! references at one block, so its sharer set spans every word and each
//! write fans out to many sharers.
//!
//! RIC cases: the paper's bc-cbl machine at 64 nodes pushes every
//! `WRITE-GLOBAL` down an update list of up to 63 readers, and at 128
//! nodes the list holds member ids past 64; the `ric` protocol preset at
//! 128 nodes runs the hotspot's read-global traffic; one bc-cbl
//! case arms the profiler, span stitcher and sanitizer (the report embeds
//! the first two); one runs a duplicate-and-delay fault plan with
//! retransmission on.
//!
//! Synchronization-line cases: every run on a TTS-lock machine also moves
//! the lock blocks, and every software-barrier run the barrier flag,
//! through the write-invalidate protocol. Work-queue on the MESI preset at
//! 64 nodes and on the Dragon preset at 16 (profile, spans and sanitizer
//! armed) put those lines beside trait-based data coherence; SOR on the
//! WBI preset spins on the software-barrier flag; the sync model on the
//! `Q-backoff` preset exercises exponential backoff; and SOR on WBI under
//! a duplicate-and-delay fault plan with retransmission retransmits lock
//! and flag wires (its fault log, which names each faulted message's
//! kind, is pinned too).
//!
//! Armed WBI cases: work-queue on the WBI preset at 16 nodes with profile,
//! spans and sanitizer armed, where TTS invalidations wake spinning lock
//! waiters and the span stitcher adopts them as causal edges; and the SOR
//! fault plan above plus 0.2% drops with the same three observers armed.
//! Duplicate-and-delay alone never loses a wire, so nothing would be
//! retransmitted; the drops make the machine retransmit requests, and
//! because WBI does not yet regenerate a lost reply the run ends in a
//! watchdog report with wires still undelivered and spans still open.
//! Both outcomes reach the span health block, which the golden pins.

use ssmp::engine::Json;
use ssmp::machine::RetryPolicy;
use ssmp::machine::{Machine, MachineConfig, Report, Workload};
use ssmp::net::FaultConfig;
use ssmp::workload::{
    Grain, Hotspot, HotspotParams, Sor, SorParams, SyncModel, SyncParams, WorkQueue,
    WorkQueueParams,
};

/// `(name, workload, nodes, size, variant)`, where `size` is the
/// work-queue's task count, the hotspot's references per node, SOR's
/// sweep count or the sync model's tasks per node; the golden file is
/// `tests/golden/report_<name>.json`.
const CASES: &[(&str, Model, usize, usize, Variant)] = &[
    ("wq-wbi-128", Model::WorkQueue, 128, 24, Variant::FullMap),
    ("wq-wbi-256", Model::WorkQueue, 256, 8, Variant::FullMap),
    ("wq-wbi-mesi-128", Model::WorkQueue, 128, 24, Variant::Mesi),
    ("hot-wbi-128", Model::Hotspot, 128, 64, Variant::FullMap),
    (
        "hot-wbi-limit8-128",
        Model::Hotspot,
        128,
        64,
        Variant::SharerLimit(8),
    ),
    ("hot-wbi-mesi-128", Model::Hotspot, 128, 64, Variant::Mesi),
    ("wq-bccbl-64", Model::WorkQueue, 64, 128, Variant::BcCbl),
    ("wq-bccbl-128", Model::WorkQueue, 128, 128, Variant::BcCbl),
    ("hot-ric-128", Model::Hotspot, 128, 64, Variant::Ric),
    (
        "wq-bccbl-armed-16",
        Model::WorkQueue,
        16,
        64,
        Variant::BcCblArmed,
    ),
    (
        "wq-bccbl-faults-16",
        Model::WorkQueue,
        16,
        64,
        Variant::BcCblFaults,
    ),
    ("wq-mesi-64", Model::WorkQueue, 64, 32, Variant::MesiPreset),
    (
        "wq-dragon-armed-16",
        Model::WorkQueue,
        16,
        64,
        Variant::DragonArmed,
    ),
    ("sor-wbi-16", Model::Sor, 16, 4, Variant::FullMap),
    ("sync-backoff-16", Model::Sync, 16, 8, Variant::Backoff),
    ("sor-wbi-faults-16", Model::Sor, 16, 4, Variant::WbiFaults),
    (
        "wq-wbi-armed-16",
        Model::WorkQueue,
        16,
        64,
        Variant::WbiArmed,
    ),
    (
        "sor-wbi-faults-armed-16",
        Model::Sor,
        16,
        4,
        Variant::WbiFaultsArmed,
    ),
];

/// Which workload a case runs.
#[derive(Debug, Clone, Copy)]
enum Model {
    /// Work-queue, strong scaling, fine grain.
    WorkQueue,
    /// Hotspot: half of all references hit block 0.
    Hotspot,
    /// Red/black SOR, padded layout, software-barrier phases.
    Sor,
    /// The lock-centric sync model at medium grain.
    Sync,
}

/// Which machine a case runs.
#[derive(Debug, Clone, Copy)]
enum Variant {
    /// Full-map WBI directory (`MachineConfig::wbi`).
    FullMap,
    /// A `Dir_i` limited WBI directory that evicts on overflow.
    SharerLimit(usize),
    /// The MESI exclusive-clean extension.
    Mesi,
    /// The paper's machine: buffered consistency, RIC, CBL
    /// (`MachineConfig::bc_cbl`).
    BcCbl,
    /// RIC data coherence on TTS locks (`MachineConfig::ric`).
    Ric,
    /// `BcCbl` with `--profile --spans --check` armed.
    BcCblArmed,
    /// `BcCbl` with `--dup-prob 0.05 --delay-prob 0.05 --retry`.
    BcCblFaults,
    /// The `mesi` protocol preset (`MachineConfig::mesi`).
    MesiPreset,
    /// The `dragon` protocol preset with `--profile --spans --check`.
    DragonArmed,
    /// TTS locks with exponential backoff (`MachineConfig::wbi_backoff`).
    Backoff,
    /// `FullMap` with `--dup-prob 0.05 --delay-prob 0.05 --retry`.
    WbiFaults,
    /// `FullMap` with `--profile --spans --check`.
    WbiArmed,
    /// `WbiFaults` plus `--drop-prob 0.002`, with `--profile --spans
    /// --check`.
    WbiFaultsArmed,
}

fn run(model: Model, nodes: usize, size: usize, variant: Variant) -> Report {
    let armed = matches!(
        variant,
        Variant::BcCblArmed | Variant::DragonArmed | Variant::WbiArmed | Variant::WbiFaultsArmed
    );
    let mut cfg = match variant {
        Variant::FullMap
        | Variant::SharerLimit(_)
        | Variant::Mesi
        | Variant::WbiFaults
        | Variant::WbiArmed
        | Variant::WbiFaultsArmed => MachineConfig::wbi(nodes),
        Variant::BcCbl | Variant::BcCblArmed | Variant::BcCblFaults => MachineConfig::bc_cbl(nodes),
        Variant::Ric => MachineConfig::ric(nodes),
        Variant::MesiPreset => MachineConfig::mesi(nodes),
        Variant::DragonArmed => MachineConfig::dragon(nodes),
        Variant::Backoff => MachineConfig::wbi_backoff(nodes),
    };
    match variant {
        Variant::SharerLimit(limit) => cfg.wbi_sharer_limit = Some(limit),
        Variant::Mesi => cfg.wbi_mesi = true,
        Variant::BcCblFaults | Variant::WbiFaults | Variant::WbiFaultsArmed => {
            let drop = match variant {
                Variant::WbiFaultsArmed => 0.002,
                _ => 0.0,
            };
            cfg.fault = Some(FaultConfig::uniform(0xFA, drop, 0.05, 0.05));
            cfg.retry = RetryPolicy::enabled();
        }
        _ => {}
    }
    let (wl, locks): (Box<dyn Workload>, usize) = match model {
        Model::WorkQueue => {
            let wl = WorkQueue::new(WorkQueueParams::strong(nodes, Grain::Fine, size));
            let locks = wl.machine_locks();
            (Box::new(wl), locks)
        }
        Model::Hotspot => {
            let wl = Hotspot::new(HotspotParams::new(nodes, 0.5, size));
            let locks = wl.machine_locks();
            (Box::new(wl), locks)
        }
        Model::Sor => {
            let wl = Sor::new(SorParams::new(nodes, size));
            let locks = wl.machine_locks();
            (Box::new(wl), locks)
        }
        Model::Sync => {
            let wl = SyncModel::new(SyncParams::paper(nodes, Grain::Medium.refs(), size));
            let locks = wl.machine_locks();
            (Box::new(wl), locks)
        }
    };
    Machine::builder(cfg)
        .workload(wl)
        .locks(locks)
        .profile(armed)
        .spans(armed)
        .check(armed)
        .build()
        .expect("valid config")
        .run()
}

fn words(rows: &[Vec<u64>]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| Json::Arr(r.iter().map(|&w| Json::num(w)).collect()))
            .collect(),
    )
}

fn golden_path(name: &str) -> String {
    format!(
        "{}/tests/golden/report_{name}.json",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// Checks case `name` against its golden file and returns its report.
fn check(name: &str) -> Report {
    let &(_, model, nodes, size, variant) =
        CASES.iter().find(|c| c.0 == name).expect("case is listed");
    let want = std::fs::read_to_string(golden_path(name)).expect("golden file is committed");
    let r = run(model, nodes, size, variant);
    let got = format!(
        "{}\n{}\n{}\n",
        r.to_json().render(),
        words(&r.shared_memory).render(),
        words(&r.lock_blocks).render()
    );
    assert!(
        got == want,
        "{name}: report differs from tests/golden/report_{name}.json\n got: {got}\nwant: {want}"
    );
    r
}

#[test]
fn work_queue_128_nodes_matches_golden() {
    check("wq-wbi-128");
}

#[test]
fn work_queue_256_nodes_matches_golden() {
    check("wq-wbi-256");
}

#[test]
fn work_queue_mesi_matches_golden() {
    check("wq-wbi-mesi-128");
}

#[test]
fn hotspot_full_map_matches_golden() {
    check("hot-wbi-128");
}

#[test]
fn hotspot_sharer_limit_matches_golden() {
    check("hot-wbi-limit8-128");
}

#[test]
fn hotspot_mesi_matches_golden() {
    check("hot-wbi-mesi-128");
}

#[test]
fn ric_work_queue_64_nodes_matches_golden() {
    check("wq-bccbl-64");
}

#[test]
fn ric_work_queue_128_nodes_matches_golden() {
    check("wq-bccbl-128");
}

#[test]
fn ric_hotspot_128_nodes_matches_golden() {
    check("hot-ric-128");
}

#[test]
fn ric_armed_observers_match_golden() {
    check("wq-bccbl-armed-16");
}

#[test]
fn ric_dup_delay_with_retry_matches_golden() {
    check("wq-bccbl-faults-16");
}

#[test]
fn mesi_work_queue_64_nodes_matches_golden() {
    check("wq-mesi-64");
}

#[test]
fn dragon_armed_observers_match_golden() {
    check("wq-dragon-armed-16");
}

#[test]
fn sor_software_barrier_flag_matches_golden() {
    let r = check("sor-wbi-16");
    assert!(
        r.counters.get("barrier.sw.notify") > 0,
        "SOR on WBI must release its phases through the software-barrier flag"
    );
}

#[test]
fn sync_backoff_matches_golden() {
    check("sync-backoff-16");
}

#[test]
fn sor_dup_delay_with_retry_matches_golden() {
    // The report does not show which fault stream a message drew from;
    // the replayable fault log does: each entry is a message kind (data,
    // lock or flag line), its sequence number within that kind, and the
    // fault applied.
    let r = check("sor-wbi-faults-16");
    let got: String = r
        .fault_log
        .iter()
        .map(|f| format!("{:?} {} {:?}\n", f.kind, f.nth, f.op))
        .collect();
    let name = "tests/golden/faultlog_sor-wbi-faults-16.txt";
    let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(path).expect("golden file is committed");
    assert!(got == want, "fault log differs from {name}");
}

#[test]
fn wbi_armed_observers_match_golden() {
    let r = check("wq-wbi-armed-16");
    let h = r.spans.as_ref().expect("spans armed").health();
    assert!(
        h.adopted > 0,
        "TTS invalidation wakeups must be adopted as causal edges: {h:?}"
    );
}

#[test]
fn sor_dup_delay_armed_observers_match_golden() {
    let r = check("sor-wbi-faults-armed-16");
    let h = r.spans.as_ref().expect("spans armed").health();
    let retries: u64 = r.retries.iter().sum();
    assert!(
        retries > 0 && h.undelivered_wires > 0 && h.orphan_begins > 0,
        "the fault plan must retransmit and strand wires: retries {retries}, {h:?}"
    );
    assert!(h.adopted > 0, "{h:?}");
}
