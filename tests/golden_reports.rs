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

use ssmp::engine::Json;
use ssmp::machine::RetryPolicy;
use ssmp::machine::{Machine, MachineConfig, Report, Workload};
use ssmp::net::FaultConfig;
use ssmp::workload::{Grain, Hotspot, HotspotParams, WorkQueue, WorkQueueParams};

/// `(name, workload, nodes, size, variant)`, where `size` is the
/// work-queue's task count or the hotspot's references per node; the
/// golden file is `tests/golden/report_<name>.json`.
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
];

/// Which workload a case runs.
#[derive(Debug, Clone, Copy)]
enum Model {
    /// Work-queue, strong scaling, fine grain.
    WorkQueue,
    /// Hotspot: half of all references hit block 0.
    Hotspot,
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
}

fn run(model: Model, nodes: usize, size: usize, variant: Variant) -> Report {
    let armed = matches!(variant, Variant::BcCblArmed);
    let mut cfg = match variant {
        Variant::FullMap | Variant::SharerLimit(_) | Variant::Mesi => MachineConfig::wbi(nodes),
        Variant::BcCbl | Variant::BcCblArmed | Variant::BcCblFaults => MachineConfig::bc_cbl(nodes),
        Variant::Ric => MachineConfig::ric(nodes),
    };
    match variant {
        Variant::SharerLimit(limit) => cfg.wbi_sharer_limit = Some(limit),
        Variant::Mesi => cfg.wbi_mesi = true,
        Variant::BcCblFaults => {
            cfg.fault = Some(FaultConfig::uniform(0xFA, 0.0, 0.05, 0.05));
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

/// The golden text of one case: the `--json` report, then the final
/// coherent shared-memory and lock-block contents, one document a line.
fn render(model: Model, nodes: usize, size: usize, variant: Variant) -> String {
    let r = run(model, nodes, size, variant);
    format!(
        "{}\n{}\n{}\n",
        r.to_json().render(),
        words(&r.shared_memory).render(),
        words(&r.lock_blocks).render()
    )
}

fn golden_path(name: &str) -> String {
    format!(
        "{}/tests/golden/report_{name}.json",
        env!("CARGO_MANIFEST_DIR")
    )
}

fn check(name: &str) {
    let &(_, model, nodes, size, variant) =
        CASES.iter().find(|c| c.0 == name).expect("case is listed");
    let want = std::fs::read_to_string(golden_path(name)).expect("golden file is committed");
    let got = render(model, nodes, size, variant);
    assert!(
        got == want,
        "{name}: report differs from tests/golden/report_{name}.json\n got: {got}\nwant: {want}"
    );
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
