//! **Protocol zoo**: the cross-protocol coherence sweep — every
//! shared-data backend behind the `CoherenceProtocol` trait (the paper's
//! reader-initiated RIC, the WBI write-invalidate directory, snooping
//! MESI, and the Dragon write-update protocol) over the same workloads.
//!
//! Two workloads bracket the design space: `hotspot` (contended shared
//! counters — the protocols' steady-state traffic shapes) and `sor-packed`
//! (false-sharing boundary layout — where invalidate and update protocols
//! diverge hardest: invalidate backends ping-pong whole lines while
//! update backends multicast single words).
//!
//! Every measurement is a product of the deterministic simulation —
//! completion cycles, message counts by protocol family, payload words,
//! invalidations delivered, update pushes applied — so the emitted
//! `ssmp-sweep-v1` artifact is byte-for-byte reproducible; CI regenerates
//! it and diffs against the committed `BENCH_protocols.json` with
//! `ssmp diff --gate` (every key is in its exact-match class).
//!
//! Usage: `protocols [--quick] [--json] [--jobs N] [--seed N] [--out FILE]`

use ssmp_bench::exp::{ExpArgs, Experiment, PointOutput, SweepResult};
use ssmp_bench::Table;
use ssmp_core::addr::Geometry;
use ssmp_engine::stats::keys;
use ssmp_machine::{Machine, MachineConfig, Workload};
use ssmp_workload::{Grain, Hotspot, HotspotParams, Sor, SorParams};

const PROTOCOLS: &[&str] = &["ric", "wbi", "mesi", "dragon"];
const WORKLOADS: &[&str] = &["hotspot", "sor-packed"];

/// Problem sizes (full / `--quick`).
struct Sizes {
    nodes: usize,
    sor_sweeps: usize,
}

impl Sizes {
    fn pick(quick: bool) -> Self {
        if quick {
            Sizes {
                nodes: 8,
                sor_sweeps: 4,
            }
        } else {
            Sizes {
                nodes: 16,
                sor_sweeps: 8,
            }
        }
    }
}

fn config_for(protocol: &str, nodes: usize) -> MachineConfig {
    match protocol {
        "ric" => MachineConfig::ric(nodes),
        "wbi" => MachineConfig::wbi(nodes),
        "mesi" => MachineConfig::mesi(nodes),
        "dragon" => MachineConfig::dragon(nodes),
        other => unreachable!("protocol '{other}' not registered"),
    }
}

/// The counter prefix holding a protocol's own data-coherence messages.
fn msg_prefix(protocol: &str) -> &'static str {
    match protocol {
        "ric" => keys::MSG_RIC_PREFIX,
        "wbi" => keys::MSG_WBI_PREFIX,
        "mesi" => keys::MSG_MESI_PREFIX,
        "dragon" => keys::MSG_DRAGON_PREFIX,
        other => unreachable!("protocol '{other}' not registered"),
    }
}

fn workload_for(
    name: &str,
    cfg: &mut MachineConfig,
    s: &Sizes,
    seed: u64,
) -> (Box<dyn Workload>, usize) {
    let nodes = s.nodes;
    match name {
        "hotspot" => {
            let mut p = HotspotParams::new(nodes, 0.2, Grain::Fine.refs());
            p.seed = seed;
            let wl = Hotspot::new(p);
            let locks = wl.machine_locks();
            (Box::new(wl), locks)
        }
        "sor-packed" => {
            cfg.geometry = Geometry::new(
                nodes,
                cfg.geometry.block_words,
                nodes.max(cfg.geometry.shared_blocks),
            );
            let wl = Sor::new(SorParams::packed(nodes, s.sor_sweeps));
            let locks = wl.machine_locks();
            (Box::new(wl), locks)
        }
        other => unreachable!("workload '{other}' not registered"),
    }
}

fn main() {
    let args = ExpArgs::parse();

    let mut exp = Experiment::new("protocols").seed(args.seed);
    for &wl in WORKLOADS {
        for &proto in PROTOCOLS {
            exp.point_with(
                format!("{wl}/{proto}"),
                &[
                    ("workload", wl.to_string()),
                    ("protocol", proto.to_string()),
                ],
                move |ctx| {
                    let s = Sizes::pick(args.quick);
                    let mut cfg = config_for(proto, s.nodes);
                    let (workload, locks) = workload_for(wl, &mut cfg, &s, ctx.seed);
                    let r = Machine::builder(cfg)
                        .workload(workload)
                        .locks(locks)
                        .check(true)
                        .build()
                        .expect("protocol configs are valid")
                        .run();
                    assert_eq!(r.protocol, proto, "report must carry the chosen protocol");
                    if let Some(v) = r.violations.first() {
                        panic!("{}", v.render());
                    }
                    let prefix = msg_prefix(proto);
                    PointOutput::from_report(r, |r| {
                        let invalidations =
                            r.counters.get("wbi.invalidated") + r.counters.get("mesi.invalidated");
                        let updates = r.counters.get("dragon.update_applied")
                            + r.counters.get("msg.ric.update_push");
                        vec![
                            ("completion".into(), r.completion as f64),
                            ("messages".into(), r.total_messages() as f64),
                            ("data_msgs".into(), r.messages(prefix) as f64),
                            ("net_words".into(), r.net_words as f64),
                            ("invalidations".into(), invalidations as f64),
                            ("updates".into(), updates as f64),
                        ]
                    })
                },
            );
        }
    }

    let sweep = exp.run(&args.opts());
    sweep.expect_ok();

    let table = protocols_table(&sweep);
    args.emit(&[table], &sweep);
}

fn protocols_table(sweep: &SweepResult) -> Table {
    let mut t = Table::new(
        "Protocol zoo: coherence backends per workload (sanitizer armed)",
        &[
            "completion",
            "messages",
            "data msgs",
            "net words",
            "invals",
            "updates",
        ],
    );
    for &wl in WORKLOADS {
        for &proto in PROTOCOLS {
            let label = format!("{wl}/{proto}");
            t.row(
                label.clone(),
                vec![
                    sweep.value(&label, "completion"),
                    sweep.value(&label, "messages"),
                    sweep.value(&label, "data_msgs"),
                    sweep.value(&label, "net_words"),
                    sweep.value(&label, "invalidations"),
                    sweep.value(&label, "updates"),
                ],
            );
        }
    }
    t.note("invalidate backends (wbi, mesi) count invalidations; update backends (ric, dragon) count word pushes");
    t.note("hotspot takes no locks, so its rows isolate the data protocols; sor's TTS locks and barrier flag ride the wbi substrate, so sor invals include lock-spin invalidations and the wbi row's data msgs include lock traffic");
    t.note("every key is deterministic — perfguard holds BENCH_protocols.json to exact equality");
    t
}
