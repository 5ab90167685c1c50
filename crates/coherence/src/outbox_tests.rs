//! The outbox path of every backend against the transcript the
//! `Vec`-returning `deliver` produced before the trait appended into
//! caller-owned buffers (`testdata/deliveries.txt`), and WBI's own
//! `Vec`-returning surface against the trait.

use std::any::Any;
use std::collections::VecDeque;
use std::fmt::Write as _;

use ssmp_core::addr::NodeId;
use ssmp_core::cbl::Endpoint;
use ssmp_wbi::{WbiBlock, WbiKind};

use crate::{
    CohEffect, CohKind, CohMsg, CoherenceProtocol, DragonBlock, DragonKind, MesiBlock, MesiKind,
};

/// One scripted action.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Processor read: a hit is silent, a miss sends the read request.
    Read(NodeId),
    /// Processor store of `value` to `word`: a hit is silent, a miss
    /// sends the write request and stores once ownership arrives.
    Write(NodeId, u8, u64),
    /// The node replaces its line (WBI only).
    Replace(NodeId),
    /// Delivers every in-flight message, FIFO.
    Pump,
    /// Delivers the next `k` in-flight messages, FIFO.
    Deliver(usize),
    /// Loses the next in-flight message.
    Drop,
    /// Delivers a message that was never sent (a stray wire).
    Inject(CohMsg),
}

use Step::*;

/// How a script reaches a backend.
trait Path {
    fn backend(&mut self) -> &mut dyn CoherenceProtocol;
    fn read_req(&mut self, n: NodeId) -> Vec<CohMsg>;
    fn write_req(&mut self, n: NodeId, word: u8, value: u64) -> Vec<CohMsg>;
    fn deliver(&mut self, m: CohMsg) -> (Vec<CohMsg>, Vec<CohEffect>);
    /// The node replaces its line (WBI only).
    fn replace(&mut self, n: NodeId) -> Vec<CohMsg>;
}

/// Entries the caller already had in its buffers; the outbox must keep
/// them, in front of whatever it appends.
const PRIOR_MSGS: [CohMsg; 2] = [
    CohMsg {
        src: Endpoint::Node(usize::MAX),
        dst: Endpoint::Dir,
        words: 0,
        kind: CohKind::Wbi(WbiKind::WbRace),
    },
    CohMsg {
        src: Endpoint::Dir,
        dst: Endpoint::Node(usize::MAX),
        words: 0,
        kind: CohKind::Dragon(DragonKind::UpdAck),
    },
];
const PRIOR_EFFECT: CohEffect = CohEffect::Downgraded { node: usize::MAX };

/// What a call appended after the caller's `prior` entries, which must
/// have survived untouched.
fn appended<T: PartialEq + std::fmt::Debug>(prior: &[T], mut buf: Vec<T>) -> Vec<T> {
    assert_eq!(
        &buf[..prior.len()],
        prior,
        "outbox lost the caller's entries"
    );
    buf.split_off(prior.len())
}

/// The messages `f` appends to a buffer already holding [`PRIOR_MSGS`].
fn appended_msgs(f: impl FnOnce(&mut Vec<CohMsg>)) -> Vec<CohMsg> {
    let mut msgs = PRIOR_MSGS.to_vec();
    f(&mut msgs);
    appended(&PRIOR_MSGS, msgs)
}

/// The trait path: every call appends to buffers that already hold
/// [`PRIOR_MSGS`] / [`PRIOR_EFFECT`].
struct Outbox<B>(B);

impl<B: CoherenceProtocol + 'static> Path for Outbox<B> {
    fn backend(&mut self) -> &mut dyn CoherenceProtocol {
        &mut self.0
    }

    fn read_req(&mut self, n: NodeId) -> Vec<CohMsg> {
        appended_msgs(|msgs| self.0.read_req(n, msgs))
    }

    fn write_req(&mut self, n: NodeId, word: u8, value: u64) -> Vec<CohMsg> {
        appended_msgs(|msgs| self.0.write_req(n, word, value, msgs))
    }

    fn deliver(&mut self, m: CohMsg) -> (Vec<CohMsg>, Vec<CohEffect>) {
        let mut effects = vec![PRIOR_EFFECT];
        let msgs = appended_msgs(|msgs| self.0.deliver(m, msgs, &mut effects));
        (msgs, appended(&[PRIOR_EFFECT], effects))
    }

    fn replace(&mut self, n: NodeId) -> Vec<CohMsg> {
        let b: &mut dyn Any = &mut self.0;
        let b = b
            .downcast_mut::<WbiBlock>()
            .expect("only WBI lines replace");
        b.replace(n).into_iter().map(CohMsg::from).collect()
    }
}

/// WBI's inherent `Vec`-returning surface, converted message by message.
struct VecPath(WbiBlock);

impl Path for VecPath {
    fn backend(&mut self) -> &mut dyn CoherenceProtocol {
        &mut self.0
    }

    fn read_req(&mut self, n: NodeId) -> Vec<CohMsg> {
        self.0.read_req(n).into_iter().map(CohMsg::from).collect()
    }

    fn write_req(&mut self, n: NodeId, _word: u8, _value: u64) -> Vec<CohMsg> {
        self.0.write_req(n).into_iter().map(CohMsg::from).collect()
    }

    fn deliver(&mut self, m: CohMsg) -> (Vec<CohMsg>, Vec<CohEffect>) {
        let CohKind::Wbi(kind) = m.kind else {
            panic!("WBI script delivered {m:?}")
        };
        let (msgs, effects) = self.0.deliver(ssmp_wbi::WbiMsg {
            src: m.src,
            dst: m.dst,
            words: m.words,
            kind,
        });
        (
            msgs.into_iter().map(CohMsg::from).collect(),
            effects.into_iter().map(CohEffect::from).collect(),
        )
    }

    fn replace(&mut self, n: NodeId) -> Vec<CohMsg> {
        self.0.replace(n).into_iter().map(CohMsg::from).collect()
    }
}

/// Runs `script` through `path`, one transcript line per request and
/// delivery.
fn transcript<P: Path>(path: &mut P, script: &[Step]) -> String {
    let mut out = String::new();
    let mut wire: VecDeque<CohMsg> = VecDeque::new();
    let mut stores: Vec<(NodeId, u8, u64)> = Vec::new();
    let deliver_one = |path: &mut P,
                       stores: &mut Vec<(NodeId, u8, u64)>,
                       m: CohMsg,
                       wire: &mut VecDeque<CohMsg>,
                       out: &mut String| {
        let (msgs, effects) = path.deliver(m);
        writeln!(out, "deliver {m:?} => {msgs:?} | {effects:?}").unwrap();
        for e in &effects {
            if let CohEffect::FilledExcl { node, .. } | CohEffect::UpgradeGranted { node } = *e {
                if let Some(i) = stores.iter().position(|s| s.0 == node) {
                    let (n, w, v) = stores.remove(i);
                    assert!(path.backend().local_write(n, w, v), "store after ownership");
                }
            }
        }
        wire.extend(msgs);
    };
    for &s in script {
        match s {
            Read(n) => {
                if path.backend().local_read(n, 0).is_none() {
                    let msgs = path.read_req(n);
                    writeln!(out, "read {n} => {msgs:?}").unwrap();
                    wire.extend(msgs);
                }
            }
            Write(n, w, v) => {
                if !path.backend().local_write(n, w, v) {
                    let msgs = path.write_req(n, w, v);
                    writeln!(out, "write {n} => {msgs:?}").unwrap();
                    wire.extend(msgs);
                    stores.push((n, w, v));
                }
            }
            Replace(n) => {
                let msgs = path.replace(n);
                writeln!(out, "replace {n} => {msgs:?}").unwrap();
                wire.extend(msgs);
            }
            Pump => {
                while let Some(m) = wire.pop_front() {
                    deliver_one(path, &mut stores, m, &mut wire, &mut out);
                }
            }
            Deliver(k) => {
                for _ in 0..k {
                    let m = wire.pop_front().expect("message in flight");
                    deliver_one(path, &mut stores, m, &mut wire, &mut out);
                }
            }
            Drop => {
                let m = wire.pop_front().expect("message in flight");
                writeln!(out, "drop {m:?}").unwrap();
            }
            Inject(m) => deliver_one(path, &mut stores, m, &mut wire, &mut out),
        }
    }
    assert!(wire.is_empty(), "script leaves messages in flight");
    path.backend()
        .check_quiescent()
        .expect("script ends quiescent");
    out
}

/// Shared reads, a contended write, upgrades, owner recalls for reads and
/// writes, queued transactions, a spurious invalidation after a silent
/// replacement, a write-back, and a write-back/fetch race.
const WBI_SCRIPT: &[Step] = &[
    Read(0),
    Pump,
    Read(1),
    Read(2),
    Pump,
    Write(1, 0, 11),
    Pump,
    Read(3),
    Pump,
    Write(0, 1, 12),
    Pump,
    Write(2, 2, 13),
    Write(3, 3, 14),
    Read(1),
    Pump,
    Read(0),
    Pump,
    Replace(0),
    Write(0, 0, 15),
    Pump,
    Replace(0),
    Pump,
    Write(1, 1, 16),
    Pump,
    Read(2),
    Replace(1),
    Pump,
    Read(3),
    Write(3, 2, 17),
    Pump,
];

/// The MESI extension: exclusive-clean grants and silent upgrades.
const WBI_MESI_SCRIPT: &[Step] = &[
    Read(0),
    Pump,
    Write(0, 0, 21),
    Read(1),
    Pump,
    Write(1, 1, 22),
    Pump,
    Read(2),
    Read(3),
    Pump,
];

/// A `Dir_1` directory: every new reader evicts the recorded one.
const WBI_LIMIT_SCRIPT: &[Step] = &[
    Read(0),
    Pump,
    Read(1),
    Pump,
    Read(2),
    Read(3),
    Pump,
    Write(0, 0, 31),
    Pump,
];

/// Exclusive-clean reads, silent upgrades, broadcast snoops, upgrades,
/// owner recalls for reads and writes, queued transactions, and a recall
/// that finds no line (its fetch lost, a stray one answering instead).
const MESI_SCRIPT: &[Step] = &[
    Read(0),
    Pump,
    Write(0, 0, 41),
    Read(1),
    Pump,
    Write(2, 1, 42),
    Pump,
    Read(0),
    Read(3),
    Pump,
    Write(3, 2, 43),
    Write(0, 3, 44),
    Read(1),
    Pump,
    Read(2),
    Pump,
    Write(2, 0, 45),
    Pump,
    Read(1),
    Deliver(1),
    Drop,
    Inject(CohMsg {
        src: Endpoint::Dir,
        dst: Endpoint::Node(3),
        words: 1,
        kind: CohKind::Mesi(MesiKind::Fetch { shared: true }),
    }),
    Pump,
    Write(1, 0, 46),
    Pump,
];

/// Exclusive-clean fills, owner recalls, write hits multicast to sharers,
/// write misses that fill, sole-holder completions, and queued updates.
const DRAGON_SCRIPT: &[Step] = &[
    Read(0),
    Pump,
    Write(0, 0, 51),
    Read(1),
    Pump,
    Write(1, 1, 52),
    Pump,
    Write(2, 2, 53),
    Pump,
    Read(3),
    Write(3, 3, 54),
    Write(0, 0, 55),
    Pump,
];

/// A Dragon recall that finds no line: the fetch to the exclusive owner
/// is lost and a stray one reaches a node without a copy.
const DRAGON_STRAY_SCRIPT: &[Step] = &[
    Read(0),
    Pump,
    Read(1),
    Deliver(1),
    Drop,
    Inject(CohMsg {
        src: Endpoint::Dir,
        dst: Endpoint::Node(2),
        words: 1,
        kind: CohKind::Dragon(DragonKind::Fetch),
    }),
    Pump,
];

/// The WBI scripts: `(heading, fresh block, script)`.
fn wbi_cases() -> [(&'static str, WbiBlock, &'static [Step]); 3] {
    [
        ("wbi", WbiBlock::new(4), WBI_SCRIPT),
        ("wbi-mesi", WbiBlock::with_mesi(4), WBI_MESI_SCRIPT),
        (
            "wbi-limit1",
            WbiBlock::with_sharer_limit(4, 1),
            WBI_LIMIT_SCRIPT,
        ),
    ]
}

/// The full outbox transcript: each backend's script under its heading.
fn outbox_transcripts() -> String {
    let mut out = String::new();
    for (name, b, script) in wbi_cases() {
        writeln!(out, "## {name}").unwrap();
        out.push_str(&transcript(&mut Outbox(b), script));
    }
    let mut section = |name: &str, t: String| {
        writeln!(out, "## {name}").unwrap();
        out.push_str(&t);
    };
    section(
        "mesi",
        transcript(&mut Outbox(MesiBlock::new(4, 4)), MESI_SCRIPT),
    );
    section(
        "dragon",
        transcript(&mut Outbox(DragonBlock::new(4)), DRAGON_SCRIPT),
    );
    section(
        "dragon-stray",
        transcript(&mut Outbox(DragonBlock::new(4)), DRAGON_STRAY_SCRIPT),
    );
    out
}

const VEC_TRANSCRIPT: &str = include_str!("testdata/deliveries.txt");

#[test]
fn outbox_appends_exactly_what_vec_deliver_returned() {
    // every request and delivery also checks that the caller's prior
    // buffer entries survive in front of what was appended
    let got = outbox_transcripts();
    for (i, (g, w)) in got.lines().zip(VEC_TRANSCRIPT.lines()).enumerate() {
        assert_eq!(g, w, "transcript line {} differs", i + 1);
    }
    assert_eq!(got.lines().count(), VEC_TRANSCRIPT.lines().count());
}

#[test]
fn transcript_delivers_every_message_kind() {
    let kinds: &[(&str, &[&str])] = &[
        (
            "Wbi",
            &[
                "ReadReq",
                "WriteReq",
                "DataShared",
                "DataExclClean",
                "DataExcl { upgrade: true }",
                "DataExcl { upgrade: false }",
                "Inv",
                "InvAck",
                "FetchShared",
                "FetchExcl",
                "OwnerData { downgrade: true }",
                "OwnerData { downgrade: false }",
                "WriteBack",
                "WbRace",
            ],
        ),
        (
            "Mesi",
            &[
                "BusRd",
                "BusRdx",
                "BusUpgr",
                "DataShared",
                "DataExcl",
                "DataExclClean",
                "UpgradeAck",
                "Inv",
                "InvAck",
                "Fetch { shared: true }",
                "Fetch { shared: false }",
                "FetchMiss",
                "OwnerData { downgrade: true }",
                "OwnerData { downgrade: false }",
            ],
        ),
        (
            "Dragon",
            &[
                "Rd",
                "FillShared",
                "FillExcl",
                "Fetch",
                "FetchMiss",
                "OwnerData",
                "Upd {",
                "UpdFill {",
                "UpdPush {",
                "UpdAck",
                "UpdDone {",
            ],
        ),
    ];
    for (family, names) in kinds {
        for name in *names {
            let tag = format!("kind: {family}({name}");
            assert!(
                VEC_TRANSCRIPT
                    .lines()
                    .filter(|l| l.starts_with("deliver "))
                    .any(|l| l.split(" => ").next().unwrap().contains(&tag)),
                "no {family} {name} delivery in the transcript"
            );
        }
    }
}

#[test]
fn wbi_vec_surface_and_trait_agree_one_for_one() {
    for ((name, a, script), (_, b, _)) in wbi_cases().into_iter().zip(wbi_cases()) {
        let direct = transcript(&mut VecPath(a), script);
        let trait_path = transcript(&mut Outbox(b), script);
        for (i, (d, t)) in direct.lines().zip(trait_path.lines()).enumerate() {
            assert_eq!(d, t, "{name}: line {} differs", i + 1);
        }
        assert_eq!(direct.lines().count(), trait_path.lines().count(), "{name}");
    }
}
