//! The two kinds of run: end-to-end (tracing off) and traced (per layer).
//!
//! Both are a closed loop with one client: one simulation at a time on
//! one thread, each starting when the last ends, repeated with the same
//! seed until the phase's share of `--seconds` is spent, and reported as
//! medians.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

use ssmp_engine::{Family, MemorySink, TraceFilter, Tracer};
use ssmp_machine::Report;
use ssmp_profile::Profile;
use ssmp_span::SpanSet;

use crate::alloc;
use crate::calib;
use crate::fingerprint::{Fingerprint, Gate};
use crate::ledger::{fastest_tenth, median, peak_rss_mb, Ledger};
use crate::probes::{GenStats, HostShare, HostShareSink, TimedWorkload};
use crate::replay::{self, Replay};
use crate::spec::{Arm, Spec};

/// Fewest measured simulations per phase, however short `--seconds` is.
const MIN_RUNS: usize = 3;
/// Set-up samples taken before each measured run, and at most in all.
const SETUP_BATCH: usize = 32;
const SETUP_MAX: usize = 4096;
/// Operations per layer replay, and replays per layer.
const REPLAY_OPS: u64 = 400_000;
const REPLAYS: usize = 3;

/// What a run prints.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The metrics.
    pub ledger: Ledger,
    /// Simulations and replays checked.
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
    /// The first failure reasons.
    pub errors: Vec<String>,
    /// Whether the measured size's fingerprint is recorded for this seed.
    pub recorded: bool,
}

impl Outcome {
    /// Totals the gates' verdicts plus `checks` further checks, of which
    /// those in `errors` failed.
    fn new(ledger: Ledger, gates: &[&Gate], checks: u64, errors: Vec<String>) -> Self {
        let mut all: Vec<String> = gates.iter().flat_map(|g| g.errors.clone()).collect();
        let failed = gates.iter().map(|g| g.failed).sum::<u64>() + errors.len() as u64;
        all.extend(errors);
        Self {
            ledger,
            attempted: gates.iter().map(|g| g.attempted).sum::<u64>() + checks,
            failed,
            errors: all,
            recorded: gates.first().is_some_and(|g| g.has_record()),
        }
    }
}

/// Builds (untimed) and runs (timed) one machine.
fn timed_run(spec: &Spec, seed: u64, arm: Arm) -> (Report, f64) {
    let m = spec.build(seed, arm);
    let t = Instant::now();
    let r = m.run();
    (r, t.elapsed().as_secs_f64())
}

/// Whether a phase that must end `share` of the way into `budget` may
/// stop, having taken `done` samples.
fn phase_over(start: Instant, budget: Duration, share: f64, done: usize, min: usize) -> bool {
    done >= min && start.elapsed() >= budget.mul_f64(share)
}

/// Times `SETUP_BATCH` more set-ups (workload construction plus
/// `Machine::builder(..).build()`), up to `SETUP_MAX` in all, after a
/// reference-kernel run of `before` seconds, and runs the kernel again.
/// Batches run before every measured simulation, so the samples spread
/// over the whole run instead of one window of it. Pushes the set-up times
/// scaled to the reference host (see [`calib`]) and returns the second
/// kernel time, which the next simulation uses as its `before`.
fn sample_setup(spec: &Spec, seed: u64, setup: &mut Vec<f64>, before: f64) -> f64 {
    let batch: Vec<f64> = (0..SETUP_BATCH.min(SETUP_MAX - setup.len()))
        .map(|_| {
            let t = Instant::now();
            let m = spec.build(seed, spec.arm);
            let secs = t.elapsed().as_secs_f64();
            drop(m);
            secs
        })
        .collect();
    let after = calib::kernel();
    setup.extend(batch.into_iter().map(|s| calib::scale(s, before, after)));
    after
}

/// Runs one machine as [`timed_run`] does, after a reference-kernel run
/// of `before` seconds, and runs the kernel again. Returns the report, the
/// wall time, the wall time scaled to the reference host, and the second
/// kernel time, which the next timed step uses as its `before`.
fn scaled_run(spec: &Spec, seed: u64, arm: Arm, before: f64) -> (Report, f64, f64, f64) {
    let (r, wall) = timed_run(spec, seed, arm);
    let after = calib::kernel();
    (r, wall, calib::scale(wall, before, after), after)
}

/// The end-to-end run: set-up, `run()` time, host ns per message, peak
/// RSS and observer slowdown, tracing off. Every timed step sits between
/// two runs of the reference kernel, which scale it to the reference host.
pub fn end_to_end(spec: &Spec, seed: u64, budget: Duration, table: &str) -> Outcome {
    let start = Instant::now();
    let mut gate = Gate::new(table, spec.name, seed);
    let mut side = Gate::new(table, &spec.observer_label(), seed);
    let obs = spec.observer_run();
    let mut setup = Vec::new();

    // One untimed simulation warms the caches and sets the peak RSS, read
    // before the reference kernel and the observer runs add their own.
    let (warm, _) = timed_run(spec, seed, spec.arm);
    gate.judge(&warm, None);
    let rss = peak_rss_mb();

    // On the observed workload each run is armed and has an unarmed twin;
    // otherwise the last third of the budget times the observer run
    // unarmed and armed.
    let main_share = if spec.observed() { 1.0 } else { 0.67 };
    let (mut wall_s, mut run_s) = (Vec::new(), Vec::new());
    let (mut plain_s, mut armed_s) = (Vec::new(), Vec::new());
    let mut msgs = 0;
    let mut kernel_s = calib::kernel();
    while !phase_over(start, budget, main_share, run_s.len(), MIN_RUNS) {
        let before = sample_setup(spec, seed, &mut setup, kernel_s);
        let (report, wall, scaled, after) = scaled_run(spec, seed, spec.arm, before);
        kernel_s = after;
        let twin = spec.observed().then(|| {
            let (r, _, s, after) = scaled_run(spec, seed, Arm::NONE, kernel_s);
            kernel_s = after;
            plain_s.push(s);
            armed_s.push(scaled);
            r
        });
        gate.judge(&report, twin.as_ref());
        msgs = report.total_messages();
        wall_s.push(wall);
        run_s.push(scaled);
    }
    while !spec.observed() && !phase_over(start, budget, 1.0, armed_s.len(), MIN_RUNS) {
        let before = sample_setup(spec, seed, &mut setup, kernel_s);
        let (plain, _, s0, mid) = scaled_run(&obs, seed, Arm::NONE, before);
        let (armed, _, s1, after) = scaled_run(&obs, seed, Arm::ALL, mid);
        kernel_s = after;
        side.judge(&plain, None);
        side.judge(&armed, Some(&plain));
        plain_s.push(s0);
        armed_s.push(s1);
    }

    let mut l = Ledger::default();
    l.put("setup_s", median(&setup), "s", setup.len());
    let run = median(&run_s);
    l.put("run_s", run, "s", run_s.len());
    l.put(
        "host_ns_per_msg",
        run * 1e9 / msgs.max(1) as f64,
        "ns",
        run_s.len(),
    );
    l.put("peak_rss_mb", rss, "MB", 1);
    let slowdown = median(&armed_s) / median(&plain_s);
    l.put("observer_slowdown", slowdown, "ratio", armed_s.len());
    eprintln!(
        "wall run() time: median {:.6} s, fastest tenth {:.6} s",
        median(&wall_s),
        fastest_tenth(&wall_s)
    );
    Outcome::new(l, &[&gate, &side], 0, Vec::new())
}

/// The traced run: the per-layer ledger.
pub fn per_layer(spec: &Spec, seed: u64, budget: Duration, table: &str) -> Outcome {
    let start = Instant::now();
    let mut gate = Gate::new(table, spec.name, seed);
    let mut side = Gate::new(table, &spec.observer_label(), seed);
    let obs = spec.observer_run();
    let mut errors = Vec::new();
    let mut l = Ledger::default();

    // (a) Untraced runs under the counting allocator: allocations and the
    // machine's peak live heap, plus the untraced time trace.overhead
    // divides by.
    let mut plain_s = Vec::new();
    let mut allocs_per_msg = Vec::new();
    let mut peak_live = Vec::new();
    let mut last = None;
    while !phase_over(start, budget, 0.2, plain_s.len(), 2) {
        let before = alloc::snapshot();
        alloc::reset_peak();
        let m = spec.build(seed, spec.arm);
        let a0 = alloc::snapshot();
        let t = Instant::now();
        let r = m.run();
        plain_s.push(t.elapsed().as_secs_f64());
        let a1 = alloc::snapshot();
        allocs_per_msg.push((a1.allocs - a0.allocs) as f64 / r.total_messages().max(1) as f64);
        peak_live.push(alloc::mb(a1.peak.saturating_sub(before.live)));
        gate.judge(&r, None);
        last = Some(r);
    }
    let r = last.expect("at least one run");
    let fp = Fingerprint::of(&r);

    // (b) Traced runs: host time per event family and the generator shim.
    let mut traced_s = Vec::new();
    let mut share = HostShare::default();
    let gen = Rc::new(RefCell::new(GenStats::default()));
    while !phase_over(start, budget, 0.45, traced_s.len(), 2) {
        let hs = Rc::new(RefCell::new(HostShare::default()));
        let mut tracer = Tracer::new(TraceFilter::all());
        tracer.add_sink(HostShareSink(hs.clone()));
        let shim = gen.clone();
        let m = spec
            .builder_with(seed, spec.arm, tracer, |w| {
                Box::new(TimedWorkload::new(w, shim))
            })
            .build()
            .expect("benchmark machine configurations are valid");
        let t = Instant::now();
        let r = m.run();
        traced_s.push(t.elapsed().as_secs_f64());
        gate.judge(&r, None);
        let hs = hs.borrow();
        for (sum, d) in share.by_family.iter_mut().zip(hs.by_family) {
            *sum += d;
        }
        share.events = hs.events;
    }
    let traced_total: f64 = traced_s.iter().sum();
    let runs = traced_s.len();
    let gen = *gen.borrow();

    l.put("engine.events", fp.events as f64, "count", 1);
    l.put(
        "engine.events_per_msg",
        fp.events as f64 / fp.msgs.max(1) as f64,
        "ratio",
        1,
    );
    l.put("net.packets", fp.packets as f64, "count", 1);
    l.put("net.queueing_cycles", r.net_queueing as f64, "cycles", 1);
    l.put("msgs.wbi", fp.wbi as f64, "count", 1);
    l.put("msgs.ric", fp.ric as f64, "count", 1);
    l.put("msgs.cbl", fp.cbl as f64, "count", 1);
    l.put("msgs.priv", fp.priv_ as f64, "count", 1);
    l.put(
        "workload.ops",
        (gen.ops / runs as u64) as f64,
        "count",
        runs,
    );
    l.put(
        "workload.next_op_ns",
        gen.time.as_nanos() as f64 / gen.calls.max(1) as f64,
        "ns",
        runs,
    );
    l.put(
        "machine.allocs_per_msg",
        median(&allocs_per_msg),
        "allocs/msg",
        plain_s.len(),
    );
    l.put(
        "machine.peak_live_mb",
        median(&peak_live),
        "MB",
        plain_s.len(),
    );
    for (name, f) in [
        ("wbi", Family::Wbi),
        ("ric", Family::Ric),
        ("cbl", Family::Cbl),
        ("bar", Family::Bar),
        ("priv", Family::Priv),
        ("node", Family::Node),
        ("net", Family::Net),
    ] {
        let s = share.of(f).as_secs_f64() / traced_total;
        l.put(format!("host_share.{name}"), s, "share", runs);
    }
    for f in [Family::Sem, Family::Mesi, Family::Dragon] {
        if share.of(f) > Duration::ZERO {
            errors.push(format!("unexpected {f:?} events in a work-queue run"));
        }
    }
    let untraced = (traced_total - share.attributed().as_secs_f64()) / traced_total;
    l.put("host_share.untraced", untraced, "share", runs);
    l.put("trace.events", share.events as f64, "count", 1);
    let overhead = fastest_tenth(&traced_s) / fastest_tenth(&plain_s);
    l.put("trace.overhead", overhead, "ratio", runs);

    // (c) Each observer armed alone against the unarmed observer run,
    // same process, same seed.
    let mut obs_plain = Vec::new();
    let mut obs_armed: [Vec<f64>; 3] = Default::default();
    let arms = [
        Arm {
            profile: true,
            ..Arm::NONE
        },
        Arm {
            spans: true,
            ..Arm::NONE
        },
        Arm {
            check: true,
            ..Arm::NONE
        },
    ];
    while !phase_over(start, budget, 0.65, obs_plain.len(), 1) {
        let (plain, s0) = timed_run(&obs, seed, Arm::NONE);
        side.judge(&plain, None);
        obs_plain.push(s0);
        for (v, arm) in obs_armed.iter_mut().zip(arms) {
            let (r, s) = timed_run(&obs, seed, arm);
            side.judge(&r, Some(&plain));
            v.push(s);
        }
    }
    for (name, v) in ["profile", "span", "check"].iter().zip(&obs_armed) {
        let slowdown = fastest_tenth(v) / fastest_tenth(&obs_plain);
        l.put(format!("{name}.slowdown"), slowdown, "ratio", v.len());
    }

    // (d) Observer folds over one captured event vector.
    let (sink, captured) = MemorySink::new();
    let mut tracer = Tracer::new(TraceFilter::all());
    tracer.add_sink(sink);
    let m = obs
        .builder_with(seed, Arm::NONE, tracer, |w| w)
        .build()
        .expect("benchmark machine configurations are valid");
    side.judge(&m.run(), None);
    let events = std::mem::take(&mut *captured.borrow_mut());
    let n = events.len().max(1) as f64;
    let t = Instant::now();
    let mut p = Profile::new();
    for e in &events {
        p.fold(e);
    }
    l.put(
        "profile.fold_ns_per_event",
        t.elapsed().as_nanos() as f64 / n,
        "ns",
        1,
    );
    black_box(p);
    let before = alloc::snapshot();
    alloc::reset_peak();
    let t = Instant::now();
    let mut sp = SpanSet::new();
    for e in &events {
        sp.fold(e);
    }
    l.put(
        "span.fold_ns_per_event",
        t.elapsed().as_nanos() as f64 / n,
        "ns",
        1,
    );
    l.put(
        "span.peak_live_mb",
        alloc::mb(alloc::snapshot().peak.saturating_sub(before.live)),
        "MB",
        1,
    );
    if !sp.health().clean() {
        errors.push(format!("offline span fold not clean: {:?}", sp.health()));
    }
    drop((sp, events));

    // (e) Layer replays.
    let mut replays =
        |name: &str, allocs_metric: Option<&str>, f: &dyn Fn() -> Result<Replay, String>| {
            let mut ns = Vec::new();
            let mut allocs = Vec::new();
            for _ in 0..REPLAYS {
                match f() {
                    Ok(r) => {
                        ns.push(r.ns_per_op);
                        allocs.push(r.allocs_per_op);
                    }
                    Err(e) => errors.push(e),
                }
            }
            l.put(name, fastest_tenth(&ns), "ns", ns.len());
            if let Some(a) = allocs_metric {
                l.put(a, median(&allocs), "allocs/op", allocs.len());
            }
        };
    replays("engine.wheel_ns_per_op", None, &|| {
        replay::wheel(seed, REPLAY_OPS)
    });
    replays("net.omega_send_ns", None, &|| {
        replay::omega(spec.nodes, seed, REPLAY_OPS)
    });
    replays(
        "wbi.deliver_ns.s16",
        Some("wbi.allocs_per_deliver"),
        &|| replay::wbi(16, REPLAY_OPS),
    );
    replays("wbi.deliver_ns.s512", None, &|| {
        replay::wbi(512, REPLAY_OPS)
    });
    replays("ric.deliver_ns", Some("ric.allocs_per_deliver"), &|| {
        replay::ric(REPLAY_OPS)
    });
    replays("cbl.deliver_ns", Some("cbl.allocs_per_deliver"), &|| {
        replay::cbl(REPLAY_OPS)
    });
    replays("wbuf.push_ack_ns", None, &|| replay::wbuf(REPLAY_OPS));

    // Checks beyond the gates: the family check, the offline span fold,
    // and every replay.
    let checks = 2 + 7 * REPLAYS as u64;
    Outcome::new(l, &[&gate, &side], checks, errors)
}

/// The `fingerprints.tsv` rows of `spec` at `seed`: the measured size
/// and the observer size.
pub fn record(spec: &Spec, seed: u64) -> Vec<String> {
    let fp = |s: &Spec| Fingerprint::of(&s.build(seed, Arm::NONE).run());
    vec![
        fp(spec).row(spec.name, seed),
        fp(&spec.observer_run()).row(&spec.observer_label(), seed),
    ]
}
