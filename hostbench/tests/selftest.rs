//! Self-tests of the benchmark at tiny sizes: every workload runs, every
//! metric `BENCHMARK.json` names is printed once with its unit, the
//! host-share rows sum to 1, fingerprints repeat exactly, and a wrong
//! recorded fingerprint fails the run.

use std::time::Duration;

use ssmp_engine::Json;
use ssmp_hostbench::fingerprint::{lookup, Fingerprint, Gate, RECORDED};
use ssmp_hostbench::ledger::Ledger;
use ssmp_hostbench::runs::{end_to_end, per_layer, record};
use ssmp_hostbench::spec::{Arm, Spec, SPECS};

fn tiny(s: &Spec) -> Spec {
    Spec {
        nodes: 8,
        tasks: 24,
        observer: (4, 12),
        ..*s
    }
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
    doc.get(list)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn assert_prints_exactly(ledger: &Ledger, list: &str) {
    let printed: Vec<(String, String)> = ledger
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    let mut want = declared(list);
    let mut got = printed.clone();
    want.sort();
    got.sort();
    assert_eq!(got, want, "{list} metrics printed vs declared");
    for m in &ledger.metrics {
        assert!(m.samples >= 1, "{} has no samples", m.name);
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
    let json = ledger.json(true, 1, 0);
    assert!(Json::parse(&json).is_ok(), "result line is JSON: {json}");
}

#[test]
fn declared_workloads_exist_and_every_workload_is_recorded() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    for n in names {
        assert!(Spec::by_name(n).is_some(), "{n} is not a workload");
    }
    for s in &SPECS {
        for seed in 0..16 {
            assert!(
                lookup(RECORDED, s.name, seed).is_some(),
                "{} seed {seed}",
                s.name
            );
            assert!(lookup(RECORDED, &s.observer_label(), seed).is_some());
        }
    }
}

#[test]
fn end_to_end_prints_every_metric_at_tiny_sizes() {
    for s in &SPECS {
        let out = end_to_end(&tiny(s), 7, Duration::from_millis(20), "");
        assert_eq!(out.failed, 0, "{}: {:?}", s.name, out.errors);
        assert!(out.attempted >= 3);
        assert_prints_exactly(&out.ledger, "end_to_end");
    }
}

#[test]
fn traced_run_prints_every_layer_metric_and_shares_sum_to_one() {
    for s in &SPECS {
        let out = per_layer(&tiny(s), 7, Duration::from_millis(20), "");
        assert_eq!(out.failed, 0, "{}: {:?}", s.name, out.errors);
        assert_prints_exactly(&out.ledger, "per_layer");
        let shares: f64 = out
            .ledger
            .metrics
            .iter()
            .filter(|m| m.name.starts_with("host_share."))
            .map(|m| m.value)
            .sum();
        assert!(
            (shares - 1.0).abs() < 1e-9,
            "{}: shares sum to {shares}",
            s.name
        );
    }
}

#[test]
fn tiny_runs_repeat_exactly() {
    for s in &SPECS {
        let t = tiny(s);
        assert_eq!(record(&t, 3), record(&t, 3), "{}", s.name);
        assert_ne!(
            record(&t, 3),
            record(&t, 4),
            "{}: seed has no effect",
            s.name
        );
    }
}

#[test]
fn wrong_recorded_fingerprint_fails_the_run() {
    let t = tiny(&SPECS[1]);
    let report = t.build(5, Arm::NONE).run();
    let fp = Fingerprint::of(&report);
    let right = fp.row(t.name, 5);
    let mut ok = Gate::new(&right, t.name, 5);
    assert!(ok.has_record());
    assert!(ok.judge(&report, None));

    let wrong = Fingerprint {
        msgs: fp.msgs + 1,
        ..fp
    }
    .row(t.name, 5);
    let mut bad = Gate::new(&wrong, t.name, 5);
    assert!(!bad.judge(&report, None));
    assert_eq!((bad.attempted, bad.failed), (1, 1));
    // Every measured run fails; the observer runs have no record here.
    let outcome = end_to_end(&t, 5, Duration::from_millis(1), &wrong);
    assert!(outcome.failed >= 3, "{outcome:?}");
}

#[test]
fn armed_report_must_match_its_unarmed_twin() {
    let t = tiny(&SPECS[3]);
    let armed = t.build(2, Arm::ALL).run();
    let plain = t.build(2, Arm::NONE).run();
    assert!(Gate::new("", t.name, 2).judge(&armed, Some(&plain)));
    let other = t.build(3, Arm::NONE).run();
    assert!(!Gate::new("", t.name, 2).judge(&armed, Some(&other)));
}
