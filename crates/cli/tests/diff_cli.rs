//! Differential observability at the CLI boundary: `ssmp diff` on real
//! artifacts produced by real runs.
//!
//! Acceptance invariants pinned here:
//!
//! 1. **Byte determinism** — diffing the same pair of artifacts twice
//!    renders byte-identical `ssmp-diff-v1` documents.
//! 2. **Exact-sum movement** — the stall-attribution movement table sums
//!    to the total node cycles on *both* sides, so the row deltas sum
//!    exactly to the total cycle delta.
//! 3. **Self-diff is empty** — `ssmp diff a a` reports zero deltas and
//!    passes `--gate`.
//! 4. **Gate semantics** — a drifted deterministic artifact fails
//!    `--gate` with exit 1; `sweep --diff-against` gates the same way.
//! 5. **Committed baselines** — each of the four `BENCH_*.json` files
//!    passes the `--gate` self-diff CI runs; a tampered exact key fails
//!    and is named; an unreadable or wrong-kind artifact exits 2.
//!
//! Plus the satellite surfaces: the `--config` deprecation warning,
//! `trace stats --json`, and `-` (stdin) operands for analyze/spans/diff.

use std::path::PathBuf;
use std::process::{Command, Stdio};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ssmp-cli"))
}

fn run_cli(args: &[&str]) -> std::process::Output {
    cli().args(args).output().expect("spawn ssmp-cli")
}

fn run_cli_ok(args: &[&str]) -> Vec<u8> {
    let out = run_cli(args);
    assert!(
        out.status.success(),
        "ssmp-cli {:?} failed:\n{}",
        args,
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

fn tmp(name: &str) -> (PathBuf, String) {
    let p = std::env::temp_dir().join(format!("ssmp-diff-cli-{}-{name}", std::process::id()));
    let s = p.to_str().expect("utf-8 temp path").to_string();
    (p, s)
}

/// A profiled + spanned hotspot report for one protocol.
fn hotspot_report(protocol: &str) -> Vec<u8> {
    run_cli_ok(&[
        "run",
        "--workload",
        "hotspot",
        "--protocol",
        protocol,
        "--nodes",
        "8",
        "--grain",
        "fine",
        "--hot",
        "0.6",
        "--profile",
        "--spans",
        "--json",
    ])
}

#[test]
fn diff_wbi_vs_dragon_is_deterministic_and_exact_sum() {
    let (wbi_p, wbi) = tmp("wbi.json");
    let (dragon_p, dragon) = tmp("dragon.json");
    std::fs::write(&wbi_p, hotspot_report("wbi")).unwrap();
    std::fs::write(&dragon_p, hotspot_report("dragon")).unwrap();

    let (d1_p, d1) = tmp("d1.json");
    let (d2_p, d2) = tmp("d2.json");
    let narrative = run_cli_ok(&["diff", &wbi, &dragon, "--out", &d1]);
    run_cli_ok(&["diff", &wbi, &dragon, "--out", &d2]);
    let doc1 = std::fs::read(&d1_p).unwrap();
    let doc2 = std::fs::read(&d2_p).unwrap();
    assert_eq!(
        doc1, doc2,
        "ssmp-diff-v1 document must be byte-deterministic"
    );

    let text = String::from_utf8(narrative).unwrap();
    assert!(text.contains("protocol: wbi -> dragon"), "{text}");
    assert!(text.contains("stall movement (exact-sum"), "{text}");
    assert!(text.contains("top movers (cycles):"), "{text}");

    // Exact-sum acceptance check, straight off the emitted artifact:
    // Σ movement rows == total node cycles, independently on each side.
    let doc = String::from_utf8(doc1).unwrap();
    let json = ssmp_engine::Json::parse(&doc).expect("diff artifact parses");
    assert_eq!(
        json.get("schema").and_then(|s| s.as_str()),
        Some("ssmp-diff-v1")
    );
    let profile = json
        .get("report")
        .and_then(|r| r.get("profile"))
        .expect("report diff embeds the profile diff");
    let cycles = profile.get("cycles").unwrap();
    let (mut sum_a, mut sum_b) = (0u64, 0u64);
    for row in profile
        .get("movement")
        .and_then(|m| m.as_array())
        .expect("movement rows")
    {
        sum_a += row.get("a").and_then(|v| v.as_u64()).unwrap();
        sum_b += row.get("b").and_then(|v| v.as_u64()).unwrap();
    }
    assert_eq!(Some(sum_a), cycles.get("a").and_then(|v| v.as_u64()));
    assert_eq!(Some(sum_b), cycles.get("b").and_then(|v| v.as_u64()));

    for p in [wbi_p, dragon_p, d1_p, d2_p] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn self_diff_reports_zero_deltas_and_passes_gate() {
    let (a_p, a) = tmp("self.json");
    std::fs::write(&a_p, hotspot_report("ric")).unwrap();
    let out = run_cli_ok(&["diff", &a, &a, "--gate"]);
    let text = String::from_utf8(out).unwrap();
    assert!(text.contains("identical: no deltas"), "{text}");
    std::fs::remove_file(a_p).ok();
}

#[test]
fn gate_fails_on_deterministic_drift() {
    let (a_p, a) = tmp("gate-a.json");
    let (b_p, b) = tmp("gate-b.json");
    std::fs::write(&a_p, hotspot_report("wbi")).unwrap();
    std::fs::write(&b_p, hotspot_report("dragon")).unwrap();
    let out = run_cli(&["diff", &a, &b, "--gate"]);
    assert_eq!(out.status.code(), Some(1), "gate must exit 1 on drift");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("deterministic artifacts must be identical"),
        "{err}"
    );
    std::fs::remove_file(a_p).ok();
    std::fs::remove_file(b_p).ok();
}

#[test]
fn diff_rejects_kind_mismatch_and_bad_arity() {
    let (rep_p, rep) = tmp("kind-report.json");
    std::fs::write(&rep_p, hotspot_report("ric")).unwrap();
    let (sw_p, sw) = tmp("kind-sweep.json");
    run_cli_ok(&[
        "sweep", "--points", "table3:4", "--quick", "--jobs", "2", "--json", "--out", &sw,
    ]);
    let out = run_cli(&["diff", &rep, &sw]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("cannot diff a report artifact against a sweep artifact"),
        "{err}"
    );
    let out = run_cli(&["diff", &rep]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("exactly two artifact paths"),
        "arity error expected"
    );
    std::fs::remove_file(rep_p).ok();
    std::fs::remove_file(sw_p).ok();
}

/// A committed `BENCH_*.json` baseline at the repository root.
fn baseline(name: &str) -> String {
    let p = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    p.to_str().expect("utf-8 path").to_string()
}

#[test]
fn committed_baselines_pass_self_diff_gate() {
    for name in [
        "BENCH_table2.json",
        "BENCH_latency.json",
        "BENCH_throughput.json",
        "BENCH_protocols.json",
    ] {
        let path = baseline(name);
        let out = run_cli_ok(&["diff", &path, &path, "--gate", "--tolerance", "0.5"]);
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.contains("== ssmp diff (sweep)"),
            "{name}: not diffed as a sweep\n{text}"
        );
        assert!(text.contains("identical: no deltas"), "{name}\n{text}");
    }
}

#[test]
fn tampered_baseline_key_fails_gate_and_is_named() {
    let base = baseline("BENCH_protocols.json");
    let doc = std::fs::read_to_string(&base).unwrap();
    // perturb one deterministic value: any movement must trip the gate
    let tampered = doc.replacen("\"completion\":", "\"completion\":1, \"x_completion\":", 1);
    assert_ne!(doc, tampered, "fixture must actually change");
    let (cur_p, cur) = tmp("tampered-protocols.json");
    std::fs::write(&cur_p, tampered).unwrap();
    let out = run_cli(&["diff", &base, &cur, "--gate"]);
    assert_eq!(out.status.code(), Some(1), "drift must exit 1");
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(table.contains("verdict"), "missing delta table\n{table}");
    assert!(table.contains("DRIFT"), "no DRIFT verdict\n{table}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("1 violation(s)"), "{err}");
    assert!(err.contains("'hotspot/ric.completion' drifted"), "{err}");
    std::fs::remove_file(cur_p).ok();
}

#[test]
fn unreadable_or_wrong_kind_baseline_exits_2() {
    let out = run_cli(&[
        "diff",
        "/nonexistent/base.json",
        "/nonexistent/cur.json",
        "--gate",
    ]);
    assert_eq!(out.status.code(), Some(2), "load failure is a usage error");

    // a report artifact is not a sweep: a usage error, not a violation
    let (rep_p, rep) = tmp("not-a-sweep.json");
    std::fs::write(&rep_p, "{\"completion_cycles\":10}").unwrap();
    let out = run_cli(&["diff", &baseline("BENCH_table2.json"), &rep, "--gate"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("cannot diff a sweep artifact against a report artifact"),
        "{err}"
    );
    std::fs::remove_file(rep_p).ok();
}

#[test]
fn sweep_diff_against_gates_its_own_baseline() {
    let (base_p, base) = tmp("sweep-base.json");
    run_cli_ok(&[
        "sweep", "--points", "table3:4", "--quick", "--jobs", "2", "--json", "--out", &base,
    ]);
    // identical regeneration passes and prints the perfguard table
    let out = run_cli_ok(&[
        "sweep",
        "--points",
        "table3:4",
        "--quick",
        "--jobs",
        "1",
        "--json",
        "--diff-against",
        &base,
    ]);
    let text = String::from_utf8(out).unwrap();
    assert!(text.contains("identical: no deltas"), "{text}");
    // a different sweep against the same baseline fails the gate
    let out = run_cli(&[
        "sweep",
        "--points",
        "table3:8",
        "--quick",
        "--jobs",
        "2",
        "--json",
        "--diff-against",
        &base,
    ]);
    assert_eq!(out.status.code(), Some(1), "diff-against must gate");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("missing from"), "{err}");
    std::fs::remove_file(base_p).ok();
}

#[test]
fn config_spelling_warns_deprecated_but_protocol_does_not() {
    let out = run_cli(&[
        "run",
        "--workload",
        "sync",
        "--config",
        "wbi",
        "--nodes",
        "4",
        "--tasks",
        "4",
    ]);
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--config wbi is deprecated; use --protocol wbi"),
        "{err}"
    );
    let out = run_cli(&[
        "run",
        "--workload",
        "sync",
        "--protocol",
        "wbi",
        "--nodes",
        "4",
        "--tasks",
        "4",
    ]);
    assert!(out.status.success());
    assert!(
        !String::from_utf8_lossy(&out.stderr).contains("deprecated"),
        "--protocol must not warn"
    );
    // the lock-centric presets have no --protocol spelling: stay silent
    let out = run_cli(&[
        "run",
        "--workload",
        "sync",
        "--config",
        "bc-cbl",
        "--nodes",
        "4",
        "--tasks",
        "4",
    ]);
    assert!(out.status.success());
    assert!(
        !String::from_utf8_lossy(&out.stderr).contains("deprecated"),
        "lock presets must not warn"
    );
}

#[test]
fn trace_stats_emits_json_document() {
    let (trace_p, trace) = tmp("stats.jsonl");
    run_cli_ok(&[
        "run",
        "--workload",
        "work-queue",
        "--protocol",
        "wbi",
        "--nodes",
        "4",
        "--grain",
        "fine",
        "--tasks",
        "8",
        "--trace",
        &trace,
    ]);
    let out = run_cli_ok(&["trace", "stats", "--in", &trace, "--validate", "--json"]);
    let doc = ssmp_engine::Json::parse(&String::from_utf8(out).unwrap())
        .expect("trace stats --json must emit one JSON document");
    assert_eq!(doc.get("format").and_then(|f| f.as_str()), Some("jsonl"));
    assert!(doc.get("events").and_then(|e| e.as_u64()).unwrap() > 0);
    assert!(doc.get("by_key").is_some());
    assert_eq!(
        doc.get("span_stitching").and_then(|s| s.get("clean")),
        Some(&ssmp_engine::Json::Bool(true))
    );
    assert_eq!(doc.get("validation").and_then(|v| v.as_str()), Some("ok"));
    std::fs::remove_file(trace_p).ok();
}

#[test]
fn analyze_spans_and_diff_accept_stdin() {
    use std::io::Write as _;
    let (trace_p, trace) = tmp("stdin.jsonl");
    run_cli_ok(&[
        "run",
        "--workload",
        "hotspot",
        "--protocol",
        "wbi",
        "--nodes",
        "4",
        "--grain",
        "fine",
        "--trace",
        &trace,
    ]);
    let trace_bytes = std::fs::read(&trace_p).unwrap();
    for sub in ["analyze", "spans"] {
        let mut child = cli()
            .args([sub, "--in", "-", "--json"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn ssmp-cli");
        child.stdin.take().unwrap().write_all(&trace_bytes).unwrap();
        let out = child.wait_with_output().unwrap();
        assert!(
            out.status.success(),
            "{sub} --in - failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdin_doc = String::from_utf8(out.stdout).unwrap();
        let file_doc = String::from_utf8(run_cli_ok(&[sub, "--in", &trace, "--json"])).unwrap();
        assert_eq!(
            stdin_doc, file_doc,
            "{sub}: stdin and file paths must agree"
        );
    }
    // and `ssmp diff` takes '-' as one operand
    let (rep_p, rep) = tmp("stdin-report.json");
    let report = hotspot_report("wbi");
    std::fs::write(&rep_p, &report).unwrap();
    let mut child = cli()
        .args(["diff", &rep, "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ssmp-cli");
    child.stdin.take().unwrap().write_all(&report).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("identical: no deltas"),
        "self-diff via stdin must be empty"
    );
    std::fs::remove_file(trace_p).ok();
    std::fs::remove_file(rep_p).ok();
}

#[test]
fn streamed_stdin_and_file_inputs_write_identical_out() {
    use std::io::Write as _;
    let (trace_p, trace) = tmp("stream.jsonl");
    run_cli_ok(&[
        "run",
        "--workload",
        "work-queue",
        "--protocol",
        "wbi",
        "--nodes",
        "4",
        "--grain",
        "fine",
        "--trace",
        &trace,
    ]);
    let trace_bytes = std::fs::read(&trace_p).unwrap();
    for sub in ["analyze", "spans"] {
        let (stdin_p, stdin_out) = tmp(&format!("{sub}-stdin.json"));
        let (file_p, file_out) = tmp(&format!("{sub}-file.json"));
        let mut child = cli()
            .args([sub, "--in", "-", "--out", &stdin_out])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn ssmp-cli");
        child.stdin.take().unwrap().write_all(&trace_bytes).unwrap();
        let out = child.wait_with_output().unwrap();
        assert!(
            out.status.success(),
            "{sub} --in - failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        // `--json` with `--out` prints exactly the bytes it writes
        let printed = run_cli_ok(&[sub, "--in", &trace, "--json", "--out", &file_out]);
        let from_stdin = std::fs::read(&stdin_p).unwrap();
        let from_file = std::fs::read(&file_p).unwrap();
        assert!(!from_file.is_empty(), "{sub}: empty --out");
        assert_eq!(
            from_stdin, from_file,
            "{sub}: --in - and --in <file> differ"
        );
        assert_eq!(printed, from_file, "{sub}: --json and --out differ");
        std::fs::remove_file(stdin_p).ok();
        std::fs::remove_file(file_p).ok();
    }
    std::fs::remove_file(trace_p).ok();
}

#[test]
fn profile_artifacts_diff_directly() {
    // `--profile=<file>` documents are first-class diff inputs too
    let (pa_p, pa) = tmp("prof-a.json");
    let (pb_p, pb) = tmp("prof-b.json");
    for (protocol, path) in [("wbi", &pa), ("dragon", &pb)] {
        run_cli_ok(&[
            "run",
            "--workload",
            "hotspot",
            "--protocol",
            protocol,
            "--nodes",
            "8",
            "--grain",
            "fine",
            "--hot",
            "0.6",
            &format!("--profile={path}"),
        ]);
    }
    let out = run_cli_ok(&["diff", &pa, &pb, "--json"]);
    let doc = ssmp_engine::Json::parse(&String::from_utf8(out).unwrap()).unwrap();
    assert_eq!(doc.get("kind").and_then(|k| k.as_str()), Some("profile"));
    assert_eq!(
        doc.get("identical"),
        Some(&ssmp_engine::Json::Bool(false)),
        "wbi and dragon hotspot profiles must differ"
    );
    std::fs::remove_file(pa_p).ok();
    std::fs::remove_file(pb_p).ok();
}
