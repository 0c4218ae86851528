//! The `regression_check` gate, run as a binary on small summaries: a
//! drifted metric, a vanished metric, a vanished scenario and a changed
//! note or table fail it; an identical pair, an added metric and an
//! added scenario pass.

use std::path::PathBuf;
use std::process::Command;

/// A summary with one scenario per `(id, metrics)` entry; each scenario
/// has one note and one table, both naming its id.
fn summary(scenarios: &[(&str, &[(&str, f64)])]) -> String {
    let scenarios: Vec<String> = scenarios
        .iter()
        .map(|(id, metrics)| {
            let metrics: Vec<String> = metrics
                .iter()
                .map(|(name, value)| format!(r#"{{"name": "{name}", "value": {value}}}"#))
                .collect();
            format!(
                r#"{{"id": "{id}", "wall_secs": 1.0, "metrics": [{}],
                    "tables": [{{"title": "{id} table", "headers": ["k"], "rows": [["1"]]}}],
                    "notes": ["{id} timeline\n|##==|"]}}"#,
                metrics.join(", ")
            )
        })
        .collect();
    format!(r#"{{"scenarios": [{}]}}"#, scenarios.join(", "))
}

/// Runs the gate at tolerance 0 on `current` against `previous`;
/// returns whether it passed and its stdout.
fn check(case: &str, current: &str, previous: &str) -> (bool, String) {
    let dir = std::env::temp_dir().join(format!(
        "lina_regression_check_{}_{case}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let write = |name: &str, text: &str| -> PathBuf {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("write summary");
        path
    };
    let (cur, prev) = (
        write("current.json", current),
        write("previous.json", previous),
    );
    let out = Command::new(env!("CARGO_BIN_EXE_regression_check"))
        .arg("--current")
        .arg(&cur)
        .arg("--previous")
        .arg(&prev)
        .args(["--tolerance", "0"])
        .output()
        .expect("run regression_check");
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
    )
}

const BASE: &[(&str, &[(&str, f64)])] = &[
    ("serve_a", &[("p99_ms", 12.5), ("attainment", 0.9)]),
    ("serve_b", &[("goodput", 100.0)]),
];

#[test]
fn an_identical_pair_passes() {
    let (ok, out) = check("identical", &summary(BASE), &summary(BASE));
    assert!(ok, "{out}");
    assert!(out.contains("3 metric(s) compared"), "{out}");
    assert!(out.contains("0 failure(s)"), "{out}");
    assert!(!out.contains("text changed"), "{out}");
}

#[test]
fn a_changed_note_fails() {
    let changed = summary(BASE).replace("|##==|", "|#=#=|");
    let (ok, out) = check("changed_note", &changed, &summary(BASE));
    assert!(!ok, "{out}");
    assert!(out.contains("FAIL  serve_a/notes: text changed"), "{out}");
    assert!(out.contains("FAIL  serve_b/notes: text changed"), "{out}");
    assert!(out.contains("2 failure(s)"), "{out}");
}

#[test]
fn a_changed_table_fails() {
    let changed = summary(BASE).replace(r#"[["1"]]"#, r#"[["2"]]"#);
    let (ok, out) = check("changed_table", &changed, &summary(BASE));
    assert!(!ok, "{out}");
    assert!(out.contains("FAIL  serve_a/tables: text changed"), "{out}");
}

#[test]
fn a_drifted_metric_fails() {
    let drifted = summary(&[
        ("serve_a", &[("p99_ms", 12.6), ("attainment", 0.9)]),
        ("serve_b", &[("goodput", 100.0)]),
    ]);
    let (ok, out) = check("drifted", &drifted, &summary(BASE));
    assert!(!ok, "{out}");
    assert!(out.contains("FAIL  serve_a/p99_ms"), "{out}");
}

#[test]
fn a_vanished_metric_fails() {
    let vanished = summary(&[
        ("serve_a", &[("p99_ms", 12.5)]),
        ("serve_b", &[("goodput", 100.0)]),
    ]);
    let (ok, out) = check("vanished_metric", &vanished, &summary(BASE));
    assert!(!ok, "{out}");
    assert!(out.contains("FAIL  serve_a/attainment"), "{out}");
    assert!(out.contains("1 failure(s)"), "{out}");
}

#[test]
fn a_vanished_scenario_fails() {
    let vanished = summary(&[("serve_a", &[("p99_ms", 12.5), ("attainment", 0.9)])]);
    let (ok, out) = check("vanished_scenario", &vanished, &summary(BASE));
    assert!(!ok, "{out}");
    assert!(out.contains("FAIL  serve_b: scenario disappeared"), "{out}");
    assert!(out.contains("1 failure(s)"), "{out}");
}

#[test]
fn an_added_metric_passes() {
    let added = summary(&[
        (
            "serve_a",
            &[("p99_ms", 12.5), ("attainment", 0.9), ("p50_ms", 3.0)],
        ),
        ("serve_b", &[("goodput", 100.0)]),
    ]);
    let (ok, out) = check("added", &added, &summary(BASE));
    assert!(ok, "{out}");
    assert!(out.contains("NEW   serve_a/p50_ms"), "{out}");
}

#[test]
fn an_added_scenario_passes() {
    let added = summary(&[
        ("serve_a", &[("p99_ms", 12.5), ("attainment", 0.9)]),
        ("serve_b", &[("goodput", 100.0)]),
        ("fig2_timeline", &[("fwd_layer_time", 0.01)]),
    ]);
    let (ok, out) = check("added_scenario", &added, &summary(BASE));
    assert!(ok, "{out}");
    assert!(out.contains("NEW   fig2_timeline: scenario added"), "{out}");
}
