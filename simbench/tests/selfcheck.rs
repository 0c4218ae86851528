//! Self-check of the benchmark at the tiny size: every workload prints
//! every metric `BENCHMARK.json` assigns it, with its unit, under a name
//! matching `[A-Za-z0-9_.-]+`; passes its output check; and two runs of
//! the same seed print the same digest.
//!
//! ```text
//! cargo test --release --manifest-path simbench/Cargo.toml
//! ```

use std::process::Command;

use lina_simcore::Json;

fn spec() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names<'a>(spec: &'a Json, key: &str) -> Vec<&'a Json> {
    spec.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        .iter()
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Runs one tiny workload; returns the result line and the digest.
fn run(workload: &str, trace: &str) -> (Json, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_simbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0"])
        .args(["--trace", trace, "--size", "tiny"])
        .output()
        .expect("spawn simbench");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload}: exit {}\n{stderr}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).expect("the result line is JSON");
    let digest = stderr
        .lines()
        .filter_map(|l| l.strip_prefix("simbench: digest "))
        .next_back()
        .unwrap_or_else(|| panic!("{workload}: no digest printed\n{stderr}"))
        .to_string();
    (result, digest)
}

#[test]
fn every_workload_prints_its_metrics_and_repeats_its_digest() {
    let spec = spec();
    for workload in names(&spec, "workloads") {
        let workload = workload.get("name").and_then(Json::as_str).expect("name");
        assert!(valid_name(workload), "bad workload name {workload:?}");
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (result, digest) = run(workload, trace);
            let context = format!("{workload} --trace {trace}: {}", result.render_compact());
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{context}");
            assert_eq!(
                result.get("failed").and_then(Json::as_f64),
                Some(0.0),
                "{context}"
            );
            let metrics = result.get("metrics").expect("metrics");
            let Json::Obj(printed) = metrics else {
                panic!("{context}: metrics is not an object");
            };
            let wanted = names(&spec, key);
            assert_eq!(
                printed.len(),
                wanted.len(),
                "{context}: extra or missing metrics"
            );
            for m in wanted {
                let name = m.get("name").and_then(Json::as_str).expect("metric name");
                let unit = m.get("unit").and_then(Json::as_str).expect("metric unit");
                assert!(valid_name(name), "bad metric name {name:?}");
                let got = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{context}: {name} missing"));
                assert!(
                    got.get("value").and_then(Json::as_f64).is_some(),
                    "{context}: {name}"
                );
                assert_eq!(
                    got.get("unit").and_then(Json::as_str),
                    Some(unit),
                    "{context}"
                );
            }
            let (_, again) = run(workload, trace);
            assert_eq!(digest, again, "{context}: digest differs between runs");
        }
    }
}
