//! Result-regression gate over `bench_summary.json` artifacts.
//!
//! Diffs the current run's summary against a previous one (typically
//! the artifact from the last green CI run on the main branch), keyed
//! on `(scenario id, metric name)`. A metric whose value drifts by
//! more than the relative tolerance fails the check; metrics that
//! vanished are reported as warnings. Scenarios and metrics present
//! only in the current summary are *additions* — logged for the CI
//! record, never failed — so landing a new experiment does not require
//! a baseline refresh first.
//! Two kinds of numbers are informational by design and can never
//! fail the gate: the per-scenario `wall_secs` timings, whose deltas
//! are printed as `INFO` lines so CI logs track simulator throughput
//! over time, and hedge/suspicion statistics (operational counters
//! whose latency consequences the gated tail metrics already cover).
//! Every scenario metric is a deterministic simulated outcome; the
//! simulator's own speed is measured by the separate `simbench`
//! benchmark (`BENCHMARK.json`), not here.
//! A missing previous file is the first-run case and passes silently,
//! so the gate bootstraps itself.
//!
//! ```text
//! cargo run -p lina-bench --bin regression_check -- \
//!     --current bench_summary.json --previous previous.json \
//!     [--tolerance 0.05]
//! ```
//!
//! The simulator is deterministic, so at equal tier the expected drift
//! is zero; the tolerance band only absorbs intentional re-tuning of a
//! scenario, which should land together with a refreshed baseline.

use std::process::ExitCode;

use lina_simcore::Json;

struct Args {
    current: String,
    previous: String,
    tolerance: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut current = None;
    let mut previous = None;
    let mut tolerance = 0.05;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--current" => current = Some(it.next().ok_or("--current needs a path")?),
            "--previous" => previous = Some(it.next().ok_or("--previous needs a path")?),
            "--tolerance" => {
                let t = it.next().ok_or("--tolerance needs a value")?;
                tolerance = t
                    .parse::<f64>()
                    .ok()
                    .filter(|t| t.is_finite() && *t >= 0.0)
                    .ok_or(format!("bad tolerance {t:?}"))?;
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        current: current.ok_or("--current is required")?,
        previous: previous.ok_or("--previous is required")?,
        tolerance,
    })
}

/// `(scenario id, metric name)` — the stable key regression tooling
/// compares on.
type MetricKey = (String, String);

/// True for metrics the gate reports but never fails on: hedge and
/// suspicion statistics are operational counters (how often
/// speculative dispatch fired, what it cost). The gated p99/attainment
/// metrics already fail on any real regression they would cause, so
/// their own drift under intentional re-tuning stays informational.
fn informational(name: &str) -> bool {
    name.contains("hedge") || name.contains("suspicion")
}

/// Flattens a summary into `(key, value)` pairs, in document order.
fn metrics(doc: &Json) -> Result<Vec<(MetricKey, f64)>, String> {
    let scenarios = doc
        .get("scenarios")
        .and_then(Json::as_arr)
        .ok_or("summary has no \"scenarios\" array")?;
    let mut out = Vec::new();
    for s in scenarios {
        let id = s
            .get("id")
            .and_then(Json::as_str)
            .ok_or("scenario without an \"id\"")?;
        let Some(ms) = s.get("metrics").and_then(Json::as_arr) else {
            continue;
        };
        for m in ms {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{id}: metric without a \"name\""))?;
            // A non-finite value serializes as null; carry it as NaN so
            // the comparison still sees the key.
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            out.push(((id.to_string(), name.to_string()), value));
        }
    }
    Ok(out)
}

/// Per-scenario `wall_secs`, in document order. Purely informational:
/// wall-clock timings vary with the host, so their deltas are printed
/// but never gated on.
fn walls(doc: &Json) -> Vec<(String, f64)> {
    let Some(scenarios) = doc.get("scenarios").and_then(Json::as_arr) else {
        return Vec::new();
    };
    scenarios
        .iter()
        .filter_map(|s| {
            let id = s.get("id").and_then(Json::as_str)?;
            let secs = s.get("wall_secs").and_then(Json::as_f64)?;
            Some((id.to_string(), secs))
        })
        .collect()
}

type Summary = (Vec<(MetricKey, f64)>, Vec<(String, f64)>);

fn load(path: &str) -> Result<Summary, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok((metrics(&doc)?, walls(&doc)))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("regression_check: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !std::path::Path::new(&args.previous).exists() {
        println!(
            "regression_check: no previous summary at {} (first run) — nothing to compare",
            args.previous
        );
        return ExitCode::SUCCESS;
    }
    let ((current, cur_walls), (previous, prev_walls)) =
        match (load(&args.current), load(&args.previous)) {
            (Ok(c), Ok(p)) => (c, p),
            (c, p) => {
                for e in [c.err(), p.err()].into_iter().flatten() {
                    eprintln!("regression_check: {e}");
                }
                return ExitCode::FAILURE;
            }
        };
    let cur: std::collections::BTreeMap<_, _> = current.into_iter().collect();
    // Additions: whole scenarios (or single metrics) only in the
    // current summary. Logged, never failed — a new experiment lands
    // before its baseline exists.
    let prev_keys: std::collections::BTreeSet<&MetricKey> =
        previous.iter().map(|(k, _)| k).collect();
    let prev_ids: std::collections::BTreeSet<&str> =
        previous.iter().map(|((id, _), _)| id.as_str()).collect();
    let mut new_scenarios: std::collections::BTreeMap<&str, usize> =
        std::collections::BTreeMap::new();
    for key in cur.keys() {
        if prev_keys.contains(key) {
            continue;
        }
        let (id, name) = key;
        if prev_ids.contains(id.as_str()) {
            println!("NEW   {id}/{name}: metric added");
        } else {
            *new_scenarios.entry(id.as_str()).or_default() += 1;
        }
    }
    for (id, n) in &new_scenarios {
        println!("NEW   {id}: scenario added ({n} metric(s))");
    }
    let mut failures = 0usize;
    let mut compared = 0usize;
    for ((id, name), prev) in &previous {
        let key = (id.clone(), name.clone());
        let Some(&now) = cur.get(&key) else {
            println!("WARN  {id}/{name}: metric disappeared (was {prev})");
            continue;
        };
        compared += 1;
        // NaN on both sides is "still not finite" — unchanged.
        if prev.is_nan() && now.is_nan() {
            continue;
        }
        let drift = (now - prev).abs() / prev.abs().max(f64::MIN_POSITIVE);
        if !drift.is_finite() || drift > args.tolerance {
            if informational(name) {
                // Hedge/suspicion counter: the drift is re-tuning, not
                // a result regression. Surface it, don't gate on it.
                println!("INFO  {id}/{name}: {prev} -> {now} (informational, not gated)");
                continue;
            }
            println!(
                "FAIL  {id}/{name}: {prev} -> {now} (drift {:.2}% > {:.2}%)",
                drift * 100.0,
                args.tolerance * 100.0
            );
            failures += 1;
        }
    }
    // Locality-fraction trend: how much dispatch traffic the current
    // placements keep off the wire. Informational — the gated p99 and
    // attainment metrics already fail on regressions; these lines let
    // CI logs track the placement quality that produced them.
    for ((id, name), value) in cur.iter() {
        if name.contains("locality_fraction") {
            println!("INFO  {id}/{name}: {value:.4} (informational, not gated)");
        }
    }
    // Hedge and suspicion trend lines: how often speculative dispatch
    // fired, how often it won, and what fraction of compute it burned.
    // Informational for the same reason as above — the gated tail and
    // attainment metrics own the pass/fail decision.
    for ((id, name), value) in cur.iter() {
        if name.contains("hedge") || name.contains("suspicion") {
            println!("INFO  {id}/{name}: {value:.4} (informational, not gated)");
        }
    }
    // Wall-clock throughput trend, per scenario: informational only,
    // so CI logs show when the simulator itself gets faster or slower.
    let cur_wall: std::collections::BTreeMap<_, _> = cur_walls.into_iter().collect();
    for (id, prev_secs) in &prev_walls {
        let Some(&now_secs) = cur_wall.get(id) else {
            continue;
        };
        let delta = if *prev_secs > 0.0 {
            (now_secs - prev_secs) / prev_secs * 100.0
        } else {
            0.0
        };
        println!(
            "INFO  {id}/wall_secs: {prev_secs:.3}s -> {now_secs:.3}s ({delta:+.1}%, informational)"
        );
    }
    println!(
        "regression_check: {compared} metric(s) compared at tolerance {:.2}%, {failures} failure(s)",
        args.tolerance * 100.0
    );
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
