//! The benchmark's own checks: exact metrics are exact, the seed reaches
//! the inputs, the result line keeps its contract, and `BENCHMARK.json`
//! names the metrics the program prints.
//!
//! Whole workloads run here (a 10 000-peer network included); the
//! package's dev and test profiles are optimised for that.

use perfbench::report::{Kind, Report, Spec, END_TO_END, PER_LAYER};
use perfbench::{run, Options, CONFIRM_SEED, DEFAULT_SEED, WORKLOADS};
use std::process::Command;

/// One pass is enough for the exact metrics; the timed ones are ignored.
fn quick(seed: u64, trace: bool) -> Options {
    Options { seed, seconds: 0.01, trace }
}

fn exact_values(r: &Report, table: &[Spec]) -> Vec<(&'static str, f64)> {
    table
        .iter()
        .filter(|s| s.kind == Kind::Exact)
        .map(|s| (s.name, r.get(s.name).expect("validated report")))
        .collect()
}

#[test]
fn exact_metrics_repeat_for_a_seed_and_follow_it() {
    for w in WORKLOADS {
        for (trace, table) in [(false, END_TO_END), (true, PER_LAYER)] {
            let measure = |seed| {
                let r = run(w, &quick(seed, trace)).unwrap_or_else(|e| panic!("{w}: {e}"));
                exact_values(&r, table)
            };
            let a = measure(DEFAULT_SEED);
            let b = measure(DEFAULT_SEED);
            for ((name, x), (_, y)) in a.iter().zip(&b) {
                assert_eq!(x.to_bits(), y.to_bits(), "{w}: {name} changed between runs: {x} {y}");
            }
            let c = measure(CONFIRM_SEED);
            assert!(
                a.iter().zip(&c).any(|((_, x), (_, y))| x != y),
                "{w} (trace {trace}): no exact metric moved with the seed: {a:?}"
            );
        }
    }
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`, read
/// without a JSON library: every entry is one `{"name": …, "unit": …}`.
fn listed(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no {key} list"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split('{')
        .skip(1)
        .map(|entry| {
            let field = |f: &str| {
                let at = entry.find(&format!("\"{f}\": \"")).unwrap_or_else(|| panic!("{entry}"));
                let rest = &entry[at + f.len() + 5..];
                rest[..rest.find('"').expect("string closes")].to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let want: Vec<(String, String)> =
            table.iter().map(|s| (s.name.to_string(), s.unit.to_string())).collect();
        assert_eq!(listed(&json, key), want, "{key} differs from the program's table");
    }
    let workloads: Vec<String> = listed_names(&json);
    assert_eq!(workloads, WORKLOADS, "workloads differ");
}

fn listed_names(json: &str) -> Vec<String> {
    let start = json.find("\"workloads\"").expect("workloads list");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("string closes")].to_string())
        .collect()
}

fn bench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench")).args(args).output().expect("binary runs")
}

#[test]
fn result_line_keeps_the_contract() {
    let out =
        bench(&["--workload", "relay-bigpool", "--seed", "3", "--seconds", "0.2", "--trace", "0"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true, \"attempted\": "), "{last}");
    assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");
    for s in END_TO_END {
        let entry = format!("\"{}\": {{\"value\": ", s.name);
        assert!(last.contains(&entry), "{} missing: {last}", s.name);
        assert!(last.contains(&format!("\"unit\": \"{}\"", s.unit)));
    }
    assert!(!last.contains("null"), "{last}");
}

#[test]
fn bad_invocations_fail_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"][..],
        &["--workload", "relay-bigpool", "--seed", "x", "--seconds", "1", "--trace", "0"],
        &["--workload", "relay-bigpool", "--seed", "1", "--seconds", "0", "--trace", "0"],
        &["--workload", "relay-bigpool", "--seed", "1", "--seconds", "1", "--trace", "2"],
        &["--seed", "1"],
    ] {
        let out = bench(args);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
