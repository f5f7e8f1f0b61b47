//! The benchmark's own tests: tiny runs of every workload pass every
//! output check, a broken output is counted, and the metric names the
//! benchmark prints are the ones `BENCHMARK.json` declares.

use e2ebench::workload::{build_op, setup, Params, Workload};
use e2ebench::{END_TO_END, PER_LAYER};
use serde::Value;
use std::fs;
use std::path::{Path, PathBuf};
use vas_obs::Recorder;

fn tmp_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("e2ebench-{name}"))
}

#[test]
fn tiny_runs_of_every_workload_pass_every_check() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let dir = tmp_dir(&format!("{}-{trace}", w.name()));
            let out = e2ebench::run(w, &Params::tiny(), 7, trace, &dir).expect("set-up");
            let _ = fs::remove_dir_all(&dir);
            let what = format!("{} trace={trace}", w.name());
            assert!(out.correct, "{what}: {:?}", out.problems);
            assert_eq!(out.failed, 0, "{what}");
            assert!(out.attempted > 0, "{what}");
            let expected = if trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            let printed: Vec<(&str, &str)> = out.metrics.iter().map(|(n, _, u)| (*n, *u)).collect();
            assert_eq!(printed, expected, "{what}");
            assert_eq!(out.trace_json.is_some(), trace, "{what}");
        }
    }
}

#[test]
fn a_build_that_differs_from_the_first_counts_as_failed() {
    let (w, p) = (Workload::BuildGeolife, Params::tiny());
    let rec = Recorder::detached();
    let s = setup(w, &p, 3, &rec).expect("set-up");
    let dir = tmp_dir("reference");
    fs::create_dir_all(&dir).expect("temporary dir");
    let first = build_op(w, &p, &s, &dir, &rec, None).expect("first build");
    assert!(first.problems.is_empty(), "{:?}", first.problems);
    assert_eq!(first.sample.len(), p.k());
    let same = build_op(w, &p, &s, &dir, &rec, Some(&first.sample)).expect("second build");
    assert!(same.problems.is_empty(), "{:?}", same.problems);
    let mut other = first.sample.clone();
    other[0].x = f64::from_bits(other[0].x.to_bits() ^ 1);
    let differs = build_op(w, &p, &s, &dir, &rec, Some(&other)).expect("third build");
    let _ = fs::remove_dir_all(&dir);
    assert_eq!(differs.problems.len(), 1, "{:?}", differs.problems);
}

fn names_and_units(benchmark: &Value, key: &str) -> Vec<(String, String)> {
    let Some(Value::Array(metrics)) = benchmark.get(key) else {
        panic!("BENCHMARK.json has no {key} list");
    };
    metrics
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(Value::String(n)), Some(Value::String(u))) => (n.clone(), u.clone()),
            _ => panic!("{key} entry without a name and unit"),
        })
        .collect()
}

#[test]
fn metric_names_are_valid_and_match_benchmark_json() {
    let valid = |name: &str| {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    for (name, _) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(valid(name), "metric name {name:?} outside [A-Za-z0-9_.-]+");
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let benchmark: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(
        names_and_units(&benchmark, "end_to_end"),
        owned(&END_TO_END)
    );
    assert_eq!(names_and_units(&benchmark, "per_layer"), owned(&PER_LAYER));
    let Some(Value::Array(workloads)) = benchmark.get("workloads") else {
        panic!("BENCHMARK.json has no workloads list");
    };
    let declared: Vec<&Value> = workloads.iter().filter_map(|w| w.get("name")).collect();
    let ours: Vec<Value> = Workload::ALL
        .iter()
        .map(|w| Value::String(w.name().into()))
        .collect();
    assert_eq!(declared, ours.iter().collect::<Vec<_>>());
}
