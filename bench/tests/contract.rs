//! `BENCHMARK.json` and the binary must name the same metrics and
//! workloads: the driver refuses a run whose metrics differ from the
//! file's lists.

use mmm_perf::report::{END_TO_END, PER_LAYER};
use mmm_perf::Workload;
use serde_json::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    serde_json::parse_str(
        &std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"),
    )
    .expect("BENCHMARK.json parses")
}

fn field(m: &Value, list: &str, k: &str) -> String {
    m.get(k)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{list}: {k}"))
        .to_string()
}

fn names_and_units(doc: &Value, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("{list} is a list"))
        .iter()
        .map(|m| (field(m, list, "name"), field(m, list, "unit")))
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn metric_lists_match_the_catalogue() {
    let doc = benchmark_json();
    assert_eq!(
        names_and_units(&doc, "end_to_end"),
        owned(&END_TO_END.map(|(name, unit, _)| (name, unit)))
    );
    let better: Vec<String> = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .expect("end_to_end")
        .iter()
        .map(|m| field(m, "end_to_end", "better"))
        .collect();
    assert_eq!(better, END_TO_END.map(|(_, _, better)| better));
    assert_eq!(names_and_units(&doc, "per_layer"), owned(&PER_LAYER));
}

#[test]
fn every_workload_is_listed_with_its_reason() {
    let doc = benchmark_json();
    let listed: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads is a list")
        .iter()
        .map(|w| {
            assert!(w
                .get("why")
                .and_then(Value::as_str)
                .is_some_and(|s| !s.is_empty()));
            w.get("name")
                .and_then(Value::as_str)
                .expect("workload name")
        })
        .collect();
    assert_eq!(listed, Workload::ALL.map(Workload::name));
}

#[test]
fn bounds_stay_within_the_contract() {
    let doc = benchmark_json();
    let e2e = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .expect("end_to_end");
    for m in e2e {
        let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{m}");
    }
    assert!(e2e
        .iter()
        .any(|m| m.get("name").and_then(Value::as_str) == Some("setup_s")));
    assert_eq!(
        doc.get("paths").and_then(Value::as_array).map(Vec::len),
        Some(1)
    );
}
