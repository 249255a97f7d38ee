//! `BENCHMARK.json` and the benchmark's own metric lists must agree, and
//! every name and unit must fit the grammar the benchmark file allows.

use bz_core::json::Json;
use bz_perfbench::{per_layer, END_TO_END, WORKLOADS};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.field(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{key} is not an array"))
}

fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .field(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing string {key} in {entry:?}"))
}

fn is_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn is_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn workloads_match() {
    let doc = benchmark_json();
    let names: Vec<&str> = entries(&doc, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    assert_eq!(names, WORKLOADS);
    for workload in entries(&doc, "workloads") {
        assert!(text(workload, "why").len() <= 200);
    }
}

#[test]
fn end_to_end_metrics_match_with_bounds() {
    let doc = benchmark_json();
    let listed: Vec<(&str, &str)> = entries(&doc, "end_to_end")
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit")))
        .collect();
    assert_eq!(listed, END_TO_END);
    let bound = |m: &Json| m.field("bound").and_then(Json::as_f64).expect("a bound");
    let largest = entries(&doc, "end_to_end")
        .iter()
        .map(bound)
        .fold(0.0, f64::max);
    for metric in entries(&doc, "end_to_end") {
        assert!(bound(metric) > 0.0 && bound(metric) <= 0.25, "{metric:?}");
        if text(metric, "name") == "setup_s" {
            assert_eq!(bound(metric), largest, "setup_s has the largest bound");
            assert_eq!(text(metric, "better"), "lower");
        }
    }
}

#[test]
fn per_layer_metrics_match() {
    let doc = benchmark_json();
    let listed: Vec<(String, String)> = entries(&doc, "per_layer")
        .iter()
        .map(|m| (text(m, "name").to_owned(), text(m, "unit").to_owned()))
        .collect();
    let ours: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(name, unit)| (name, unit.to_owned()))
        .collect();
    assert_eq!(listed, ours);
}

#[test]
fn names_and_units_fit_the_grammar_and_are_unique() {
    let doc = benchmark_json();
    let mut seen = std::collections::BTreeSet::new();
    for key in ["workloads", "end_to_end", "per_layer"] {
        for entry in entries(&doc, key) {
            let name = text(entry, "name");
            assert!(is_name(name), "bad name {name}");
            assert!(seen.insert(name.to_owned()), "{name} is used twice");
            if key != "workloads" {
                let unit = text(entry, "unit");
                assert!(is_unit(unit), "bad unit {unit}");
                assert!(matches!(text(entry, "better"), "higher" | "lower"));
            }
        }
    }
}
