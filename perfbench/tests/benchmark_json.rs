//! `BENCHMARK.json` at the repository root lists exactly the workloads
//! and metrics this package emits, with the same units.

use deuce_perfbench::{Workload, END_TO_END, PER_LAYER};

#[test]
fn benchmark_json_matches_the_emitted_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for workload in Workload::ALL {
        let entry = format!("{{\"name\": \"{}\", \"why\": ", workload.name());
        assert!(
            json.contains(&entry),
            "missing workload {}",
            workload.name()
        );
    }
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ");
        assert!(json.contains(&entry), "missing or mis-unit metric {name}");
    }
    let listed = json.matches("{\"name\": ").count();
    assert_eq!(
        listed,
        Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len()
    );
}
