//! Tiny-size runs of every workload: each finishes with every answer
//! checked and none failed, and reports every metric it must print.

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::{Run, WORKLOADS};

#[test]
fn every_workload_runs_clean_at_tiny_size() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let run = Run { seed: 3, seconds: 1, trace, tiny: true };
            let report = perfbench::run(workload, &run).expect("known workload");
            assert!(report.attempted > 0, "{workload}: nothing attempted");
            assert_eq!(report.failed, 0, "{workload} trace={trace}: {:?}", report.notes);
            assert_eq!(report.failed_ratio(), 0.0);
            let line = report.json_line();
            let names = if trace { PER_LAYER } else { END_TO_END };
            for (name, unit) in names {
                assert!(
                    line.contains(&format!(r#""{name}": {{"value": "#))
                        && line.contains(&format!(r#""unit": "{unit}""#)),
                    "{workload}: {name} missing from {line}"
                );
            }
        }
    }
}

#[test]
fn unknown_workload_is_refused() {
    let run = Run { seed: 1, seconds: 1, trace: false, tiny: true };
    assert!(perfbench::run("no_such_workload", &run).is_none());
}

#[test]
fn benchmark_manifest_names_exactly_the_printed_metrics() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json beside the benchmark directory");
    // Every listed workload is one the benchmark runs.
    let listed: Vec<&str> = manifest
        .split(r#"{"name": ""#)
        .skip(1)
        .filter_map(|entry| entry.split_once(r#"", "why""#).map(|(name, _)| name))
        .collect();
    assert!(listed.len() >= 2, "BENCHMARK.json lists {listed:?}");
    for workload in &listed {
        assert!(WORKLOADS.contains(workload), "{workload} is not a workload");
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!(r#""name": "{name}", "unit": "{unit}""#);
        assert!(manifest.contains(&entry), "{entry} not in BENCHMARK.json");
    }
    let listed = manifest.matches(r#""unit": "#).count();
    assert_eq!(listed, END_TO_END.len() + PER_LAYER.len(), "BENCHMARK.json lists other metrics");
}
