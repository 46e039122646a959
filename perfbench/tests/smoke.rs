//! Every workload runs end to end at a tiny size, in both modes, and
//! passes every correctness gate.

use std::path::PathBuf;

use deuce_perfbench::{run, Options, Scale, Workload, END_TO_END, PER_LAYER};

fn options(workload: Workload, seed: u64, trace: bool) -> Options {
    let mode = if trace { "traced" } else { "untraced" };
    Options {
        workload,
        seed,
        seconds: 0.0,
        trace,
        scale: Scale::TINY,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("smoke-{}-{seed}-{mode}", workload.name())),
    }
}

#[test]
fn every_workload_passes_untraced_and_traced() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let outcome = run(&options(workload, 3, trace)).expect("workload runs");
            let what = format!("{} trace={trace}", workload.name());
            assert!(outcome.correct, "{what}: {:?}", outcome.mismatches);
            assert_eq!(outcome.failed, 0, "{what}");
            assert!(outcome.attempted > 0, "{what}");
            let listed = if trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
            let expected: Vec<&str> = listed.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, expected, "{what}");
            assert!(
                outcome.metrics.iter().all(|m| m.value.is_finite()),
                "{what}"
            );
            if !trace {
                assert!(
                    outcome.metrics.iter().all(|m| m.value > 0.0),
                    "{what}: {:?}",
                    outcome.metrics
                );
            }
            let json = outcome.result_json();
            assert!(
                json.starts_with("{\"correct\": true, \"attempted\": "),
                "{json}"
            );
        }
    }
}

#[test]
fn a_second_seed_changes_the_inputs_and_passes_every_gate() {
    for workload in Workload::ALL {
        let first = run(&options(workload, 1, false)).expect("seed 1 runs");
        let second = run(&options(workload, 2, false)).expect("seed 2 runs");
        assert!(
            first.correct && second.correct,
            "{:?} {:?}",
            first.mismatches,
            second.mismatches
        );
        assert_eq!(first.fingerprints.len(), second.fingerprints.len());
        for (a, b) in first.fingerprints.iter().zip(&second.fingerprints) {
            assert_ne!(a, b, "{}: the seed must reach the inputs", workload.name());
        }
    }
}
