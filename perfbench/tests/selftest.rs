//! Self-tests of the benchmark: deterministic inputs, golden checks that
//! pass on the current simulator and fail on a wrong golden value, and
//! metric names that match `BENCHMARK.json`.

use perfbench::golden::Golden;
use perfbench::{
    factor221_asm, gen_options, job_seed, run, Report, RunConfig, Workload, DEFAULT_SEED,
};
use tangled_sim::difftest::DiffConfig;
use tangled_sim::proggen::random_program;

fn quick(workload: Workload, trace: bool, golden: &Golden) -> Report {
    let cfg = RunConfig {
        workload,
        seed: DEFAULT_SEED,
        seconds: 0.05,
        trace,
    };
    run(&cfg, golden).expect("set-up succeeds")
}

/// `(name, unit)` of the metrics listed under `section` in the
/// repository's `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let quoted_after = |s: &str, key: &str| {
        let rest = &s[s.find(key).expect("key present") + key.len()..];
        rest.split('"').nth(1).expect("quoted value").to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (quoted_after(obj, "\"name\""), quoted_after(obj, "\"unit\"")))
        .collect()
}

#[test]
fn generation_is_deterministic_for_a_seed() {
    let cfg = DiffConfig::default();
    for seed in [DEFAULT_SEED, 2, 977] {
        for i in 0..8 {
            let (a, b) = (job_seed(seed, i), job_seed(seed, i));
            assert_eq!(a, b);
            assert_eq!(
                random_program(a, &gen_options(a, &cfg)),
                random_program(b, &gen_options(b, &cfg))
            );
        }
    }
    assert_ne!(
        job_seed(1, 0),
        job_seed(2, 0),
        "seeds must give different jobs"
    );
    assert_eq!(factor221_asm(), factor221_asm());
}

#[test]
fn every_workload_passes_its_golden_check_and_emits_the_listed_metrics() {
    let golden = Golden::committed();
    for w in Workload::ALL {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let r = quick(w, trace, &golden);
            assert!(r.attempted >= 1);
            assert_eq!(
                r.failed,
                0,
                "{} trace={trace}: {:?}",
                w.name(),
                r.first_error
            );
            let emitted: Vec<(String, String)> = r
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            assert_eq!(emitted, listed(section), "{} trace={trace}", w.name());
            assert!(r.to_json().starts_with("{\"correct\": true, "));
        }
    }
}

#[test]
fn a_wrong_golden_value_drives_fail_ratio_above_zero() {
    let mut golden = Golden::committed();
    golden.factor.steps += 1;
    golden.campaign[0] ^= 1;
    for w in [Workload::Factor221, Workload::Campaign] {
        let r = quick(w, false, &golden);
        assert!(
            r.fail_ratio() > 0.0,
            "{}: wrong golden value went unnoticed",
            w.name()
        );
        assert!(r.to_json().starts_with("{\"correct\": false, "));
    }
}
