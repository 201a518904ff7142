//! Golden byte-identity fixture for the full experiment sweep.
//!
//! Runs the exact experiment table `run_sweep --experiment all --format
//! json` runs ([`run_suite`]: fig2, priority, spatial, mechanism, realtime
//! and saturation merged in that order over one shared isolated-run cache)
//! at a trimmed quick scale, and pins the combined report's bytes.
//! Whole-engine workspace reuse, parallel execution and every future
//! refactor must reproduce this file bit for bit (`tests/sweep_shard.rs`
//! holds a 3-shard run plus merge to it too); an *intentional* output
//! change regenerates it with:
//!
//! ```text
//! GPREEMPT_BLESS=1 cargo test -p gpreempt --test sweep_golden
//! ```

use gpreempt::experiments::{run_suite, ExperimentScale, SweepCtx};
use gpreempt::SimulatorConfig;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/all_experiments_sweep.json"
);

/// `run_sweep --experiment all --format json`, in miniature: same table,
/// same shared cache, smaller scale.
fn all_experiments_json(jobs: usize) -> String {
    let mut scale = ExperimentScale::quick().with_benchmarks(["spmv", "sgemm", "mri-q"]);
    scale.workload_sizes = vec![2];
    scale.reps_per_benchmark = 1;
    scale.random_workloads = 2;
    let mut ctx = SweepCtx::new(SimulatorConfig::default(), scale, jobs);
    run_suite("all", &mut ctx, &|_, _| {})
        .unwrap()
        .report
        .to_json()
}

#[test]
fn all_experiment_sweep_json_is_byte_identical_to_golden() {
    let json = all_experiments_json(2);
    if std::env::var("GPREEMPT_BLESS").is_ok() {
        std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden"))
            .expect("create golden dir");
        std::fs::write(GOLDEN, &json).expect("write golden fixture");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("golden fixture missing; run with GPREEMPT_BLESS=1 to create it");
    assert_eq!(
        json, golden,
        "experiment-sweep output drifted from the golden fixture"
    );
    // The fixture is worker-count independent by construction; one spot
    // check keeps the claim honest without doubling the runtime of every
    // run: sequential must reproduce the parallel bytes.
    assert_eq!(
        all_experiments_json(1),
        golden,
        "sequential sweep diverged from the golden fixture"
    );
}
