//! Sharded sweep execution: the stripe partition is exact for any plan and
//! shard count, a killed shard resumes from its checkpoint discarding a
//! torn tail, and the merged output is byte-identical to an unsharded
//! multi-worker run — for fig2 alone and for the whole experiment table.

use gpreempt::experiments::{self, run_suite, ExperimentScale, Fig2Results, Fig2Sweep, SweepCtx};
use gpreempt::sweep::{MergedValues, ShardManifest, ShardSession, ShardSpec, SweepExec};
use gpreempt::SimulatorConfig;
use proptest::prelude::*;
use std::path::PathBuf;

/// Runs fig2 on `jobs` workers under `exec`; `None` for a shard run.
fn fig2(exec: SweepExec<'_>, jobs: usize) -> Option<Fig2Results> {
    let mut ctx = SweepCtx::new(SimulatorConfig::default(), ExperimentScale::quick(), jobs);
    ctx.exec = exec;
    let ran = experiments::run::<Fig2Sweep>(&mut ctx).unwrap();
    ran.map(|(results, _)| results)
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "gpreempt-shard-it-{tag}-{}.jsonl",
        std::process::id()
    ))
}

fn manifest(shard: ShardSpec) -> ShardManifest {
    ShardManifest::new("fig2", "quick", 42, shard, None)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any plan size and any shard count up to 8, the stripes form an
    /// exact partition of the scenario population: every id is owned by
    /// exactly one shard, so the union of the shards covers the plan and
    /// no scenario is simulated twice.
    #[test]
    fn stripes_partition_any_plan(len in 0u64..200, count in 1u32..9) {
        let shards: Vec<ShardSpec> =
            (0..count).map(|index| ShardSpec { index, count }).collect();
        let mut covered = vec![0u32; len as usize];
        for shard in &shards {
            for (id, hits) in covered.iter_mut().enumerate() {
                if shard.owns(id) {
                    *hits += 1;
                }
            }
        }
        prop_assert!(covered.iter().all(|&hits| hits == 1));
        // The CLI spelling round-trips.
        for shard in &shards {
            prop_assert_eq!(ShardSpec::parse(&shard.label()).unwrap(), *shard);
        }
    }
}

/// Three shard runs (each on a 2-worker runner) merged back together
/// reproduce the unsharded `jobs = 2` run exactly, down to the report
/// bytes.
#[test]
fn merged_shards_match_unsharded_two_worker_run() {
    let full = fig2(SweepExec::Full, 2).unwrap();

    let paths: Vec<PathBuf> = (0..3).map(|k| temp_path(&format!("merge-{k}"))).collect();
    for (k, path) in paths.iter().enumerate() {
        let _ = std::fs::remove_file(path);
        let spec = ShardSpec {
            index: k as u32,
            count: 3,
        };
        let session = ShardSession::open(path, manifest(spec)).unwrap();
        let out = fig2(SweepExec::Shard(&session), 2);
        assert!(out.is_none(), "a shard run yields no aggregated results");
    }

    let merged = MergedValues::load(&paths).unwrap();
    let replayed = fig2(SweepExec::Merge(&merged), 1).expect("merge yields results");
    assert_eq!(replayed, full);
    assert_eq!(replayed.report().to_json(), full.report().to_json());

    for path in &paths {
        let _ = std::fs::remove_file(path);
    }
}

/// Kill-at-scenario-i: truncating the checkpoint after its first record —
/// with a torn half-written line at the tail, as a `kill -9` mid-write
/// leaves behind — must resume cleanly: the torn tail is discarded, the
/// completed record is kept, and the finished shard file and merged
/// results are identical to the uninterrupted run's.
#[test]
fn killed_shard_resumes_and_matches() {
    let spec = ShardSpec { index: 0, count: 1 };
    let path = temp_path("resume");
    let _ = std::fs::remove_file(&path);

    let session = ShardSession::open(&path, manifest(spec)).unwrap();
    fig2(SweepExec::Shard(&session), 1);
    assert_eq!(session.written(), 3);
    drop(session);
    let complete = std::fs::read_to_string(&path).unwrap();

    // Keep the manifest line and the first record, then tear the next
    // record mid-line.
    let mut lines = complete.lines();
    let kept = format!("{}\n{}\n", lines.next().unwrap(), lines.next().unwrap());
    let torn = &lines.next().unwrap()[..20];
    std::fs::write(&path, format!("{kept}{torn}")).unwrap();

    let session = ShardSession::open(&path, manifest(spec)).unwrap();
    assert_eq!(session.resumed(), 1, "torn tail must not count as done");
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        kept,
        "reopening must cut the torn tail off the file"
    );
    assert_eq!(session.pending_ids("fig2", 3), vec![1, 2]);
    fig2(SweepExec::Shard(&session), 1);
    assert_eq!(session.written(), 2, "only the lost scenarios re-run");
    drop(session);
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        complete,
        "resumed shard file must equal the uninterrupted one"
    );

    let merged = MergedValues::load(&[&path]).unwrap();
    let replayed = fig2(SweepExec::Merge(&merged), 1).unwrap();
    assert_eq!(replayed, fig2(SweepExec::Full, 1).unwrap());

    let _ = std::fs::remove_file(&path);
}

/// A checkpoint written under one configuration must refuse to resume
/// under another: silently mixing seeds would merge incompatible
/// simulations.
#[test]
fn mismatched_manifest_is_rejected() {
    let path = temp_path("mismatch");
    let _ = std::fs::remove_file(&path);
    let spec = ShardSpec { index: 0, count: 1 };
    drop(ShardSession::open(&path, manifest(spec)).unwrap());

    let other = ShardManifest::new("fig2", "quick", 43, spec, None);
    let err = ShardSession::open(&path, other).unwrap_err().to_string();
    assert!(err.contains("seed"), "error must name the field: {err}");

    let _ = std::fs::remove_file(&path);
}

/// Every experiment of the table, striped three ways (each shard on two
/// workers) and merged, reproduces the all-experiments golden fixture of
/// `tests/sweep_golden.rs` byte for byte.
#[test]
fn three_shards_of_every_experiment_merge_to_the_golden_report() {
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/all_experiments_sweep.json"
    ))
    .expect("golden fixture");
    // The golden's trimmed quick scale.
    let mut scale = ExperimentScale::quick().with_benchmarks(["spmv", "sgemm", "mri-q"]);
    scale.workload_sizes = vec![2];
    scale.reps_per_benchmark = 1;
    scale.random_workloads = 2;

    let paths: Vec<PathBuf> = (0..3).map(|k| temp_path(&format!("all-{k}"))).collect();
    for (k, path) in paths.iter().enumerate() {
        let _ = std::fs::remove_file(path);
        let spec = ShardSpec {
            index: k as u32,
            count: 3,
        };
        let manifest = ShardManifest::new("all", "quick", scale.seed, spec, None);
        let session = ShardSession::open(path, manifest).unwrap();
        let mut ctx = SweepCtx::new(SimulatorConfig::default(), scale.clone(), 2);
        ctx.exec = SweepExec::Shard(&session);
        let out = run_suite("all", &mut ctx, &|_, _| {}).unwrap();
        assert!(out.report.is_empty(), "a shard run reports nothing");
    }

    let merged = MergedValues::load(&paths).unwrap();
    let mut ctx = SweepCtx::new(SimulatorConfig::default(), scale, 1);
    ctx.exec = SweepExec::Merge(&merged);
    let out = run_suite("all", &mut ctx, &|_, _| {}).unwrap();
    assert_eq!(out.report.to_json(), golden);

    for path in &paths {
        let _ = std::fs::remove_file(path);
    }
}
