//! Counting-allocator proof of the arena claim: with workspace reuse, one
//! engine/host/queue allocation services a worker's **whole scenario
//! stream** — steady-state scenarios allocate a small constant, not a fresh
//! simulator's worth of tables.
//!
//! The first scenario of a stream pays for the arena (host model, engine
//! tables, event-queue heap, drain scratch); every later scenario resets
//! those structures in place and only allocates what genuinely belongs to
//! its result (the run body's record vectors). The test pins both the
//! absolute steady-state bound and the contrast against the stream's own
//! arena-building first scenario.
//!
//! One test per file: the counting global allocator is process-wide. Unlike
//! `alloc_per_event.rs` (which hand-rolls a process-global counter), this
//! installs the library's [`gpreempt_sim::CountingAlloc`], so the runner's
//! per-scenario `allocs` accounting is exercised end to end.

use gpreempt::sweep::{Scenario, SweepPlan, SweepRunner};
use gpreempt::{PolicyKind, SimulatorConfig};
use gpreempt_trace::{parboil, ProcessSpec, Workload};
use gpreempt_types::GpuConfig;

#[global_allocator]
static ALLOC: gpreempt_sim::CountingAlloc = gpreempt_sim::CountingAlloc::new();

fn plan(scenarios: usize, min_completions: u32) -> SweepPlan {
    let gpu = GpuConfig::default();
    let spmv = parboil::benchmark("spmv", &gpu).unwrap();
    let sgemm = parboil::benchmark("sgemm", &gpu).unwrap();
    let mut plan = SweepPlan::new(SimulatorConfig::default());
    for i in 0..scenarios {
        let workload = Workload::new(
            format!("w{i}"),
            vec![
                ProcessSpec::new(spmv.clone()),
                ProcessSpec::new(sgemm.clone()),
            ],
        )
        .with_min_completions(min_completions);
        plan.push(Scenario::new(
            "alloc",
            format!("s{i}"),
            workload,
            PolicyKind::Dss,
        ));
    }
    plan
}

/// Per-scenario allocation counts of a sequential streaming run.
fn allocs_per_scenario(plan: &SweepPlan) -> Vec<u64> {
    SweepRunner::new(1)
        .run_fold(plan, &|_, run| Ok(run.events_processed()))
        .unwrap()
        .outcomes()
        .iter()
        .map(|o| o.allocs)
        .collect()
}

#[test]
fn steady_state_scenarios_allocate_a_small_constant() {
    // Warm lazy statics (benchmark tables) so scenario 0 is not charged for
    // them.
    let _ = allocs_per_scenario(&plan(1, 1));

    let stream = allocs_per_scenario(&plan(6, 2));

    // Scenario 0 builds the arena; every later scenario reuses it. The
    // steady-state count covers only per-run record vectors and folding —
    // a constant independent of the arena size, pinned with wide margin.
    let steady = &stream[2..];
    for (i, &a) in steady.iter().enumerate() {
        assert!(
            a <= 2_000,
            "scenario {} allocated {a} times in steady-state reuse",
            i + 2
        );
    }

    // Scenario 0 builds the host model, engine tables and queue a fresh
    // workspace needs; the reused steady state must undercut it by a wide
    // factor.
    let steady_mean = steady.iter().sum::<u64>() / steady.len() as u64;
    let fresh = stream[0];
    assert!(
        steady_mean * 4 <= fresh,
        "reuse steady-state ({steady_mean} allocs/scenario) should be far below \
         the arena-building first scenario ({fresh} allocs)"
    );

    // The bound is O(1) in simulated work too: quintupling the replay
    // target must not proportionally scale steady-state allocations (vector
    // growth amortises to a handful of doublings).
    let longer = allocs_per_scenario(&plan(6, 10));
    let longer_mean = longer[2..].iter().sum::<u64>() / longer[2..].len() as u64;
    assert!(
        longer_mean < steady_mean.max(1) * 3,
        "5x the completions scaled steady-state allocations {steady_mean} -> \
         {longer_mean}; per-scenario cost is not O(1)"
    );

    // The interned-trace saving: a benchmark trace's payloads are frozen
    // behind shared `Arc`s, so cloning one — what the host model does once
    // per process on every scenario reset — must not allocate at all.
    let gpu = GpuConfig::default();
    let spmv = parboil::benchmark("spmv", &gpu).unwrap();
    let before = gpreempt_sim::thread_allocations();
    for _ in 0..32 {
        std::hint::black_box(spmv.clone());
    }
    assert_eq!(
        gpreempt_sim::thread_allocations(),
        before,
        "BenchmarkTrace::clone allocated; per-scenario trace cloning is no \
         longer interned"
    );

    // And the runner-level consequence: interning structurally equal traces
    // that were built independently collapses them onto one storage.
    let mut interner = gpreempt_trace::TraceInterner::new();
    let a = interner.intern(&parboil::benchmark("spmv", &gpu).unwrap());
    let b = interner.intern(&parboil::benchmark("spmv", &gpu).unwrap());
    assert!(a.same_storage(&b));
    assert_eq!(interner.len(), 1);
}
