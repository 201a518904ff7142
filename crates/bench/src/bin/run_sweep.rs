//! Command-line driver for the experiment sweeps: regenerate the paper's
//! evaluation (or one experiment of it) across worker threads and emit the
//! results as text tables or machine-readable JSON.
//!
//! ```text
//! cargo run --release -p gpreempt-bench --bin run_sweep -- \
//!     --experiment spatial --scale bench --jobs 8 --format json
//! ```
//!
//! Options:
//!
//! * `--experiment fig2|priority|spatial|mechanism|realtime|saturation|all`
//!   (default `all`)
//! * `--scale quick|bench|paper` (default `quick`)
//! * `--jobs N` worker threads; `0` = one per CPU (default `0`). Sweep
//!   results are bit-identical for every worker count, so this only
//!   changes wall-clock time.
//! * `--format table|json` (default `table`). JSON goes to stdout; the
//!   wall-clock summary always goes to stderr so piped JSON stays clean.
//! * `--seed N` overrides the workload-generation seed of the scale.
//! * `--depth-trace US` samples every process's queue depth every `US`
//!   microseconds of simulated time; the traces ride along as a `series`
//!   field on saturation JSONL records.
//! * `--timing` with `--format table`: also print the per-scenario
//!   wall-clock table. With either format, each experiment additionally
//!   reports its own events/sec line on stderr as it completes.
//! * `--out FILE` streams sweep records to FILE as JSON Lines. Realtime
//!   and saturation scenarios spill in completion order the moment each
//!   finishes; the other experiments append their report records as each
//!   experiment completes. The file is valid (and tail-able) mid-sweep.
//! * `--validate` reads report JSON from stdin, checks it parses and that
//!   `record_count` matches the records array, and exits non-zero on any
//!   mismatch (used by the CI smoke step).
//!
//! ## Sharding
//!
//! * `--shard K/N` simulates only stripe `K` of the scenario population
//!   (scenario `id % N == K` of every experiment's plan — the partition
//!   is a function of the plan alone, never of `--jobs`), checkpointing
//!   each completed scenario's fold value to a JSON Lines file whose
//!   first line is a manifest (experiment, scale, seed, stripe, schema
//!   fingerprint). Re-running the same command resumes: completed
//!   scenarios are skipped, a torn final line from a kill is discarded.
//!   `--shard-out FILE` names the checkpoint (default
//!   `shard-K-of-N.jsonl`); `--out` is rejected — a shard produces a
//!   checkpoint, not a report.
//! * `run_sweep merge FILE...` cross-validates the shard manifests,
//!   reassembles the checkpointed values in scenario-id order and runs
//!   the unchanged aggregation, emitting a report byte-identical to the
//!   unsharded run. Accepts `--format`, `--out`, `--jobs`, `--timing`.

use gpreempt::experiments::{experiment_names, run_suite, ExperimentScale, SweepCtx};
use gpreempt::sweep::{
    JsonlSink, MergedValues, ShardManifest, ShardSession, ShardSpec, SweepExec, SweepReport,
    SweepTiming,
};
use gpreempt::SimulatorConfig;
use gpreempt_types::SimTime;
use std::io::Read as _;

// Per-scenario allocation accounting for `--timing`: every allocation on a
// worker thread is charged to the scenario it was running. The forwarding
// allocator costs one thread-local increment per allocation — noise next
// to the allocation itself.
#[global_allocator]
static ALLOC: gpreempt::sim::CountingAlloc = gpreempt::sim::CountingAlloc::new();

/// Checks an `--experiment` selector: `all` or one experiment's name.
fn parse_experiment(text: &str) -> Result<String, String> {
    if text == "all" || experiment_names().any(|name| name == text) {
        Ok(text.to_string())
    } else {
        Err(format!("unknown experiment {text:?}"))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Table,
    Json,
}

fn usage() {
    println!("usage: run_sweep [options]");
    println!("       run_sweep merge SHARD.jsonl... [--format table|json] [--out FILE]");
    println!("                 [--jobs N] [--timing]");
    println!(
        "  --experiment fig2|priority|spatial|mechanism|realtime|saturation|all (default all)"
    );
    println!("  --scale quick|bench|paper                          (default quick)");
    println!("  --jobs N          worker threads, 0 = one per CPU  (default 0)");
    println!("  --format table|json                                (default table)");
    println!("  --seed N          workload-generation seed override");
    println!("  --depth-trace US  sample per-process queue depth every US microseconds");
    println!("  --shard K/N       simulate only scenario ids with id % N == K,");
    println!("                    checkpointing fold values; resumes automatically");
    println!("  --shard-out FILE  shard checkpoint path (default shard-K-of-N.jsonl)");
    println!("  --timing          print the per-scenario wall-clock table");
    println!("                    and per-experiment events/sec on stderr");
    println!("  --out FILE        stream sweep records to FILE as JSON Lines");
    println!("  --validate        validate report JSON from stdin and exit");
}

fn validate_stdin() -> Result<(), Box<dyn std::error::Error>> {
    let mut text = String::new();
    std::io::stdin().read_to_string(&mut text)?;
    match SweepReport::validate_json(&text) {
        Ok(0) => Err("report is valid JSON but contains no records".into()),
        Ok(n) => {
            println!("report OK: {n} records");
            Ok(())
        }
        Err(e) => Err(format!("invalid sweep report: {e}").into()),
    }
}

fn scale_by_name(name: &str) -> Result<ExperimentScale, String> {
    match name {
        "quick" => Ok(ExperimentScale::quick()),
        "bench" => Ok(ExperimentScale::bench()),
        "paper" => Ok(ExperimentScale::paper()),
        other => Err(format!("unknown scale {other:?}")),
    }
}

/// Per-experiment throughput, printed the moment each experiment completes
/// under `--timing` so a long `--scale paper` run shows progress. Stderr,
/// like the final summary, so piped JSON stays clean.
fn note(name: &str, t: &SweepTiming) {
    eprintln!(
        "{name}: {} scenarios, {} events in {:.2?} ({:.0} events/s)",
        t.entries.len(),
        t.events,
        t.total,
        t.events_per_sec(),
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cli: Vec<String> = std::env::args().skip(1).collect();
    // `merge FILE...` replays shard checkpoints; the manifests supply the
    // experiment, scale, seed and depth-trace interval.
    let merging = cli.first().is_some_and(|arg| arg == "merge");
    if merging {
        cli.remove(0);
    }

    let mut experiment = "all".to_string();
    let mut scale_name = "quick".to_string();
    let mut jobs = 0usize;
    let mut format = Format::Table;
    let mut seed: Option<u64> = None;
    let mut depth_trace_us: Option<u64> = None;
    let mut timing_table = false;
    let mut out_path: Option<String> = None;
    let mut shard: Option<ShardSpec> = None;
    let mut shard_out: Option<String> = None;
    let mut files: Vec<String> = Vec::new();

    let mut args = cli.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" => jobs = args.next().ok_or("missing job count")?.parse()?,
            "--out" => out_path = Some(args.next().ok_or("missing output path")?),
            "--format" => {
                format = match args.next().as_deref() {
                    Some("table") => Format::Table,
                    Some("json") => Format::Json,
                    other => return Err(format!("unknown format {other:?}").into()),
                }
            }
            "--timing" => timing_table = true,
            "--help" | "-h" => {
                usage();
                return Ok(());
            }
            path if merging && !path.starts_with("--") => files.push(arg),
            other if merging => {
                return Err(format!("unknown merge option {other:?} (see --help)").into())
            }
            "--experiment" => {
                experiment = parse_experiment(args.next().as_deref().unwrap_or("(missing)"))?;
            }
            "--scale" => scale_name = args.next().ok_or("missing scale")?,
            "--seed" => seed = Some(args.next().ok_or("missing seed")?.parse()?),
            "--depth-trace" => {
                depth_trace_us = Some(args.next().ok_or("missing depth-trace interval")?.parse()?);
            }
            "--shard" => {
                shard = Some(ShardSpec::parse(&args.next().ok_or("missing shard spec")?)?);
            }
            "--shard-out" => shard_out = Some(args.next().ok_or("missing shard path")?),
            "--validate" => return validate_stdin(),
            other => return Err(format!("unknown option {other:?} (see --help)").into()),
        }
    }

    let merged = if merging {
        if files.is_empty() {
            return Err("merge needs at least one shard checkpoint file".into());
        }
        let merged = MergedValues::load(&files)?;
        let manifest = merged.manifest();
        experiment.clone_from(&manifest.experiment);
        scale_name.clone_from(&manifest.scale);
        seed = Some(manifest.seed);
        depth_trace_us = manifest.depth_trace_us;
        Some(merged)
    } else {
        None
    };
    let mut scale = scale_by_name(&scale_name)?;
    if let Some(seed) = seed {
        scale.seed = seed;
    }
    if let Some(us) = depth_trace_us {
        scale = scale.with_depth_trace(Some(SimTime::from_micros(us)));
    }

    // A shard run writes a checkpoint, not a report; the two outputs are
    // mutually exclusive by design.
    let session = match shard {
        Some(spec) => {
            if out_path.is_some() {
                return Err("--out cannot be combined with --shard: a shard writes a \
                     checkpoint; run `run_sweep merge <shards...> --out FILE` instead"
                    .into());
            }
            let path = shard_out
                .take()
                .unwrap_or_else(|| format!("shard-{}-of-{}.jsonl", spec.index, spec.count));
            let manifest =
                ShardManifest::new(&experiment, &scale_name, scale.seed, spec, depth_trace_us);
            Some((ShardSession::open(&path, manifest)?, path))
        }
        None => {
            if shard_out.is_some() {
                return Err("--shard-out requires --shard".into());
            }
            None
        }
    };

    let sink = match &out_path {
        Some(path) => Some(JsonlSink::create(path)?),
        None => None,
    };
    // One context — and so one isolated-run cache — for the whole
    // invocation: under `--experiment all` the priority, spatial, mechanism
    // and realtime experiments share the same base configuration, so each
    // distinct isolated scenario simulates exactly once instead of once
    // per experiment. A merge simulates only these cheap isolated probes;
    // the sweep bodies are replayed from the checkpoints.
    let mut ctx = SweepCtx::new(SimulatorConfig::default(), scale, jobs);
    ctx.spill = sink.as_ref();
    if let Some(merged) = &merged {
        ctx.exec = SweepExec::Merge(merged);
    } else if let Some((session, _)) = &session {
        ctx.exec = SweepExec::Shard(session);
    }
    let out = run_suite(&experiment, &mut ctx, &|name, t| {
        if timing_table {
            note(name, t);
        }
    })?;

    if let Some((session, path)) = &session {
        // A shard run has no report or tables — its entire output is the
        // checkpoint. Say what happened and stop.
        eprintln!(
            "shard {}: {} scenarios checkpointed this run, {} recovered from a \
             previous run -> {path}",
            session.manifest().shard.label(),
            session.written(),
            session.resumed(),
        );
        return Ok(());
    }

    match format {
        Format::Table => {
            for table in &out.tables {
                println!("{table}");
            }
            if timing_table {
                println!("{}", out.timing.render().render());
            }
        }
        Format::Json => println!("{}", out.report.to_json()),
    }
    // The wall-clock summary is informational and run-to-run varying, so
    // it goes to stderr: `--format json | run_sweep --validate` stays
    // clean.
    eprintln!("{}", out.timing.summary());
    if let Some(merged) = &merged {
        eprintln!(
            "merged {} checkpointed scenarios from {} shard file(s)",
            merged.len(),
            files.len()
        );
    }
    if let (Some(sink), Some(path)) = (&sink, &out_path) {
        eprintln!("streamed {} records to {path}", sink.written());
    }
    if ctx.cache.hits() > 0 {
        eprintln!(
            "isolated-run cache: {} simulated, {} reused across experiments",
            ctx.cache.misses(),
            ctx.cache.hits()
        );
    }
    if let Some(slowest) = out.timing.slowest() {
        eprintln!(
            "slowest scenario: {} / {} / {} at {:.2?}",
            slowest.group, slowest.workload, slowest.label, slowest.wall
        );
    }
    Ok(())
}
