//! Sharded, resumable sweep execution with a deterministic merge.
//!
//! A paper-scale scenario population outgrows one machine. This module
//! splits a sweep into `n` **shards** that can run on independent machines
//! (or sequentially on one), each checkpointing its progress to a JSONL
//! file, and merges the checkpoints back into a report **byte-identical**
//! to the unsharded run:
//!
//! * [`ShardSpec`] — the `k/n` stripe: shard `k` owns every scenario whose
//!   plan id satisfies `id % n == k`. Striping is by stable scenario id, so
//!   the partition is independent of `--jobs`, and derived per-scenario
//!   seeds (assigned at plan-build time from the id) are unchanged.
//! * [`ShardSession`] — an append-only checkpoint: a manifest header line
//!   (experiment, scale, seed, shard spec, schema fingerprint) followed by
//!   one line per completed scenario carrying the experiment's **fold
//!   value** for that scenario. Re-opening an existing checkpoint validates
//!   the manifest, discards a torn trailing line, and reports the already-
//!   completed ids so a killed shard resumes losing at most its in-flight
//!   scenarios.
//! * [`MergedValues`] — the reassembled fold values of a full shard set
//!   (indices exactly `0..n`), keyed by `(experiment, scenario id)`.
//! * [`SweepExec`] — the execution mode the experiment driver
//!   ([`crate::experiments::run`]) runs a plan under: `Full` runs the whole
//!   plan; `Shard` runs only the stripe's pending ids and checkpoints each
//!   fold value; `Merge` runs **nothing**, reading the checkpointed values
//!   in scenario-id order instead — after which the experiment's unchanged
//!   aggregation code produces the byte-identical report.
//!
//! Every fold value is a [`Metrics`] record, checkpointed bit-exactly: each
//! `f64` travels as its IEEE-754 bit pattern, so NaN, ±∞ and −0.0 survive.
//! Checkpointing the *fold values* (not the report records) is what makes
//! the merge provably byte-identical: aggregation (means, confidence
//! intervals, knee detection) runs exactly once, at merge time, over values
//! in the exact id order a full run would have produced.

use crate::experiments::schema_fingerprint;
use crate::json::{self, Value};
use crate::sweep::Metrics;
use gpreempt_types::SimError;
use std::collections::{HashMap, HashSet};
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

fn io_err(what: &str, e: std::io::Error) -> SimError {
    SimError::internal(format!("shard checkpoint {what}: {e}"))
}

// ---------------------------------------------------------------------------
// ShardSpec
// ---------------------------------------------------------------------------

/// One stripe of a sharded sweep: shard `index` of `count` owns every
/// scenario id congruent to `index` modulo `count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// This shard's index, `0 ≤ index < count`.
    pub index: u32,
    /// Total number of shards.
    pub count: u32,
}

impl ShardSpec {
    /// Parses the CLI form `k/n` (e.g. `--shard 1/3`).
    ///
    /// # Errors
    ///
    /// Rejects malformed input, `n == 0`, and `k >= n`.
    pub fn parse(text: &str) -> Result<Self, SimError> {
        let invalid = || {
            SimError::internal(format!(
                "invalid shard spec {text:?}: expected k/n with 0 <= k < n (e.g. 0/3)"
            ))
        };
        let (k, n) = text.split_once('/').ok_or_else(invalid)?;
        let index: u32 = k.trim().parse().map_err(|_| invalid())?;
        let count: u32 = n.trim().parse().map_err(|_| invalid())?;
        if count == 0 || index >= count {
            return Err(invalid());
        }
        Ok(ShardSpec { index, count })
    }

    /// Whether this shard owns the scenario with plan id `id`.
    pub fn owns(&self, id: usize) -> bool {
        id as u64 % u64::from(self.count) == u64::from(self.index)
    }

    /// The ids of this shard's stripe within a plan of `plan_len`
    /// scenarios, ascending.
    pub fn stripe(&self, plan_len: usize) -> Vec<usize> {
        (0..plan_len).filter(|&id| self.owns(id)).collect()
    }

    /// The `k/n` rendering (inverse of [`parse`](Self::parse)).
    pub fn label(&self) -> String {
        format!("{}/{}", self.index, self.count)
    }
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

/// The checkpoint header: everything a resume or merge must agree on
/// before trusting the file's records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    /// The experiment selector this invocation runs (`"all"` or one name).
    pub experiment: String,
    /// The scale name (`"quick"` / `"bench"` / `"paper"`).
    pub scale: String,
    /// The effective workload-generation seed (after any `--seed`).
    pub seed: u64,
    /// This checkpoint's stripe.
    pub shard: ShardSpec,
    /// [`schema_fingerprint`] of the writing binary.
    pub schema: u64,
    /// Queue-depth trace interval in microseconds, if enabled — it changes
    /// the saturation fold value, so shards must agree on it.
    pub depth_trace_us: Option<u64>,
}

impl ShardManifest {
    /// Builds the manifest for a new shard run, stamping the current
    /// binary's schema fingerprint.
    pub fn new(
        experiment: impl Into<String>,
        scale: impl Into<String>,
        seed: u64,
        shard: ShardSpec,
        depth_trace_us: Option<u64>,
    ) -> Self {
        ShardManifest {
            experiment: experiment.into(),
            scale: scale.into(),
            seed,
            shard,
            schema: schema_fingerprint(),
            depth_trace_us,
        }
    }

    fn to_value(&self) -> Value {
        Value::object([
            ("manifest", Value::from(1u64)),
            ("experiment", Value::from(self.experiment.as_str())),
            ("scale", Value::from(self.scale.as_str())),
            ("seed", Value::from(self.seed)),
            ("shard_index", Value::from(u64::from(self.shard.index))),
            ("shard_count", Value::from(u64::from(self.shard.count))),
            ("schema", Value::from(self.schema)),
            (
                "depth_trace_us",
                self.depth_trace_us.map_or(Value::Null, Value::from),
            ),
        ])
    }

    /// The manifest's JSON line.
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }

    fn parse(line: &str) -> Result<Self, SimError> {
        let bad = |what: &str| SimError::internal(format!("invalid shard manifest: {what}"));
        let v = json::parse(line).map_err(|e| bad(&e))?;
        if v.get("manifest").and_then(Value::as_u64) != Some(1) {
            return Err(bad(
                "missing manifest:1 marker (is this a shard checkpoint?)",
            ));
        }
        let field = |key: &str| v.get(key).ok_or_else(|| bad(&format!("missing {key}")));
        let string = |key: &str| {
            field(key)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| bad(&format!("{key} is not a string")))
        };
        let uint = |key: &str| {
            field(key)?
                .as_u64()
                .ok_or_else(|| bad(&format!("{key} is not an unsigned integer")))
        };
        let index = u32::try_from(uint("shard_index")?).map_err(|_| bad("shard_index range"))?;
        let count = u32::try_from(uint("shard_count")?).map_err(|_| bad("shard_count range"))?;
        if count == 0 || index >= count {
            return Err(bad("shard_index/shard_count do not form a valid stripe"));
        }
        let depth_trace_us = match field("depth_trace_us")? {
            Value::Null => None,
            other => Some(
                other
                    .as_u64()
                    .ok_or_else(|| bad("depth_trace_us is not an unsigned integer"))?,
            ),
        };
        Ok(ShardManifest {
            experiment: string("experiment")?,
            scale: string("scale")?,
            seed: uint("seed")?,
            shard: ShardSpec { index, count },
            schema: uint("schema")?,
            depth_trace_us,
        })
    }

    /// Checks that `other` (an on-disk manifest) is compatible with this
    /// expected manifest for a resume: every field including the stripe
    /// must match.
    fn ensure_matches(&self, other: &ShardManifest, path: &str) -> Result<(), SimError> {
        let fields = [
            (
                "experiment",
                self.experiment.clone(),
                other.experiment.clone(),
            ),
            ("scale", self.scale.clone(), other.scale.clone()),
            ("seed", self.seed.to_string(), other.seed.to_string()),
            ("shard", self.shard.label(), other.shard.label()),
            (
                "schema fingerprint",
                format!("{:016x}", self.schema),
                format!("{:016x}", other.schema),
            ),
            (
                "depth_trace_us",
                format!("{:?}", self.depth_trace_us),
                format!("{:?}", other.depth_trace_us),
            ),
        ];
        match fields.into_iter().find(|(_, want, got)| want != got) {
            None => Ok(()),
            Some((field, want, got)) => Err(SimError::internal(format!(
                "shard checkpoint {path} does not match this invocation: \
                 {field} is {got}, expected {want} \
                 (delete the file to start this shard from scratch)"
            ))),
        }
    }
}

// ---------------------------------------------------------------------------
// Checkpoint records
// ---------------------------------------------------------------------------

/// Encodes a fold value bit-exactly: values become the integers of their
/// IEEE-754 bit patterns, series stay arrays of samples.
fn encode_metrics(metrics: &Metrics) -> Value {
    let values = metrics
        .values
        .iter()
        .map(|(k, v)| (k.clone(), Value::from(v.to_bits())));
    let series = metrics.series.iter().map(|(k, samples)| {
        let items = samples.iter().map(|&s| Value::from(u64::from(s))).collect();
        (k.clone(), Value::Array(items))
    });
    Value::Object(values.chain(series).collect())
}

/// Decodes [`encode_metrics`]'s output.
fn decode_metrics(value: &Value) -> Result<Metrics, String> {
    let Value::Object(fields) = value else {
        return Err("value is not an object".to_string());
    };
    let mut metrics = Metrics::default();
    for (key, field) in fields {
        match field {
            Value::Array(items) => {
                let samples = items
                    .iter()
                    .map(|item| item.as_u64().and_then(|s| u32::try_from(s).ok()))
                    .collect::<Option<Vec<u32>>>()
                    .ok_or_else(|| format!("series {key:?} holds a non-u32 sample"))?;
                metrics.series.push((key.clone(), samples));
            }
            other => {
                let bits = other
                    .as_u64()
                    .ok_or_else(|| format!("value {key:?} is not an f64 bit pattern"))?;
                metrics.values.push((key.clone(), f64::from_bits(bits)));
            }
        }
    }
    Ok(metrics)
}

/// One parsed checkpoint line: which scenario it belongs to and its fold
/// value.
fn parse_record(line: &str) -> Result<(String, usize, Metrics), SimError> {
    let bad = |what: &str| SimError::internal(format!("invalid shard record: {what}"));
    let v = json::parse(line).map_err(|e| bad(&e))?;
    let experiment = v
        .get("experiment")
        .and_then(Value::as_str)
        .ok_or_else(|| bad("missing experiment"))?
        .to_string();
    let id = v
        .get("id")
        .and_then(Value::as_u64)
        .ok_or_else(|| bad("missing id"))? as usize;
    let value =
        decode_metrics(v.get("value").ok_or_else(|| bad("missing value"))?).map_err(|e| bad(&e))?;
    Ok((experiment, id, value))
}

fn record_line(experiment: &str, id: usize, metrics: &Metrics) -> String {
    Value::object([
        ("experiment", Value::from(experiment)),
        ("id", Value::from(id as u64)),
        ("value", encode_metrics(metrics)),
    ])
    .to_json()
}

// ---------------------------------------------------------------------------
// ShardSession
// ---------------------------------------------------------------------------

/// An open shard checkpoint: tracks which `(experiment, scenario id)` pairs
/// are already durable and appends one line per newly completed scenario
/// (flushed immediately, so a kill loses only in-flight scenarios).
///
/// `Sync`: the record writer is mutex-guarded, so one session serves every
/// worker of the sweep.
#[derive(Debug)]
pub struct ShardSession {
    manifest: ShardManifest,
    done: HashSet<(String, usize)>,
    resumed: usize,
    writer: Mutex<std::io::BufWriter<std::fs::File>>,
    written: AtomicU64,
}

impl ShardSession {
    /// Opens the checkpoint at `path` for the given manifest. A missing or
    /// empty file starts a fresh shard (the manifest line is written
    /// immediately). An existing file **resumes**: its manifest must match,
    /// its valid record prefix becomes the done-set, and the file is cut
    /// back to the end of the last complete, newline-terminated record
    /// before appending continues. A last line without its `\n` — the
    /// write a kill interrupted — counts as torn and is discarded.
    ///
    /// The completed records are never rewritten: the file is opened for
    /// appending and only ever shortened to its valid prefix, so a kill
    /// during the resume itself cannot lose them.
    ///
    /// # Errors
    ///
    /// I/O failures, an unparseable or mismatched manifest, or a record
    /// naming an id outside this shard's stripe.
    pub fn open(
        path: impl AsRef<std::path::Path>,
        manifest: ShardManifest,
    ) -> Result<Self, SimError> {
        let path = path.as_ref();
        let shown = path.display().to_string();
        let existing = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(io_err("read failed", e)),
        };

        let mut done = HashSet::new();
        // Byte length of the valid prefix: the manifest plus every intact
        // record, each with its terminating newline.
        let mut valid_len = 0;
        let mut lines = existing.split_inclusive('\n');
        if let Some(header) = lines.next() {
            let on_disk = ShardManifest::parse(header.trim_end_matches('\n'))?;
            manifest.ensure_matches(&on_disk, &shown)?;
            if header.ends_with('\n') {
                valid_len = header.len();
                for line in lines {
                    // The torn tail: a line the kill cut short (or trailing
                    // garbage). Everything from the first unterminated or
                    // unparseable line on is discarded — records are only
                    // ever appended, so the valid prefix is exactly the
                    // completed work.
                    let Some(Ok((experiment, id, _))) = line.strip_suffix('\n').map(parse_record)
                    else {
                        break;
                    };
                    if !manifest.shard.owns(id) {
                        return Err(SimError::internal(format!(
                            "shard checkpoint {shown} contains scenario id {id}, \
                             which shard {} does not own",
                            manifest.shard.label()
                        )));
                    }
                    done.insert((experiment, id));
                    valid_len += line.len();
                }
            }
        }

        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| io_err("open failed", e))?;
        file.set_len(valid_len as u64)
            .map_err(|e| io_err("truncate failed", e))?;
        let mut writer = std::io::BufWriter::new(file);
        if valid_len == 0 {
            writer
                .write_all(manifest.to_json().as_bytes())
                .and_then(|()| writer.write_all(b"\n"))
                .and_then(|()| writer.flush())
                .map_err(|e| io_err("manifest write failed", e))?;
        }

        Ok(ShardSession {
            manifest,
            resumed: done.len(),
            done,
            writer: Mutex::new(writer),
            written: AtomicU64::new(0),
        })
    }

    /// The manifest this session was opened with.
    pub fn manifest(&self) -> &ShardManifest {
        &self.manifest
    }

    /// Number of records recovered from a previous run of this shard.
    pub fn resumed(&self) -> usize {
        self.resumed
    }

    /// Number of records appended by *this* run (excludes resumed ones).
    pub fn written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }

    /// The ids of `experiment`'s plan this shard still has to run: its
    /// stripe minus the ids already checkpointed.
    pub fn pending_ids(&self, experiment: &str, plan_len: usize) -> Vec<usize> {
        (0..plan_len)
            .filter(|&id| {
                self.manifest.shard.owns(id) && !self.done.contains(&(experiment.to_string(), id))
            })
            .collect()
    }

    /// Appends one completed scenario's fold value and flushes it, making
    /// it durable before the runner moves on.
    ///
    /// # Errors
    ///
    /// Propagates the I/O failure (aborting the sweep, like a failing fold).
    pub fn record(&self, experiment: &str, id: usize, metrics: &Metrics) -> Result<(), SimError> {
        let line = record_line(experiment, id, metrics);
        let mut writer = self.writer.lock().expect("shard checkpoint poisoned");
        writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush())
            .map_err(|e| io_err("record write failed", e))?;
        self.written.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// MergedValues
// ---------------------------------------------------------------------------

/// The reassembled fold values of a complete shard set, ready for the
/// experiments' aggregation code to consume in scenario-id order.
#[derive(Debug)]
pub struct MergedValues {
    manifest: ShardManifest,
    values: HashMap<(String, usize), Metrics>,
}

impl MergedValues {
    /// Loads and cross-validates a set of shard checkpoints: every manifest
    /// must agree on experiment / scale / seed / schema / depth-trace and
    /// on the shard count, the shard indices must be exactly `0..count`
    /// (each once), and every record must belong to its file's stripe.
    ///
    /// Completeness per experiment is *not* checked here — plan lengths are
    /// only known once the plans are rebuilt; the experiment driver reports
    /// the first missing id.
    ///
    /// # Errors
    ///
    /// Any manifest disagreement, duplicate or missing shard index,
    /// out-of-stripe or duplicate record, or I/O failure.
    pub fn load<P: AsRef<std::path::Path>>(paths: &[P]) -> Result<Self, SimError> {
        if paths.is_empty() {
            return Err(SimError::internal("merge needs at least one shard file"));
        }
        let mut reference: Option<ShardManifest> = None;
        let mut seen_indices: HashSet<u32> = HashSet::new();
        let mut values: HashMap<(String, usize), Metrics> = HashMap::new();
        for path in paths {
            let shown = path.as_ref().display().to_string();
            let text = std::fs::read_to_string(path)
                .map_err(|e| SimError::internal(format!("cannot read shard {shown}: {e}")))?;
            let mut lines = text.lines();
            let manifest = ShardManifest::parse(lines.next().unwrap_or_default())
                .map_err(|e| SimError::internal(format!("{shown}: {e}")))?;
            match &reference {
                None => reference = Some(manifest.clone()),
                Some(first) => {
                    // Compare everything but the stripe index by pretending
                    // the expected index is this file's: only genuine
                    // incompatibilities remain.
                    let mut expected = first.clone();
                    expected.shard.index = manifest.shard.index;
                    expected.ensure_matches(&manifest, &shown)?;
                }
            }
            if !seen_indices.insert(manifest.shard.index) {
                return Err(SimError::internal(format!(
                    "duplicate shard index {} (file {shown})",
                    manifest.shard.index
                )));
            }
            for line in lines {
                let (experiment, id, value) =
                    parse_record(line).map_err(|e| SimError::internal(format!("{shown}: {e}")))?;
                if !manifest.shard.owns(id) {
                    return Err(SimError::internal(format!(
                        "{shown}: scenario id {id} does not belong to shard {}",
                        manifest.shard.label()
                    )));
                }
                if values.insert((experiment.clone(), id), value).is_some() {
                    return Err(SimError::internal(format!(
                        "{shown}: duplicate record for experiment {experiment} scenario {id}"
                    )));
                }
            }
        }
        let manifest = reference.expect("at least one shard file");
        let missing: Vec<u32> = (0..manifest.shard.count)
            .filter(|i| !seen_indices.contains(i))
            .collect();
        if !missing.is_empty() {
            return Err(SimError::internal(format!(
                "incomplete shard set: {} file(s) for {} shards (missing indices {missing:?})",
                seen_indices.len(),
                manifest.shard.count
            )));
        }
        Ok(MergedValues { manifest, values })
    }

    /// The agreed-on manifest (the stripe index is the first file's and
    /// carries no meaning after a merge).
    pub fn manifest(&self) -> &ShardManifest {
        &self.manifest
    }

    /// The checkpointed fold value of one scenario.
    ///
    /// # Errors
    ///
    /// A missing value means a shard was killed and never resumed to
    /// completion — the error names the hole.
    pub fn value(&self, experiment: &str, id: usize) -> Result<&Metrics, SimError> {
        self.values
            .get(&(experiment.to_string(), id))
            .ok_or_else(|| {
                SimError::internal(format!(
                    "shard set is missing experiment {experiment} scenario {id}: \
                     re-run the shard owning id {id} to complete its checkpoint"
                ))
            })
    }

    /// Total number of merged records across all experiments.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the shard set carried no records at all.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

// ---------------------------------------------------------------------------
// The execution seam
// ---------------------------------------------------------------------------

/// How the experiment driver executes a plan.
#[derive(Debug, Clone, Copy)]
pub enum SweepExec<'a> {
    /// Simulate every scenario.
    Full,
    /// Simulate only this shard's pending stripe, checkpointing fold
    /// values; aggregation is skipped (the driver yields no results).
    Shard(&'a ShardSession),
    /// Simulate nothing: read the checkpointed fold values in scenario-id
    /// order and aggregate exactly as a full run would.
    Merge(&'a MergedValues),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("gpreempt-shard-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn manifest(shard: ShardSpec) -> ShardManifest {
        ShardManifest::new("all", "quick", 2014, shard, None)
    }

    #[test]
    fn shard_spec_parses_and_stripes() {
        let s = ShardSpec::parse("1/3").unwrap();
        assert_eq!((s.index, s.count), (1, 3));
        assert_eq!(s.label(), "1/3");
        assert_eq!(s.stripe(8), vec![1, 4, 7]);
        assert!(ShardSpec::parse("3/3").is_err());
        assert!(ShardSpec::parse("0/0").is_err());
        assert!(ShardSpec::parse("x/2").is_err());
        assert!(ShardSpec::parse("2").is_err());
        // Every id is owned by exactly one shard.
        for id in 0..50 {
            let owners = (0..5)
                .filter(|&k| ShardSpec { index: k, count: 5 }.owns(id))
                .count();
            assert_eq!(owners, 1, "id {id}");
        }
    }

    #[test]
    fn manifest_round_trips() {
        let m = ShardManifest::new(
            "saturation",
            "bench",
            42,
            ShardSpec { index: 2, count: 4 },
            Some(250),
        );
        let parsed = ShardManifest::parse(&m.to_json()).unwrap();
        assert_eq!(parsed, m);
        assert_eq!(parsed.schema, schema_fingerprint());
    }

    /// A one-value fold record, for the session tests.
    fn single(v: f64) -> Metrics {
        Metrics::default().with_value("v", v)
    }

    #[test]
    fn f64_codec_round_trips_exactly() {
        let values = [
            0.0,
            -0.0,
            1.5,
            -3.0,
            0.1,
            1234567.890123,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_dead_beef),
        ];
        let mut metrics = values
            .iter()
            .enumerate()
            .fold(Metrics::default(), |m, (i, &v)| {
                m.with_value(format!("v{i}"), v)
            })
            .with_series("depth_0", vec![0, 3, u32::MAX])
            .with_series("depth_1", vec![7]);
        metrics.series.push(("empty".to_string(), Vec::new()));
        // Through the actual JSON writer + parser, like a real checkpoint.
        let line = record_line("saturation", 5, &metrics);
        let (experiment, id, back) = parse_record(&line).unwrap();
        assert_eq!((experiment.as_str(), id), ("saturation", 5));
        assert_eq!(back.series, metrics.series);
        assert_eq!(back.values.len(), values.len());
        for ((name, want), (got_name, got)) in metrics.values.iter().zip(&back.values) {
            assert_eq!(name, got_name);
            assert_eq!(got.to_bits(), want.to_bits(), "{name}: {want}");
        }
        assert!(decode_metrics(&Value::from("bogus")).is_err());
        assert!(decode_metrics(&Value::object([("v", Value::from(-1.5))])).is_err());
        assert!(decode_metrics(&Value::object([(
            "s",
            Value::Array(vec![Value::from(u64::from(u32::MAX) + 1)])
        )]))
        .is_err());
    }

    #[test]
    fn session_checkpoints_and_resumes() {
        let dir = temp_dir("resume");
        let path = dir.join("shard0.jsonl");
        let spec = ShardSpec { index: 0, count: 2 };
        {
            let session = ShardSession::open(&path, manifest(spec)).unwrap();
            assert_eq!(session.resumed(), 0);
            assert_eq!(session.pending_ids("fig2", 5), vec![0, 2, 4]);
            session.record("fig2", 0, &single(10.0)).unwrap();
            session.record("fig2", 2, &single(20.0)).unwrap();
            assert_eq!(session.written(), 2);
        }
        // Reopen: the two records are recovered, only id 4 is pending.
        let session = ShardSession::open(&path, manifest(spec)).unwrap();
        assert_eq!(session.resumed(), 2);
        assert_eq!(session.pending_ids("fig2", 5), vec![4]);
        // An unrelated experiment is untouched by fig2's checkpoints.
        assert_eq!(session.pending_ids("spatial", 3), vec![0, 2]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_discarded_on_resume() {
        let dir = temp_dir("torn");
        let path = dir.join("shard.jsonl");
        let spec = ShardSpec { index: 1, count: 3 };
        {
            let session = ShardSession::open(&path, manifest(spec)).unwrap();
            session.record("fig2", 1, &single(1.0)).unwrap();
            session.record("fig2", 4, &single(4.0)).unwrap();
        }
        // Simulate a kill mid-write: chop the last line in half.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 9]).unwrap();
        let session = ShardSession::open(&path, manifest(spec)).unwrap();
        assert_eq!(session.resumed(), 1, "the torn record is gone");
        assert_eq!(session.pending_ids("fig2", 6), vec![4]);
        // The rewrite left a fully valid file.
        let rewritten = std::fs::read_to_string(&path).unwrap();
        assert_eq!(rewritten.lines().count(), 2);
        for line in rewritten.lines() {
            json::parse(line).unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A last record whose `\n` never reached the disk is torn even though
    /// it parses: resuming drops it, keeps every earlier record in place,
    /// and the re-run record lands on its own line.
    #[test]
    fn unterminated_last_record_is_torn_and_the_next_record_starts_a_new_line() {
        let dir = temp_dir("unterminated");
        let path = dir.join("shard.jsonl");
        let spec = ShardSpec { index: 0, count: 1 };
        {
            let session = ShardSession::open(&path, manifest(spec)).unwrap();
            for id in 0..3 {
                session.record("fig2", id, &single(id as f64)).unwrap();
            }
        }
        let complete = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, complete.strip_suffix('\n').unwrap()).unwrap();

        let session = ShardSession::open(&path, manifest(spec)).unwrap();
        assert_eq!(session.resumed(), 2, "the unterminated record is torn");
        assert_eq!(session.pending_ids("fig2", 3), vec![2]);
        let kept = complete
            .lines()
            .take(3)
            .map(|l| format!("{l}\n"))
            .collect::<String>();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), kept);
        session.record("fig2", 2, &single(2.0)).unwrap();
        drop(session);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), complete);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_manifest_refuses_to_resume() {
        let dir = temp_dir("mismatch");
        let path = dir.join("shard.jsonl");
        let spec = ShardSpec { index: 0, count: 2 };
        drop(ShardSession::open(&path, manifest(spec)).unwrap());
        let mut other = manifest(spec);
        other.seed = 99;
        let err = ShardSession::open(&path, other).unwrap_err();
        assert!(err.to_string().contains("seed"), "{err}");
        let mut other = manifest(spec);
        other.schema ^= 1;
        let err = ShardSession::open(&path, other).unwrap_err();
        assert!(err.to_string().contains("schema"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_validates_the_shard_set() {
        let dir = temp_dir("merge");
        let paths: Vec<_> = (0..3).map(|k| dir.join(format!("s{k}.jsonl"))).collect();
        for (k, path) in paths.iter().enumerate() {
            let spec = ShardSpec {
                index: k as u32,
                count: 3,
            };
            let session = ShardSession::open(path, manifest(spec)).unwrap();
            for id in spec.stripe(7) {
                session
                    .record("fig2", id, &single(id as f64 * 10.0))
                    .unwrap();
            }
        }
        let merged = MergedValues::load(&paths).unwrap();
        assert_eq!(merged.len(), 7);
        assert!(!merged.is_empty());
        for id in 0..7 {
            assert_eq!(merged.value("fig2", id).unwrap(), &single(id as f64 * 10.0));
        }
        let missing = merged.value("fig2", 7).unwrap_err();
        assert!(missing.to_string().contains("scenario 7"), "{missing}");

        // An incomplete set names the missing index.
        let err = MergedValues::load(&paths[..2]).unwrap_err();
        assert!(err.to_string().contains("missing indices [2]"), "{err}");
        // A duplicated file is a duplicate index.
        let err = MergedValues::load(&[&paths[0], &paths[0]]).unwrap_err();
        assert!(err.to_string().contains("duplicate shard index"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_rejects_incompatible_manifests() {
        let dir = temp_dir("merge-bad");
        let a = dir.join("a.jsonl");
        let b = dir.join("b.jsonl");
        drop(ShardSession::open(&a, manifest(ShardSpec { index: 0, count: 2 })).unwrap());
        let mut other = manifest(ShardSpec { index: 1, count: 2 });
        other.seed = 7;
        drop(ShardSession::open(&b, other).unwrap());
        let err = MergedValues::load(&[a, b]).unwrap_err();
        assert!(err.to_string().contains("seed"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
