//! Machine-readable sweep reports.

use crate::json::{self, Value};
use crate::report::TextTable;
use gpreempt_types::SimError;

/// A flat named-value record: what an experiment's fold extracts from one
/// simulation, and the metric payload of one [`SweepRecord`].
///
/// Values are an insertion-ordered list (not a map), so serialisation is
/// deterministic. Shard checkpoints carry a `Metrics` per scenario
/// bit-exactly, non-finite values and the sign of zero included.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Named metric values, in a fixed per-experiment order.
    pub values: Vec<(String, f64)>,
    /// Named sampled series (e.g. per-process queue-depth traces), in a
    /// fixed per-experiment order. Almost always empty.
    pub series: Vec<(String, Vec<u32>)>,
}

impl Metrics {
    /// Appends a named metric value.
    #[must_use]
    pub fn with_value(mut self, name: impl Into<String>, value: f64) -> Self {
        self.values.push((name.into(), value));
        self
    }

    /// Appends a named sampled series (ignored when `samples` is empty, so
    /// callers can pass a possibly-empty trace unconditionally).
    #[must_use]
    pub fn with_series(mut self, name: impl Into<String>, samples: Vec<u32>) -> Self {
        if !samples.is_empty() {
            self.series.push((name.into(), samples));
        }
        self
    }

    /// The value of a named metric, if present.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The value of a named metric an aggregation requires.
    ///
    /// # Errors
    ///
    /// Names the missing metric (a fold that drifted from its schema, or a
    /// hand-edited checkpoint).
    pub fn get(&self, name: &str) -> Result<f64, SimError> {
        self.value(name)
            .ok_or_else(|| SimError::internal(format!("metrics record has no value {name:?}")))
    }
}

/// One record of a sweep report: the identity of a scenario plus the named
/// metric values an experiment extracted from its simulation. Non-finite
/// values (a starved process's NTT is ∞) serialise as JSON `null`.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRecord {
    /// Record index within the report.
    pub id: usize,
    /// Experiment family (e.g. `"priority"`, `"spatial"`).
    pub group: String,
    /// Workload name.
    pub workload: String,
    /// Configuration label within the group.
    pub config: String,
    /// Number of co-scheduled processes.
    pub size: usize,
    /// The record's values and series. The `series` JSON key is emitted
    /// only when at least one series is present, so reports without traces
    /// serialise exactly as they did before series existed.
    pub metrics: Metrics,
}

impl SweepRecord {
    /// Creates a record; the id is assigned by [`SweepReport::push`].
    pub fn new(
        group: impl Into<String>,
        workload: impl Into<String>,
        config: impl Into<String>,
        size: usize,
    ) -> Self {
        SweepRecord {
            id: 0,
            group: group.into(),
            workload: workload.into(),
            config: config.into(),
            size,
            metrics: Metrics::default(),
        }
    }

    /// Appends a named metric value.
    #[must_use]
    pub fn with_value(mut self, name: impl Into<String>, value: f64) -> Self {
        self.metrics = self.metrics.with_value(name, value);
        self
    }

    /// Serialises this record alone as compact JSON — one line of a JSONL
    /// stream ([`JsonlSink`](crate::sweep::JsonlSink)). Identical to the
    /// record's rendering inside [`SweepReport::to_json`].
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }

    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("id".to_string(), Value::from(self.id)),
            ("group".to_string(), Value::from(self.group.as_str())),
            ("workload".to_string(), Value::from(self.workload.as_str())),
            ("config".to_string(), Value::from(self.config.as_str())),
            ("size".to_string(), Value::from(self.size)),
            (
                "values".to_string(),
                Value::Object(
                    self.metrics
                        .values
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Number(*v)))
                        .collect(),
                ),
            ),
        ];
        if !self.metrics.series.is_empty() {
            fields.push((
                "series".to_string(),
                Value::Object(
                    self.metrics
                        .series
                        .iter()
                        .map(|(k, samples)| {
                            let items =
                                samples.iter().map(|&s| Value::from(u64::from(s))).collect();
                            (k.clone(), Value::Array(items))
                        })
                        .collect(),
                ),
            ));
        }
        Value::Object(fields)
    }
}

/// A machine-readable sweep report: the plan seed plus one record per
/// scenario an experiment reported on.
///
/// Serialisation is byte-deterministic: the same records in the same order
/// always produce the same JSON, independent of how many workers executed
/// the sweep. Wall-clock timing lives in
/// [`SweepTiming`](crate::sweep::SweepTiming), *not* here, for exactly that
/// reason.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepReport {
    plan_seed: u64,
    records: Vec<SweepRecord>,
}

impl SweepReport {
    /// Creates an empty report for a plan seed.
    pub fn new(plan_seed: u64) -> Self {
        SweepReport {
            plan_seed,
            records: Vec::new(),
        }
    }

    /// The plan seed the sweep was enumerated from.
    pub fn plan_seed(&self) -> u64 {
        self.plan_seed
    }

    /// Appends a record, assigning it the next id.
    pub fn push(&mut self, mut record: SweepRecord) {
        record.id = self.records.len();
        self.records.push(record);
    }

    /// The records, in id order.
    pub fn records(&self) -> &[SweepRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the report has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Appends every record of `other` (re-numbering ids to stay
    /// sequential).
    pub fn merge(&mut self, other: SweepReport) {
        for record in other.records {
            self.push(record);
        }
    }

    /// Serialises the report to compact JSON:
    ///
    /// ```json
    /// {"plan_seed":2014,"record_count":2,"records":[
    ///   {"id":0,"group":"spatial","workload":"rand-2p-1",
    ///    "config":"DSS Context Switch","size":2,
    ///    "values":{"antt":1.18,"stp":1.71,"fairness":0.93}}, ...]}
    /// ```
    pub fn to_json(&self) -> String {
        Value::object([
            ("plan_seed", Value::from(self.plan_seed)),
            ("record_count", Value::from(self.records.len())),
            (
                "records",
                Value::Array(self.records.iter().map(SweepRecord::to_value).collect()),
            ),
        ])
        .to_json()
    }

    /// Parses and validates serialised report JSON, returning the record
    /// count.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem: unparseable JSON, a
    /// missing field, or a `record_count` that disagrees with the actual
    /// number of records.
    pub fn validate_json(text: &str) -> Result<usize, String> {
        let value = json::parse(text)?;
        value
            .get("plan_seed")
            .and_then(Value::as_u64)
            .ok_or("missing or non-integer plan_seed")?;
        let declared = value
            .get("record_count")
            .and_then(Value::as_u64)
            .ok_or("missing or non-integer record_count")? as usize;
        let records = value
            .get("records")
            .and_then(Value::as_array)
            .ok_or("missing records array")?;
        if records.len() != declared {
            return Err(format!(
                "record_count says {declared} but the report has {} records",
                records.len()
            ));
        }
        for (i, record) in records.iter().enumerate() {
            for field in ["group", "workload", "config"] {
                if record.get(field).and_then(Value::as_str).is_none() {
                    return Err(format!("record {i} is missing {field}"));
                }
            }
            if record.get("size").and_then(Value::as_u64).is_none() {
                return Err(format!("record {i} has a missing or non-integer size"));
            }
            if !matches!(record.get("values"), Some(Value::Object(_))) {
                return Err(format!("record {i} is missing its values object"));
            }
        }
        Ok(records.len())
    }

    /// Renders the report as an aligned text table (one row per record,
    /// values joined as `name=value`).
    pub fn render(&self) -> TextTable {
        let mut table = TextTable::new(vec![
            "id".into(),
            "group".into(),
            "workload".into(),
            "config".into(),
            "procs".into(),
            "values".into(),
        ])
        .with_title(format!("Sweep report (plan seed {})", self.plan_seed));
        table.extend_rows(self.records.iter().map(|r| {
            let values = r
                .metrics
                .values
                .iter()
                .map(|(k, v)| format!("{k}={v:.4}"))
                .collect::<Vec<_>>()
                .join(" ");
            vec![
                r.id.to_string(),
                r.group.clone(),
                r.workload.clone(),
                r.config.clone(),
                r.size.to_string(),
                values,
            ]
        }));
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SweepReport {
        let mut report = SweepReport::new(2014);
        report.push(
            SweepRecord::new("spatial", "rand-2p-1", "FCFS", 2)
                .with_value("antt", 1.5)
                .with_value("stp", 1.25),
        );
        report.push(
            SweepRecord::new("spatial", "rand-2p-1", "DSS Context Switch", 2)
                .with_value("antt", 1.2)
                .with_value("stp", 1.4),
        );
        report
    }

    #[test]
    fn json_round_trips_through_the_validator() {
        let report = sample();
        let text = report.to_json();
        assert_eq!(SweepReport::validate_json(&text).unwrap(), 2);
        assert!(text.starts_with(r#"{"plan_seed":2014,"record_count":2,"#));
    }

    #[test]
    fn serialisation_is_deterministic() {
        assert_eq!(sample().to_json(), sample().to_json());
    }

    #[test]
    fn starved_infinite_values_serialise_as_null() {
        let mut report = SweepReport::new(1);
        report.push(SweepRecord::new("g", "w", "c", 2).with_value("ntt_0", f64::INFINITY));
        let text = report.to_json();
        assert!(text.contains(r#""ntt_0":null"#));
        assert_eq!(SweepReport::validate_json(&text).unwrap(), 1);
    }

    #[test]
    fn validator_rejects_inconsistent_reports() {
        assert!(SweepReport::validate_json("not json").is_err());
        assert!(SweepReport::validate_json("{}").is_err());
        let lying = r#"{"plan_seed":1,"record_count":2,"records":[]}"#;
        assert!(SweepReport::validate_json(lying)
            .unwrap_err()
            .contains("record_count"));
        let missing_field =
            r#"{"plan_seed":1,"record_count":1,"records":[{"group":"g","workload":"w"}]}"#;
        assert!(SweepReport::validate_json(missing_field).is_err());
        // Fractional counts must not validate via f64 truncation.
        let fractional = r#"{"plan_seed":1,"record_count":0.5,"records":[]}"#;
        assert!(SweepReport::validate_json(fractional)
            .unwrap_err()
            .contains("non-integer record_count"));
    }

    #[test]
    fn series_are_emitted_only_when_present() {
        // No series → the key is absent and the JSON is byte-identical to
        // the pre-series format.
        let plain = sample().to_json();
        assert!(!plain.contains("series"));
        let mut report = SweepReport::new(1);
        let mut record = SweepRecord::new("saturation", "w", "c", 2).with_value("shed_rate", 0.25);
        record.metrics = record
            .metrics
            .with_series("depth_0", vec![0, 1, 2, 1])
            .with_series("depth_1", vec![]);
        report.push(record);
        let text = report.to_json();
        assert!(text.contains(r#""series":{"depth_0":[0,1,2,1]}"#));
        assert!(!text.contains("depth_1"), "empty series are dropped");
        // The validator ignores the extra key.
        assert_eq!(SweepReport::validate_json(&text).unwrap(), 1);
    }

    #[test]
    fn merge_renumbers_ids() {
        let mut a = sample();
        a.merge(sample());
        assert_eq!(a.len(), 4);
        let ids: Vec<usize> = a.records().iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert!(!a.is_empty());
        assert_eq!(a.records()[3].metrics.value("stp"), Some(1.4));
        assert_eq!(a.records()[3].metrics.value("nope"), None);
    }

    #[test]
    fn render_produces_one_row_per_record() {
        let table = sample().render();
        assert_eq!(table.len(), 2);
        let text = table.render();
        assert!(text.contains("antt=1.5000"));
    }
}
