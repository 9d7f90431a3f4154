//! Experiment result bookkeeping: JSON export for EXPERIMENTS.md.
//!
//! The JSON is emitted by a small in-repo serializer (the record shape is
//! fixed and shallow), keeping the workspace free of external
//! serialization dependencies so it builds fully offline.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use ici_telemetry::snapshot::escape_json;

use crate::table::Table;

/// A serializable experiment record: id, parameters, and result tables.
#[derive(Clone, Debug)]
pub struct ExperimentRecord {
    /// Experiment id, e.g. `"E1"`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Free-form parameter description (`"N=4000, c=64, r=1"`).
    pub params: String,
    /// Result tables.
    pub tables: Vec<Table>,
    /// Telemetry captured during the run, when collection was enabled
    /// (see `ici-telemetry`). `None` omits the section entirely.
    pub telemetry: Option<ici_telemetry::TelemetrySnapshot>,
    /// Per-round time-series registered by the runners (see
    /// `ici_trace::series`). Empty omits the section entirely, so
    /// committed baseline records never change bytes.
    pub series: Vec<ici_trace::series::RunSeries>,
}

fn write_string_array(out: &mut String, indent: &str, items: &[String]) {
    if items.is_empty() {
        out.push_str("[]");
        return;
    }
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n{indent}  \"{}\"", escape_json(item));
    }
    let _ = write!(out, "\n{indent}]");
}

fn write_table(out: &mut String, indent: &str, table: &Table) {
    let _ = write!(
        out,
        "{{\n{indent}  \"title\": \"{}\",\n{indent}  \"headers\": ",
        escape_json(table.title())
    );
    write_string_array(out, &format!("{indent}  "), table.headers());
    let _ = write!(out, ",\n{indent}  \"rows\": ");
    if table.rows().is_empty() {
        out.push_str("[]");
    } else {
        out.push('[');
        for (i, row) in table.rows().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n{indent}    ");
            write_string_array(out, &format!("{indent}    "), row);
        }
        let _ = write!(out, "\n{indent}  ]");
    }
    let _ = write!(out, "\n{indent}}}");
}

impl ExperimentRecord {
    /// Builds a record from rendered tables.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        params: impl Into<String>,
        tables: &[&Table],
    ) -> ExperimentRecord {
        ExperimentRecord {
            id: id.into(),
            title: title.into(),
            params: params.into(),
            tables: tables.iter().map(|&t| t.clone()).collect(),
            telemetry: None,
            series: Vec::new(),
        }
    }

    /// Attaches the current thread's telemetry snapshot when collection is
    /// enabled; a no-op otherwise. Call just before export so the snapshot
    /// covers the whole run.
    pub fn with_telemetry(mut self) -> ExperimentRecord {
        if ici_telemetry::enabled() {
            self.telemetry = Some(ici_telemetry::snapshot());
        }
        self
    }

    /// Drains the per-round time-series the runners registered on this
    /// thread. Nothing was registered (sampling rides the telemetry
    /// gate) ⇒ the record serializes byte-identically to one without
    /// the section.
    pub fn with_series(mut self) -> ExperimentRecord {
        self.series = ici_trace::series::drain();
        self
    }

    /// Renders the record as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"id\": \"{}\",\n  \"title\": \"{}\",\n  \"params\": \"{}\",\n  \"tables\": ",
            escape_json(&self.id),
            escape_json(&self.title),
            escape_json(&self.params)
        );
        if self.tables.is_empty() {
            out.push_str("[]");
        } else {
            out.push('[');
            for (i, table) in self.tables.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("\n    ");
                write_table(&mut out, "    ", table);
            }
            out.push_str("\n  ]");
        }
        if let Some(telemetry) = &self.telemetry {
            out.push_str(",\n  \"telemetry\": ");
            telemetry.write_json(&mut out, "  ");
        }
        if !self.series.is_empty() {
            out.push_str(",\n  \"series\": ");
            out.push_str(&ici_trace::series::render_json(&self.series, "  "));
        }
        out.push_str("\n}");
        out
    }

    /// Writes the record as pretty JSON to `path`, creating parent
    /// directories.
    ///
    /// # Errors
    ///
    /// Any I/O error from directory creation or the write.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_contains_all_fields() {
        let mut t = Table::new("Storage", ["strategy", "MB/node"]);
        t.row(["ICI", "25"]).row(["RapidChain", "100"]);
        let record = ExperimentRecord::new("E1", "Storage comparison", "N=4000", &[&t]);
        let json = record.to_json();
        assert!(json.contains("\"E1\""));
        assert!(json.contains("\"Storage comparison\""));
        assert!(json.contains("\"N=4000\""));
        assert!(json.contains("RapidChain"));
        assert!(json.contains("\"MB/node\""));
        assert!(json.contains("\"25\""));
    }

    #[test]
    fn json_escapes_special_characters() {
        let mut t = Table::new("q\"t", ["a\\b"]);
        t.row(["line\nbreak"]);
        let record = ExperimentRecord::new("EX", "tab\there", "", &[&t]);
        let json = record.to_json();
        assert!(json.contains("q\\\"t"));
        assert!(json.contains("a\\\\b"));
        assert!(json.contains("line\\nbreak"));
        assert!(json.contains("tab\\there"));
        // Output must stay single-logical-line free of raw control chars
        // inside string literals: every raw newline is structural.
        for line in json.lines() {
            assert!(!line.contains('\r'));
        }
    }

    #[test]
    fn empty_tables_serialize_as_empty_array() {
        let record = ExperimentRecord::new("E0", "none", "", &[]);
        assert!(record.to_json().contains("\"tables\": []"));
    }

    #[test]
    fn telemetry_section_rides_the_record() {
        ici_telemetry::set_enabled(true);
        ici_telemetry::reset();
        ici_telemetry::counter_add("sim/test_counter", ici_telemetry::Label::Global, 3);
        let record = ExperimentRecord::new("ET", "probe run", "", &[]).with_telemetry();
        ici_telemetry::set_enabled(false);
        let json = record.to_json();
        assert!(json.contains("\"telemetry\": {"));
        assert!(json.contains("sim/test_counter"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // Without a snapshot: no telemetry key at all. (Constructed
        // directly — the enable flag is process-global and other test
        // threads may toggle it.)
        let bare = ExperimentRecord::new("ET", "probe run", "", &[]);
        assert!(bare.telemetry.is_none());
        assert!(!bare.to_json().contains("\"telemetry\""));
    }

    #[test]
    fn series_section_rides_the_record_only_when_present() {
        // Constructed directly (not via with_series) so the test is
        // immune to other tests draining the process-global registry.
        let mut record = ExperimentRecord::new("ES", "series run", "", &[]);
        assert!(!record.to_json().contains("\"series\""));
        record.series.push(ici_trace::series::RunSeries {
            run: "ICIStrategy/n=8".to_string(),
            samples: vec![ici_trace::series::RoundSample {
                round: 1,
                height: 1,
                at_us: 120,
                committed_txs: 4,
                mempool_depth: 2,
                live_nodes: 8,
                stored_bytes: vec![10, 20],
                traffic: vec![ici_trace::series::TrafficDelta {
                    kind: "block-full",
                    messages: 3,
                    bytes: 900,
                }],
            }],
        });
        let json = record.to_json();
        assert!(json.contains("\"series\": ["));
        assert!(json.contains("ICIStrategy/n=8"));
        assert!(json.contains("\"stored_bytes\": [10, 20]"));
        assert!(json.contains("block-full"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn write_json_creates_file() {
        let mut t = Table::new("t", ["a"]);
        t.row(["1"]);
        let record = ExperimentRecord::new("EX", "x", "", &[&t]);
        let dir = std::env::temp_dir().join("ici-sim-test");
        let path = dir.join("nested").join("ex.json");
        record.write_json(&path).expect("writes");
        let content = std::fs::read_to_string(&path).expect("reads");
        assert!(content.contains("\"EX\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
