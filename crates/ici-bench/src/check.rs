//! `ici-bench check`: every gate CI holds over the experiments, in one
//! process that opens `results/` read-only.
//!
//! * the table and `results/e*.json` name the same set;
//! * every row, at its defaults, renders the committed record byte for
//!   byte — twice, so a run that depends on what ran before it shows;
//! * tracing and telemetry never leak into a record, E1's canonical
//!   trace is the committed `results/TRACE_e1.json` with nothing
//!   dropped, and the counters three records are trusted for still read
//!   what the design says (see each gate below).

use std::collections::BTreeSet;
use std::path::Path;
use std::{fs, io};

use ici_bench::{reset_collectors, Report, Scale};
use ici_telemetry::TelemetrySnapshot;

use crate::experiments::{Experiment, TABLE};

/// Stems of the experiment records (`e*.json`) in `dir`.
pub fn record_stems(dir: &Path) -> io::Result<BTreeSet<String>> {
    let mut stems = BTreeSet::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name().to_string_lossy().into_owned();
        let stem = name.strip_suffix(".json").filter(|s| s.starts_with('e'));
        stems.extend(stem.map(str::to_string));
    }
    Ok(stems)
}

fn committed(file: &str) -> Result<String, String> {
    fs::read_to_string(Path::new("results").join(file)).map_err(|e| format!("results/{file}: {e}"))
}

/// `Err` naming `what` and the first line where `fresh` leaves the
/// committed text.
fn same_bytes(what: &str, committed: &str, fresh: &str) -> Result<(), String> {
    if committed == fresh {
        return Ok(());
    }
    let lines = committed.lines().zip(fresh.lines());
    let line = lines.take_while(|(a, b)| a == b).count();
    let at = |text: &str| {
        text.lines()
            .nth(line)
            .unwrap_or("<end of file>")
            .to_string()
    };
    Err(format!(
        "{what} drifted from the committed bytes at line {}:\n  committed:   {}\n  regenerated: {}",
        line + 1,
        at(committed),
        at(fresh)
    ))
}

fn ensure(holds: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    holds.then_some(()).ok_or_else(what)
}

/// Runs `row` at its defaults and holds its record to the committed one.
fn replay(row: &Experiment) -> Result<Report, String> {
    let report = row.report(Scale::Small, None);
    let record = report.record().to_json();
    same_bytes(
        row.name,
        &committed(&format!("{}.json", row.name))?,
        &record,
    )?;
    Ok(report)
}

/// [`replay`] with the given collectors on — instrumentation must never
/// leak into a record. The collectors keep the run for the caller.
fn instrumented(name: &str, telemetry: bool, trace: bool) -> Result<Report, String> {
    let row = TABLE.iter().find(|row| row.name == name);
    let row = row.ok_or_else(|| format!("no row named {name}"))?;
    reset_collectors();
    ici_telemetry::set_enabled(telemetry);
    ici_trace::set_enabled(trace);
    let report = replay(row);
    ici_telemetry::set_enabled(false);
    ici_trace::set_enabled(false);
    report
}

fn counter(snapshot: &TelemetrySnapshot, name: &str) -> u64 {
    let rows = snapshot.counters.iter().filter(|c| c.name == name);
    rows.map(|c| c.value).sum()
}

pub fn run() -> Result<(), String> {
    ici_telemetry::set_enabled(false);
    ici_trace::set_enabled(false);

    let rows: BTreeSet<String> = TABLE.iter().map(|row| row.name.to_string()).collect();
    let records = record_stems(Path::new("results")).map_err(|e| format!("results: {e}"))?;
    ensure(rows == records, || {
        let unmatched: Vec<&String> = rows.symmetric_difference(&records).collect();
        format!("the experiment table and results/e*.json disagree on {unmatched:?}")
    })?;

    for row in &TABLE {
        replay(row)?;
        replay(row)?;
    }

    let e1 = instrumented("e1", false, true)?;
    let trace = ici_trace::snapshot();
    ensure(trace.dropped == 0, || {
        "e1 trace overflowed the event ring".into()
    })?;
    let canonical = ici_trace::export::canonical_json(e1.id, &trace);
    same_bytes("TRACE_e1", &committed("TRACE_e1.json")?, &canonical)?;

    instrumented("e1", true, false)?;
    let (t, series) = (ici_telemetry::snapshot(), ici_trace::series::drain());
    let stages = ["build", "distribute", "verify", "commit"].map(|s| format!("core/stage_{s}"));
    ensure(
        !t.counters.is_empty() && stages.iter().all(|name| t.span(name).is_some()),
        || format!("e1 telemetry lacks counters or one of the spans {stages:?}"),
    )?;
    ensure(
        series.first().is_some_and(|run| !run.samples.is_empty()),
        || "e1 sampled no per-round series under telemetry".into(),
    )?;

    instrumented("e_fault", true, false)?;
    let t = ici_telemetry::snapshot();
    ensure(
        t.gauges.iter().any(|g| g.name == "faults/live_nodes")
            && t.spans.iter().any(|s| s.name.starts_with("cluster/kmeans")),
        || "e_fault telemetry lacks the faults/live_nodes gauge or the cluster/kmeans spans".into(),
    )?;
    // A replica is hashed when it is written: each height once when a
    // certificate first sees it, once in the from-scratch final ruling,
    // and once more per replica a repair wrote. A return to re-deriving
    // the chain every round blows through this; wall clock on a noisy
    // host would not say so.
    let trees = counter(&t, "core/merkle_audit_trees");
    let heights = counter(&t, "core/blocks_committed") + 1;
    let ceiling = 2 * heights + counter(&t, "core/replicas_written");
    ensure(0 < trees && trees <= ceiling, || {
        format!("e_fault: core/merkle_audit_trees = {trees}, want 1..={ceiling} (2 x {heights} heights + written replicas)")
    })?;

    // The v2 lattice is built at a state's first sharded_root() and
    // carried by clones. E-scale constructs two states per run (the
    // proposer's and the end-of-run replay reference; the validator's
    // is a clone), so two builds; one per block would be an O(accounts)
    // re-materialisation.
    instrumented("e_scale", true, false)?;
    let builds = counter(&ici_telemetry::snapshot(), "state/lattice_builds");
    ensure(builds == 2, || {
        format!("e_scale: state/lattice_builds = {builds}, want one per constructed state (2)")
    })?;
    reset_collectors();
    println!(
        "check: {} records replay twice; E1 trace ({} events, none dropped) and the E1 / \
         E-fault ({trees} of {ceiling} Merkle trees) / E-scale telemetry gates hold",
        TABLE.len(),
        trace.events.len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::same_bytes;

    #[test]
    fn drift_is_reported_by_record_name_and_first_line() {
        let committed = "{\n  \"id\": \"E7\",\n  \"rows\": [\"118.2\"]\n}";
        assert_eq!(same_bytes("e7", committed, committed), Ok(()));
        let off_by_one = committed.replace("118.2", "118.3");
        let e = same_bytes("e7", committed, &off_by_one).expect_err("one byte differs");
        assert!(e.starts_with("e7 drifted") && e.contains("line 3"), "{e}");
        assert!(e.contains("118.2") && e.contains("118.3"), "{e}");
        // A truncated record differs where it ends.
        let e = same_bytes("e7", committed, "{\n  \"id\": \"E7\",").expect_err("truncated");
        assert!(e.contains("line 3") && e.contains("<end of file>"), "{e}");
    }
}
