//! The paper's experiments, one executable.
//!
//! ```text
//! ici-bench [name…] [--paper] [--seed N]   # print + write results/<name>.json; no name = every row
//! ici-bench check                          # run every row in-process against results/, write nothing
//! ```
//!
//! Names are the rows of [`experiments::TABLE`] (`e1` … `e11`,
//! `e_fault`, `e_byz`, `e_scale`). `ICI_TELEMETRY=1` / `ICI_TRACE=1`
//! (and `ICI_TRACE_OUT`) instrument a run, see [`ici_bench::emit`];
//! `check` ignores them and drives both collectors itself.

mod check;
mod experiments;

use std::process::ExitCode;

use experiments::{Experiment, Run, TABLE};
use ici_bench::Scale;

const USAGE: &str = "usage: ici-bench [name…] [--paper] [--seed N]\n       ici-bench check";

/// What a run command asks for.
struct Selection {
    rows: Vec<&'static Experiment>,
    scale: Scale,
    seed: Option<u64>,
}

/// Every argument is a known experiment, a known flag, or an error: a
/// typo never runs — and rewrites the record of — a different
/// experiment than the one asked for.
fn parse(args: &[String]) -> Result<Selection, String> {
    let (mut rows, mut scale, mut seed) = (Vec::new(), Scale::Small, None);
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--paper" => scale = Scale::Paper,
            "--seed" => {
                let value = args.next().ok_or("--seed needs a value")?;
                seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?);
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            name => rows.push(TABLE.iter().find(|row| row.name == name).ok_or_else(|| {
                let known: Vec<&str> = TABLE.iter().map(|row| row.name).collect();
                format!("unknown experiment {name} (known: {})", known.join(" "))
            })?),
        }
    }
    if rows.is_empty() {
        rows = TABLE.iter().collect();
    }
    let fixed = rows.iter().find(|row| matches!(row.run, Run::Fixed(_)));
    match fixed.filter(|_| seed.is_some()) {
        Some(row) => Err(format!(
            "--seed does not apply to {}, whose seeds are fixed; name the rows it is for",
            row.name
        )),
        None => Ok(Selection { rows, scale, seed }),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["check"] {
        return match check::run() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("check failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match parse(&args) {
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(Selection { rows, scale, seed }) => {
            ici_telemetry::init_from_env();
            ici_trace::init_from_env();
            for row in rows {
                ici_bench::reset_collectors();
                ici_bench::emit(&row.report(scale, seed));
            }
            ExitCode::SUCCESS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A run command's row names, scale and seed.
    fn run_of(list: &[&str]) -> Result<(Vec<&'static str>, Scale, Option<u64>), String> {
        let args: Vec<String> = list.iter().map(|a| a.to_string()).collect();
        let Selection { rows, scale, seed } = parse(&args)?;
        Ok((rows.iter().map(|row| row.name).collect(), scale, seed))
    }

    #[test]
    fn scale_parsing_defaults_small() {
        let scale_of = |list: &[&str]| run_of(list).map(|run| run.1);
        assert_eq!(scale_of(&["e1"]), Ok(Scale::Small));
        assert_eq!(scale_of(&["e1", "--paper"]), Ok(Scale::Paper));
        assert!(scale_of(&["e1", "--papr"]).is_err_and(|e| e.contains("--papr")));
    }

    #[test]
    fn seed_is_parsed_or_refused() {
        let seed_of = |list: &[&str]| run_of(list).map(|run| run.2);
        assert_eq!(seed_of(&["e_fault", "--paper"]), Ok(None));
        assert_eq!(seed_of(&["e_fault", "--seed", "7"]), Ok(Some(7)));
        assert_eq!(seed_of(&["--seed", "7", "e_byz", "e_scale"]), Ok(Some(7)));
        assert!(seed_of(&["e_fault", "--seed", "4x2"]).is_err_and(|e| e.contains("4x2")));
        assert!(seed_of(&["e_fault", "--seed"]).is_err());
        // A row that fixes its seeds would accept the flag and ignore it.
        assert!(seed_of(&["e_fault", "e7", "--seed", "7"]).is_err_and(|e| e.contains("e7")));
        assert!(seed_of(&["--seed", "7"]).is_err_and(|e| e.contains("e1")));
    }

    #[test]
    fn names_select_rows_and_none_selects_all() {
        let names_of = |list: &[&str]| run_of(list).map(|run| run.0);
        assert_eq!(names_of(&["e7", "e_byz"]), Ok(vec!["e7", "e_byz"]));
        assert_eq!(names_of(&[]).map(|names| names.len()), Ok(TABLE.len()));
        assert_eq!(
            names_of(&["--paper"]).map(|names| names.len()),
            Ok(TABLE.len())
        );
        assert!(names_of(&["e12"]).is_err_and(|e| e.contains("e12")));
        // `check` is a command only on its own; anywhere else it is no experiment.
        assert!(names_of(&["check", "--paper"]).is_err_and(|e| e.contains("check")));
    }

    /// The table and `results/e*.json` are the same set: a record with
    /// no row is never checked again, a row with no record has nothing
    /// to be checked against.
    #[test]
    fn table_names_are_unique_and_match_the_committed_records() {
        let names: std::collections::BTreeSet<String> =
            TABLE.iter().map(|row| row.name.to_string()).collect();
        assert_eq!(names.len(), TABLE.len(), "duplicate row name");
        let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        assert_eq!(
            names,
            check::record_stems(&results).expect("results/ reads")
        );
    }
}
