//! CLI for the static-analysis gate.
//!
//! ```text
//! cargo run -p ici-lint                        # gate the workspace
//! cargo run -p ici-lint -- --format json       # machine-readable report
//! cargo run -p ici-lint -- --root path/to/tree # lint another tree
//! ```
//!
//! Exit status: `0` clean, `1` violations, `2` usage, config or I/O
//! error.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(value) => root = PathBuf::from(value),
                None => {
                    eprintln!("ici-lint: --root requires a path");
                    return ExitCode::from(2);
                }
            },
            "--format" => match args.next().as_deref() {
                Some("json") => json = true,
                Some("text") => json = false,
                other => {
                    eprintln!("ici-lint: --format must be `text` or `json`, got {other:?}");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                eprintln!(
                    "usage: ici-lint [--root <path>] [--format text|json]\n\
                     \n\
                     Static-analysis gate for the icistrategy workspace.\n\
                     Policy and site-total limits: lint.toml;\n\
                     per-site waivers: `// lint:allow(rule) -- reason`."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("ici-lint: unknown argument {other:?} (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    match ici_lint::run(&root) {
        Ok(outcome) => {
            if json {
                print!("{}", ici_lint::render_json(&outcome));
            } else {
                print!("{}", ici_lint::render_report(&outcome));
            }
            if outcome.clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(message) => {
            eprintln!("ici-lint: {message}");
            ExitCode::from(2)
        }
    }
}
