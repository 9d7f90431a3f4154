//! Records the compiler that builds the benchmark, for the host
//! fingerprint every run prints.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string());
    println!("cargo:rustc-env=ICI_BENCHMARK_RUSTC={version}");
    println!("cargo:rerun-if-changed=build.rs");
}
