//! Records the version of the compiler that builds the harness, so every
//! report names the toolchain its numbers came from.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|output| String::from_utf8(output.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |text| text.trim().to_string());
    println!("cargo:rustc-env=RSSE_PERF_RUSTC_VERSION={version}");
    println!("cargo:rerun-if-changed=build.rs");
}
