//! Records the build environment for the benchmark's output: the compiler
//! version, the Cargo profile and the commit of the checkout (when it is a
//! git checkout). Nothing here is typed in by hand.

use std::path::Path;
use std::process::Command;

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");

    // The commit is read from the checkout's own `.git` files, so nothing
    // outside the checkout is consulted.
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let commit = head_commit(&git).unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
}

/// The commit `HEAD` names. Every file read is also watched, so a new
/// commit rebuilds; a missing file is not watched, since Cargo would rerun
/// the script on every build.
fn head_commit(git: &Path) -> Option<String> {
    let read = |path: &Path| {
        let text = std::fs::read_to_string(path).ok()?;
        println!("cargo:rerun-if-changed={}", path.display());
        Some(text)
    };
    let head = read(&git.join("HEAD"))?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Some(id) = read(&git.join(reference)) {
        return Some(id.trim().to_string());
    }
    read(&git.join("packed-refs"))?
        .lines()
        .find(|line| line.ends_with(reference))
        .and_then(|line| line.split_whitespace().next())
        .map(str::to_string)
}
