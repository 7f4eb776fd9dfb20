//! Provenance for the bench JSONs: the commit the numbers were measured
//! at and the host's core count, so a committed file says where it came
//! from.

use std::process::Command;

/// Runs `git` with `args` in the current directory; its trimmed stdout
/// on success.
fn git(args: &[&str]) -> Option<String> {
    let out = Command::new("git").args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The commit the working tree is at, suffixed `-dirty` when tracked
/// files differ from it, or `"unknown"` outside a git work tree.
fn git_rev() -> String {
    let Some(rev) = git(&["rev-parse", "HEAD"]) else {
        return "unknown".into();
    };
    let dirty = git(&["status", "--porcelain", "--untracked-files=no"])
        .is_some_and(|changes| !changes.is_empty());
    if dirty {
        format!("{rev}-dirty")
    } else {
        rev
    }
}

/// Cores available to this process (what `nproc` prints).
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `"git_rev": "…", "nproc": N` — the provenance fields, ready to splice
/// into a JSON object.
pub fn json_fields() -> String {
    format!("\"git_rev\": \"{}\", \"nproc\": {}", git_rev(), nproc())
}
