//! Where result files go.

use std::path::PathBuf;

/// The workspace `results/` directory: `$MTP_RESULTS_DIR` if set, else
/// `results/` under the nearest ancestor directory containing a
/// `Cargo.lock` (the workspace root, regardless of which crate's test
/// binary is running), else `./results`.
pub fn results_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("MTP_RESULTS_DIR") {
        if !dir.is_empty() {
            return PathBuf::from(dir);
        }
    }
    let mut cur = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if cur.join("Cargo.lock").exists() {
            return cur.join("results");
        }
        if !cur.pop() {
            return PathBuf::from("results");
        }
    }
}
