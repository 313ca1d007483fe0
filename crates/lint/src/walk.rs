//! Deterministic workspace source discovery.
//!
//! Walks the source roots (`crates/`, `src/`, `tests/`, `examples/`,
//! and `perf/`, the benchmark package outside the library workspace)
//! for `.rs` files in sorted order — the lint obeys its own rules, so
//! nothing here may depend on directory-entry or hash order. `shims/`
//! (vendored API stubs), `target/`, and any `fixtures/` directory (the
//! lint's own deliberately-violating test corpus) are excluded.

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Top-level directories that contain repository-owned Rust sources.
const SOURCE_ROOTS: [&str; 5] = ["crates", "src", "tests", "examples", "perf"];

/// Directory names never descended into, anywhere in the tree.
const EXCLUDED_DIRS: [&str; 3] = ["target", "shims", "fixtures"];

/// Returns every workspace `.rs` source under `root`, as sorted
/// workspace-relative paths with `/` separators.
pub fn collect_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for top in SOURCE_ROOTS {
        let dir = root.join(top);
        if dir.is_dir() {
            walk_dir(&dir, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk_dir(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !EXCLUDED_DIRS.contains(&name) {
                walk_dir(&path, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Parses the `## §n` headings out of the workspace `DESIGN.md`; an
/// absent file yields the empty set (and every `§n` reference then
/// correctly fails D6).
pub fn design_sections(root: &Path) -> BTreeSet<u32> {
    let Ok(text) = fs::read_to_string(root.join("DESIGN.md")) else {
        return BTreeSet::new();
    };
    let mut out = BTreeSet::new();
    for line in text.lines() {
        let heading = line.trim_start_matches('#').trim_start();
        if let Some(rest) = heading.strip_prefix('§') {
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            if let Ok(n) = digits.parse() {
                out.insert(n);
            }
        }
    }
    out
}

/// Workspace-relative display path with forward slashes.
pub fn relative_display(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.to_string_lossy().replace('\\', "/")
}
