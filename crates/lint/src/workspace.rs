//! Workspace discovery: members, crate roots, and file classification.
//!
//! Discovery follows the root `Cargo.toml` rather than walking the whole
//! tree, so stray fixture crates (for example under a member's `tests/`
//! directory) are never mistaken for workspace code. Only `members`
//! entries of the simple forms used here — literal paths and a trailing
//! `/*` glob — are supported.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::rules::FileContext;

/// One discovered workspace crate.
#[derive(Debug)]
pub struct CrateInfo {
    /// Package name from the manifest.
    pub name: String,
    /// Directory containing the crate's `Cargo.toml`, workspace-relative.
    pub dir: PathBuf,
}

/// The discovered workspace: the root plus every member crate.
#[derive(Debug)]
pub struct Workspace {
    /// Absolute path of the workspace root.
    pub root: PathBuf,
    /// Member crates (including the root package when the root manifest
    /// has a `[package]` section).
    pub crates: Vec<CrateInfo>,
}

/// Everything discovery can trip over.
#[derive(Debug)]
pub enum DiscoverError {
    /// Filesystem failure, with the path involved.
    Io(PathBuf, io::Error),
    /// The root manifest is missing or not a workspace.
    NotAWorkspace(PathBuf),
}

impl std::fmt::Display for DiscoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiscoverError::Io(p, e) => write!(f, "{}: {e}", p.display()),
            DiscoverError::NotAWorkspace(p) => {
                write!(f, "{}: no [workspace] manifest found", p.display())
            }
        }
    }
}

impl std::error::Error for DiscoverError {}

fn read(path: &Path) -> Result<String, DiscoverError> {
    fs::read_to_string(path).map_err(|e| DiscoverError::Io(path.to_path_buf(), e))
}

/// Extracts `members = [ "…", … ]` entries from a manifest.
fn members_of(manifest: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_workspace = false;
    let mut in_members = false;
    for raw in manifest.lines() {
        let line = raw.trim();
        if line.starts_with('[') {
            in_workspace = line == "[workspace]";
            in_members = false;
            continue;
        }
        if in_workspace && line.starts_with("members") {
            in_members = true;
        }
        if in_members {
            for piece in line.split('"').skip(1).step_by(2) {
                out.push(piece.to_string());
            }
            if line.contains(']') {
                in_members = false;
            }
        }
    }
    out
}

/// The `name = "…"` of a manifest's `[package]` section.
fn package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for raw in manifest.lines() {
        let line = raw.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(value) = rest.strip_prefix('=') {
                    return Some(value.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

/// Discovers the workspace rooted at `root` (which must hold the
/// `[workspace]` manifest).
pub fn discover(root: &Path) -> Result<Workspace, DiscoverError> {
    let root_manifest_path = root.join("Cargo.toml");
    let root_manifest = read(&root_manifest_path)?;
    if !root_manifest.contains("[workspace]") {
        return Err(DiscoverError::NotAWorkspace(root_manifest_path));
    }

    let mut dirs: Vec<PathBuf> = Vec::new();
    for member in members_of(&root_manifest) {
        if let Some(prefix) = member.strip_suffix("/*") {
            let base = root.join(prefix);
            let entries = fs::read_dir(&base).map_err(|e| DiscoverError::Io(base.clone(), e))?;
            let mut found: Vec<PathBuf> = Vec::new();
            for entry in entries {
                let entry = entry.map_err(|e| DiscoverError::Io(base.clone(), e))?;
                let path = entry.path();
                if path.join("Cargo.toml").is_file() {
                    found.push(PathBuf::from(prefix).join(entry.file_name()));
                }
            }
            found.sort();
            dirs.extend(found);
        } else {
            dirs.push(PathBuf::from(member));
        }
    }
    // The root package itself, when the root manifest is not virtual.
    if package_name(&root_manifest).is_some() {
        dirs.push(PathBuf::new());
    }

    let mut crates = Vec::new();
    for dir in dirs {
        let manifest_path = root.join(&dir).join("Cargo.toml");
        let manifest = read(&manifest_path)?;
        let Some(name) = package_name(&manifest) else {
            continue;
        };
        crates.push(CrateInfo { name, dir });
    }
    Ok(Workspace {
        root: root.to_path_buf(),
        crates,
    })
}

/// Recursively lists `.rs` files under `dir` (relative to the crate dir),
/// skipping `target/` and hidden directories.
pub fn rust_files(crate_abs: &Path) -> Result<Vec<PathBuf>, DiscoverError> {
    let mut out = Vec::new();
    let mut stack = vec![crate_abs.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = match fs::read_dir(&dir) {
            Ok(e) => e,
            Err(_) => continue, // e.g. the dir does not exist: nothing to lint
        };
        for entry in entries {
            let entry = entry.map_err(|e| DiscoverError::Io(dir.clone(), e))?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                // The root package's crates/ subtree belongs to the members.
                if name == "crates" && dir == *crate_abs {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Classifies a file by its path within its crate.
pub fn classify(rel_in_crate: &Path) -> FileContext {
    let mut components = rel_in_crate.components().map(|c| c.as_os_str());
    let first = components.next().map(|c| c.to_string_lossy().to_string());
    let second = components.next().map(|c| c.to_string_lossy().to_string());
    match (first.as_deref(), second.as_deref()) {
        (Some("src"), Some("bin" | "main.rs")) => FileContext::NonLib,
        (Some("src"), _) => FileContext::Lib,
        // tests/, benches/, examples/, build.rs and other stray files.
        _ => FileContext::NonLib,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_parsing_single_line_and_multi_line() {
        let single = "[workspace]\nmembers = [\"crates/*\"]\n";
        assert_eq!(members_of(single), vec!["crates/*"]);
        let multi = "[workspace]\nmembers = [\n  \"a\",\n  \"b/c\",\n]\n";
        assert_eq!(members_of(multi), vec!["a", "b/c"]);
    }

    #[test]
    fn package_name_extraction() {
        let m = "[package]\nname = \"hl-lint\"\nversion = \"0.1\"\n";
        assert_eq!(package_name(m), Some("hl-lint".to_string()));
        assert_eq!(package_name("[workspace]\n"), None);
    }

    #[test]
    fn classification() {
        assert_eq!(classify(Path::new("src/lib.rs")), FileContext::Lib);
        assert_eq!(classify(Path::new("src/store.rs")), FileContext::Lib);
        assert_eq!(
            classify(Path::new("src/bin/hubserve.rs")),
            FileContext::NonLib
        );
        assert_eq!(classify(Path::new("src/main.rs")), FileContext::NonLib);
        assert_eq!(classify(Path::new("tests/cli.rs")), FileContext::NonLib);
        assert_eq!(classify(Path::new("benches/b.rs")), FileContext::NonLib);
        assert_eq!(classify(Path::new("examples/e.rs")), FileContext::NonLib);
        assert_eq!(
            classify(Path::new("tests/fixtures/bad/src/lib.rs")),
            FileContext::NonLib
        );
    }

    #[test]
    fn discovers_this_workspace() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let ws = discover(&root).expect("discover workspace");
        let names: Vec<&str> = ws.crates.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"hl-graph"));
        assert!(names.contains(&"hl-server"));
        assert!(names.contains(&"hl-lint"));
        assert!(names.contains(&"hub-labeling"), "root package found");
    }
}
