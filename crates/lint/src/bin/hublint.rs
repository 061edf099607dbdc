//! `hublint` — run the workspace's four dataflow rules (`cast-truncation`,
//! `swallowed-result`, `lock-order`, `untrusted-length-alloc`).
//!
//! ```text
//! hublint [--root <dir>]
//! ```
//!
//! Scans the workspace rooted at `--root` (default: the current
//! directory, walking upward to the nearest `[workspace]` manifest) and
//! reports violations as `file:line: [rule] message` lines.
//!
//! Exit codes match `hubserve`: 0 clean, 1 violations found (or a runtime
//! failure such as an unreadable file), 2 usage error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use hl_lint::lint_workspace;
use hl_lint::output::render_text;

const USAGE: &str = "usage: hublint [--root <dir>]";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

/// Walks upward from `start` to the nearest directory whose `Cargo.toml`
/// declares a `[workspace]`.
fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(contents) = std::fs::read_to_string(&manifest) {
            if contents.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage(),
            },
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ => return usage(),
        }
    }
    let root = match root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("hublint: cannot determine current directory: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "hublint: no [workspace] Cargo.toml at or above {}",
                        cwd.display()
                    );
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    match lint_workspace(&root) {
        Ok(report) => {
            print!("{}", render_text(&report));
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("hublint: {e}");
            ExitCode::FAILURE
        }
    }
}
