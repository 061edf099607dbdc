//! Orchestration: discover the workspace, run the rules, apply waivers.

use std::fs;
use std::path::Path;

use crate::ast::parse_file;
use crate::resolve::{semantic_scan, SemFile};
use crate::rules::{Diagnostic, FileContext};
use crate::tokenizer::tokenize;
use crate::waivers::{apply_waivers, extract_waivers, Waiver};
use crate::workspace::{classify, discover, rust_files, DiscoverError};

/// The complete result of one lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Violations that survived waiver resolution, in path order.
    pub violations: Vec<Diagnostic>,
    /// Diagnostics silenced by a waiver, with the waiver that did it.
    pub waived: Vec<(Diagnostic, Waiver)>,
    /// Well-formed waivers that matched no diagnostic (likely stale).
    pub unused_waivers: Vec<Waiver>,
    /// Number of library `.rs` files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// `true` when the workspace is clean (unused waivers do not count).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

fn rel_path(root: &Path, abs: &Path) -> String {
    abs.strip_prefix(root)
        .unwrap_or(abs)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Lints the workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> Result<LintReport, DiscoverError> {
    let ws = discover(root)?;
    let mut report = LintReport::default();
    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    let mut waivers: Vec<Waiver> = Vec::new();
    // Library files across every crate, kept for the workspace-level
    // semantic pass (cross-crate fact join).
    let mut sem_files: Vec<SemFile> = Vec::new();

    for c in &ws.crates {
        let crate_abs = root.join(&c.dir);
        let files = rust_files(&crate_abs)?;

        // Pass 1: tokenize and parse the library files, collecting
        // out-of-line `#[cfg(test)] mod x;` declarations so pass 2 can
        // exempt their files. Parsed sources are kept so each file is
        // read once.
        let mut parsed = Vec::new();
        let mut test_mod_names: Vec<String> = Vec::new();
        for path in files {
            let rel_in_crate = path.strip_prefix(&crate_abs).unwrap_or(&path).to_path_buf();
            if classify(&rel_in_crate) != FileContext::Lib {
                continue;
            }
            let src = fs::read_to_string(&path).map_err(|e| DiscoverError::Io(path.clone(), e))?;
            let tokens = tokenize(&src);
            let ast = parse_file(&tokens);
            test_mod_names.extend(ast.test_mods.iter().cloned());
            parsed.push((path, rel_in_crate, tokens, ast));
            report.files_scanned += 1;
        }

        // Pass 2: hand every library file that is not a test module's
        // backing file to the semantic layer.
        for (path, rel_in_crate, tokens, ast) in parsed {
            let rel = rel_path(root, &path);
            let stem = path
                .file_stem()
                .map(|s| s.to_string_lossy().to_string())
                .unwrap_or_default();
            let is_test_mod_file = test_mod_names.iter().any(|m| {
                *m == stem
                    || (stem == "mod" && rel_in_crate.parent().is_some_and(|p| p.ends_with(m)))
            });
            if is_test_mod_file {
                continue;
            }
            let wscan = extract_waivers(&tokens.comments, &rel);
            diagnostics.extend(wscan.errors);
            waivers.extend(wscan.waivers);
            sem_files.push(SemFile {
                rel,
                toks: tokens.tokens,
                ast,
            });
        }
    }

    diagnostics.extend(semantic_scan(&sem_files));

    diagnostics.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    let (violations, waived, used) = apply_waivers(diagnostics, &waivers);
    report.violations = violations;
    report.waived = waived;
    report.unused_waivers = waivers
        .into_iter()
        .zip(used)
        .filter_map(|(w, u)| if u { None } else { Some(w) })
        .collect();
    Ok(report)
}
