//! Rendering: human-readable `file:line` lines plus the waiver summary.

use std::fmt::Write as _;

use crate::engine::LintReport;

/// Renders the report as plain text, one `file:line: [rule] message` per
/// violation, followed by the active-waiver summary.
pub fn render_text(report: &LintReport) -> String {
    let mut out = String::new();
    for d in &report.violations {
        let _ = writeln!(out, "{}:{}: [{}] {}", d.file, d.line, d.rule, d.message);
    }
    if !report.waived.is_empty() {
        let _ = writeln!(out, "active waivers ({}):", report.waived.len());
        for (d, w) in &report.waived {
            let _ = writeln!(
                out,
                "  {}:{}: [{}] waived: {}",
                d.file, d.line, d.rule, w.reason
            );
        }
    }
    for w in &report.unused_waivers {
        let _ = writeln!(
            out,
            "warning: {}:{}: unused waiver for {}",
            w.file,
            w.applies_to,
            w.rules.join(", ")
        );
    }
    let _ = writeln!(
        out,
        "hublint: {} violation(s), {} waived, {} file(s)",
        report.violations.len(),
        report.waived.len(),
        report.files_scanned
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Diagnostic;
    use crate::waivers::Waiver;

    fn sample() -> LintReport {
        LintReport {
            violations: vec![Diagnostic {
                rule: "lock-order",
                file: "crates/x/src/lib.rs".into(),
                line: 7,
                message: "m".into(),
            }],
            waived: vec![(
                Diagnostic {
                    rule: "swallowed-result",
                    file: "crates/y/src/lib.rs".into(),
                    line: 3,
                    message: "m".into(),
                },
                Waiver {
                    rules: vec!["swallowed-result".into()],
                    applies_to: 3,
                    reason: "teardown race".into(),
                    file: "crates/y/src/lib.rs".into(),
                },
            )],
            unused_waivers: Vec::new(),
            files_scanned: 2,
        }
    }

    #[test]
    fn text_has_file_line_rule() {
        let t = render_text(&sample());
        assert!(t.contains("crates/x/src/lib.rs:7: [lock-order]"));
        assert!(t.contains("active waivers (1):"));
        assert!(t.contains("waived: teardown race"));
        assert!(t.contains("1 violation(s), 1 waived"));
    }
}
