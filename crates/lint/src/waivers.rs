//! Per-line waivers: `// lint:allow(rule[, rule…]): reason`.
//!
//! A waiver on its own line covers the *next* line; a trailing waiver
//! covers its *own* line. The reason is mandatory — a waiver without one
//! is itself a violation (`waiver-syntax`), as is a waiver naming an
//! unknown rule. Every honored waiver is reported in the lint summary so
//! the full set of exceptions stays reviewable in one place.

use crate::rules::{Diagnostic, RULE_NAMES};
use crate::tokenizer::CommentTok;

/// One parsed waiver directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    /// Rules this waiver silences.
    pub rules: Vec<String>,
    /// The line the waiver applies to (not the line it is written on).
    pub applies_to: u32,
    /// Mandatory justification.
    pub reason: String,
    /// Workspace-relative file.
    pub file: String,
}

/// Waivers plus any malformed-directive diagnostics found in one file.
#[derive(Debug, Default)]
pub struct WaiverScan {
    /// Well-formed waivers.
    pub waivers: Vec<Waiver>,
    /// Malformed directives (missing reason, unknown rule).
    pub errors: Vec<Diagnostic>,
}

/// Extracts waiver directives from a file's comments.
pub fn extract_waivers(comments: &[CommentTok], file: &str) -> WaiverScan {
    let mut scan = WaiverScan::default();
    for c in comments {
        // Doc comments (`///`, `//!`, `/**`, `/*!`) are documentation —
        // a directive there describes the syntax, it does not waive code.
        if c.text.starts_with("///")
            || c.text.starts_with("//!")
            || c.text.starts_with("/**")
            || c.text.starts_with("/*!")
        {
            continue;
        }
        let Some(at) = c.text.find("lint:allow(") else {
            continue;
        };
        let rest = &c.text[at + "lint:allow(".len()..];
        let err = |message: String| Diagnostic {
            rule: "waiver-syntax",
            file: file.to_string(),
            line: c.line,
            message,
        };
        let Some(close) = rest.find(')') else {
            scan.errors
                .push(err("unclosed rule list in lint:allow(...)".to_string()));
            continue;
        };
        let rules: Vec<String> = rest[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        if rules.is_empty() {
            scan.errors
                .push(err("lint:allow() names no rules".to_string()));
            continue;
        }
        if let Some(bad) = rules.iter().find(|r| !RULE_NAMES.contains(&r.as_str())) {
            scan.errors
                .push(err(format!("lint:allow names unknown rule '{bad}'")));
            continue;
        }
        let after = rest[close + 1..].trim_start();
        let Some(reason) = after.strip_prefix(':').map(str::trim) else {
            scan.errors.push(err(
                "lint:allow(rule) must be followed by ': reason'".to_string()
            ));
            continue;
        };
        if reason.is_empty() {
            scan.errors.push(err(
                "lint:allow requires a non-empty reason after ':'".to_string()
            ));
            continue;
        }
        let applies_to = if c.starts_line {
            c.end_line + 1
        } else {
            c.line
        };
        scan.waivers.push(Waiver {
            rules,
            applies_to,
            reason: reason.to_string(),
            file: file.to_string(),
        });
    }
    scan
}

/// Splits diagnostics into surviving violations and `(diagnostic, waiver)`
/// pairs, and marks which waivers were used.
pub fn apply_waivers(
    diagnostics: Vec<Diagnostic>,
    waivers: &[Waiver],
) -> (Vec<Diagnostic>, Vec<(Diagnostic, Waiver)>, Vec<bool>) {
    let mut used = vec![false; waivers.len()];
    let mut surviving = Vec::new();
    let mut waived = Vec::new();
    for d in diagnostics {
        let hit = waivers.iter().position(|w| {
            w.file == d.file && w.applies_to == d.line && w.rules.iter().any(|r| r == d.rule)
        });
        match hit {
            Some(idx) => {
                used[idx] = true;
                waived.push((d, waivers[idx].clone()));
            }
            None => surviving.push(d),
        }
    }
    (surviving, waived, used)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;

    fn waivers_of(src: &str) -> WaiverScan {
        extract_waivers(&tokenize(src).comments, "f.rs")
    }

    #[test]
    fn trailing_waiver_applies_to_its_own_line() {
        let s = waivers_of("let x = f(); // lint:allow(swallowed-result): provably in range\n");
        assert_eq!(s.errors.len(), 0);
        assert_eq!(s.waivers.len(), 1);
        assert_eq!(s.waivers[0].applies_to, 1);
        assert_eq!(s.waivers[0].reason, "provably in range");
    }

    #[test]
    fn own_line_waiver_applies_to_next_line() {
        let s = waivers_of("// lint:allow(lock-order): harness output\nprintln!(\"x\");\n");
        assert_eq!(s.waivers[0].applies_to, 2);
    }

    #[test]
    fn multi_rule_waiver() {
        let s = waivers_of("// lint:allow(swallowed-result, lock-order): demo\nx();\n");
        assert_eq!(s.waivers[0].rules, vec!["swallowed-result", "lock-order"]);
    }

    #[test]
    fn missing_reason_is_an_error() {
        assert_eq!(
            waivers_of("// lint:allow(swallowed-result):\nx();")
                .errors
                .len(),
            1
        );
        assert_eq!(
            waivers_of("// lint:allow(swallowed-result)\nx();")
                .errors
                .len(),
            1
        );
    }

    #[test]
    fn unknown_rule_is_an_error() {
        let s = waivers_of("// lint:allow(no-such-rule): because\nx();");
        assert_eq!(s.errors.len(), 1);
        assert!(s.errors[0].message.contains("no-such-rule"));
    }

    #[test]
    fn waiver_application_and_usage_tracking() {
        let diags = vec![
            Diagnostic {
                rule: "swallowed-result",
                file: "f.rs".into(),
                line: 2,
                message: "m".into(),
            },
            Diagnostic {
                rule: "swallowed-result",
                file: "f.rs".into(),
                line: 9,
                message: "m".into(),
            },
        ];
        let s = waivers_of("// lint:allow(swallowed-result): fine here\nx.unwrap();\n");
        let (surviving, waived, used) = apply_waivers(diags, &s.waivers);
        assert_eq!(surviving.len(), 1);
        assert_eq!(surviving[0].line, 9);
        assert_eq!(waived.len(), 1);
        assert_eq!(used, vec![true]);
    }
}
