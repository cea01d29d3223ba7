//! Workspace automation for the RnB reproduction.
//!
//! `lint` is a repo-specific static-analysis pass enforcing rules that
//! rustc and clippy cannot express (see [`rules`] for the catalogue
//! R1–R10; R7–R10 work over the approximate call graph built by
//! [`lexer`]/[`items`]/[`callgraph`]). It is wired in three places so it
//! cannot be forgotten:
//!
//! * `cargo run -p xtask -- lint` — the developer entry point,
//! * `tests/lint_clean.rs` — tier-1 (`cargo test -q`) runs it forever,
//! * `.github/workflows/ci.yml` — CI runs the binary form.
//!
//! `e2e-pairs` ([`pairs`]) measures the working tree against a parent
//! revision through `BENCHMARK.json`'s command, in alternating pairs over
//! unseen seeds, and appends the record to `BENCH_e2e.json`.
//!
//! Everything is std-only: the build environment may have no crates.io
//! registry at all (see "Offline builds" in README.md).

pub mod callgraph;
pub mod inventory;
pub mod items;
pub mod json;
pub mod lexer;
pub mod pairs;
pub mod rules;
pub mod scrub;

use inventory::Inventory;
use rules::{InvariantSite, Violation};
use scrub::SourceFile;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The workspace root, derived from xtask's own manifest directory.
pub fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().map(Path::to_path_buf).unwrap_or(manifest)
}

/// Directories never walked: build output, VCS metadata, and the vendored
/// stand-ins for external crates (`vendor/` emulates third-party code —
/// e.g. the criterion stand-in legitimately reads wall-clock time).
const SKIP_DIRS: &[&str] = &["target", ".git", "vendor"];

/// Collect every workspace `.rs` file under `root`, sorted by path.
pub fn collect_sources(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut paths = Vec::new();
    walk(root, root, &mut paths)?;
    paths.sort();
    paths
        .into_iter()
        .map(|(rel, abs)| Ok(SourceFile::new(rel, fs::read_to_string(abs)?)))
        .collect()
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, PathBuf)>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push((rel, path));
        }
    }
    Ok(())
}

/// The outcome of a full lint pass.
pub struct LintReport {
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Call sites the call-graph resolver could not pin to a single
    /// function (edges go to every candidate; see [`callgraph`]).
    pub ambiguous_calls: usize,
    /// All findings, sorted by file and line.
    pub violations: Vec<Violation>,
}

impl LintReport {
    /// Machine-readable form for `lint --json`: one object with
    /// `files_scanned`, `ambiguous_calls`, and a `violations` array of
    /// `{rule, file, line, message}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"files_scanned\":{},\"ambiguous_calls\":{},\"violations\":[",
            self.files_scanned, self.ambiguous_calls
        ));
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"rule\":{},\"file\":{},\"line\":{},\"message\":{}}}",
                json_string(v.rule),
                json_string(&v.file),
                v.line,
                json_string(&v.message)
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Escape `s` as a JSON string literal (std-only, no serde available).
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Run every rule over the workspace rooted at `root`.
///
/// `root` must contain `INVARIANTS.md`; a missing or malformed inventory
/// is itself reported as a violation rather than an error, so the lint
/// always produces a report.
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let files = collect_sources(root)?;
    let mut violations = Vec::new();

    let inventory = match fs::read_to_string(root.join("INVARIANTS.md")) {
        Ok(text) => match Inventory::parse(&text) {
            Ok(inv) => inv,
            Err(msg) => {
                violations.push(Violation {
                    rule: "R4/invariant-inventory",
                    file: "INVARIANTS.md".into(),
                    line: 0,
                    message: msg,
                });
                Inventory::default()
            }
        },
        Err(err) => {
            violations.push(Violation {
                rule: "R4/invariant-inventory",
                file: "INVARIANTS.md".into(),
                line: 0,
                message: format!("cannot read the invariant inventory: {err}"),
            });
            Inventory::default()
        }
    };

    let mut sites: Vec<InvariantSite> = Vec::new();
    for file in &files {
        violations.extend(rules::check_panic_free(file));
        violations.extend(rules::check_determinism(file));
        violations.extend(rules::check_wire_casts(file));
        violations.extend(rules::check_no_sleep(file));
        violations.extend(rules::check_doc_examples(file));
        let (file_sites, missing_msgs) = rules::collect_invariant_sites(file);
        sites.extend(file_sites);
        violations.extend(missing_msgs);
    }
    violations.extend(rules::check_stale_allowlist(&files));
    violations.extend(rules::check_stale_sleep_allowlist(&files));
    violations.extend(rules::check_stale_doc_allowlist(&files));
    violations.extend(rules::check_inventory(&sites, &inventory));

    // The call-graph rules (R7–R10) and the registry self-check (R0).
    let graph = callgraph::CallGraph::build(&files);
    violations.extend(rules::check_serving_clone(&files, &graph));
    violations.extend(rules::check_must_use(&files, &graph));
    violations.extend(rules::check_transitive_panic(&files, &graph));
    violations.extend(rules::check_lock_discipline(&files, &graph));
    violations.extend(rules::self_check());

    violations.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(LintReport {
        files_scanned: files.len(),
        ambiguous_calls: graph.ambiguities.len(),
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full pass over this very repository must be clean — the same
    /// check tier-1 runs via tests/lint_clean.rs, duplicated here so
    /// `cargo test -p xtask` alone also catches regressions.
    #[test]
    fn workspace_is_lint_clean() {
        let report = lint_workspace(&workspace_root()).expect("lint pass runs");
        assert!(
            report.violations.is_empty(),
            "workspace lint violations:\n{}",
            report
                .violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(
            report.files_scanned > 50,
            "suspiciously few files scanned ({}): is the walk broken?",
            report.files_scanned
        );
    }

    #[test]
    fn json_report_escapes_special_characters() {
        let report = LintReport {
            files_scanned: 2,
            ambiguous_calls: 1,
            violations: vec![Violation {
                rule: "R7/serving-path-clone",
                file: "crates/x/src/a.rs".into(),
                line: 3,
                message: "quote \" backslash \\ tab \t newline \n done".into(),
            }],
        };
        let json = report.to_json();
        assert!(json.starts_with("{\"files_scanned\":2,\"ambiguous_calls\":1,"));
        assert!(json.contains("\"rule\":\"R7/serving-path-clone\""));
        assert!(json.contains("\"line\":3"));
        assert!(json.contains(r#"quote \" backslash \\ tab \t newline \n done"#));
        assert!(
            !json.contains('\n'),
            "raw control characters must be escaped"
        );
    }

    #[test]
    fn json_of_a_clean_report_is_flat() {
        let report = LintReport {
            files_scanned: 7,
            ambiguous_calls: 0,
            violations: Vec::new(),
        };
        assert_eq!(
            report.to_json(),
            "{\"files_scanned\":7,\"ambiguous_calls\":0,\"violations\":[]}"
        );
    }

    #[test]
    fn collect_sources_skips_vendor_and_target() {
        let files = collect_sources(&workspace_root()).expect("walk succeeds");
        assert!(files.iter().all(|f| !f.rel_path.starts_with("vendor/")));
        assert!(files.iter().all(|f| !f.rel_path.starts_with("target/")));
        assert!(files.iter().any(|f| f.rel_path.starts_with("crates/")));
        assert!(files.iter().any(|f| f.rel_path.starts_with("xtask/")));
    }
}
