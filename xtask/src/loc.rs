//! `loc`: lines of Rust per crate.
//!
//! Two counts per crate: every line of every `.rs` file (tests, benches
//! and examples included), and the non-test lines of `src/`, meaning each
//! file under `src/` up to its first `#[cfg(test)]` line. The report ends
//! with workspace totals with and without the vendored stand-ins under
//! `vendor/`.

use std::collections::BTreeMap;
use std::path::Path;
use std::{fs, io};

/// The crate name given to files outside `crates/`, `vendor/` and
/// `xtask/`: the workspace root package's `src/`, `tests/` and
/// `examples/`.
const ROOT_CRATE: &str = "rnb-repro";

/// Line counts of one crate.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Loc {
    /// Every line of every `.rs` file.
    pub all: usize,
    /// Lines of `src/` files before their first `#[cfg(test)]`.
    pub src_non_test: usize,
}

impl Loc {
    fn add(&mut self, other: Loc) {
        self.all += other.all;
        self.src_non_test += other.src_non_test;
    }
}

/// Split a workspace-relative path into its crate and the path inside it.
fn split_crate(path: &str) -> (String, &str) {
    let mut parts = path.splitn(3, '/');
    match (parts.next(), parts.next(), parts.next()) {
        (Some("crates"), Some(name), Some(inner)) => (name.to_string(), inner),
        (Some("vendor"), Some(name), Some(inner)) => (format!("vendor/{name}"), inner),
        (Some("xtask"), Some(_), _) => ("xtask".to_string(), &path["xtask/".len()..]),
        _ => (ROOT_CRATE.to_string(), path),
    }
}

/// Count `(workspace-relative path, contents)` pairs per crate.
pub fn count(files: &[(String, String)]) -> BTreeMap<String, Loc> {
    let mut per_crate = BTreeMap::<String, Loc>::new();
    for (path, text) in files {
        let (name, inner) = split_crate(path);
        let src_non_test = if inner.starts_with("src/") {
            text.lines()
                .take_while(|line| !line.trim_start().starts_with("#[cfg(test)]"))
                .count()
        } else {
            0
        };
        per_crate.entry(name).or_default().add(Loc {
            all: text.lines().count(),
            src_non_test,
        });
    }
    per_crate
}

/// Count every `.rs` file of the workspace rooted at `root`, `vendor/`
/// included, build output excluded.
pub fn count_workspace(root: &Path) -> io::Result<BTreeMap<String, Loc>> {
    let mut paths = Vec::new();
    crate::walk(root, root, &["target"], &mut paths)?;
    let files = paths
        .into_iter()
        .map(|(rel, abs)| Ok((rel, fs::read_to_string(abs)?)))
        .collect::<io::Result<Vec<_>>>()?;
    Ok(count(&files))
}

/// The table `cargo run -p xtask -- loc` prints: one row per crate, then
/// the workspace totals with and without `vendor/`.
pub fn report(per_crate: &BTreeMap<String, Loc>) -> String {
    let row =
        |name: &str, loc: Loc| format!("{name:<28} {:>8} {:>14}\n", loc.all, loc.src_non_test);
    let mut out = format!("{:<28} {:>8} {:>14}\n", "crate", "all .rs", "src non-test");
    let (mut total, mut own) = (Loc::default(), Loc::default());
    for (name, &loc) in per_crate {
        out += &row(name, loc);
        total.add(loc);
        if !name.starts_with("vendor/") {
            own.add(loc);
        }
    }
    out += &row("workspace", total);
    out += &row("workspace without vendor/", own);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_per_crate_and_stops_src_at_the_test_module() {
        let file = |path: &str, text: &str| (path.to_string(), text.to_string());
        let lib = "pub fn f() {}\n\n#[cfg(test)]\nmod tests {\n}\n";
        let files = [
            file("crates/a/src/lib.rs", lib),
            file("crates/a/src/bin/main.rs", "fn main() {}\n"),
            file("crates/a/tests/t.rs", "#[test]\nfn t() {}\n"),
            file("vendor/v/src/lib.rs", "//! v\n"),
            file(
                "xtask/src/main.rs",
                "fn main() {}\n    #[cfg(test)]\nmod t {}\n",
            ),
            file("src/lib.rs", "//! root\n"),
            file("examples/e.rs", "fn main() {}\n"),
        ];
        let per_crate = count(&files);
        let loc = |all, src_non_test| Loc { all, src_non_test };
        let expected = [
            ("a", loc(8, 3)),
            (ROOT_CRATE, loc(2, 1)),
            ("vendor/v", loc(1, 1)),
            ("xtask", loc(3, 1)),
        ];
        assert_eq!(
            per_crate
                .iter()
                .map(|(n, &l)| (n.as_str(), l))
                .collect::<Vec<_>>(),
            expected
        );
        let report = report(&per_crate);
        assert!(report.contains(&format!("{:<28} {:>8} {:>14}\n", "workspace", 14, 6)));
        assert!(report.contains(&format!(
            "{:<28} {:>8} {:>14}\n",
            "workspace without vendor/", 13, 5
        )));
    }
}
