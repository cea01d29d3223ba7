//! The repo-specific lint rules.
//!
//! | Rule | Scope | Invariant |
//! |------|-------|-----------|
//! | R1 `panic-free-serving-path` | `rnb-store` server/shard/store/protocol, `rnb-client` client | no `unwrap`/`expect`/`panic!`-family in non-test code: errors must propagate as `Result` |
//! | R2 `deterministic-simulation` | whole workspace | no unseeded randomness anywhere; no wall-clock reads outside the benchmark harness and `rnb-store`'s `clock.rs` (everything else takes an injected `Clock`) |
//! | R3 `lossless-wire-casts` | `rnb-store/src/protocol.rs` | no `as` integer casts in wire-format code: use `try_from` |
//! | R4 `invariant-inventory` | whole workspace | every non-test `debug_assert*` carries a message registered in INVARIANTS.md; every `::MAX` sentinel is registered; no stale entries |
//! | R5 `no-thread-sleep` | whole workspace | no `thread::sleep` in non-test code outside the justified allowlist: sleeping hides latency bugs and stalls serving threads |
//! | R6 `doc-example-coverage` | `rnb-core` | every non-test `pub fn` in the public-API crate carries a ```-fenced doc example (doctested usage), or an allowlisted reason |
//! | R7 `serving-path-clone` | call-graph closure of the serving roots | no `.clone()`/`.cloned()`/`.to_vec()`/`.to_owned()` reachable from the store's protocol loop, `RnbClient::multi_get`/`multi_set` or the read and write engines, outside the justified allowlist |
//! | R8 `must-use-planner` | `rnb-cover` | every pure planner entry point carries `#[must_use]`: dropping a cover plan silently is always a bug |
//! | R9 `transitive-panic-freedom` | call-graph closure of the serving roots | no panic-family call or panicking slice helper reachable from `Worker::run`/`serve_conn`/`drain_input`/`get_multi`/`multi_get`/`ReadEngine::fetch`/`WriteEngine::store`, except via registered invariants |
//! | R10 `lock-discipline` | `rnb-store` | no `.lock()` guard's live scope contains another `.lock()` or socket I/O — the machine-checked form of the "one lock per shard" invariant |
//!
//! All rules match against [`SourceFile::scrubbed`] text, so comments and
//! string literals can never trip them. (R6 additionally reads
//! [`SourceFile::raw`] for the doc-comment blocks themselves, which the
//! scrubber blanks; R8 reads raw attribute lines the same way.)
//! R7 and R9 walk the approximate call graph ([`crate::callgraph`]) from
//! fixed root functions; a renamed root is itself a violation so the
//! rules cannot be disabled silently.

use crate::callgraph::CallGraph;
use crate::inventory::{Inventory, Kind};
use crate::scrub::SourceFile;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One finding. The lint fails when any exist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable rule identifier (`R1`..`R4` plus a slug).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line, 0 for whole-file findings.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}:{}: {}",
            self.rule, self.file, self.line, self.message
        )
    }
}

/// Files on the request-serving path, held to the panic-free standard.
pub const SERVING_PATH: &[&str] = &[
    "crates/rnb-store/src/server.rs",
    "crates/rnb-store/src/shard.rs",
    "crates/rnb-store/src/store.rs",
    "crates/rnb-store/src/protocol.rs",
    "crates/rnb-client/src/client.rs",
];

/// Wire-format files where every integer narrowing must use `try_from`.
pub const WIRE_FORMAT_PATH: &[&str] = &["crates/rnb-store/src/protocol.rs"];

/// Files allowed to read wall-clock time, with the reason on record.
/// A stale entry (no remaining wall-clock use) is itself a violation,
/// so this list cannot rot.
pub const TIME_ALLOWLIST: &[(&str, &str)] = &[
    (
        "crates/rnb-bench/",
        "benchmark harness: measuring wall-clock latency/throughput is its job",
    ),
    (
        "crates/rnb-store/src/clock.rs",
        "the one sanctioned wall-clock read in rnb-store: RealClock anchors \
         an Instant; shard/store/server/loadgen all take an injected Clock",
    ),
    (
        "crates/rnb-cluster/",
        "cluster scenario harness: recovery-time artifacts report measured \
         wall-clock (recovery_ms) alongside the round-count metric",
    ),
];

/// Files allowed to call `thread::sleep` in non-test code, with the
/// reason on record. Same hygiene as [`TIME_ALLOWLIST`]: a stale entry is
/// itself a violation. Everything else must block on real events
/// (I/O readiness, channels, `thread::park`) instead of sleeping —
/// sleeps in serving or simulation code hide latency bugs and turn into
/// arbitrary stalls under load.
pub const SLEEP_ALLOWLIST: &[(&str, &str)] = &[(
    "crates/rnb-bench/src/bin/ext_udp.rs",
    "UDP is fire-and-forget: the external-traffic probe has no completion \
     event to block on, so it paces batches with a fixed settle delay",
)];

const SLEEP_PATTERN: &str = "thread::sleep";

/// R6 scope: the public-API crate whose `pub fn`s must show a doc example.
/// `rnb-core` is what downstream users program against; an example per
/// function keeps the API documentation executable (doctests) instead of
/// aspirational.
pub const DOC_EXAMPLE_PATH: &str = "crates/rnb-core/src/";

/// `(file, fn, reason)` triples excused from R6: trivial accessors whose
/// one-line bodies return a stored field and whose behaviour every
/// constructor example already demonstrates. Same hygiene as
/// [`TIME_ALLOWLIST`]: an entry whose function disappeared or has since
/// gained an example is reported stale, so the list cannot rot.
pub const DOC_EXAMPLE_ALLOWLIST: &[(&str, &str, &str)] = &[
    (
        "crates/rnb-core/src/baseline.rs",
        "copies",
        "trivial accessor (group count); shown by FullSystemReplication::new's example",
    ),
    (
        "crates/rnb-core/src/baseline.rs",
        "servers",
        "trivial accessor (total machines); shown by FullSystemReplication::new's example",
    ),
    (
        "crates/rnb-core/src/bundler.rs",
        "placement",
        "trivial accessor returning the owned placement; every planning example goes through it implicitly",
    ),
    (
        "crates/rnb-core/src/read.rs",
        "scratch",
        "trivial accessor returning the engine's PlanScratch; ReadEngine::new's and fetch's examples read it",
    ),
    (
        "crates/rnb-core/src/write.rs",
        "policy",
        "trivial accessor returning the stored WritePolicy",
    ),
    (
        "crates/rnb-core/src/write.rs",
        "placement",
        "trivial accessor returning the owned placement, mirror of Bundler::placement",
    ),
];

const PANIC_PATTERNS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

const UNSEEDED_RNG_PATTERNS: &[&str] = &[
    "thread_rng",
    "from_entropy",
    "rand::rng()",
    "from_os_rng",
    "OsRng",
];

const WALLCLOCK_PATTERNS: &[&str] = &["Instant::now", "SystemTime"];

/// Sentinel tokens that must be registered in the invariant inventory.
pub const SENTINEL_TOKENS: &[&str] = &[
    "usize::MAX",
    "u64::MAX",
    "u32::MAX",
    "u16::MAX",
    "u8::MAX",
    "i64::MAX",
    "i32::MAX",
];

/// Every byte offset at which `pattern` occurs in non-test scrubbed code.
fn non_test_occurrences<'a>(
    file: &'a SourceFile,
    pattern: &'a str,
) -> impl Iterator<Item = usize> + 'a {
    let mut search = 0;
    std::iter::from_fn(move || {
        while let Some(found) = file.scrubbed[search..].find(pattern) {
            let offset = search + found;
            search = offset + pattern.len();
            if !file.in_test_code(offset) {
                return Some(offset);
            }
        }
        None
    })
}

/// R1: the serving path must propagate errors, not panic.
pub fn check_panic_free(file: &SourceFile) -> Vec<Violation> {
    if !SERVING_PATH.contains(&file.rel_path.as_str()) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for pattern in PANIC_PATTERNS {
        for offset in non_test_occurrences(file, pattern) {
            out.push(Violation {
                rule: "R1/panic-free-serving-path",
                file: file.rel_path.clone(),
                line: file.line_of(offset),
                message: format!(
                    "`{pattern}` in serving-path code; propagate a Result instead \
                     (`{}`)",
                    file.excerpt(offset)
                ),
            });
        }
    }
    out
}

/// R2: simulations must be deterministic — no unseeded randomness at all,
/// and wall-clock reads only in allowlisted measurement/TTL files.
pub fn check_determinism(file: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    for pattern in UNSEEDED_RNG_PATTERNS {
        for offset in non_test_occurrences(file, pattern) {
            out.push(Violation {
                rule: "R2/deterministic-simulation",
                file: file.rel_path.clone(),
                line: file.line_of(offset),
                message: format!(
                    "`{pattern}` is unseeded randomness; take a seed and use \
                     `StdRng::seed_from_u64` (`{}`)",
                    file.excerpt(offset)
                ),
            });
        }
    }
    let allowed = TIME_ALLOWLIST
        .iter()
        .any(|(prefix, _)| file.rel_path.starts_with(prefix));
    if !allowed {
        for pattern in WALLCLOCK_PATTERNS {
            for offset in non_test_occurrences(file, pattern) {
                out.push(Violation {
                    rule: "R2/deterministic-simulation",
                    file: file.rel_path.clone(),
                    line: file.line_of(offset),
                    message: format!(
                        "`{pattern}` outside the time allowlist; thread a logical \
                         clock through instead, or add an allowlist entry with a \
                         written reason in xtask/src/rules.rs (`{}`)",
                        file.excerpt(offset)
                    ),
                });
            }
        }
    }
    out
}

/// Which wall-clock allowlist entries are actually exercised by `files`.
pub fn used_time_allowlist_entries(files: &[SourceFile]) -> BTreeSet<&'static str> {
    let mut used = BTreeSet::new();
    for (prefix, _) in TIME_ALLOWLIST {
        for file in files {
            if file.rel_path.starts_with(prefix)
                && WALLCLOCK_PATTERNS
                    .iter()
                    .any(|p| non_test_occurrences(file, p).next().is_some())
            {
                used.insert(*prefix);
            }
        }
    }
    used
}

/// R2 (hygiene): allowlist entries must still be needed.
pub fn check_stale_allowlist(files: &[SourceFile]) -> Vec<Violation> {
    let used = used_time_allowlist_entries(files);
    TIME_ALLOWLIST
        .iter()
        .filter(|(prefix, _)| !used.contains(prefix))
        .map(|(prefix, _)| Violation {
            rule: "R2/deterministic-simulation",
            file: prefix.to_string(),
            line: 0,
            message: format!(
                "stale time allowlist entry `{prefix}`: no wall-clock use remains; \
                 remove it from xtask/src/rules.rs"
            ),
        })
        .collect()
}

/// R5: no `thread::sleep` in non-test code outside the allowlist.
pub fn check_no_sleep(file: &SourceFile) -> Vec<Violation> {
    if SLEEP_ALLOWLIST
        .iter()
        .any(|(prefix, _)| file.rel_path.starts_with(prefix))
    {
        return Vec::new();
    }
    non_test_occurrences(file, SLEEP_PATTERN)
        .map(|offset| Violation {
            rule: "R5/no-thread-sleep",
            file: file.rel_path.clone(),
            line: file.line_of(offset),
            message: format!(
                "`{SLEEP_PATTERN}` in non-test code; block on a real event \
                 (I/O readiness, a channel, `thread::park`) instead, or add \
                 an allowlist entry with a written reason in \
                 xtask/src/rules.rs (`{}`)",
                file.excerpt(offset)
            ),
        })
        .collect()
}

/// R5 (hygiene): sleep allowlist entries must still be needed.
pub fn check_stale_sleep_allowlist(files: &[SourceFile]) -> Vec<Violation> {
    SLEEP_ALLOWLIST
        .iter()
        .filter(|(prefix, _)| {
            !files.iter().any(|file| {
                file.rel_path.starts_with(prefix)
                    && non_test_occurrences(file, SLEEP_PATTERN).next().is_some()
            })
        })
        .map(|(prefix, _)| Violation {
            rule: "R5/no-thread-sleep",
            file: prefix.to_string(),
            line: 0,
            message: format!(
                "stale sleep allowlist entry `{prefix}`: no `thread::sleep` \
                 remains; remove it from xtask/src/rules.rs"
            ),
        })
        .collect()
}

/// A non-test `pub fn` declaration and whether its doc block shows an
/// example (a ``` fence anywhere in the contiguous `///` run above it,
/// attributes skipped).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PubFnSite {
    /// 1-based declaration line.
    pub line: usize,
    /// The function's identifier.
    pub name: String,
    /// Whether the attached doc comment contains a fenced code block.
    pub has_example: bool,
}

/// Every non-test `pub fn` in `file` (plain/`const`/`async`/`unsafe`;
/// `pub(crate)` and narrower visibilities are not public API and are
/// skipped). Declaration detection runs on the scrubbed text so strings
/// and comments cannot fake one; the doc block is read from the raw text
/// because the scrubber blanks comments.
pub fn public_fns(file: &SourceFile) -> Vec<PubFnSite> {
    const PUB_FN_PREFIXES: &[&str] = &[
        "pub fn ",
        "pub const fn ",
        "pub async fn ",
        "pub unsafe fn ",
    ];
    let raw_lines: Vec<&str> = file.raw.lines().collect();
    let mut out = Vec::new();
    let mut offset = 0usize;
    for (idx, sline) in file.scrubbed.lines().enumerate() {
        let line_start = offset;
        offset += sline.len() + 1;
        let trimmed = sline.trim_start();
        let Some(rest) = PUB_FN_PREFIXES.iter().find_map(|p| trimmed.strip_prefix(p)) else {
            continue;
        };
        if file.in_test_code(line_start + (sline.len() - trimmed.len())) {
            continue;
        }
        let name: String = rest
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if name.is_empty() {
            continue;
        }
        // Walk upward over the attribute lines to the contiguous doc block.
        let mut has_example = false;
        let mut i = idx;
        while i > 0 {
            i -= 1;
            let above = raw_lines.get(i).map_or("", |l| l.trim());
            if above.starts_with("#[") {
                continue;
            }
            if above.starts_with("///") {
                if above.contains("```") {
                    has_example = true;
                }
                continue;
            }
            break;
        }
        out.push(PubFnSite {
            line: idx + 1,
            name,
            has_example,
        });
    }
    out
}

/// R6: public API functions must show a doc example.
pub fn check_doc_examples(file: &SourceFile) -> Vec<Violation> {
    check_doc_examples_with(file, DOC_EXAMPLE_ALLOWLIST)
}

/// [`check_doc_examples`] against an explicit allowlist (fixture tests).
pub fn check_doc_examples_with(
    file: &SourceFile,
    allowlist: &[(&str, &str, &str)],
) -> Vec<Violation> {
    if !file.rel_path.starts_with(DOC_EXAMPLE_PATH) {
        return Vec::new();
    }
    public_fns(file)
        .into_iter()
        .filter(|f| !f.has_example)
        .filter(|f| {
            !allowlist
                .iter()
                .any(|(path, name, _)| *path == file.rel_path && *name == f.name)
        })
        .map(|f| Violation {
            rule: "R6/doc-example-coverage",
            file: file.rel_path.clone(),
            line: f.line,
            message: format!(
                "`pub fn {}` has no doc example; add a ```-fenced example to \
                 its doc comment, or an allowlist entry with a written reason \
                 in xtask/src/rules.rs",
                f.name
            ),
        })
        .collect()
}

/// R6 (hygiene): allowlist entries must still name an example-less fn.
pub fn check_stale_doc_allowlist(files: &[SourceFile]) -> Vec<Violation> {
    check_stale_doc_allowlist_with(files, DOC_EXAMPLE_ALLOWLIST)
}

/// [`check_stale_doc_allowlist`] against an explicit allowlist.
pub fn check_stale_doc_allowlist_with(
    files: &[SourceFile],
    allowlist: &[(&str, &str, &str)],
) -> Vec<Violation> {
    allowlist
        .iter()
        .filter(|(path, name, _)| {
            !files.iter().any(|file| {
                file.rel_path == *path
                    && public_fns(file)
                        .iter()
                        .any(|f| f.name == *name && !f.has_example)
            })
        })
        .map(|(path, name, _)| Violation {
            rule: "R6/doc-example-coverage",
            file: (*path).to_string(),
            line: 0,
            message: format!(
                "stale doc-example allowlist entry `{path}::{name}`: the \
                 function is gone or now has an example; remove the entry \
                 from xtask/src/rules.rs"
            ),
        })
        .collect()
}

const INT_CAST_TARGETS: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// R3: wire-format code converts integers with `try_from`, never `as`.
pub fn check_wire_casts(file: &SourceFile) -> Vec<Violation> {
    if !WIRE_FORMAT_PATH.contains(&file.rel_path.as_str()) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for offset in non_test_occurrences(file, " as ") {
        let after = &file.scrubbed[offset + 4..];
        let token: String = after
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if INT_CAST_TARGETS.contains(&token.as_str()) {
            out.push(Violation {
                rule: "R3/lossless-wire-casts",
                file: file.rel_path.clone(),
                line: file.line_of(offset),
                message: format!(
                    "integer `as {token}` cast in wire-format code; use \
                     `{token}::try_from` and surface the error (`{}`)",
                    file.excerpt(offset)
                ),
            });
        }
    }
    out
}

/// A `debug_assert*` site or sentinel token occurrence found in source.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct InvariantSite {
    /// Which kind of invariant marker this is.
    pub kind: Kind,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// The registered identity: assertion message, or sentinel token.
    pub pattern: String,
}

/// Extract every non-test invariant site from `file`.
///
/// `debug_assert!`/`debug_assert_eq!`/`debug_assert_ne!` sites yield their
/// message string (the first argument that is a string literal at the
/// macro's top nesting level); a missing message is reported as a
/// violation because an unlabeled invariant cannot be registered.
pub fn collect_invariant_sites(file: &SourceFile) -> (Vec<InvariantSite>, Vec<Violation>) {
    let mut sites = Vec::new();
    let mut violations = Vec::new();
    for offset in non_test_occurrences(file, "debug_assert") {
        // Skip the `debug_assert_eq`-suffix matches of plain "debug_assert".
        let Some(open_rel) = file.scrubbed[offset..].find('(') else {
            continue;
        };
        let head = &file.scrubbed[offset..offset + open_rel];
        if !matches!(
            head.trim_end_matches('!'),
            "debug_assert" | "debug_assert_eq" | "debug_assert_ne"
        ) {
            continue;
        }
        let open = offset + open_rel;
        let Some(close) = matching_paren(&file.scrubbed, open) else {
            continue;
        };
        match extract_message(file, open, close) {
            Some(message) => sites.push(InvariantSite {
                kind: Kind::DebugAssert,
                file: file.rel_path.clone(),
                line: file.line_of(offset),
                pattern: message,
            }),
            None => violations.push(Violation {
                rule: "R4/invariant-inventory",
                file: file.rel_path.clone(),
                line: file.line_of(offset),
                message: format!(
                    "`{head}` without a message: label the invariant so it can \
                     be registered in INVARIANTS.md (`{}`)",
                    file.excerpt(offset)
                ),
            }),
        }
    }
    for token in SENTINEL_TOKENS {
        for offset in non_test_occurrences(file, token) {
            // `usize::MAX` also matches inside `u32::MAX`? No — but make
            // sure we are at a token boundary on the left (e.g. not a
            // hypothetical `busize::MAX`).
            if offset > 0 {
                let prev = file.scrubbed.as_bytes()[offset - 1];
                if prev.is_ascii_alphanumeric() || prev == b'_' {
                    continue;
                }
            }
            sites.push(InvariantSite {
                kind: Kind::Sentinel,
                file: file.rel_path.clone(),
                line: file.line_of(offset),
                pattern: (*token).to_string(),
            });
        }
    }
    (sites, violations)
}

/// R4: cross-check collected sites against the inventory, both ways.
pub fn check_inventory(sites: &[InvariantSite], inventory: &Inventory) -> Vec<Violation> {
    let mut out = Vec::new();
    for site in sites {
        if !inventory.covers(site.kind, &site.file, &site.pattern) {
            out.push(Violation {
                rule: "R4/invariant-inventory",
                file: site.file.clone(),
                line: site.line,
                message: format!(
                    "unregistered {} `{}`: add a row to INVARIANTS.md explaining \
                     why this invariant holds",
                    site.kind, site.pattern
                ),
            });
        }
    }
    for entry in inventory.entries() {
        let live = sites
            .iter()
            .any(|s| s.kind == entry.kind && s.file == entry.file && s.pattern == entry.pattern);
        if !live {
            out.push(Violation {
                rule: "R4/invariant-inventory",
                file: entry.file.clone(),
                line: 0,
                message: format!(
                    "stale inventory row ({} `{}`): no matching site remains; \
                     remove or update the INVARIANTS.md entry",
                    entry.kind, entry.pattern
                ),
            });
        }
    }
    out
}

/// Index of the `)` matching the `(` at `open` (scrubbed text, so string
/// contents cannot unbalance it).
fn matching_paren(scrubbed: &str, open: usize) -> Option<usize> {
    let b = scrubbed.as_bytes();
    let mut depth = 0usize;
    for (i, &c) in b.iter().enumerate().skip(open) {
        match c {
            b'(' => depth += 1,
            b')' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// The message argument of a `debug_assert*` call spanning `open..=close`:
/// the first top-level comma-separated argument that begins with a string
/// literal. Returns its raw contents.
fn extract_message(file: &SourceFile, open: usize, close: usize) -> Option<String> {
    let b = file.scrubbed.as_bytes();
    let mut depth = 0usize;
    let mut arg_start = open + 1;
    let mut i = open;
    while i <= close {
        match b[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth = depth.saturating_sub(1),
            b',' if depth == 1 => {
                if let Some(msg) = string_literal_at(file, arg_start, i) {
                    return Some(msg);
                }
                arg_start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    string_literal_at(file, arg_start, close)
}

/// If the argument in `range` starts with a string literal, return its
/// raw (unscrubbed) contents.
fn string_literal_at(file: &SourceFile, start: usize, end: usize) -> Option<String> {
    let slice = &file.scrubbed[start..end];
    let rel = slice.find(|c: char| !c.is_whitespace())?;
    if !slice[rel..].starts_with('"') {
        return None;
    }
    let lit_start = start + rel + 1;
    let lit_end = lit_start + file.scrubbed[lit_start..end].find('"')?;
    Some(file.raw[lit_start..lit_end].to_string())
}

// ---------------------------------------------------------------------
// Call-graph rules (R7–R10) and the lint self-check.
// ---------------------------------------------------------------------

/// The rule catalogue: every `Violation::rule` id the lint can emit, with
/// a one-line summary. The self-check rejects duplicate ids, so a new
/// rule cannot shadow an existing one.
pub const RULES: &[(&str, &str)] = &[
    (
        "R0/lint-self-check",
        "no duplicate rule ids or allowlist keys",
    ),
    (
        "R1/panic-free-serving-path",
        "no panic-family calls in serving-path files",
    ),
    (
        "R2/deterministic-simulation",
        "no unseeded randomness; wall clock only where allowlisted",
    ),
    (
        "R3/lossless-wire-casts",
        "wire-format integers convert via try_from, never as",
    ),
    (
        "R4/invariant-inventory",
        "debug_asserts and sentinels registered in INVARIANTS.md",
    ),
    (
        "R5/no-thread-sleep",
        "no thread::sleep outside the justified allowlist",
    ),
    (
        "R6/doc-example-coverage",
        "rnb-core pub fns show a doc example",
    ),
    (
        "R7/serving-path-clone",
        "no allocation-by-copy reachable from the serving roots",
    ),
    (
        "R8/must-use-planner",
        "pure rnb-cover planner entry points carry #[must_use]",
    ),
    (
        "R9/transitive-panic-freedom",
        "no panic reachable from the serving roots",
    ),
    (
        "R10/lock-discipline",
        "no lock guard live across another lock or socket I/O",
    ),
];

/// R7/R9 roots on the store side plus the client's batched read and
/// write paths. `run` is the event loop every serving thread runs
/// (`epoll_wait` → accept or `serve_conn`), `serve_conn` its answer to
/// one ready connection (read → `drain_input` → write), and
/// `drain_input` the protocol loop every request flows through (every
/// read and every write a client sends), public in its own right;
/// `get_multi`/`get_each` are the store's multi-key read entry points
/// and `set_multi` its batch write for in-process callers;
/// `multi_get` is the client's read entry and `multi_set` its write-side
/// sibling; `fetch` is the read engine every read runs
/// (plan→rounds→write-back, in `rnb-core`) and `store` its write-side
/// sibling (invalidation round→write round), and `run_round` / `store`
/// the client transport they drive (`store` carries every storage round,
/// write-back included), with `send_request` / `recv_values` the
/// connection halves under those —
/// called through a trait or closures the graph does not trace, so they
/// are roots in their own right.
pub const CLONE_ROOTS: &[(&str, &str)] = &[
    ("crates/rnb-store/src/server.rs", "run"),
    ("crates/rnb-store/src/server.rs", "serve_conn"),
    ("crates/rnb-store/src/server.rs", "drain_input"),
    ("crates/rnb-core/src/read.rs", "fetch"),
    ("crates/rnb-core/src/write.rs", "store"),
    ("crates/rnb-client/src/client.rs", "multi_get"),
    ("crates/rnb-client/src/client.rs", "multi_set"),
    ("crates/rnb-client/src/client.rs", "run_round"),
    ("crates/rnb-client/src/client.rs", "store"),
    ("crates/rnb-store/src/client.rs", "send_request"),
    ("crates/rnb-store/src/client.rs", "recv_values"),
    ("crates/rnb-store/src/store.rs", "set_multi"),
];

/// Allocation-by-copy calls R7 forbids in the serving closure.
pub const CLONE_PATTERNS: &[&str] = &[".clone()", ".cloned()", ".to_vec()", ".to_owned()"];

/// `(file, fn, reason)` triples excused from R7. Same hygiene as the
/// other allowlists: an entry whose function left the serving closure or
/// no longer copies is reported stale.
pub const CLONE_ALLOWLIST: &[(&str, &str, &str)] = &[
    (
        "crates/rnb-client/src/client.rs",
        "multi_get",
        "the returned values are owned; a duplicated request item needs its \
         own copy",
    ),
    (
        "crates/rnb-client/src/client.rs",
        "run_round",
        "the returned values are owned: each found value is copied once, out \
         of the connection's read buffer into its item's slot",
    ),
];

/// R9 roots: the serving closure entry points held to transitive
/// panic-freedom.
pub const PANIC_ROOTS: &[(&str, &str)] = &[
    ("crates/rnb-store/src/server.rs", "run"),
    ("crates/rnb-store/src/server.rs", "serve_conn"),
    ("crates/rnb-store/src/server.rs", "drain_input"),
    ("crates/rnb-store/src/store.rs", "get_multi"),
    ("crates/rnb-store/src/store.rs", "get_each"),
    ("crates/rnb-store/src/store.rs", "set_multi"),
    ("crates/rnb-core/src/read.rs", "fetch"),
    ("crates/rnb-core/src/write.rs", "store"),
    ("crates/rnb-client/src/client.rs", "multi_get"),
    ("crates/rnb-client/src/client.rs", "multi_set"),
    ("crates/rnb-client/src/client.rs", "run_round"),
    ("crates/rnb-client/src/client.rs", "store"),
    ("crates/rnb-store/src/client.rs", "send_request"),
    ("crates/rnb-store/src/client.rs", "recv_values"),
];

/// What R9 hunts in the closure: the R1 panic family plus the slice
/// helpers that panic on bad lengths. (Bare `x[i]` indexing is a known
/// blind spot — see README "Static analysis".)
pub const TRANSITIVE_PANIC_PATTERNS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
    ".split_at(",
    ".split_at_mut(",
    ".copy_from_slice(",
];

/// `(file, fn, pattern, reason)` invariants registered with R9: sites in
/// the serving closure where the panic condition is statically impossible
/// and the reason says why. A row whose site disappeared is stale.
pub const PANIC_INVARIANT_REGISTRY: &[(&str, &str, &str, &str)] = &[
    (
        "crates/rnb-hash/src/mix.rs",
        "read_u64_le",
        ".unwrap()",
        "try_into on the 8-byte slice `bytes[offset..offset + 8]` cannot fail: \
         the length is fixed by the range; out-of-bounds offsets are excluded \
         by xxh64's stripe loop bound",
    ),
    (
        "crates/rnb-hash/src/mix.rs",
        "read_u32_le",
        ".unwrap()",
        "try_into on the 4-byte slice `bytes[offset..offset + 4]` cannot fail, \
         same argument as read_u64_le",
    ),
    (
        "crates/rnb-hash/src/rch.rs",
        "replicas_into",
        "unreachable!(",
        "a full continuum lap visits every server, and `want` is clamped to \
         `ring.num_servers()` above, so the walk always gathers `want` unique \
         servers before the iterator ends",
    ),
    (
        "crates/rnb-store/src/shard.rs",
        "set_full_at",
        ".copy_from_slice(",
        "the in-place overwrite arm is guarded by `node.bytes.len() == \
         key_len + value.len()`, so `bytes[key_len..]` is exactly \
         `value.len()` long",
    ),
    (
        "crates/rnb-core/src/bundler.rs",
        "merge_by_server",
        ".split_at_mut(",
        "`i` comes from `1..transactions.len()` of the enclosing loop, so it \
         is a valid split point of the same vector",
    ),
];

/// R8 scope: the pure planner crate.
pub const MUST_USE_PATH: &str = "crates/rnb-cover/src/";

/// Free functions in `rnb-cover` that compute a cover and return it;
/// dropping the result is always a bug, so `#[must_use]` is mandatory.
pub const MUST_USE_FREE_FNS: &[&str] = &[
    "greedy_cover",
    "greedy_cover_reference",
    "lazy_greedy_cover",
    "solve_exact",
];

/// Result types whose `&self` accessors must be `#[must_use]`.
pub const MUST_USE_SELF_TYPES: &[&str] = &["PlannedCover", "CoverSolution"];

/// R10 scope: every non-test file of the store crate.
pub const LOCK_DISCIPLINE_PATH: &str = "crates/rnb-store/src/";

/// Socket-level reads/writes that must never run under a lock guard:
/// they block for network time, turning a shard mutex into a
/// tail-latency amplifier for every other connection.
pub const SOCKET_IO_PATTERNS: &[&str] = &[
    "write_all(",
    ".flush(",
    "read_exact(",
    "read_until(",
    "read_to_end(",
    "recv_from(",
    "send_to(",
];

/// Store methods that run their closure argument under a shard guard
/// (the one-pass read lends each hit to a visitor while the shard is
/// locked). R10 treats that closure, at every call site, as guarded
/// scope, from its first `|` to the call's closing parenthesis.
pub const GUARDED_VISITOR_CALLS: &[&str] = &[".get_each("];

/// `(file, fn, reason)` triples excused from R10, with staleness
/// checking. Empty today: the store has no justified nested-lock or
/// lock-across-I/O site, and the bar for adding one is high.
pub const LOCK_ALLOWLIST: &[(&str, &str, &str)] = &[];

const LOCK_PATTERN: &str = ".lock()";

/// Every non-test occurrence of `pattern` within `start..end`.
fn occurrences_between<'a>(
    file: &'a SourceFile,
    pattern: &'a str,
    start: usize,
    end: usize,
) -> impl Iterator<Item = usize> + 'a {
    let mut search = start;
    std::iter::from_fn(move || {
        while search < end {
            let found = file.scrubbed[search..end].find(pattern)?;
            let offset = search + found;
            search = offset + pattern.len();
            if !file.in_test_code(offset) {
                return Some(offset);
            }
        }
        None
    })
}

/// Shared driver for R7 and R9: scan every function reachable from
/// `roots` for `patterns`, excusing `(file, fn[, pattern])` keys present
/// in `exempt`, and report both missing roots and stale exemptions.
/// `exempt` keys are `file::fn` (R7) or `file::fn::pattern` (R9),
/// produced by the caller.
#[allow(clippy::too_many_arguments)]
fn check_reachable_patterns(
    rule: &'static str,
    files: &[SourceFile],
    graph: &CallGraph,
    roots: &[(&str, &str)],
    patterns: &[&str],
    exempt: &BTreeMap<String, String>,
    per_pattern_keys: bool,
    advice: &str,
) -> Vec<Violation> {
    let by_path: BTreeMap<&str, &SourceFile> =
        files.iter().map(|f| (f.rel_path.as_str(), f)).collect();
    let (reach, missing) = graph.reachable(roots);
    let mut out: Vec<Violation> = missing
        .into_iter()
        .map(|(file, name)| Violation {
            rule,
            file: file.clone(),
            line: 0,
            message: format!(
                "rule root `{file}::{name}` not found: the function was renamed \
                 or moved, so the rule is silently disabled; update the root \
                 list in xtask/src/rules.rs"
            ),
        })
        .collect();
    let mut live_exemptions: BTreeSet<&str> = BTreeSet::new();
    for &i in &reach {
        let f = &graph.fns[i];
        let Some((body_start, body_end)) = f.body else {
            continue;
        };
        let Some(file) = by_path.get(f.file.as_str()) else {
            continue;
        };
        for pattern in patterns {
            for offset in occurrences_between(file, pattern, body_start, body_end) {
                let key = if per_pattern_keys {
                    format!("{}::{}::{}", f.file, f.name, pattern)
                } else {
                    format!("{}::{}", f.file, f.name)
                };
                if let Some((stored, _reason)) = exempt.get_key_value(&key) {
                    live_exemptions.insert(stored);
                    continue;
                }
                out.push(Violation {
                    rule,
                    file: f.file.clone(),
                    line: file.line_of(offset),
                    message: format!(
                        "`{pattern}` in `{}`, which is reachable from the serving \
                         roots; {advice} (`{}`)",
                        f.name,
                        file.excerpt(offset)
                    ),
                });
            }
        }
    }
    for key in exempt.keys() {
        if !live_exemptions.contains(key.as_str()) {
            out.push(Violation {
                rule,
                file: key.clone(),
                line: 0,
                message: format!(
                    "stale exemption `{key}`: the function left the serving \
                     closure or the flagged call is gone; remove the entry \
                     from xtask/src/rules.rs"
                ),
            });
        }
    }
    out
}

/// R7: nothing reachable from the serving roots may copy-allocate.
pub fn check_serving_clone(files: &[SourceFile], graph: &CallGraph) -> Vec<Violation> {
    check_serving_clone_with(files, graph, CLONE_ROOTS, CLONE_ALLOWLIST)
}

/// [`check_serving_clone`] against explicit roots/allowlist (fixtures).
pub fn check_serving_clone_with(
    files: &[SourceFile],
    graph: &CallGraph,
    roots: &[(&str, &str)],
    allowlist: &[(&str, &str, &str)],
) -> Vec<Violation> {
    let exempt: BTreeMap<String, String> = allowlist
        .iter()
        .map(|(f, n, why)| (format!("{f}::{n}"), (*why).to_string()))
        .collect();
    check_reachable_patterns(
        "R7/serving-path-clone",
        files,
        graph,
        roots,
        CLONE_PATTERNS,
        &exempt,
        false,
        "restructure to borrow or move instead, or add an allowlist entry \
         with a written reason in xtask/src/rules.rs",
    )
}

/// R9: nothing reachable from the serving roots may panic.
pub fn check_transitive_panic(files: &[SourceFile], graph: &CallGraph) -> Vec<Violation> {
    check_transitive_panic_with(files, graph, PANIC_ROOTS, PANIC_INVARIANT_REGISTRY)
}

/// [`check_transitive_panic`] against explicit roots/registry (fixtures).
pub fn check_transitive_panic_with(
    files: &[SourceFile],
    graph: &CallGraph,
    roots: &[(&str, &str)],
    registry: &[(&str, &str, &str, &str)],
) -> Vec<Violation> {
    let exempt: BTreeMap<String, String> = registry
        .iter()
        .map(|(f, n, p, why)| (format!("{f}::{n}::{p}"), (*why).to_string()))
        .collect();
    check_reachable_patterns(
        "R9/transitive-panic-freedom",
        files,
        graph,
        roots,
        TRANSITIVE_PANIC_PATTERNS,
        &exempt,
        true,
        "propagate a Result, prove the invariant and register it in \
         PANIC_INVARIANT_REGISTRY (xtask/src/rules.rs) with a written reason",
    )
}

/// Does the contiguous attribute block above `decl_offset`'s line contain
/// `#[attr…]`? Doc comments are skipped; the walk reads raw text because
/// the scrubber blanks nothing in attribute lines but doc text above may
/// hold arbitrary content.
fn has_attr_above(file: &SourceFile, decl_offset: usize, attr: &str) -> bool {
    let needle = format!("#[{attr}");
    let raw_lines: Vec<&str> = file.raw.lines().collect();
    let mut i = file.line_of(decl_offset) - 1;
    while i > 0 {
        i -= 1;
        let above = raw_lines.get(i).map_or("", |l| l.trim());
        if above.starts_with("#[") || above.starts_with("#!") {
            if above.contains(&needle) {
                return true;
            }
            continue;
        }
        if above.starts_with("///") || above.starts_with("//") {
            continue;
        }
        break;
    }
    false
}

/// R8: pure planner entry points in `rnb-cover` carry `#[must_use]`.
///
/// Covered: the free cover solvers ([`MUST_USE_FREE_FNS`]), every
/// `Planner` method named `plan*`/`solve*`, and every value-returning
/// `&self` accessor of the result types ([`MUST_USE_SELF_TYPES`]).
pub fn check_must_use(files: &[SourceFile], graph: &CallGraph) -> Vec<Violation> {
    let by_path: BTreeMap<&str, &SourceFile> =
        files.iter().map(|f| (f.rel_path.as_str(), f)).collect();
    let mut out = Vec::new();
    for f in &graph.fns {
        if !f.file.starts_with(MUST_USE_PATH) {
            continue;
        }
        let Some(file) = by_path.get(f.file.as_str()) else {
            continue;
        };
        let sig = f.sig_text(file);
        let returns_value = sig.contains("->");
        let required = match f.self_ty.as_deref() {
            None => MUST_USE_FREE_FNS.contains(&f.name.as_str()) && returns_value,
            Some("Planner") => {
                (f.name.starts_with("plan") || f.name.starts_with("solve")) && returns_value
            }
            Some(ty) => {
                MUST_USE_SELF_TYPES.contains(&ty)
                    && sig.contains("&self")
                    && !sig.contains("&mut self")
                    && returns_value
            }
        };
        if required && !has_attr_above(file, f.decl_offset, "must_use") {
            out.push(Violation {
                rule: "R8/must-use-planner",
                file: f.file.clone(),
                line: file.line_of(f.decl_offset),
                message: format!(
                    "planner entry point `{}` lacks `#[must_use]`: computing a \
                     cover and dropping it is always a bug; add the attribute",
                    f.name
                ),
            });
        }
    }
    out
}

/// The live scope of the `.lock()` guard created at `lock_off`:
/// byte range `(start, end)` of the code during which the guard may
/// still be held.
///
/// * `let g = x.lock();` — a named guard lives from the `;` to the end
///   of the enclosing block (`}`), the lexical over-approximation of its
///   drop point.
/// * Any other use is a temporary: the guard lives to the end of the
///   statement, extended through a trailing block when the expression
///   heads one (`for x in m.lock().iter() { … }` holds the guard for
///   the whole loop).
fn guard_scope(file: &SourceFile, lock_off: usize) -> (usize, usize) {
    let s = file.scrubbed.as_bytes();
    let after = lock_off + LOCK_PATTERN.len();
    let mut j = after;
    while j < s.len() && s[j].is_ascii_whitespace() {
        j += 1;
    }
    let stmt_start = file.scrubbed[..lock_off]
        .rfind([';', '{', '}'])
        .map_or(0, |p| p + 1);
    let binds = j < s.len()
        && s[j] == b';'
        && file.scrubbed[stmt_start..lock_off]
            .trim_start()
            .starts_with("let ");
    if binds {
        // From the `;` to the `}` closing the enclosing block.
        let mut depth = 0i32;
        let mut k = j + 1;
        while k < s.len() {
            match s[k] {
                b'{' => depth += 1,
                b'}' => {
                    if depth == 0 {
                        return (j + 1, k);
                    }
                    depth -= 1;
                }
                _ => {}
            }
            k += 1;
        }
        (j + 1, s.len())
    } else {
        // Temporary: to the statement's `;`, through a trailing block.
        let mut paren = 0i32;
        let mut brace = 0i32;
        let mut tail_block = false;
        let mut k = after;
        while k < s.len() {
            match s[k] {
                b'(' => paren += 1,
                b')' => paren = (paren - 1).max(0),
                b'{' => {
                    if paren == 0 && brace == 0 {
                        tail_block = true;
                    }
                    brace += 1;
                }
                b'}' => {
                    if brace == 0 {
                        return (after, k);
                    }
                    brace -= 1;
                    if brace == 0 && tail_block {
                        return (after, k);
                    }
                }
                b';' if paren == 0 && brace == 0 => return (after, k),
                _ => {}
            }
            k += 1;
        }
        (after, s.len())
    }
}

/// The closure argument of the call whose `(` sits at `open`: from the
/// first `|` at the call's own nesting depth to its closing `)`. `None`
/// when no closure is passed.
fn closure_argument(file: &SourceFile, open: usize) -> Option<(usize, usize)> {
    let s = file.scrubbed.as_bytes();
    let mut depth = 0i32;
    let mut start = None;
    for (k, &b) in s.iter().enumerate().skip(open + 1) {
        match b {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' if depth == 0 => return start.map(|st| (st, k)),
            b')' | b']' | b'}' => depth -= 1,
            b'|' if depth == 0 && start.is_none() => start = Some(k),
            _ => {}
        }
    }
    None
}

/// R10: in `rnb-store`, no lock guard's live scope may contain another
/// `.lock()` (nested acquisition → ordering hazard) or socket I/O
/// (network time under a shard mutex → tail-latency amplifier). A
/// closure passed to a [`GUARDED_VISITOR_CALLS`] method runs under a
/// shard guard, so it is held to the same rule.
pub fn check_lock_discipline(files: &[SourceFile], graph: &CallGraph) -> Vec<Violation> {
    check_lock_discipline_with(files, graph, LOCK_ALLOWLIST)
}

/// [`check_lock_discipline`] against an explicit allowlist (fixtures).
pub fn check_lock_discipline_with(
    files: &[SourceFile],
    graph: &CallGraph,
    allowlist: &[(&str, &str, &str)],
) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut live_allow: BTreeSet<(&str, &str)> = BTreeSet::new();
    for file in files {
        if !file.rel_path.starts_with(LOCK_DISCIPLINE_PATH) {
            continue;
        }
        // Every guarded scope of the file: `(where the guard is taken,
        // scope start, scope end, what holds it)`.
        let mut scopes: Vec<(usize, usize, usize, &str)> =
            occurrences_between(file, LOCK_PATTERN, 0, file.scrubbed.len())
                .map(|lock_off| {
                    let (start, end) = guard_scope(file, lock_off);
                    (lock_off, start, end, "the lock guard taken")
                })
                .collect();
        for call in GUARDED_VISITOR_CALLS {
            for call_off in occurrences_between(file, call, 0, file.scrubbed.len()) {
                if let Some((start, end)) = closure_argument(file, call_off + call.len() - 1) {
                    scopes.push((call_off, start, end, "the visitor closure of the call"));
                }
            }
        }
        for (site, start, end, guard) in scopes {
            let mut offenders: Vec<(usize, &str)> = Vec::new();
            for inner in occurrences_between(file, ".lock(", start, end) {
                offenders.push((inner, "another `.lock()`"));
            }
            for pattern in SOCKET_IO_PATTERNS {
                for inner in occurrences_between(file, pattern, start, end) {
                    offenders.push((inner, "socket I/O"));
                }
            }
            if offenders.is_empty() {
                continue;
            }
            let holder = graph
                .enclosing_fn(&file.rel_path, site)
                .map(|f| f.name.as_str())
                .unwrap_or("?");
            if let Some((f, n, _)) = allowlist
                .iter()
                .find(|(f, n, _)| *f == file.rel_path && *n == holder)
            {
                live_allow.insert((f, n));
                continue;
            }
            for (inner, what) in offenders {
                out.push(Violation {
                    rule: "R10/lock-discipline",
                    file: file.rel_path.clone(),
                    line: file.line_of(inner),
                    message: format!(
                        "{what} inside the scope of {guard} at line {} (in \
                         `{holder}`); release the guard first — no lock is \
                         held across another lock or the network (`{}`)",
                        file.line_of(site),
                        file.excerpt(inner)
                    ),
                });
            }
        }
    }
    for (f, n, _) in allowlist {
        if !live_allow.contains(&(*f, *n)) {
            out.push(Violation {
                rule: "R10/lock-discipline",
                file: (*f).to_string(),
                line: 0,
                message: format!(
                    "stale lock allowlist entry `{f}::{n}`: no guarded-scope \
                     conflict remains; remove the entry from xtask/src/rules.rs"
                ),
            });
        }
    }
    out
}

/// R0: the lint's own registries must be well-formed — unique rule ids
/// and unique keys in every allowlist/registry.
pub fn self_check() -> Vec<Violation> {
    let lists: Vec<(&str, Vec<String>)> = vec![
        (
            "RULES",
            RULES.iter().map(|(id, _)| (*id).to_string()).collect(),
        ),
        (
            "TIME_ALLOWLIST",
            TIME_ALLOWLIST
                .iter()
                .map(|(f, _)| (*f).to_string())
                .collect(),
        ),
        (
            "SLEEP_ALLOWLIST",
            SLEEP_ALLOWLIST
                .iter()
                .map(|(f, _)| (*f).to_string())
                .collect(),
        ),
        (
            "DOC_EXAMPLE_ALLOWLIST",
            DOC_EXAMPLE_ALLOWLIST
                .iter()
                .map(|(f, n, _)| format!("{f}::{n}"))
                .collect(),
        ),
        (
            "CLONE_ALLOWLIST",
            CLONE_ALLOWLIST
                .iter()
                .map(|(f, n, _)| format!("{f}::{n}"))
                .collect(),
        ),
        (
            "PANIC_INVARIANT_REGISTRY",
            PANIC_INVARIANT_REGISTRY
                .iter()
                .map(|(f, n, p, _)| format!("{f}::{n}::{p}"))
                .collect(),
        ),
        (
            "LOCK_ALLOWLIST",
            LOCK_ALLOWLIST
                .iter()
                .map(|(f, n, _)| format!("{f}::{n}"))
                .collect(),
        ),
    ];
    self_check_with(&lists)
}

/// [`self_check`] against explicit `(list name, keys)` pairs (fixtures).
pub fn self_check_with(lists: &[(&str, Vec<String>)]) -> Vec<Violation> {
    let mut out = Vec::new();
    for (name, keys) in lists {
        let mut seen = BTreeSet::new();
        for key in keys {
            if !seen.insert(key.as_str()) {
                out.push(Violation {
                    rule: "R0/lint-self-check",
                    file: "xtask/src/rules.rs".to_string(),
                    line: 0,
                    message: format!(
                        "duplicate key `{key}` in {name}: the second entry is \
                         dead and hides edits to the first; remove one"
                    ),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inventory::Inventory;

    fn serving(src: &str) -> SourceFile {
        SourceFile::new("crates/rnb-store/src/server.rs", src)
    }

    // -------- R1 --------

    #[test]
    fn r1_detects_each_panic_pattern() {
        for line in [
            "fn f() { x.unwrap(); }",
            "fn f() { x.expect(\"boom\"); }",
            "fn f() { panic!(\"boom\"); }",
            "fn f() { unreachable!(); }",
            "fn f() { todo!(); }",
            "fn f() { unimplemented!(); }",
        ] {
            let v = check_panic_free(&serving(line));
            assert_eq!(v.len(), 1, "expected one finding for {line:?}: {v:?}");
            assert_eq!(v[0].rule, "R1/panic-free-serving-path");
            assert_eq!(v[0].line, 1);
        }
    }

    #[test]
    fn r1_ignores_tests_comments_strings_and_other_files() {
        let masked = serving(
            "fn ok() -> Result<(), E> { Ok(()) }\n\
             // a comment saying .unwrap()\n\
             /// docs: call .unwrap() freely\n\
             fn s() { let m = \"panic!(\"; }\n\
             #[cfg(test)]\n\
             mod tests {\n    fn t() { x.unwrap(); panic!(\"fine\"); }\n}\n",
        );
        assert_eq!(check_panic_free(&masked), Vec::new());
        let elsewhere = SourceFile::new("crates/rnb-sim/src/lru.rs", "fn f() { x.unwrap(); }");
        assert_eq!(check_panic_free(&elsewhere), Vec::new());
    }

    // -------- R2 --------

    #[test]
    fn r2_detects_unseeded_randomness_everywhere() {
        for line in [
            "fn f() { let mut r = rand::rng(); }",
            "fn f() { let mut r = thread_rng(); }",
            "fn f() { let r = StdRng::from_entropy(); }",
            "fn f() { let r = StdRng::from_os_rng(); }",
        ] {
            let f = SourceFile::new("crates/rnb-sim/src/cluster.rs", line);
            let v = check_determinism(&f);
            assert_eq!(v.len(), 1, "expected one finding for {line:?}");
        }
        // Even inside allowlisted files: the time allowlist never excuses
        // unseeded randomness.
        let f = SourceFile::new(
            "crates/rnb-store/src/clock.rs",
            "fn f() { let mut r = thread_rng(); }",
        );
        assert_eq!(check_determinism(&f).len(), 1);
    }

    #[test]
    fn r2_flags_wallclock_outside_allowlist_only() {
        let outside = SourceFile::new(
            "crates/rnb-sim/src/cluster.rs",
            "fn f() { let t = Instant::now(); let s = SystemTime::now(); }",
        );
        assert_eq!(check_determinism(&outside).len(), 2);
        let inside = SourceFile::new(
            "crates/rnb-store/src/clock.rs",
            "fn f() { let t = Instant::now(); }",
        );
        assert_eq!(check_determinism(&inside), Vec::new());
        let bench = SourceFile::new(
            "crates/rnb-bench/src/bin/ext_scale.rs",
            "fn f() { let t = Instant::now(); }",
        );
        assert_eq!(check_determinism(&bench), Vec::new());
    }

    #[test]
    fn r2_flags_reintroduced_wallclock_in_clock_injected_files() {
        // shard.rs and loadgen.rs earned their way off the allowlist when
        // the injected Clock landed; a reintroduced direct read must fail
        // the lint from now on.
        for path in [
            "crates/rnb-store/src/shard.rs",
            "crates/rnb-store/src/loadgen.rs",
            "crates/rnb-store/src/server.rs",
            "crates/rnb-store/src/store.rs",
        ] {
            let f = SourceFile::new(path, "fn f() { let t = Instant::now(); }");
            let v = check_determinism(&f);
            assert_eq!(v.len(), 1, "{path} must not read the wall clock");
            assert_eq!(v[0].rule, "R2/deterministic-simulation");
            assert!(v[0].message.contains("outside the time allowlist"));
        }
    }

    #[test]
    fn r2_seeded_randomness_is_fine() {
        let f = SourceFile::new(
            "crates/rnb-sim/src/cluster.rs",
            "fn f(seed: u64) { let mut r = StdRng::seed_from_u64(seed); }",
        );
        assert_eq!(check_determinism(&f), Vec::new());
    }

    #[test]
    fn r2_stale_allowlist_entries_are_flagged() {
        // None of these files read the clock, so every entry is stale.
        let files = vec![SourceFile::new(
            "crates/rnb-store/src/clock.rs",
            "fn quiet() {}",
        )];
        let v = check_stale_allowlist(&files);
        assert_eq!(v.len(), TIME_ALLOWLIST.len());
        // One real use marks exactly that entry live.
        let files = vec![SourceFile::new(
            "crates/rnb-store/src/clock.rs",
            "fn f() { let t = Instant::now(); }",
        )];
        let v = check_stale_allowlist(&files);
        assert_eq!(v.len(), TIME_ALLOWLIST.len() - 1);
        assert!(v.iter().all(|v| !v.file.contains("clock")));
    }

    // -------- R5 --------

    #[test]
    fn r5_detects_sleep_in_non_test_code() {
        let f = SourceFile::new(
            "crates/rnb-store/src/bin/rnb-stored.rs",
            "fn f() { std::thread::sleep(std::time::Duration::from_secs(1)); }",
        );
        let v = check_no_sleep(&f);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "R5/no-thread-sleep");
        // Bare `thread::sleep` (pre-imported) is the same pattern.
        let bare = SourceFile::new(
            "crates/rnb-sim/src/cluster.rs",
            "fn f() { thread::sleep(d); }",
        );
        assert_eq!(check_no_sleep(&bare).len(), 1);
    }

    #[test]
    fn r5_ignores_tests_comments_and_allowlisted_files() {
        let test_code = SourceFile::new(
            "crates/rnb-store/src/shard.rs",
            "#[cfg(test)]\nmod tests { fn t() { std::thread::sleep(d); } }",
        );
        assert_eq!(check_no_sleep(&test_code), Vec::new());
        let comment = SourceFile::new(
            "crates/rnb-sim/src/cluster.rs",
            "// never call thread::sleep here\nfn f() {}",
        );
        assert_eq!(check_no_sleep(&comment), Vec::new());
        let allowlisted = SourceFile::new(
            "crates/rnb-bench/src/bin/ext_udp.rs",
            "fn f() { std::thread::sleep(d); }",
        );
        assert_eq!(check_no_sleep(&allowlisted), Vec::new());
    }

    #[test]
    fn r5_stale_sleep_allowlist_entries_are_flagged() {
        // No file sleeps → every allowlist entry is stale.
        let files = vec![SourceFile::new(
            "crates/rnb-bench/src/bin/ext_udp.rs",
            "fn quiet() {}",
        )];
        let v = check_stale_sleep_allowlist(&files);
        assert_eq!(v.len(), SLEEP_ALLOWLIST.len());
        assert!(v[0].message.contains("stale"));
        // A real sleep marks the entry live.
        let files = vec![SourceFile::new(
            "crates/rnb-bench/src/bin/ext_udp.rs",
            "fn f() { std::thread::sleep(d); }",
        )];
        assert_eq!(check_stale_sleep_allowlist(&files), Vec::new());
    }

    // -------- R3 --------

    #[test]
    fn r3_detects_lossy_int_casts_in_wire_code() {
        let f = SourceFile::new(
            "crates/rnb-store/src/protocol.rs",
            "fn f(n: u64) -> u16 { n as u16 }",
        );
        let v = check_wire_casts(&f);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "R3/lossless-wire-casts");
    }

    #[test]
    fn r3_allows_float_casts_nontarget_files_and_tests() {
        let float = SourceFile::new(
            "crates/rnb-store/src/protocol.rs",
            "fn f(n: u64) -> f64 { n as f64 }",
        );
        assert_eq!(check_wire_casts(&float), Vec::new());
        let elsewhere = SourceFile::new(
            "crates/rnb-sim/src/cluster.rs",
            "fn f(n: u64) -> u16 { n as u16 }",
        );
        assert_eq!(check_wire_casts(&elsewhere), Vec::new());
        let test_code = SourceFile::new(
            "crates/rnb-store/src/protocol.rs",
            "#[cfg(test)]\nmod tests { fn f(n: u64) -> u16 { n as u16 } }",
        );
        assert_eq!(check_wire_casts(&test_code), Vec::new());
    }

    // -------- R4 --------

    fn inventory(rows: &str) -> Inventory {
        Inventory::parse(rows).expect("fixture inventory parses")
    }

    #[test]
    fn r4_requires_registration_of_debug_assert_messages() {
        let f = SourceFile::new(
            "crates/rnb-cover/src/bitset.rs",
            "fn f() { debug_assert!(i < n, \"bit out of universe\"); }",
        );
        let (sites, missing) = collect_invariant_sites(&f);
        assert_eq!(missing, Vec::new());
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].pattern, "bit out of universe");

        let empty = inventory("| file | kind | pattern | rationale |\n|---|---|---|---|\n");
        assert_eq!(check_inventory(&sites, &empty).len(), 1);

        let good = inventory(
            "| crates/rnb-cover/src/bitset.rs | debug_assert | bit out of universe | checked |",
        );
        assert_eq!(check_inventory(&sites, &good), Vec::new());
    }

    #[test]
    fn r4_flags_messageless_debug_asserts() {
        let f = SourceFile::new(
            "crates/rnb-cover/src/bitset.rs",
            "fn f() { debug_assert_eq!(a.len, b.len); }",
        );
        let (sites, missing) = collect_invariant_sites(&f);
        assert_eq!(sites, Vec::new());
        assert_eq!(missing.len(), 1);
        assert!(missing[0].message.contains("without a message"));
    }

    #[test]
    fn r4_extracts_messages_from_eq_and_multiline_forms() {
        let f = SourceFile::new(
            "crates/rnb-sim/src/cluster.rs",
            "fn f() {\n    debug_assert_eq!(\n        a(x, y),\n        b,\n        \
             \"accounting reconciles\"\n    );\n}",
        );
        let (sites, missing) = collect_invariant_sites(&f);
        assert_eq!(missing, Vec::new());
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].pattern, "accounting reconciles");
    }

    #[test]
    fn r4_registers_sentinels_and_flags_stale_rows() {
        let f = SourceFile::new(
            "crates/rnb-sim/src/lru.rs",
            "const NIL: usize = usize::MAX;\n",
        );
        let (sites, _) = collect_invariant_sites(&f);
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].kind, Kind::Sentinel);

        let unregistered = inventory("| a | sentinel | u32::MAX | n/a |");
        let v = check_inventory(&sites, &unregistered);
        // One unregistered site + one stale row.
        assert_eq!(v.len(), 2);
        assert!(v.iter().any(|v| v.message.contains("unregistered")));
        assert!(v.iter().any(|v| v.message.contains("stale")));

        let good =
            inventory("| crates/rnb-sim/src/lru.rs | sentinel | usize::MAX | freelist NIL |");
        assert_eq!(check_inventory(&sites, &good), Vec::new());
    }

    // -------- R6 --------

    fn core(src: &str) -> SourceFile {
        SourceFile::new("crates/rnb-core/src/plan.rs", src)
    }

    #[test]
    fn r6_flags_example_less_pub_fns() {
        let f = core(
            "/// Does a thing.\n\
             pub fn undocumented() {}\n\
             pub const fn bare() {}\n",
        );
        let v = check_doc_examples_with(&f, &[]);
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|v| v.rule == "R6/doc-example-coverage"));
        assert_eq!(v[0].line, 2);
        assert!(v[0].message.contains("undocumented"));
        assert!(v[1].message.contains("bare"));
    }

    #[test]
    fn r6_accepts_fenced_examples_through_attributes() {
        let f = core(
            "/// Sums.\n\
             ///\n\
             /// ```\n\
             /// assert_eq!(1 + 1, 2);\n\
             /// ```\n\
             #[must_use]\n\
             pub fn documented(a: u32) -> u32 { a }\n",
        );
        assert_eq!(check_doc_examples_with(&f, &[]), Vec::new());
    }

    #[test]
    fn r6_ignores_non_core_files_private_fns_and_tests() {
        let elsewhere = SourceFile::new("crates/rnb-sim/src/lru.rs", "pub fn f() {}\n");
        assert_eq!(check_doc_examples_with(&elsewhere, &[]), Vec::new());
        let non_public = core(
            "fn private() {}\n\
             pub(crate) fn internal() {}\n\
             // a comment mentioning pub fn fake()\n\
             const S: &str = \"pub fn in_a_string()\";\n\
             #[cfg(test)]\n\
             mod tests { pub fn helper() {} }\n",
        );
        assert_eq!(check_doc_examples_with(&non_public, &[]), Vec::new());
    }

    #[test]
    fn r6_allowlist_excuses_and_goes_stale() {
        let f = core("/// Plain doc.\npub fn excused() {}\n");
        let allow: &[(&str, &str, &str)] = &[("crates/rnb-core/src/plan.rs", "excused", "fixture")];
        assert_eq!(check_doc_examples_with(&f, allow), Vec::new());
        // Live while the fn lacks an example…
        assert_eq!(check_stale_doc_allowlist_with(&[f], allow), Vec::new());
        // …stale once it gains one (or disappears).
        let fixed = core("/// ```\n/// // now shown\n/// ```\npub fn excused() {}\n");
        let v = check_stale_doc_allowlist_with(&[fixed], allow);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("stale"));
    }

    #[test]
    fn r4_ignores_test_code_sites() {
        let f = SourceFile::new(
            "crates/rnb-hash/src/rch.rs",
            "#[cfg(test)]\nmod tests { fn f() { let k = u64::MAX; debug_assert!(true); } }",
        );
        let (sites, missing) = collect_invariant_sites(&f);
        assert_eq!(sites, Vec::new());
        assert_eq!(missing, Vec::new());
    }

    // -------- R7 --------

    const SERVE_ROOT: &[(&str, &str)] = &[("crates/rnb-store/src/server.rs", "serve_conn")];

    #[test]
    fn r7_reintroduced_clone_in_serve_conn_fails() {
        // The acceptance fixture: a clone() put back anywhere in the
        // serving closure — here one call away from the root — must fail.
        let files = vec![serving(
            "fn serve_conn() { let req = parse(); handle(req); }\n\
             fn handle(req: Req) { let owned = req.data.clone(); drop(owned); }\n\
             fn parse() -> Req { Req }\n",
        )];
        let graph = CallGraph::build(&files);
        let v = check_serving_clone_with(&files, &graph, SERVE_ROOT, &[]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "R7/serving-path-clone");
        assert_eq!(v[0].line, 2);
        assert!(v[0].message.contains("handle"));
    }

    #[test]
    fn r7_clean_serving_path_passes() {
        let files = vec![serving(
            "fn serve_conn(buf: &mut Vec<u8>) { fill(buf); }\n\
             fn fill(buf: &mut Vec<u8>) { buf.extend_from_slice(b\"ok\"); }\n",
        )];
        let graph = CallGraph::build(&files);
        assert_eq!(
            check_serving_clone_with(&files, &graph, SERVE_ROOT, &[]),
            Vec::new()
        );
    }

    #[test]
    fn r7_ignores_unreachable_fns_and_test_code() {
        let files = vec![serving(
            "fn serve_conn() { fast(); }\n\
             fn fast() {}\n\
             fn cold_admin_path(x: &[u8]) { let v = x.to_vec(); drop(v); }\n\
             #[cfg(test)]\n\
             mod tests { fn t(x: &Y) { let v = x.clone(); } }\n",
        )];
        let graph = CallGraph::build(&files);
        assert_eq!(
            check_serving_clone_with(&files, &graph, SERVE_ROOT, &[]),
            Vec::new()
        );
    }

    #[test]
    fn r7_allowlist_excuses_and_goes_stale() {
        let allow: &[(&str, &str, &str)] = &[(
            "crates/rnb-store/src/server.rs",
            "serve_conn",
            "fixture reason",
        )];
        let dirty = vec![serving(
            "fn serve_conn(buf: &[u8]) { let v = buf.to_owned(); drop(v); }\n",
        )];
        let graph = CallGraph::build(&dirty);
        assert_eq!(
            check_serving_clone_with(&dirty, &graph, SERVE_ROOT, allow),
            Vec::new()
        );
        // Once the copy disappears, the unused entry itself is the finding.
        let clean = vec![serving("fn serve_conn() {}\n")];
        let graph = CallGraph::build(&clean);
        let v = check_serving_clone_with(&clean, &graph, SERVE_ROOT, allow);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("stale"));
    }

    #[test]
    fn r7_reintroduced_clone_in_write_burst_loop_fails() {
        // The write-path acceptance fixture: `multi_set` is a clone
        // root, so a value copy smuggled back into the burst loop (the
        // pre-pooled-planner idiom was `value.to_vec()` per replica)
        // must fail even when it hides one call away from the root.
        let files = vec![SourceFile::new(
            "crates/rnb-client/src/client.rs",
            "pub fn multi_set(&mut self, entries: &[(u64, Vec<u8>)]) { \
             let plan = self.batcher.plan(entries); run_bursts(&plan); }\n\
             fn run_bursts(plan: &Plan) { for g in &plan.groups { \
             let owned = g.value.to_vec(); send(owned); } }\n",
        )];
        let graph = CallGraph::build(&files);
        let root: &[(&str, &str)] = &[("crates/rnb-client/src/client.rs", "multi_set")];
        let v = check_serving_clone_with(&files, &graph, root, &[]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "R7/serving-path-clone");
        assert!(v[0].message.contains("run_bursts"));
    }

    #[test]
    fn r7_reintroduced_clone_in_read_engine_fails() {
        // The read engine is a root of its own (the client reaches it
        // through a generic call), so a copy of its per-request state,
        // the pre-engine idiom, fails one call away from `fetch`.
        let files = vec![SourceFile::new(
            "crates/rnb-core/src/read.rs",
            "impl ReadEngine {\n\
                 pub fn fetch(&mut self) { self.settle(); }\n\
                 fn settle(&mut self) { let missed = self.missed.clone(); drop(missed); }\n\
             }\n",
        )];
        let root = ("crates/rnb-core/src/read.rs", "fetch");
        assert!(CLONE_ROOTS.contains(&root));
        let graph = CallGraph::build(&files);
        let v = check_serving_clone_with(&files, &graph, &[root], &[]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 3);
        assert!(v[0].message.contains("settle"));
    }

    #[test]
    fn r7_reintroduced_clone_in_write_engine_fails() {
        // The write engine is a root of its own (the client and the
        // simulator reach it through a generic call), so a copy of the
        // batch it lays out fails one call away from `store`.
        let files = vec![SourceFile::new(
            "crates/rnb-core/src/write.rs",
            "impl WriteEngine {\n\
                 pub fn store(&mut self) { self.plan_batch(); }\n\
                 pub fn plan_batch(&mut self) { let sets = self.sets.to_vec(); drop(sets); }\n\
             }\n",
        )];
        let root = ("crates/rnb-core/src/write.rs", "store");
        assert!(CLONE_ROOTS.contains(&root) && PANIC_ROOTS.contains(&root));
        let graph = CallGraph::build(&files);
        let v = check_serving_clone_with(&files, &graph, &[root], &[]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 3);
        assert!(v[0].message.contains("plan_batch"));
    }

    #[test]
    fn r7_reintroduced_clone_in_set_multi_fails() {
        // Store side: `set_multi` grouping must not copy keys per entry
        // (the scratch interns positions, not bytes).
        let files = vec![SourceFile::new(
            "crates/rnb-store/src/store.rs",
            "pub fn set_multi(&self, entries: &[Entry]) { \
             for e in entries { self.stage(e.key.to_owned()); } }\n",
        )];
        let graph = CallGraph::build(&files);
        let root: &[(&str, &str)] = &[("crates/rnb-store/src/store.rs", "set_multi")];
        let v = check_serving_clone_with(&files, &graph, root, &[]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn r7_renamed_root_is_reported_not_silently_dropped() {
        let files = vec![serving("fn serve_conn_v2(x: &Y) { let v = x.clone(); }\n")];
        let graph = CallGraph::build(&files);
        let v = check_serving_clone_with(&files, &graph, SERVE_ROOT, &[]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("not found"));
    }

    // -------- R8 --------

    fn cover(src: &str) -> SourceFile {
        SourceFile::new("crates/rnb-cover/src/greedy.rs", src)
    }

    #[test]
    fn r8_flags_unmarked_planner_entry_points() {
        let files = vec![cover(
            "pub fn greedy_cover(n: usize) -> usize { n }\n\
             impl Planner { pub fn plan_cover(&mut self) -> usize { 0 } }\n\
             impl PlannedCover { pub fn covered(&self) -> usize { 0 } }\n",
        )];
        let graph = CallGraph::build(&files);
        let v = check_must_use(&files, &graph);
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v.iter().all(|x| x.rule == "R8/must-use-planner"));
        assert_eq!(v.iter().map(|x| x.line).collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn r8_satisfied_by_attribute_and_tightly_scoped() {
        let files = vec![cover(
            "#[must_use]\n\
             pub fn greedy_cover(n: usize) -> usize { n }\n\
             pub fn helper_not_listed(n: usize) -> usize { n }\n\
             impl Planner { pub fn reset(&mut self) {} }\n\
             impl PlannedCover { pub fn absorb(&mut self, x: usize) -> usize { x } }\n",
        )];
        let graph = CallGraph::build(&files);
        assert_eq!(check_must_use(&files, &graph), Vec::new());
        // The same declarations outside rnb-cover are out of scope.
        let elsewhere = vec![SourceFile::new(
            "crates/rnb-core/src/plan.rs",
            "pub fn greedy_cover(n: usize) -> usize { n }\n",
        )];
        let graph = CallGraph::build(&elsewhere);
        assert_eq!(check_must_use(&elsewhere, &graph), Vec::new());
    }

    // -------- R9 --------

    #[test]
    fn r9_transitive_panic_detected_two_hops_out() {
        let files = vec![serving(
            "fn serve_conn() { decode(); }\n\
             fn decode() { verify(); }\n\
             fn verify(header: &[u8]) { let _ = header.split_at(4); }\n",
        )];
        let graph = CallGraph::build(&files);
        let v = check_transitive_panic_with(&files, &graph, SERVE_ROOT, &[]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "R9/transitive-panic-freedom");
        assert_eq!(v[0].line, 3);
        assert!(v[0].message.contains("verify"));
    }

    #[test]
    fn r9_panic_behind_the_event_loop_method_calls_fails() {
        // The store's root is the worker's event loop, which reaches the
        // serve function through `self.` method calls.
        let files = vec![serving(
            "impl Worker {\n\
                 fn run(mut self) { loop { self.serve(1); } }\n\
                 fn serve(&mut self, token: u64) { serve_conn(&mut self.conn); }\n\
             }\n\
             fn serve_conn(conn: &mut Conn) { let _ = conn.input.split_at(4); }\n",
        )];
        let graph = CallGraph::build(&files);
        let root: &[(&str, &str)] = &[("crates/rnb-store/src/server.rs", "run")];
        let v = check_transitive_panic_with(&files, &graph, root, &[]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 5);
        assert!(v[0].message.contains("serve_conn"));
    }

    #[test]
    fn r9_clean_result_propagation_passes() {
        let files = vec![serving(
            "fn serve_conn() -> Result<(), E> { decode()?; Ok(()) }\n\
             fn decode() -> Result<(), E> { Err(E) }\n",
        )];
        let graph = CallGraph::build(&files);
        assert_eq!(
            check_transitive_panic_with(&files, &graph, SERVE_ROOT, &[]),
            Vec::new()
        );
    }

    #[test]
    fn r9_registered_invariant_excuses_and_goes_stale() {
        let registry: &[(&str, &str, &str, &str)] = &[(
            "crates/rnb-store/src/server.rs",
            "serve_conn",
            ".unwrap()",
            "fixture invariant",
        )];
        let dirty = vec![serving(
            "fn serve_conn(x: Option<u8>) { let _ = x.unwrap(); }\n",
        )];
        let graph = CallGraph::build(&dirty);
        assert_eq!(
            check_transitive_panic_with(&dirty, &graph, SERVE_ROOT, registry),
            Vec::new()
        );
        // The registration is per pattern: a different panic in the same
        // function is still a finding.
        let other_pattern = vec![serving(
            "fn serve_conn(x: Option<u8>) { let _ = x.unwrap(); panic!(\"no\"); }\n",
        )];
        let graph = CallGraph::build(&other_pattern);
        let v = check_transitive_panic_with(&other_pattern, &graph, SERVE_ROOT, registry);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("panic!("));
        // And the row goes stale once the unwrap is gone.
        let clean = vec![serving("fn serve_conn() {}\n")];
        let graph = CallGraph::build(&clean);
        let v = check_transitive_panic_with(&clean, &graph, SERVE_ROOT, registry);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("stale"));
    }

    // -------- R10 --------

    fn store_file(src: &str) -> SourceFile {
        SourceFile::new("crates/rnb-store/src/shard.rs", src)
    }

    #[test]
    fn r10_nested_lock_fails() {
        // The acceptance fixture: a second .lock() while the first guard
        // is still live must fail.
        let files = vec![store_file(
            "impl Shard {\n\
                 fn rebalance(&self) {\n\
                     let a = self.left.lock();\n\
                     let b = self.right.lock();\n\
                     drop((a, b));\n\
                 }\n\
             }\n",
        )];
        let graph = CallGraph::build(&files);
        let v = check_lock_discipline_with(&files, &graph, &[]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "R10/lock-discipline");
        assert_eq!(v[0].line, 4);
        assert!(v[0].message.contains("rebalance"));
        assert!(v[0].message.contains("another `.lock()`"));
    }

    #[test]
    fn r10_socket_io_under_guard_fails() {
        let files = vec![store_file(
            "fn reply(&self, w: &mut W) {\n\
                 let g = self.map.lock();\n\
                 w.write_all(g.bytes());\n\
             }\n",
        )];
        let graph = CallGraph::build(&files);
        let v = check_lock_discipline_with(&files, &graph, &[]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 3);
        assert!(v[0].message.contains("socket I/O"));
    }

    #[test]
    fn r10_guard_dropped_before_io_passes() {
        // The inner block ends the named guard's scope, so the write
        // after it is clean.
        let files = vec![store_file(
            "fn reply(&self, w: &mut W) {\n\
                 let data = {\n\
                     let g = self.map.lock();\n\
                     g.get(0)\n\
                 };\n\
                 w.write_all(&data);\n\
             }\n",
        )];
        let graph = CallGraph::build(&files);
        assert_eq!(check_lock_discipline_with(&files, &graph, &[]), Vec::new());
    }

    #[test]
    fn r10_temporary_guard_spans_its_trailing_block() {
        // `for … in m.lock().iter() { … }` holds the guard for the whole
        // loop body, so a lock taken inside the body is nested.
        let files = vec![store_file(
            "fn sweep(&self) {\n\
                 for e in self.map.lock().iter() {\n\
                     self.stats.lock().bump(e);\n\
                 }\n\
             }\n",
        )];
        let graph = CallGraph::build(&files);
        let v = check_lock_discipline_with(&files, &graph, &[]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn r10_socket_io_in_a_guarded_visitor_fails() {
        // The closure handed to `get_each` runs under a shard guard: a
        // socket write in it holds the shard across the network.
        let files = vec![store_file(
            "fn reply(store: &Store, keys: Keys, w: &mut W) {\n\
                 store.get_each(keys.iter(), |key, hit| {\n\
                     if let Some(v) = hit { w.write_all(v.data); }\n\
                 });\n\
                 w.write_all(b\"END\");\n\
             }\n",
        )];
        let graph = CallGraph::build(&files);
        let v = check_lock_discipline_with(&files, &graph, &[]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 3);
        assert!(v[0].message.contains("socket I/O"));
        assert!(v[0].message.contains("visitor closure"));
        // Copying into a buffer, a lock-free write, is what it is for.
        let clean = vec![store_file(
            "fn reply(store: &Store, keys: Keys, out: &mut Vec<u8>) {\n\
                 store.get_each(keys.iter().map(|k| k), |key, hit| {\n\
                     if let Some(v) = hit { out.extend_from_slice(v.data); }\n\
                 });\n\
             }\n",
        )];
        let graph = CallGraph::build(&clean);
        assert_eq!(check_lock_discipline_with(&clean, &graph, &[]), Vec::new());
    }

    #[test]
    fn r10_lock_in_a_guarded_visitor_fails() {
        let files = vec![store_file(
            "fn count(store: &Store, keys: Keys) {\n\
                 store.get_each(keys, |_, _| { self.stats.lock().bump(); });\n\
             }\n",
        )];
        let graph = CallGraph::build(&files);
        let v = check_lock_discipline_with(&files, &graph, &[]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("another `.lock()`"));
    }

    #[test]
    fn r10_allowlist_excuses_and_goes_stale() {
        let allow: &[(&str, &str, &str)] =
            &[("crates/rnb-store/src/shard.rs", "swap", "fixture reason")];
        let dirty = vec![store_file(
            "fn swap(&self) { let a = self.l.lock(); let b = self.r.lock(); drop((a, b)); }\n",
        )];
        let graph = CallGraph::build(&dirty);
        assert_eq!(
            check_lock_discipline_with(&dirty, &graph, allow),
            Vec::new()
        );
        let clean = vec![store_file(
            "fn swap(&self) { let a = self.l.lock(); drop(a); }\n",
        )];
        let graph = CallGraph::build(&clean);
        let v = check_lock_discipline_with(&clean, &graph, allow);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("stale"));
    }

    #[test]
    fn r10_ignores_files_outside_the_store() {
        let files = vec![SourceFile::new(
            "crates/rnb-sim/src/lru.rs",
            "fn f(&self) { let a = m.lock(); let b = n.lock(); drop((a, b)); }\n",
        )];
        let graph = CallGraph::build(&files);
        assert_eq!(check_lock_discipline_with(&files, &graph, &[]), Vec::new());
    }

    // -------- R0 --------

    #[test]
    fn r0_flags_duplicate_registry_keys_only() {
        let clean = self_check_with(&[("LIST", vec!["a".into(), "b".into()])]);
        assert_eq!(clean, Vec::new());
        let v = self_check_with(&[("LIST", vec!["a".into(), "b".into(), "a".into()])]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "R0/lint-self-check");
        assert!(v[0].message.contains("duplicate key `a` in LIST"));
    }

    #[test]
    fn r0_real_registries_are_well_formed() {
        assert_eq!(self_check(), Vec::new());
    }
}
