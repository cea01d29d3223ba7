//! `e2e-pairs`: the way a performance claim is checked in this repo, as
//! a command instead of a paragraph.
//!
//! The parent revision is exported under `target/e2e-pairs/`, both
//! sides are built and warmed by one short unrecorded run each, and
//! then `BENCHMARK.json`'s command runs on the parent and on the
//! working tree in pairs: one seed per pair, seeds that no earlier
//! record of `BENCH_e2e.json` used, the side that goes first
//! alternating from pair to pair. Each metric is summarised per side as
//! median and quartiles, with the number of pairs the change won, and
//! the record is appended to `BENCH_e2e.json`. A run that fails all its
//! attempts ends the pairs early: the record then holds the pairs
//! completed before it and names the failed run, and the command still
//! exits non-zero. The benchmark's own files are only read.

use crate::json::{self, Value};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// What `e2e-pairs` was asked to do.
#[derive(Debug, PartialEq, Eq)]
pub struct PairsArgs {
    /// The revision to compare the working tree against.
    pub parent: String,
    /// How many parent/change pairs to run per workload.
    pub pairs: usize,
    /// Workloads to run; empty means all of `BENCHMARK.json`'s.
    pub workloads: Vec<String>,
}

impl PairsArgs {
    /// Parse the arguments after the task name.
    pub fn parse(mut argv: impl Iterator<Item = String>) -> Result<PairsArgs, String> {
        let mut parent = None;
        let mut pairs = None;
        let mut workloads = Vec::new();
        while let Some(flag) = argv.next() {
            let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--parent" => parent = Some(value()?),
                "--pairs" => {
                    let n: usize = value()?.parse().map_err(|e| format!("--pairs: {e}"))?;
                    if n == 0 {
                        return Err("--pairs must be at least 1".into());
                    }
                    pairs = Some(n);
                }
                "--workload" => workloads.push(value()?),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(PairsArgs {
            parent: parent.ok_or("--parent <rev> is required")?,
            pairs: pairs.ok_or("--pairs <n> is required")?,
            workloads,
        })
    }
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
struct Metric {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

/// The parts of `BENCHMARK.json` this tool acts on.
struct Benchmark {
    command: Vec<String>,
    seconds: f64,
    workloads: Vec<String>,
    metrics: Vec<Metric>,
}

impl Benchmark {
    fn read(root: &Path) -> Result<Benchmark, String> {
        let path = root.join("BENCHMARK.json");
        let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text)?;
        let list = |key: &str| doc.get(key).map(Value::items).unwrap_or_default();
        let text_of = |value: &Value, key: &str| {
            value
                .get(key)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or(format!("BENCHMARK.json: an entry lacks {key:?}"))
        };
        let benchmark = Benchmark {
            command: list("command")
                .iter()
                .filter_map(|word| word.as_str().map(str::to_owned))
                .collect(),
            seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("BENCHMARK.json: no run_seconds")?,
            workloads: list("workloads")
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            metrics: list("end_to_end")
                .iter()
                .map(|m| {
                    Ok(Metric {
                        name: text_of(m, "name")?,
                        higher_is_better: text_of(m, "better")? == "higher",
                        bound: m.get("bound").and_then(Value::as_f64).unwrap_or(0.0),
                    })
                })
                .collect::<Result<_, String>>()?,
        };
        if benchmark.command.is_empty() || benchmark.metrics.is_empty() {
            return Err("BENCHMARK.json: no command or no end_to_end metrics".into());
        }
        Ok(benchmark)
    }
}

/// Run `command` to completion and return its stdout; a failure carries
/// everything it printed.
fn capture(command: &mut Command) -> Result<String, String> {
    let shown = format!("{command:?}");
    let output = command.output().map_err(|e| format!("{shown}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{shown}: {}\n{}{}",
            output.status,
            String::from_utf8_lossy(&output.stdout),
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    Ok(String::from_utf8_lossy(&output.stdout).into_owned())
}

/// Export revision `sha` into `target/e2e-pairs/<sha>` (kept between
/// invocations, with the build inside it) and return the directory.
fn export_parent(root: &Path, sha: &str) -> Result<PathBuf, String> {
    let dir = root.join("target").join("e2e-pairs").join(sha);
    if dir.join("Cargo.toml").is_file() {
        return Ok(dir);
    }
    fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut archive = Command::new("git")
        .current_dir(root)
        .args(["archive", "--format=tar", sha])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("git archive: {e}"))?;
    let tar = archive.stdout.take().ok_or("git archive: no stdout")?;
    let unpacked = capture(Command::new("tar").arg("-x").arg("-C").arg(&dir).stdin(tar));
    let archived = archive.wait().map_err(|e| format!("git archive: {e}"))?;
    unpacked?;
    if !archived.success() {
        return Err(format!("git archive {sha}: {archived}"));
    }
    Ok(dir)
}

/// What one benchmark run printed: its metrics by name, and how many
/// operations it attempted and how many of them failed.
struct Run {
    metrics: Value,
    attempted: f64,
    failed: f64,
}

/// How often one run is attempted. The benchmark checks its workload's
/// defining properties itself and exits non-zero when a run does not
/// show them — which is what a neighbour taking the core mid-run looks
/// like — and forty minutes of pairs should not die of one such run.
const ATTEMPTS: usize = 3;

/// One benchmark run in `dir`, retried up to [`ATTEMPTS`] times.
fn run_with_retries(
    bench: &Benchmark,
    dir: &Path,
    workload: &str,
    seed: u64,
    seconds: f64,
) -> Result<Run, String> {
    let mut attempt = 1;
    loop {
        match run_once(bench, dir, workload, seed, seconds) {
            Err(failure) if attempt < ATTEMPTS => {
                eprintln!("e2e-pairs: attempt {attempt} of {ATTEMPTS} failed: {failure}");
                attempt += 1;
            }
            outcome => return outcome,
        }
    }
}

/// One benchmark run in `dir`.
fn run_once(
    bench: &Benchmark,
    dir: &Path,
    workload: &str,
    seed: u64,
    seconds: f64,
) -> Result<Run, String> {
    let (program, rest) = bench.command.split_first().ok_or("empty command")?;
    let stdout = capture(
        Command::new(program)
            .args(rest)
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string(), "--trace", "0"])
            .current_dir(dir)
            .stdin(Stdio::null())
            // Each side builds into its own `target/`; a shared one would
            // be rebuilt by every alternation.
            .env_remove("CARGO_TARGET_DIR"),
    )?;
    let line = stdout
        .lines()
        .rev()
        .find(|line| line.starts_with('{'))
        .ok_or(format!("{workload}: the run printed no result line"))?;
    let result = json::parse(line)?;
    if result.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!(
            "{workload} seed {seed}: the run reports incorrect output"
        ));
    }
    let count = |key| result.get(key).and_then(Value::as_f64).unwrap_or(0.0);
    Ok(Run {
        metrics: result.get("metrics").cloned().unwrap_or(Value::Null),
        attempted: count("attempted"),
        failed: count("failed"),
    })
}

/// `[median, first quartile, third quartile]` of `values` (linear
/// interpolation between order statistics).
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    [0.5, 0.25, 0.75].map(|q| {
        let Some(last) = sorted.len().checked_sub(1) else {
            return f64::NAN;
        };
        let at = q * last as f64;
        let (low, high) = (at.floor() as usize, at.ceil() as usize);
        sorted[low] + (sorted[high] - sorted[low]) * (at - low as f64)
    })
}

fn rounded(x: f64) -> Value {
    Value::Num((x * 1e4).round() / 1e4)
}

fn summary([median, q1, q3]: [f64; 3]) -> Value {
    Value::Obj(vec![
        ("median".into(), rounded(median)),
        ("q1".into(), rounded(q1)),
        ("q3".into(), rounded(q3)),
    ])
}

/// The first seed no record of `BENCH_e2e.json` has used.
fn first_unused_seed(records: &[Value]) -> u64 {
    let used = records
        .iter()
        .flat_map(|record| record.get("seeds").map(Value::items).unwrap_or_default())
        .filter_map(Value::as_f64)
        .fold(0.0, f64::max);
    used as u64 + 1
}

/// The PR number in ISSUE.md's heading (`# ISSUE 22 · …`), if any.
fn pr_number(root: &Path) -> Option<f64> {
    let issue = fs::read_to_string(root.join("ISSUE.md")).ok()?;
    let heading = issue.lines().next()?.strip_prefix("# ISSUE ")?;
    heading.split_whitespace().next()?.parse().ok()
}

/// Run the pairs and append their record to `BENCH_e2e.json`.
pub fn run(root: &Path, args: &PairsArgs) -> Result<(), String> {
    let bench = Benchmark::read(root)?;
    let workloads = if args.workloads.is_empty() {
        bench.workloads.clone()
    } else {
        args.workloads.clone()
    };
    if let Some(unknown) = workloads.iter().find(|w| !bench.workloads.contains(w)) {
        return Err(format!("BENCHMARK.json has no workload {unknown:?}"));
    }

    let rev = format!("{}^{{commit}}", args.parent);
    let sha = capture(
        Command::new("git")
            .current_dir(root)
            .args(["rev-parse", "--verify", &rev]),
    )?;
    let sha = sha.trim();
    let parent_dir = export_parent(root, sha)?;
    let sides = [("parent", parent_dir.as_path()), ("change", root)];

    let ledger = root.join("BENCH_e2e.json");
    let mut records = match fs::read_to_string(&ledger) {
        Ok(text) => json::parse(&text)?.items().to_vec(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("{}: {e}", ledger.display())),
    };
    let first_seed = first_unused_seed(&records);
    let seeds: Vec<u64> = (first_seed..).take(args.pairs).collect();

    for (name, dir) in sides {
        eprintln!(
            "e2e-pairs: building and warming the {name} side ({})",
            dir.display()
        );
        run_with_retries(&bench, dir, &workloads[0], first_seed, 1.0)?;
    }

    // runs[workload][side] holds one run per pair.
    let mut runs: Vec<[Vec<Run>; 2]> = workloads.iter().map(|_| [vec![], vec![]]).collect();
    let mut failed = None;
    let mut completed = 0;
    'pairs: for (pair, &seed) in seeds.iter().enumerate() {
        for (workload, runs) in workloads.iter().zip(&mut runs) {
            // Alternate which side goes first, so that whatever the
            // first run of a pair suffers or enjoys falls on both.
            let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
            for side in order {
                eprintln!(
                    "e2e-pairs: pair {}/{} seed {seed} {workload} {}",
                    pair + 1,
                    seeds.len(),
                    sides[side].0
                );
                let dir = sides[side].1;
                match run_with_retries(&bench, dir, workload, seed, bench.seconds) {
                    Ok(run) => {
                        // The raw reading, so that the log alone can be audited.
                        eprintln!("e2e-pairs:   {}", run.metrics.render());
                        runs[side].push(run);
                    }
                    Err(error) => {
                        failed = Some(FailedRun {
                            side: sides[side].0,
                            workload: workload.clone(),
                            seed,
                            error,
                        });
                        break 'pairs;
                    }
                }
            }
        }
        completed += 1;
    }

    records.push(record(
        &bench,
        sha,
        pr_number(root),
        &seeds[..completed],
        &workloads,
        &runs,
        failed.as_ref(),
    ));
    // One record per line: a new record is a one-line diff.
    let lines: Vec<String> = records.iter().map(Value::render).collect();
    fs::write(&ledger, format!("[\n{}\n]\n", lines.join(",\n")))
        .map_err(|e| format!("{}: {e}", ledger.display()))?;
    eprintln!("e2e-pairs: record appended to {}", ledger.display());
    match failed {
        None => Ok(()),
        Some(failed) => Err(format!(
            "stopped after {completed} of {} pairs: {} {} seed {} failed {ATTEMPTS} times: {}",
            seeds.len(),
            failed.side,
            failed.workload,
            failed.seed,
            failed.error
        )),
    }
}

/// A run that failed all its attempts and so ended the pairs.
struct FailedRun {
    side: &'static str,
    workload: String,
    seed: u64,
    error: String,
}

/// The ledger record of the pairs run over `seeds`, printing the
/// comparison table as it goes. `runs[workload][side]` may hold one run
/// more than `seeds` for workloads that ran before `failed` ended an
/// incomplete pair; only the completed pairs are summarised.
fn record(
    bench: &Benchmark,
    parent_sha: &str,
    pr: Option<f64>,
    seeds: &[u64],
    workloads: &[String],
    runs: &[[Vec<Run>; 2]],
    failed: Option<&FailedRun>,
) -> Value {
    let mut by_workload = Vec::new();
    for (workload, runs) in workloads.iter().zip(runs) {
        println!("== {workload} ({} pairs) ==", seeds.len());
        let runs = |side: usize| &runs[side][..seeds.len()];
        let fail_frac = |side: usize| {
            let attempted: f64 = runs(side).iter().map(|run| run.attempted).sum();
            let failed: f64 = runs(side).iter().map(|run| run.failed).sum();
            rounded(if attempted > 0.0 {
                failed / attempted
            } else {
                0.0
            })
        };
        let mut by_metric = vec![(
            "fail_frac".to_string(),
            Value::Obj(vec![
                ("parent".into(), fail_frac(0)),
                ("change".into(), fail_frac(1)),
            ]),
        )];
        for metric in &bench.metrics {
            let values = |side: usize| -> Vec<f64> {
                let reading = |run: &Run| run.metrics.get(&metric.name)?.get("value")?.as_f64();
                runs(side).iter().filter_map(reading).collect()
            };
            let (parent, change) = (values(0), values(1));
            let won = parent
                .iter()
                .zip(&change)
                .filter(|(p, c)| {
                    if metric.higher_is_better {
                        c > p
                    } else {
                        c < p
                    }
                })
                .count();
            let (p, c) = (quartiles(&parent), quartiles(&change));
            let worse_by = if metric.higher_is_better {
                (p[0] - c[0]) / p[0]
            } else {
                (c[0] - p[0]) / p[0]
            };
            println!(
                "{:<24} parent {:>12.4} [{:.4}, {:.4}]  change {:>12.4} [{:.4}, {:.4}]  \
                 {:+7.1} %  won {won}/{}{}",
                metric.name,
                p[0],
                p[1],
                p[2],
                c[0],
                c[1],
                c[2],
                100.0 * (c[0] - p[0]) / p[0],
                parent.len(),
                if worse_by > metric.bound {
                    "  WORSE THAN ITS BOUND"
                } else {
                    ""
                }
            );
            by_metric.push((
                metric.name.clone(),
                Value::Obj(vec![
                    ("parent".into(), summary(p)),
                    ("change".into(), summary(c)),
                    ("pairs_won".into(), Value::Num(won as f64)),
                ]),
            ));
        }
        by_workload.push((workload.clone(), Value::Obj(by_metric)));
    }

    let mut record = vec![
        ("pr".into(), pr.map_or(Value::Null, Value::Num)),
        ("parent".into(), Value::Str(parent_sha.to_string())),
        ("pairs".into(), Value::Num(seeds.len() as f64)),
        ("seconds".into(), Value::Num(bench.seconds)),
        (
            "seeds".into(),
            Value::Arr(seeds.iter().map(|&s| Value::Num(s as f64)).collect()),
        ),
        ("workloads".into(), Value::Obj(by_workload)),
    ];
    if let Some(failed) = failed {
        record.push((
            "failed_run".into(),
            Value::Obj(vec![
                ("side".into(), Value::Str(failed.side.to_string())),
                ("workload".into(), Value::Str(failed.workload.clone())),
                ("seed".into(), Value::Num(failed.seed as f64)),
                ("error".into(), Value::Str(failed.error.clone())),
            ]),
        ));
    }
    Value::Obj(record)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Result<PairsArgs, String> {
        PairsArgs::parse(words.iter().map(|w| w.to_string()))
    }

    #[test]
    fn arguments_parse() {
        assert_eq!(
            args(&[
                "--parent",
                "HEAD~1",
                "--pairs",
                "10",
                "--workload",
                "ego_k2"
            ]),
            Ok(PairsArgs {
                parent: "HEAD~1".into(),
                pairs: 10,
                workloads: vec!["ego_k2".into()],
            })
        );
        assert!(args(&["--pairs", "10"]).is_err());
        assert!(args(&["--parent", "x"]).is_err());
        assert!(args(&["--parent", "x", "--pairs", "0"]).is_err());
        assert!(args(&["--parent", "x", "--pairs"]).is_err());
        assert!(args(&["--parent", "x", "--pairs", "2", "--fast"]).is_err());
    }

    #[test]
    fn quartiles_interpolate() {
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), [3.0, 2.0, 4.0]);
        assert_eq!(quartiles(&[1.0, 2.0]), [1.5, 1.25, 1.75]);
        assert_eq!(quartiles(&[7.0]), [7.0, 7.0, 7.0]);
        assert!(quartiles(&[]).iter().all(|q| q.is_nan()));
    }

    #[test]
    fn seeds_continue_after_the_ledger() {
        assert_eq!(first_unused_seed(&[]), 1);
        let ledger = json::parse(r#"[{"seeds": [1, 2, 3]}, {"pr": 9}, {"seeds": [40, 7]}]"#);
        assert_eq!(first_unused_seed(ledger.unwrap().items()), 41);
    }

    fn run_reading(tpr: f64) -> Run {
        Run {
            metrics: json::parse(&format!(r#"{{"tpr": {{"value": {tpr}}}}}"#)).unwrap(),
            attempted: 100.0,
            failed: 1.0,
        }
    }

    #[test]
    fn a_failed_run_leaves_a_record_of_the_completed_pairs() {
        let bench = Benchmark {
            command: vec!["e2e".into()],
            seconds: 20.0,
            workloads: vec!["a".into(), "b".into()],
            metrics: vec![Metric {
                name: "tpr".into(),
                higher_is_better: false,
                bound: 0.02,
            }],
        };
        let workloads = bench.workloads.clone();
        // Pair 2 (seed 12) finished workload `a`, then `b`'s change run
        // failed: only pair 1 (seed 11) is complete.
        let runs = vec![
            [
                vec![run_reading(2.0), run_reading(9.0)],
                vec![run_reading(1.0), run_reading(9.0)],
            ],
            [
                vec![run_reading(3.0), run_reading(9.0)],
                vec![run_reading(4.0)],
            ],
        ];
        let failed = FailedRun {
            side: "change",
            workload: "b".into(),
            seed: 12,
            error: "exit status: 1".into(),
        };
        let record = record(
            &bench,
            "abc",
            Some(47.0),
            &[11],
            &workloads,
            &runs,
            Some(&failed),
        );

        assert_eq!(record.get("pairs").and_then(Value::as_f64), Some(1.0));
        let seeds = record.get("seeds").map(Value::items).unwrap_or_default();
        assert_eq!(seeds, [Value::Num(11.0)]);
        let tpr = |workload: &str, side: &str| {
            let summary = record.get("workloads")?.get(workload)?.get("tpr")?;
            summary.get(side)?.get("median")?.as_f64()
        };
        // The incomplete pair's readings (9.0) are not summarised.
        assert_eq!(tpr("a", "parent"), Some(2.0));
        assert_eq!(tpr("a", "change"), Some(1.0));
        assert_eq!(tpr("b", "parent"), Some(3.0));
        assert_eq!(tpr("b", "change"), Some(4.0));
        let won = |workload: &str| {
            let summary = record.get("workloads")?.get(workload)?.get("tpr")?;
            summary.get("pairs_won")?.as_f64()
        };
        assert_eq!((won("a"), won("b")), (Some(1.0), Some(0.0)));

        let failed_run = record.get("failed_run").unwrap();
        let field = |key: &str| failed_run.get(key).cloned();
        assert_eq!(field("side"), Some(Value::Str("change".into())));
        assert_eq!(field("workload"), Some(Value::Str("b".into())));
        assert_eq!(field("seed"), Some(Value::Num(12.0)));
        assert_eq!(field("error"), Some(Value::Str("exit status: 1".into())));
        // The record is what the ledger stores, and it reads back.
        assert_eq!(json::parse(&record.render()), Ok(record.clone()));

        // Without a failure the record names none.
        let complete = super::record(&bench, "abc", None, &[11], &workloads, &runs, None);
        assert_eq!(complete.get("failed_run"), None);
    }

    #[test]
    fn benchmark_declaration_is_understood() {
        let bench = Benchmark::read(&crate::workspace_root()).unwrap();
        assert_eq!(bench.command[0], "cargo");
        assert!(bench.seconds > 0.0);
        assert!(bench.workloads.iter().any(|w| w == "ego_k2"));
        let tpr = bench.metrics.iter().find(|m| m.name == "tpr").unwrap();
        assert!(!tpr.higher_is_better && tpr.bound > 0.0);
    }
}
