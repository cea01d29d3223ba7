//! Scenario artifact rendering: one JSON file per scenario run.
//!
//! Schema `rnb-scenario-v1`, documented in EXPERIMENTS.md ("Cluster
//! scenario artifacts") and mirroring the hand-rolled, dependency-free
//! style of `BENCH_store.json`: stable key order, floats with fixed
//! precision, arrays one element per line, so artifact diffs between CI
//! runs are line-oriented and reviewable.

use crate::scenario::ScenarioReport;
use std::io;
use std::path::{Path, PathBuf};

/// Default artifact directory: `target/scenarios/` at the workspace
/// root (gitignored alongside the rest of `target/`).
pub fn default_artifact_dir() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/scenarios"
    ))
}

/// Render a report as schema-`rnb-scenario-v1` JSON.
pub fn render_json(report: &ScenarioReport) -> String {
    let s = &report.scenario;
    let m = &report.metrics;
    let b = &s.bounds;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"rnb-scenario-v1\",\n");
    out.push_str(&format!("  \"scenario\": \"{}\",\n", s.name));
    out.push_str(&format!(
        "  \"event\": \"{}\",\n",
        s.event.describe().replace('"', "'")
    ));
    out.push_str(&format!(
        "  \"topology\": {{ \"nodes\": {}, \"replication\": {}, \"mem_mb\": {} }},\n",
        s.topology.nodes, s.topology.replication, s.topology.mem_mb
    ));
    out.push_str(&format!(
        "  \"workload\": {{ \"universe\": {}, \"request_size\": {}, \
         \"requests_per_round\": {}, \"rounds\": {}, \"seed\": {}, \
         \"write_fraction\": {:.2} }},\n",
        s.workload.universe,
        s.workload.request_size,
        s.workload.requests_per_round,
        s.workload.rounds,
        s.workload.seed,
        s.workload.write_fraction
    ));
    out.push_str(&format!(
        "  \"metrics\": {{ \"recovery_rounds\": {}, \"recovery_ms\": {}, \
         \"transition_miss_rate\": {:.6}, \"steady_miss_rate\": {:.6}, \
         \"overall_tpr\": {:.4}, \"reconnects\": {}, \"failed_txns\": {}, \
         \"round3_txns\": {} }},\n",
        opt_usize(m.recovery_rounds),
        opt_ms(m.recovery_ms),
        m.transition_miss_rate,
        m.steady_miss_rate,
        m.overall_tpr,
        m.reconnects,
        m.failed_txns,
        m.round3_txns
    ));
    out.push_str(&format!(
        "  \"bounds\": {{ \"max_recovery_rounds\": {}, \"max_transition_miss_rate\": {:.6}, \
         \"max_steady_miss_rate\": {:.6}, \"max_tpr\": {:.4}, \"min_reconnects\": {} }},\n",
        b.max_recovery_rounds,
        b.max_transition_miss_rate,
        b.max_steady_miss_rate,
        b.max_tpr,
        b.min_reconnects
    ));
    out.push_str("  \"rounds\": [\n");
    for (i, r) in report.rounds.iter().enumerate() {
        let sep = if i + 1 == report.rounds.len() {
            ""
        } else {
            ","
        };
        out.push_str(&format!(
            "    {{ \"round\": {}, \"phase\": \"{}\", \"requests\": {}, \"items\": {}, \
             \"round1_txns\": {}, \"round2_txns\": {}, \"round3_txns\": {}, \
             \"failed_txns\": {}, \"reconnects\": {}, \"planned_misses\": {}, \
             \"hitchhikers\": {}, \"writebacks\": {}, \"writeback_txns\": {}, \
             \"writes\": {}, \"write_txns\": {}, \
             \"unavailable\": {}, \"miss_rate\": {:.6}, \
             \"tpr\": {:.4} }}{sep}\n",
            r.round,
            r.phase,
            r.requests,
            r.items,
            r.round1_txns,
            r.round2_txns,
            r.round3_txns,
            r.failed_txns,
            r.reconnects,
            r.planned_misses,
            r.hitchhikers,
            r.writebacks,
            r.writeback_txns,
            r.writes,
            r.write_txns,
            r.unavailable,
            r.miss_rate,
            r.tpr
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"violations\": [");
    for (i, v) in report.violations.iter().enumerate() {
        let sep = if i + 1 == report.violations.len() {
            ""
        } else {
            ", "
        };
        out.push_str(&format!("\"{}\"{sep}", v.replace('"', "'")));
    }
    out.push_str("],\n");
    out.push_str(&format!("  \"passed\": {}\n", report.passed()));
    out.push_str("}\n");
    out
}

fn opt_usize(v: Option<usize>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "null".into(),
    }
}

fn opt_ms(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:.3}"),
        None => "null".into(),
    }
}

/// Write a report's artifact as `SCENARIO_<name>.json` under `dir`
/// (created if missing); returns the path written.
pub fn write_artifact(report: &ScenarioReport, dir: &Path) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("SCENARIO_{}.json", report.scenario.name));
    std::fs::write(&path, render_json(report))?;
    Ok(path)
}
