//! `rnb` — command-line front end for the RnB toolkit.
//!
//! ```text
//! rnb urn   --servers 16 --items 50
//! rnb tpr   --servers 16 --replicas 4 --request-size 50 [--fraction 0.9] [--trials 2000]
//! rnb plan  --servers 16 --replicas 4 --items 1,2,3,40,99 [--limit 3 | --budget 2]
//! rnb graph --dataset slashdot [--scale 10] [--seed 1] [--out FILE]
//! ```
//!
//! Argument handling is deliberately std-only (no clap) — see the parser
//! unit tests at the bottom.

use rnb_analysis::montecarlo::{tpr_stats, McConfig};
use rnb_analysis::urn;
use rnb_core::{Bundler, FetchPlan, PlanScratch, PlanTarget, RnbConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => print!("{output}"),
        Err(msg) => {
            eprintln!("rnb: {msg}");
            eprintln!("{}", USAGE);
            std::process::exit(2);
        }
    }
}

const USAGE: &str = "\
usage:
  rnb urn   --servers N --items M
  rnb tpr   --servers N --replicas K --request-size M [--fraction F] [--trials T] [--seed S]
  rnb plan  --servers N --replicas K --items 1,2,3 [--limit X | --budget T] [--seed S]
  rnb graph --dataset slashdot|epinions [--scale S] [--seed S] [--out FILE]";

/// Parse and execute; returns the text to print (pure, for tests).
fn run(args: &[String]) -> Result<String, String> {
    let (command, rest) = args.split_first().ok_or("missing command")?;
    let opts = parse_flags(rest)?;
    match command.as_str() {
        "urn" => cmd_urn(&opts),
        "tpr" => cmd_tpr(&opts),
        "plan" => cmd_plan(&opts),
        "graph" => cmd_graph(&opts),
        other => Err(format!("unknown command {other:?}")),
    }
}

/// `--name value` pairs, strictly.
fn parse_flags(args: &[String]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        out.push((name.to_string(), value.clone()));
    }
    Ok(out)
}

fn get<'a>(opts: &'a [(String, String)], name: &str) -> Option<&'a str> {
    opts.iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

fn get_num<T: std::str::FromStr>(
    opts: &[(String, String)],
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match get(opts, name) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name}: cannot parse {v:?}")),
        None => default.ok_or_else(|| format!("--{name} is required")),
    }
}

fn cmd_urn(opts: &[(String, String)]) -> Result<String, String> {
    let n: usize = get_num(opts, "servers", None)?;
    let m: usize = get_num(opts, "items", None)?;
    if n == 0 || m == 0 {
        return Err("--servers and --items must be positive".into());
    }
    Ok(format!(
        "urn model, {n} servers, {m}-item requests (§II-A):\n\
         W(N,M) (TPRPS)            = {:.4}\n\
         expected TPR              = {:.3}\n\
         doubling scaling factor   = {:.3}  (ideal 2.0)\n\
         throughput vs 1 server    = {:.2}x (ideal {n}x)\n",
        urn::w(n, m),
        urn::tpr(n, m),
        urn::doubling_scaling_factor(n, m),
        urn::throughput_scaling(1, n, m),
    ))
}

fn cmd_tpr(opts: &[(String, String)]) -> Result<String, String> {
    let cfg = McConfig {
        servers: get_num(opts, "servers", None)?,
        replication: get_num(opts, "replicas", None)?,
        request_size: get_num(opts, "request-size", None)?,
        fetch_fraction: get_num(opts, "fraction", Some(1.0))?,
        trials: get_num(opts, "trials", Some(2000))?,
        seed: get_num(opts, "seed", Some(rnb_bench::FIG_SEED))?,
    };
    let stats = tpr_stats(&cfg);
    let base = urn::tpr(cfg.servers, cfg.request_size);
    Ok(format!(
        "Monte-Carlo TPR, {} servers, k={}, M={}, fetch {:.0}% ({} trials):\n\
         mean TPR        = {:.3} ± {:.3} (95% CI)\n\
         no-replication  = {:.3} (urn model)\n\
         reduction       = {:.1}%\n",
        cfg.servers,
        cfg.replication,
        cfg.request_size,
        cfg.fetch_fraction * 100.0,
        cfg.trials,
        stats.mean(),
        stats.ci95(),
        base,
        (1.0 - stats.mean() / base) * 100.0,
    ))
}

fn cmd_plan(opts: &[(String, String)]) -> Result<String, String> {
    let servers: usize = get_num(opts, "servers", None)?;
    let replicas: usize = get_num(opts, "replicas", None)?;
    let items: Vec<u64> = get(opts, "items")
        .ok_or("--items is required")?
        .split(',')
        .map(|s| s.trim().parse().map_err(|_| format!("bad item id {s:?}")))
        .collect::<Result<_, _>>()?;
    if items.is_empty() {
        return Err("--items must list at least one id".into());
    }
    let seed: u64 = get_num(opts, "seed", Some(RnbConfig::new(1, 1).seed))?;
    let bundler = Bundler::from_config(&RnbConfig::new(servers, replicas).with_seed(seed));
    let target = if let Some(limit) = get(opts, "limit") {
        PlanTarget::AtLeast(limit.parse().map_err(|_| "--limit: not a number")?)
    } else if let Some(budget) = get(opts, "budget") {
        PlanTarget::MaxTxns(budget.parse().map_err(|_| "--budget: not a number")?)
    } else {
        PlanTarget::Full
    };
    let mut plan = FetchPlan::default();
    bundler.plan_into(&mut PlanScratch::new(), &items, target, &mut plan);
    let mut out = format!(
        "{} items over {servers} servers (k={replicas}): {} transaction(s), {} item(s) planned\n",
        plan.requested,
        plan.tpr(),
        plan.planned_items()
    );
    for t in &plan.transactions {
        out.push_str(&format!("  server {:>3} <- {:?}\n", t.server, t.items));
    }
    Ok(out)
}

fn cmd_graph(opts: &[(String, String)]) -> Result<String, String> {
    let spec = match get(opts, "dataset").ok_or("--dataset is required")? {
        "slashdot" => rnb_graph::SLASHDOT,
        "epinions" => rnb_graph::EPINIONS,
        other => return Err(format!("unknown dataset {other:?} (slashdot|epinions)")),
    };
    let scale: usize = get_num(opts, "scale", Some(1))?;
    let seed: u64 = get_num(opts, "seed", Some(rnb_bench::FIG_SEED))?;
    let spec = if scale > 1 {
        spec.scaled_down(scale)
    } else {
        spec
    };
    let graph = spec.generate(seed);
    let hist = rnb_graph::DegreeHistogram::of_out_degrees(&graph);
    let mut out = format!(
        "{} (1/{scale} scale, seed {seed}): {} nodes, {} edges, mean degree {:.2}\n\
         degree p50 {} / p90 {} / p99 {} / max {}\n",
        spec.name,
        graph.num_nodes(),
        graph.num_edges(),
        graph.avg_out_degree(),
        hist.quantile(0.5),
        hist.quantile(0.9),
        hist.quantile(0.99),
        hist.max_degree()
    );
    if let Some(path) = get(opts, "out") {
        rnb_graph::edgelist::save_edge_list(&graph, std::path::Path::new(path))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        out.push_str(&format!("edge list written to {path}\n"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn urn_command_output() {
        let out = run(&args("urn --servers 16 --items 50")).unwrap();
        assert!(out.contains("expected TPR"));
        assert!(out.contains("doubling scaling factor"));
    }

    #[test]
    fn tpr_command_runs_small() {
        let out = run(&args(
            "tpr --servers 8 --replicas 3 --request-size 20 --trials 50",
        ))
        .unwrap();
        assert!(out.contains("mean TPR"));
        assert!(out.contains("reduction"));
    }

    #[test]
    fn plan_command_full_limit_budget() {
        let full = run(&args("plan --servers 8 --replicas 2 --items 1,2,3,4,5")).unwrap();
        assert!(full.contains("5 items over 8 servers"));
        let lim = run(&args(
            "plan --servers 8 --replicas 2 --items 1,2,3,4,5 --limit 3",
        ))
        .unwrap();
        assert!(lim.contains("item(s) planned"));
        let bud = run(&args(
            "plan --servers 8 --replicas 2 --items 1,2,3,4,5 --budget 1",
        ))
        .unwrap();
        assert!(bud.contains("1 transaction(s)"));
    }

    #[test]
    fn graph_command_scaled() {
        let out = run(&args("graph --dataset epinions --scale 100 --seed 3")).unwrap();
        assert!(out.contains("nodes"));
        assert!(out.contains("mean degree"));
    }

    #[test]
    fn errors_are_reported() {
        assert!(run(&args("")).is_err());
        assert!(run(&args("bogus")).is_err());
        assert!(run(&args("urn --servers 16")).is_err());
        assert!(run(&args("urn --servers x --items 5")).is_err());
        assert!(run(&args("plan --servers 4 --replicas 2 --items a,b")).is_err());
        assert!(run(&args("graph --dataset nope")).is_err());
        assert!(run(&args("urn --servers")).is_err());
        assert!(run(&args("urn servers 4")).is_err());
    }
}
