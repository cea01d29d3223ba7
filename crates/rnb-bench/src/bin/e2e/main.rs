//! `e2e`: the end-to-end RnB request benchmark.
//!
//! A real `RnbClient` drives a fleet of real `rnb-stored` processes over
//! loopback TCP through five workloads. With `--trace 0` a run reports the
//! end-to-end metrics a user of the system would see; with `--trace 1` it
//! reports a per-layer budget measured from outside, by timing calls into
//! each crate's public functions (see `trace.rs`). Without `--trace` it
//! does both. `README.md` beside this file is the manual: every metric,
//! why each workload exists, how to read a trace.
//!
//! ```text
//! cargo run --release --offline -p rnb-bench --bin e2e -- \
//!     --seed 1 [--workload ego_k2]... [--seconds 20] [--trace 0|1] [--quick] [--repeat N] [--out DIR]
//! ```
//!
//! The last line of each workload's output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is
//! non-zero if any op failed, any byte read back wrong, or a workload did
//! not show the property it exists for.

mod fleet;
mod procfs;
mod report;
mod run;
mod speed;
mod trace;
mod workload;

use report::{median, percentile, ratio, tail_percentile, Json, Metrics, END_TO_END, PER_LAYER};
use rnb_core::{Bundler, RnbConfig};
use run::{Merged, Phase, Rig, Scale};
use std::fs;
use std::io::{self, BufWriter};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::{Spec, SPECS};

const USAGE: &str = "usage: e2e --seed N [--workload NAME]... [--seconds S] [--trace 0|1] [--quick] [--repeat N] [--out DIR]
  --workload  ego_k2 | ego_k1 | overbook_k3 | mixed_write_k2 | trickle_k2 (repeatable; default: all)
  --seconds   length of the measured phase (default 20)
  --trace     0: end-to-end metrics only; 1: per-layer metrics only; absent: both
  --quick     2-second smoke on a 2-node fleet; workload self-checks off
  --repeat    run the whole set N times in alternating order and write AA.json (needs --out)
  --out       directory for RESULT.json, trace_<workload>.jsonl and AA.json";

struct Args {
    workloads: Vec<&'static Spec>,
    seed: u64,
    seconds: f64,
    /// `Some(false)`: end-to-end only; `Some(true)`: per-layer only.
    trace: Option<bool>,
    quick: bool,
    repeat: usize,
    out: Option<PathBuf>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 0,
        seconds: 20.0,
        trace: None,
        quick: false,
        repeat: 1,
        out: None,
    };
    let mut seconds = None;
    let mut seeded = false;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let spec = SPECS
                    .iter()
                    .find(|s| s.name == name)
                    .ok_or(format!("unknown workload {name:?}"))?;
                args.workloads.push(spec);
            }
            "--seed" => {
                args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
                seeded = true;
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            "--repeat" => {
                args.repeat = value()?
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or("--repeat needs a count of at least 1")?;
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !seeded {
        return Err("--seed is required: the inputs are made from it".into());
    }
    if args.repeat > 1 && args.out.is_none() {
        return Err("--repeat writes AA.json, so it needs --out".into());
    }
    if args.repeat > 1 && args.trace == Some(true) {
        return Err("--repeat compares end-to-end metrics, which --trace 1 leaves out".into());
    }
    if args.workloads.is_empty() {
        args.workloads = SPECS.iter().collect();
    }
    args.seconds = seconds.unwrap_or(if args.quick { 2.0 } else { 20.0 });
    Ok(args)
}

/// Everything one run of one workload produced.
struct Outcome {
    workload: &'static str,
    attempted: u64,
    failed: u64,
    /// Why the run is not `correct`; empty when it is.
    problems: Vec<String>,
    end_to_end: Metrics,
    per_layer: Metrics,
    spans: Vec<trace::Span>,
}

impl Outcome {
    /// `correct`, `attempted`, `failed`: how every report of a run starts.
    fn verdict(&self) -> Vec<(String, Json)> {
        vec![
            ("correct".into(), Json::Bool(self.problems.is_empty())),
            ("attempted".into(), Json::Int(self.attempted)),
            ("failed".into(), Json::Int(self.failed)),
        ]
    }

    /// The object the benchmark contract asks for on the last line.
    fn result_line(&self) -> Json {
        let mut metrics = Vec::new();
        for set in [&self.end_to_end, &self.per_layer] {
            if let Json::Obj(fields) = set.to_json() {
                metrics.extend(fields);
            }
        }
        let mut fields = self.verdict();
        fields.push(("metrics".into(), Json::Obj(metrics)));
        Json::Obj(fields)
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![("name".into(), Json::str(self.workload))];
        fields.extend(self.verdict());
        let problems = self.problems.iter().map(|p| Json::str(p)).collect();
        fields.push(("problems".into(), Json::Arr(problems)));
        fields.push(("end_to_end".into(), self.end_to_end.to_json()));
        fields.push(("per_layer".into(), self.per_layer.to_json()));
        Json::Obj(fields)
    }
}

/// Interquartile range over median, with the quartiles Python's
/// `statistics.quantiles(values, n=4)` gives; 0 below four values.
fn iqr_frac(values: &[f64]) -> f64 {
    if values.len() < 4 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |k: usize| {
        let pos = (v.len() + 1) as f64 * k as f64 / 4.0;
        let below = (pos.floor() as usize).clamp(1, v.len() - 1);
        v[below - 1] + (v[below] - v[below - 1]) * (pos - below as f64)
    };
    (quartile(3) - quartile(1)) / median(values)
}

/// The median over `windows` of `of`: what a time-based metric reports, so
/// that the seconds in which the host stalled the guest do not set it.
fn steady(windows: &[Merged], of: impl Fn(&Merged) -> f64) -> f64 {
    median(&windows.iter().map(of).collect::<Vec<f64>>())
}

/// The speed of the core in window `w` as far as `spec`'s rate and
/// latencies depend on it. What an open loop waits for is clocks, not the
/// core, so its readings stay as measured.
fn pace(spec: &Spec, w: &Merged) -> f64 {
    if spec.open_rate.is_some() {
        1.0
    } else {
        w.speed
    }
}

/// Throughput at the nominal speed of the core: in each window what was
/// done, scaled by how fast the core was going in it.
fn steady_rate(spec: &Spec, windows: &[Merged]) -> f64 {
    steady(windows, |w| w.req_per_s() / pace(spec, w))
}

/// The nine end-to-end metrics of a measured phase. The time-based ones
/// are medians over its whole 1-second windows, each window's reading first
/// scaled to the nominal speed of the core (`speed.rs`): rate and latencies
/// by [`pace`], CPU time on every workload.
fn end_to_end(rig: &Rig, phase: &Phase, windows: &[Merged]) -> Metrics {
    let speed = |w: &Merged| pace(rig.spec, w);
    let read_txns = phase.client_sum(|c| c.round1_txns + c.round2_txns + c.round3_txns);
    let mut m = Metrics::default();
    m.set("req_per_s", steady_rate(rig.spec, windows));
    m.set(
        "lat_p50_us",
        steady(windows, |w| percentile(&w.lat_ns, 0.5) as f64 * speed(w)) / 1e3,
    );
    m.set(
        "lat_p95_us",
        steady(windows, |w| {
            tail_percentile(&w.lat_ns, 0.95).1 as f64 * speed(w)
        }) / 1e3,
    );
    m.set("tpr", ratio(read_txns, phase.client_sum(|c| c.requests)));
    m.set(
        "server_cpu_us_per_req",
        steady(windows, |w| ratio(w.server_cpu_ns, w.ops) * w.speed) / 1e3,
    );
    m.set(
        "client_cpu_us_per_req",
        steady(windows, |w| ratio(w.client_cpu_ns, w.ops) * w.speed) / 1e3,
    );
    m.set(
        "items_found_frac",
        ratio(phase.sum(|w| w.found), phase.sum(|w| w.items)),
    );
    m.set("fleet_rss_mb", phase.after.rss_kb as f64 / 1024.0);
    m.set("setup_s", rig.setup.as_secs_f64() * rig.setup_speed);
    m
}

/// Per-layer numbers that come from the measured phase itself.
fn phase_layers(phase: &Phase, windows: &[Merged], nodes: usize, layer: &mut Metrics) {
    let ops = phase.ops();
    let lat = phase.sorted(|w| &w.lat_ns);
    let late = phase.sorted(|w| &w.late_ns);
    let (tail_p, _) = tail_percentile(&lat, 0.95);
    layer.set(
        "server.bytes_in_per_req",
        ratio(phase.stat("bytes_read"), ops),
    );
    layer.set(
        "server.bytes_out_per_req",
        ratio(phase.stat("bytes_written"), ops),
    );
    layer.set(
        "server.threads_per_node",
        ratio(phase.after.threads, nodes as u64),
    );
    layer.set(
        "server.rss_mb_per_node",
        phase.after.rss_kb as f64 / 1024.0 / nodes as f64,
    );
    layer.set(
        "store.hit_rate",
        ratio(phase.stat("get_hits"), phase.stat("cmd_get")),
    );
    layer.set(
        "store.evictions_per_req",
        ratio(phase.stat("evictions"), ops),
    );
    layer.set(
        "store.items_per_get_txn",
        ratio(phase.stat("cmd_get"), phase.stat("get_transactions")),
    );
    layer.set(
        "store.bytes_per_item",
        ratio(phase.after.stat("bytes"), phase.after.stat("curr_items")),
    );
    layer.set("store.hot_promotions", phase.stat("hot_promotions") as f64);
    layer.set("bench.ops", ops as f64);
    layer.set("bench.fail_frac", ratio(phase.sum(|w| w.failed), ops));
    layer.set("bench.lat_samples", lat.len() as f64);
    layer.set("bench.lat_tail_pct", tail_p * 100.0);
    layer.set(
        "bench.lat_p99_us",
        tail_percentile(&lat, 0.99).1 as f64 / 1e3,
    );
    layer.set(
        "bench.lat_p999_us",
        tail_percentile(&lat, 0.999).1 as f64 / 1e3,
    );
    let rates: Vec<f64> = windows.iter().map(Merged::req_per_s).collect();
    layer.set("bench.window_iqr_frac", iqr_frac(&rates));
    layer.set("bench.core_speed", steady(windows, |w| w.speed));
    layer.set(
        "bench.sched_late_p99_us",
        if late.is_empty() {
            0.0
        } else {
            tail_percentile(&late, 0.99).1 as f64 / 1e3
        },
    );
}

/// The property each workload exists to show, checked on the measured
/// phase; anything that fails is a reason the run is not `correct`.
fn self_checks(rig: &Rig, phase: &Phase, e2e: &Metrics, problems: &mut Vec<String>) {
    let spec = rig.spec;
    let mut require = |ok: bool, what: String| {
        if !ok {
            problems.push(format!("{}: {what}", spec.name));
        }
    };
    let ops = phase.ops();
    let (tpr, found) = (e2e.value("tpr"), e2e.value("items_found_frac"));
    let misses = phase.client_sum(|c| c.planned_misses);
    let read_only_resident = !spec.refill && spec.write_share == 0.0;
    if read_only_resident {
        let fallback = phase.client_sum(|c| c.round2_txns + c.round3_txns);
        require(
            fallback == 0 && misses == 0,
            format!("resident reads fell back: {fallback} txns, {misses} misses"),
        );
        require(
            found == 1.0,
            format!("items_found_frac {found} on a resident fleet"),
        );
    }
    if read_only_resident && spec.k > 1 {
        // Bundling must pay: fewer transactions than plain consistent
        // hashing (k=1) needs for requests of the same stream.
        let plain = Bundler::from_config(&RnbConfig::new(rig.fleet.addrs().len(), 1));
        let reads = 2000;
        let txns: usize = (0..reads)
            .map(|i| plain.plan(rig.callers[0].stream.op(i).1).transactions.len())
            .sum();
        let plain_tpr = txns as f64 / reads as f64;
        require(
            tpr < plain_tpr,
            format!("tpr {tpr} is not below the k=1 tpr {plain_tpr}"),
        );
    }
    if spec.refill {
        let miss_frac = ratio(misses, phase.sum(|w| w.items));
        require(
            (0.03..=0.30).contains(&miss_frac),
            format!("planned_miss_frac {miss_frac} outside [0.03, 0.30]"),
        );
        require(
            phase.stat("evictions") > 0,
            "no evictions: the store is not overbooked".into(),
        );
        require(
            (0.80..=0.995).contains(&found),
            format!("items_found_frac {found} outside [0.80, 0.995]"),
        );
    }
    if spec.write_share > 0.0 {
        let share = ratio(phase.sum(|w| w.writes), ops);
        require(
            (share - spec.write_share).abs() <= 0.01,
            format!("write share {share}, wanted {}", spec.write_share),
        );
    }
    if let Some(rate) = spec.open_rate {
        let achieved = e2e.value("req_per_s");
        require(
            (achieved / rate - 1.0).abs() <= 0.02,
            format!("achieved {achieved}/s of {rate}/s offered"),
        );
        // Nine starts in ten, not the tail: a stall of the host makes the
        // next dozen ops late (they are inside the latencies, which count
        // from due time) and put the p99 over 1 ms in 10 of 29 runs here; a
        // single blocking sender, which is late by design, fails this too.
        let late = percentile(&phase.sorted(|w| &w.late_ns), 0.9) as f64 / 1e3;
        require(
            late < 1000.0,
            format!("a tenth of the ops started more than {late} us after they were due"),
        );
    }
}

/// The per-layer budget of a workload that is up and has been measured:
/// the recorded phase, the probes, the traced pass, the simulator and the
/// cost model. Returns the spans of the traced pass.
fn layer_budget(
    rig: &mut Rig,
    phase: &Phase,
    windows: &[Merged],
    args: &Args,
    scale: &Scale,
    outcome: &mut Outcome,
) -> io::Result<()> {
    let (spec, nodes) = (rig.spec, scale.nodes);
    let layer = &mut outcome.per_layer;
    phase_layers(phase, windows, nodes, layer);
    layer.set("workload.gen_ns_per_req", rig.gen_ns_per_req);

    // The same phase again with spans recorded: the difference is what
    // tracing costs.
    let recorded = rig.measure(args.seconds / 2.0, args.seed ^ 1, true)?;
    layer.set(
        "trace.overhead_frac",
        1.0 - steady_rate(spec, &recorded.windows()) / steady_rate(spec, windows),
    );

    let server_model = trace::probes(rig, args.quick, layer)?;
    let traced = trace::traced_pass(rig, scale.traced_ops, layer)?;
    outcome.attempted += recorded.ops() + scale.traced_ops as u64;
    outcome.failed += recorded.sum(|w| w.failed) + traced.failed;

    // The fleet's capacity in copies of the data set, for the simulator.
    let memory_factor = spec.mem_mb.map(|mb| {
        let items = (nodes * (mb << 20)) as f64 / layer.value("store.bytes_per_item").max(1.0);
        items / rig.graph.num_nodes() as f64
    });
    let warm = spec.warmup_ops / scale.warmup_div / rig.callers.len();
    let sim_tpr = trace::sim_tpr(rig, warm, scale.traced_ops, memory_factor);
    layer.set("sim.tpr", sim_tpr);
    layer.set("sim.tpr_gap_frac", (traced.tpr - sim_tpr) / sim_tpr);

    // Do the layers add back up? Server CPU per request predicted from the
    // fitted cost model and the round-1 transaction sizes.
    let fleet_cpu_ns = phase.after.cpu_ns - phase.before.cpu_ns;
    let measured = ratio(fleet_cpu_ns, phase.ops()) / 1e3;
    let predicted = server_model.total_time_us(&traced.txn_sizes) / traced.reads.max(1) as f64;
    layer.set("model.server_us_per_req", predicted);
    layer.set("model.residual_frac", (measured - predicted) / measured);
    // What a transaction costs the fleet beyond the parts replayed here:
    // the serving loop, poller hand-offs, syscalls.
    let known = layer.value("protocol.parse_ns_per_txn")
        + layer.value("store.get_multi_ns_per_txn")
        + layer.value("protocol.reply_ns_per_item") * layer.value("store.items_per_get_txn");
    let per_txn = ratio(fleet_cpu_ns, phase.stat("get_transactions"));
    layer.set("server.loop_us_per_txn", (per_txn - known) / 1e3);

    let (planned, sent) = (
        layer.value("core.plan_txns_per_req"),
        layer.value("client.round1_txns_per_req"),
    );
    if !args.quick && planned != sent {
        outcome.problems.push(format!(
            "{}: planned {planned} txns/req but the client sent {sent}",
            spec.name
        ));
    }
    outcome.spans = traced.spans;
    Ok(())
}

/// One workload, start to finish.
fn run_workload(
    spec: &'static Spec,
    args: &Args,
    scale: &Scale,
    stored: &Path,
) -> io::Result<Outcome> {
    let (want_e2e, want_layers) = (args.trace != Some(true), args.trace != Some(false));
    let mut rig = Rig::set_up(spec, args.seed, scale, stored)?;

    // End-to-end numbers come from a phase with tracing off; a per-layer
    // run splits its time between this phase and the recorded one.
    let seconds = if want_e2e {
        args.seconds
    } else {
        args.seconds / 2.0
    };
    let phase = rig.measure(seconds, args.seed, false)?;
    let windows = phase.windows();
    let e2e = end_to_end(&rig, &phase, &windows);
    eprintln!(
        "e2e: {}: core speed {:.2} of nominal",
        spec.name,
        steady(&windows, |w| w.speed)
    );
    let mut outcome = Outcome {
        workload: spec.name,
        attempted: phase.ops(),
        failed: phase.sum(|w| w.failed),
        problems: Vec::new(),
        end_to_end: Metrics::default(),
        per_layer: Metrics::default(),
        spans: Vec::new(),
    };
    let broken = phase.client_sum(|c| c.failed_txns + c.reconnects);
    if rig.warmup_failed + broken > 0 {
        outcome.problems.push(format!(
            "{}: {} warm-up ops failed, {broken} transactions failed or reconnected",
            spec.name, rig.warmup_failed
        ));
    }
    if !args.quick {
        self_checks(&rig, &phase, &e2e, &mut outcome.problems);
    }
    if want_layers {
        layer_budget(&mut rig, &phase, &windows, args, scale, &mut outcome)?;
    }
    if want_e2e {
        outcome.end_to_end = e2e;
    }
    rig.finish()?;

    if outcome.failed > 0 {
        outcome
            .problems
            .push(format!("{}: {} ops failed", spec.name, outcome.failed));
    }
    let mut absent = Vec::new();
    if want_e2e {
        absent.extend(
            outcome
                .end_to_end
                .missing(END_TO_END.iter().map(|m| m.name)),
        );
    }
    if want_layers {
        absent.extend(outcome.per_layer.missing(PER_LAYER.iter().map(|m| m.0)));
    }
    if !absent.is_empty() {
        outcome.problems.push(format!(
            "{}: metrics missing or not finite: {}",
            spec.name,
            absent.join(", ")
        ));
    }
    Ok(outcome)
}

fn print_outcome(outcome: &Outcome) {
    let why = SPECS
        .iter()
        .find(|s| s.name == outcome.workload)
        .map_or("", |s| s.why);
    println!("== {} == {why}", outcome.workload);
    for (name, value) in outcome.end_to_end.iter().chain(outcome.per_layer.iter()) {
        println!(
            "{name:<32} {value:>16.4} {}",
            report::unit_of(name).unwrap_or_default()
        );
    }
    for problem in &outcome.problems {
        println!("PROBLEM {problem}");
    }
    println!("{}", outcome.result_line());
}

/// Every end-to-end metric's spread over the repeats, against its bound.
fn aa_report(runs: &[Vec<Outcome>], args: &Args) -> Json {
    let workloads = args.workloads.iter().map(|spec| {
        let metrics = END_TO_END.iter().map(|m| {
            let mut values: Vec<f64> = runs
                .iter()
                .filter_map(|run| {
                    run.iter()
                        .find(|o| o.workload == spec.name)?
                        .end_to_end
                        .get(m.name)
                })
                .collect();
            values.sort_by(f64::total_cmp);
            let (min, max, mid) = (values[0], values[values.len() - 1], median(&values));
            let spread = (max - min) / mid;
            let fields = [
                ("min", min),
                ("median", mid),
                ("max", max),
                ("spread", spread),
                ("bound", m.bound),
                ("spread_over_bound", spread / m.bound),
            ];
            let mut fields: Vec<(String, Json)> = fields
                .iter()
                .map(|&(k, v)| (k.into(), Json::Num(v)))
                .collect();
            fields.push((
                "better".into(),
                Json::str(if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                }),
            ));
            (m.name.into(), Json::Obj(fields))
        });
        (spec.name.into(), Json::Obj(metrics.collect()))
    });
    Json::Obj(vec![
        ("seed".into(), Json::Int(args.seed)),
        ("seconds".into(), Json::Num(args.seconds)),
        ("repeats".into(), Json::Int(runs.len() as u64)),
        ("workloads".into(), Json::Obj(workloads.collect())),
    ])
}

/// Cores this run had; every result that depends on threads carries it.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}

fn write_artifacts(dir: &Path, runs: &[Vec<Outcome>], args: &Args) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let result = Json::Obj(vec![
        ("benchmark".into(), Json::str("e2e")),
        ("seed".into(), Json::Int(args.seed)),
        ("seconds".into(), Json::Num(args.seconds)),
        ("quick".into(), Json::Bool(args.quick)),
        ("nproc".into(), Json::Int(nproc() as u64)),
        (
            "workloads".into(),
            Json::Arr(runs[0].iter().map(Outcome::to_json).collect()),
        ),
    ]);
    fs::write(dir.join("RESULT.json"), format!("{result}\n"))?;
    for outcome in runs[0].iter().filter(|o| !o.spans.is_empty()) {
        let file = fs::File::create(dir.join(format!("trace_{}.jsonl", outcome.workload)))?;
        trace::write_jsonl(BufWriter::new(file), &outcome.spans)?;
    }
    if runs.len() > 1 {
        fs::write(dir.join("AA.json"), format!("{}\n", aa_report(runs, args)))?;
    }
    Ok(())
}

fn run_all(args: &Args) -> io::Result<bool> {
    let stored = fleet::stored_binary()?;
    let scale = if args.quick {
        &Scale::QUICK
    } else {
        &Scale::FULL
    };
    eprintln!(
        "e2e: seed {} · {} s per phase · {} nodes · {} cpus",
        args.seed,
        args.seconds,
        scale.nodes,
        nproc()
    );
    let mut runs: Vec<Vec<Outcome>> = Vec::new();
    for repeat in 0..args.repeat {
        // Alternate the order, so that no workload always runs after the same one.
        let mut order = args.workloads.clone();
        if repeat % 2 == 1 {
            order.reverse();
        }
        let mut outcomes = Vec::new();
        for spec in order {
            let outcome = run_workload(spec, args, scale, &stored)?;
            print_outcome(&outcome);
            outcomes.push(outcome);
        }
        runs.push(outcomes);
    }
    if let Some(dir) = &args.out {
        write_artifacts(dir, &runs, args)?;
        eprintln!("e2e: artifacts in {}", dir.display());
    }
    Ok(runs.iter().flatten().all(|o| o.problems.is_empty()))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("e2e: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Before anything else is started: threads and processes inherit it.
    match speed::pin_to_one_cpu() {
        Ok(cpu) => eprintln!("e2e: everything runs on cpu {cpu}"),
        Err(why) => eprintln!("e2e: not pinned to one cpu, expect noisier numbers ({why})"),
    }
    match run_all(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::read::{field, parse};

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_as_the_driver_passes_them() {
        let a = args("--workload trickle_k2 --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!((a.workloads.len(), a.workloads[0].name), (1, "trickle_k2"));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.repeat),
            (7, 10.0, Some(true), 1)
        );
        let a = args("--seed 1 --quick").unwrap();
        assert_eq!((a.workloads.len(), a.seconds, a.trace), (5, 2.0, None));
        for bad in [
            "",
            "--seed x",
            "--seed 1 --workload nope",
            "--seed 1 --trace 2",
            "--seed 1 --repeat 2",
            "--seed 1 --repeat 2 --out d --trace 1",
            "--seed 1 --seconds 0",
        ] {
            assert!(args(bad).is_err(), "{bad:?} should be refused");
        }
    }

    #[test]
    fn quartiles_match_pythons_statistics_module() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_frac(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert!((iqr_frac(&[3.0, 1.0, 4.0, 1.0, 5.0]) - 3.5 / 3.0).abs() < 1e-12);
        assert_eq!(iqr_frac(&[1.0, 2.0, 3.0]), 0.0);
    }

    /// `BENCHMARK.json` at the repository root and the tables in this
    /// binary are one contract.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let contract = parse(&mut include_str!("../../../../../BENCHMARK.json"));
        let list = |key: &str| match field(&contract, key) {
            Json::Arr(items) => items
                .iter()
                .map(|item| item.to_string())
                .collect::<Vec<_>>(),
            _ => panic!("{key} is not a list"),
        };
        let better = |higher| if higher { "higher" } else { "lower" };
        let end_to_end: Vec<String> = END_TO_END
            .iter()
            .map(|m| {
                format!(
                    r#"{{"name": "{}", "unit": "{}", "better": "{}", "bound": {}}}"#,
                    m.name,
                    m.unit,
                    better(m.higher_is_better),
                    m.bound
                )
            })
            .collect();
        assert_eq!(list("end_to_end"), end_to_end);
        let per_layer: Vec<String> = PER_LAYER
            .iter()
            .map(|&(name, unit, higher)| {
                format!(
                    r#"{{"name": "{name}", "unit": "{unit}", "better": "{}"}}"#,
                    better(higher)
                )
            })
            .collect();
        assert_eq!(list("per_layer"), per_layer);
        let workloads: Vec<String> = SPECS
            .iter()
            .map(|s| format!(r#"{{"name": "{}", "why": "{}"}}"#, s.name, s.why))
            .collect();
        assert_eq!(list("workloads"), workloads);
        assert!(SPECS.iter().all(|s| s.why.len() <= 200));
        assert_eq!(list("paths"), [r#""crates/rnb-bench/src/bin/e2e""#]);
        assert_eq!(field(&contract, "run_seconds").to_string(), "20");
    }

    /// A short run of every workload on a 2-node fleet of real processes:
    /// nothing fails, and every named metric is there and finite.
    #[test]
    fn quick_smoke_reports_every_metric() {
        let stored = fleet::stored_binary().expect("rnb-stored builds");
        let mut args = args("--seed 42 --quick").unwrap();
        args.seconds = 0.6;
        for spec in &SPECS {
            let outcome =
                run_workload(spec, &args, &Scale::QUICK, &stored).expect("the workload runs");
            assert_eq!(outcome.problems, Vec::<String>::new());
            assert!(outcome.attempted > 0 && outcome.failed == 0);
            assert!(outcome
                .end_to_end
                .missing(END_TO_END.iter().map(|m| m.name))
                .is_empty());
            assert!(outcome
                .per_layer
                .missing(PER_LAYER.iter().map(|m| m.0))
                .is_empty());
            assert!(outcome.spans.iter().any(|s| s.name == "wire.round"));
            let line = outcome.result_line().to_string();
            assert!(
                line.starts_with(r#"{"correct": true, "attempted": "#),
                "{line}"
            );
        }
    }
}
