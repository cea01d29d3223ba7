//! Metric names, order statistics and the JSON the benchmark prints.
//!
//! The tables here are the benchmark's contract; a unit test holds
//! `BENCHMARK.json` at the repository root to them.

use std::fmt;

/// An end-to-end metric: what a user of the system would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

/// Same names on every workload. The time-based bounds are as wide as a
/// bound may be: ten runs on the shared builder box spread by up to 10 % of
/// their median, and a spread has to stay under a third of its bound
/// (README, "Steadiness"). `fail_frac` is reported per layer
/// (and as `failed`/`attempted` on the result line) because it must read 0,
/// and a bound is a share of the median.
pub const END_TO_END: [EndToEnd; 9] = [
    e2e("req_per_s", "1/s", true, 0.25),
    e2e("lat_p50_us", "us", false, 0.25),
    e2e("lat_p95_us", "us", false, 0.25),
    e2e("tpr", "txn/req", false, 0.02),
    e2e("server_cpu_us_per_req", "us", false, 0.25),
    e2e("client_cpu_us_per_req", "us", false, 0.25),
    e2e("items_found_frac", "frac", true, 0.01),
    e2e("fleet_rss_mb", "MB", false, 0.10),
    e2e("setup_s", "s", false, 0.25),
];

/// Per-layer metrics `(name, unit, higher is better)`; the prefix is the
/// crate (layer) the number belongs to.
pub const PER_LAYER: [(&str, &str, bool); 61] = [
    ("hash.replicas_ns_per_item", "ns", false),
    ("cover.solve_ns_per_req", "ns", false),
    ("core.plan_ns_per_req", "ns", false),
    ("core.plan_txns_per_req", "txn/req", false),
    ("core.plan_items_per_txn", "item/txn", true),
    ("core.write_plan_ns_per_burst", "ns", false),
    ("core.write_txns_per_burst", "txn/burst", false),
    ("client.get_ns_per_req", "ns", false),
    ("client.residual_ns_per_req", "ns", false),
    ("client.residual_nonneg_frac", "frac", true),
    ("client.set_ns_per_burst", "ns", false),
    ("client.write_txns_per_burst", "txn/burst", false),
    ("client.round1_txns_per_req", "txn/req", false),
    ("client.round2_txns_per_req", "txn/req", false),
    ("client.round3_txns_per_req", "txn/req", false),
    ("client.planned_miss_frac", "frac", false),
    ("client.hitchhiker_rescue_frac", "frac", true),
    ("client.writebacks_per_req", "1/req", false),
    ("client.unavailable_per_req", "1/req", false),
    ("client.failed_txns", "count", false),
    ("client.reconnects", "count", false),
    ("wire.round_ns_per_req", "ns", false),
    ("wire.rtt_hot_ns", "ns", false),
    ("wire.rtt_idle_ns", "ns", false),
    ("wire.fit_txn_us", "us", false),
    ("wire.fit_item_us", "us", false),
    ("server.cpu_us_per_txn", "us", false),
    ("server.cpu_us_per_item", "us", false),
    ("server.loop_us_per_txn", "us", false),
    ("server.idle_cpu_ms_per_s", "ms/s", false),
    ("server.bytes_in_per_req", "B/req", false),
    ("server.bytes_out_per_req", "B/req", false),
    ("server.threads_per_node", "count", false),
    ("server.rss_mb_per_node", "MB", false),
    ("protocol.parse_ns_per_txn", "ns", false),
    ("protocol.reply_ns_per_item", "ns", false),
    ("store.get_multi_ns_per_txn", "ns", false),
    ("store.get_multi_ns_per_item", "ns", false),
    ("store.set_multi_ns_per_item", "ns", false),
    ("store.hit_rate", "frac", true),
    ("store.evictions_per_req", "1/req", false),
    ("store.items_per_get_txn", "item/txn", true),
    ("store.bytes_per_item", "B/item", false),
    ("store.hot_promotions", "count", false),
    ("sim.tpr", "txn/req", false),
    ("sim.tpr_gap_frac", "frac", false),
    ("model.server_us_per_req", "us", false),
    ("model.residual_frac", "frac", false),
    ("workload.items_per_req", "item/req", false),
    ("workload.gen_ns_per_req", "ns", false),
    ("bench.ops", "count", true),
    ("bench.fail_frac", "frac", false),
    ("bench.lat_samples", "count", true),
    ("bench.lat_tail_pct", "pct", true),
    ("bench.lat_p99_us", "us", false),
    ("bench.lat_p999_us", "us", false),
    ("bench.window_iqr_frac", "frac", false),
    ("bench.core_speed", "frac", true),
    ("bench.sched_late_p99_us", "us", false),
    ("trace.ops", "count", true),
    ("trace.overhead_frac", "frac", false),
];

/// Named values of one run, each checked against the tables above.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the contract"
        );
        assert!(self.get(name).is_none(), "metric {name} set twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The value of `name`, NaN while unset.
    pub fn value(&self, name: &str) -> f64 {
        self.get(name).unwrap_or(f64::NAN)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().copied()
    }

    /// Names of `table` that are unset or not finite.
    pub fn missing<'a>(
        &'a self,
        table: impl Iterator<Item = &'static str> + 'a,
    ) -> Vec<&'static str> {
        table
            .filter(|n| !self.get(n).is_some_and(f64::is_finite))
            .collect()
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(name, value)| {
                    let unit = unit_of(name).unwrap_or_default();
                    let fields = vec![
                        ("value".into(), Json::Num(value)),
                        ("unit".into(), Json::str(unit)),
                    ];
                    (name.into(), Json::Obj(fields))
                })
                .collect(),
        )
    }
}

pub fn unit_of(name: &str) -> Option<&'static str> {
    let e2e = END_TO_END.iter().find(|m| m.name == name).map(|m| m.unit);
    e2e.or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
}

/// Nearest-rank percentile `p` (0–1) of ascending `sorted`.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples a reported tail percentile keeps beyond it. Ten is the least
/// that makes a tail repeatable; 25 because one 140 ms stall of the host
/// makes 13 open-loop ops in a row late, and with ten beyond, that one
/// stall was the tail of a 500-op run.
pub const TAIL_SAMPLES: usize = 25;

/// The tail percentile to report: `cap` (say 0.99) or, with fewer samples,
/// the highest percentile that still has [`TAIL_SAMPLES`] beyond it; the
/// median when there are not even that many. Returns `(p, value)`.
pub fn tail_percentile(sorted: &[u64], cap: f64) -> (f64, u64) {
    let n = sorted.len();
    let p = if n <= TAIL_SAMPLES {
        0.5
    } else {
        cap.min((n - TAIL_SAMPLES) as f64 / n as f64)
    };
    (p, percentile(sorted, p))
}

/// `num / den`, 0 when there was nothing to divide by.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A JSON value; `Display` writes it compactly (std only, no serde).
pub enum Json {
    Bool(bool),
    Int(u64),
    /// Written with every digit Rust's shortest round-trip form has;
    /// non-finite values become `null`.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: &str) -> Json {
        Json::Str(s.into())
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Num(x) if x.is_finite() => write!(f, "{x}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_json_string(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    write!(f, "{}{item}", if i > 0 { ", " } else { "" })?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    f.write_str(if i > 0 { ", " } else { "" })?;
                    write_json_string(f, key)?;
                    write!(f, ": {value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_json_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// A reader for what [`Json`] writes (and for `BENCHMARK.json`), so tests
/// can prove the writer round trips: escapes, nesting, every digit.
#[cfg(test)]
pub mod read {
    use super::Json;

    /// Parse one JSON value off the front of `s`.
    pub fn parse(s: &mut &str) -> Json {
        fn eat<'a>(s: &mut &'a str, n: usize) -> &'a str {
            let (head, tail) = s.split_at(n);
            *s = tail;
            head
        }
        *s = s.trim_start_matches(|c: char| c.is_whitespace() || c == ',' || c == ':');
        match s.as_bytes()[0] {
            b'{' | b'[' => {
                let object = eat(s, 1) == "{";
                let (mut fields, mut items) = (Vec::new(), Vec::new());
                loop {
                    *s = s.trim_start_matches(|c: char| c.is_whitespace() || c == ',');
                    if s.starts_with(['}', ']']) {
                        eat(s, 1);
                        break;
                    }
                    if object {
                        let Json::Str(key) = parse(s) else {
                            panic!("key")
                        };
                        fields.push((key, parse(s)));
                    } else {
                        items.push(parse(s));
                    }
                }
                if object {
                    Json::Obj(fields)
                } else {
                    Json::Arr(items)
                }
            }
            b'"' => {
                eat(s, 1);
                let mut out = String::new();
                loop {
                    let c = eat(s, s.chars().next().unwrap().len_utf8());
                    match c {
                        "\"" => return Json::Str(out),
                        "\\" => match eat(s, 1) {
                            "n" => out.push('\n'),
                            "u" => out.push(
                                char::from_u32(u32::from_str_radix(eat(s, 4), 16).unwrap())
                                    .unwrap(),
                            ),
                            other => out.push_str(other),
                        },
                        c => out.push_str(c),
                    }
                }
            }
            _ => {
                let end = s
                    .find(|c: char| c.is_whitespace() || ",}]".contains(c))
                    .unwrap_or(s.len());
                match eat(s, end) {
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    "null" => Json::Num(f64::NAN),
                    t if t.contains(['.', 'e', '-']) => Json::Num(t.parse().unwrap()),
                    t => Json::Int(t.parse().unwrap()),
                }
            }
        }
    }

    /// Field `key` of an object.
    pub fn field<'a>(value: &'a Json, key: &str) -> &'a Json {
        let Json::Obj(fields) = value else {
            panic!("not an object")
        };
        &fields
            .iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("no {key}"))
            .1
    }
}

#[cfg(test)]
mod tests {
    use super::read::parse;
    use super::*;

    #[test]
    fn tail_percentile_keeps_samples_beyond() {
        let samples = |n: u64| (1..=n).collect::<Vec<u64>>();
        // Plenty of samples: the cap itself, 1,000 beyond it.
        assert_eq!(tail_percentile(&samples(100_000), 0.99), (0.99, 99_000));
        // 500 samples: p99 would leave 5 beyond, so p95 (25 beyond).
        assert_eq!(tail_percentile(&samples(500), 0.99), (0.95, 475));
        // Exactly enough for the cap.
        assert_eq!(tail_percentile(&samples(2500), 0.99), (0.99, 2475));
        // One more than the tail: only the minimum has enough beyond it.
        assert_eq!(tail_percentile(&samples(26), 0.99).1, 1);
        // Too few for any tail: the median.
        assert_eq!(tail_percentile(&samples(25), 0.99), (0.5, 13));
        assert_eq!(tail_percentile(&samples(1), 0.999), (0.5, 1));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = [10, 20, 30, 40];
        assert_eq!(percentile(&s, 0.5), 20);
        assert_eq!(percentile(&s, 0.51), 30);
        assert_eq!(percentile(&s, 1.0), 40);
        assert_eq!(percentile(&s, 0.0), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn json_round_trips() {
        let mut metrics = Metrics::default();
        metrics.set("lat_p50_us", 71.30000000000001);
        metrics.set("setup_s", 1e-7);
        let doc = Json::Obj(vec![
            ("correct".into(), Json::Bool(true)),
            ("attempted".into(), Json::Int(123_456_789_012)),
            ("text".into(), Json::str("a \"q\" \\ \n \u{1} é")),
            (
                "list".into(),
                Json::Arr(vec![Json::Int(1), Json::Num(-2.5), Json::Arr(vec![])]),
            ),
            ("metrics".into(), metrics.to_json()),
            ("nan".into(), Json::Num(f64::INFINITY)),
        ]);
        let text = doc.to_string();
        assert!(text.starts_with("{\"correct\": true, \"attempted\": 123456789012, "));
        assert!(text.contains("\"lat_p50_us\": {\"value\": 71.30000000000001, \"unit\": \"us\"}"));
        assert!(text.ends_with("\"nan\": null}"));
        let again = parse(&mut text.as_str()).to_string();
        assert_eq!(again, text);
    }
}
