//! Closed-loop serving benchmark of the treelineage library.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_warm --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the run measures the workload's end-to-end metrics with
//! tracing off; with `--trace 1` it records spans around every library call
//! it makes, replays each distinct input stage by stage, and reports the
//! per-layer metrics instead. The last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`; a wrong answer
//! exits with code 1 before printing it. See `perfbench/README.md`.

mod gen;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use workloads::{Kind, Measured, Mismatch, Params};

/// A named metric value with its unit.
#[derive(Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value, where that is meaningful.
    pub count: Option<usize>,
    /// How the value was taken, for the human-readable report.
    pub note: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
            count: None,
            note: String::new(),
        }
    }

    pub fn counted(mut self, count: usize, note: impl Into<String>) -> Self {
        self.count = Some(count);
        self.note = note.into();
        self
    }
}

/// Set-ups per run of `serve_warm` and `update_mix`: `setup_s` is their
/// median. `ingest_cold` sets up a fresh session every cycle.
pub const SETUPS: usize = 11;

/// The workloads by name.
pub const WORKLOADS: [&str; 3] = ["serve_warm", "ingest_cold", "update_mix"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0_f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("{}", environment(threads));
    let params = Params {
        seed: args.seed,
        seconds: args.seconds,
        threads,
        setups: SETUPS,
        rec: workloads::Recorder::off(),
    };
    let outcome = if args.trace {
        trace::run(&args.workload, params)
    } else {
        run_workload(&args.workload, &params).map(|m| {
            let (gated, report) = end_to_end(&args.workload, &m);
            print_report(&args.workload, &report);
            (m.attempted, m.failed, gated)
        })
    };
    match outcome {
        Ok((attempted, failed, metrics)) => {
            println!("{}", result_line(attempted, failed, &metrics));
            ExitCode::SUCCESS
        }
        Err(Mismatch(e)) => {
            eprintln!("perfbench: wrong answer: {e}");
            ExitCode::from(1)
        }
    }
}

pub fn run_workload(workload: &str, params: &Params) -> Result<Measured, Mismatch> {
    match workload {
        "serve_warm" => workloads::serve_warm(params),
        "ingest_cold" => workloads::ingest_cold(params),
        _ => workloads::update_mix(params),
    }
}

/// The detected environment, as one JSON line.
fn environment(threads: usize) -> String {
    format!(
        "{{\"env\": {{\"nproc\": {threads}, \"rustc\": {}, \"profile\": {}, \"commit\": {}}}}}",
        json_string(env!("PERFBENCH_RUSTC")),
        json_string(env!("PERFBENCH_PROFILE")),
        json_string(env!("PERFBENCH_COMMIT")),
    )
}

/// Per-request latencies of one kind: a request's latency is the duration
/// of the batch call it rode in.
fn latencies(m: &Measured, kind: Kind, field: fn(&workloads::Sample) -> f64) -> Vec<f64> {
    m.samples
        .iter()
        .filter(|s| s.kind == kind && s.ok)
        .flat_map(|s| std::iter::repeat_n(field(s), s.requests))
        .collect()
}

fn p50(name: &str, samples: &[f64]) -> Metric {
    Metric::new(name, stats::median(samples), "ms").counted(samples.len(), "median")
}

fn tail(name: &str, samples: &[f64]) -> Metric {
    match stats::tail(samples, 95) {
        Some(t) => Metric::new(name, t.value, "ms").counted(
            t.count,
            format!("p{} (at least 10 samples beyond)", t.percentile),
        ),
        // Fewer than 11 samples: no percentile keeps 10 beyond it; the
        // maximum is the most honest tail there is.
        None => Metric::new(name, samples.iter().copied().fold(0.0, f64::max), "ms")
            .counted(samples.len(), "max (too few samples for a percentile)"),
    }
}

/// The log-log slope of the per-chain-length median latency of `kind`.
fn scaling(name: &str, m: &Measured, kind: Kind) -> Metric {
    let mut by_len = std::collections::BTreeMap::<usize, Vec<f64>>::new();
    for s in m.samples.iter().filter(|s| s.kind == kind && s.ok) {
        if let Some(n) = m.shapes[s.shape].chain_len() {
            by_len.entry(n).or_default().push(s.ms);
        }
    }
    let points: Vec<(f64, f64)> = by_len
        .iter()
        .map(|(&n, v)| (n as f64, stats::median(v)))
        .collect();
    let sizes: Vec<String> = by_len.keys().map(usize::to_string).collect();
    Metric::new(name, stats::loglog_slope(&points), "1").counted(
        by_len.values().map(Vec::len).sum(),
        format!("chains n = {}", sizes.join("/")),
    )
}

/// Peak resident memory of this process, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The gated end-to-end metrics (the names in `BENCHMARK.json`) and the
/// workload's report under its own metric names.
fn end_to_end(workload: &str, m: &Measured) -> (Vec<Metric>, Vec<Metric>) {
    let (primary, light) = match workload {
        "serve_warm" => (Kind::Exact, Kind::Float),
        "ingest_cold" => (Kind::Cold, Kind::Cold),
        _ => (Kind::Structural, Kind::Reweight),
    };
    let main = latencies(m, primary, |s| s.ms);
    // The light path: f64 requests, the register call alone, reweights.
    let light_samples = if workload == "ingest_cold" {
        latencies(m, Kind::Cold, |s| s.call_ms)
    } else {
        latencies(m, light, |s| s.ms)
    };
    // Completed operations (serve_warm: requests) per second.
    let throughput = |name: &str, unit| {
        Metric::new(name, stats::median(&m.cycle_rates), unit).counted(
            m.cycle_rates.len(),
            "median over schedule cycles of completed operations per second",
        )
    };
    let setup = || {
        Metric::new("setup_s", stats::median(&m.setup_times), "s")
            .counted(m.setup_times.len(), "median of set-ups spread over the run")
    };
    let gated = vec![
        setup(),
        p50("p50_ms", &main),
        tail("p95_ms", &main),
        p50("light_p50_ms", &light_samples),
        throughput("ops_per_s", "1/s"),
        scaling("scaling_exponent", m, primary),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    let mut report = match workload {
        "serve_warm" => {
            let float = latencies(m, Kind::Float, |s| s.ms);
            vec![
                p50("exact_p50_ms", &main),
                tail("exact_p95_ms", &main),
                p50("float_p50_ms", &float),
                tail("float_p95_ms", &float),
                p50("threshold_p50_ms", &latencies(m, Kind::Threshold, |s| s.ms)),
                throughput("serve_rps", "req/s"),
                scaling("exact_scaling_exponent", m, Kind::Exact),
            ]
        }
        "ingest_cold" => vec![
            p50("cold_p50_ms", &main),
            tail("cold_p95_ms", &main),
            p50("register_p50_ms", &light_samples),
            throughput("cold_ops_per_s", "1/s"),
            scaling("compile_scaling_exponent", m, Kind::Cold),
        ],
        _ => vec![
            p50("update_p50_ms", &main),
            tail("update_p95_ms", &main),
            p50("reweight_p50_ms", &light_samples),
            throughput("update_ops_per_s", "1/s"),
            scaling("update_scaling_exponent", m, Kind::Structural),
        ],
    };
    report.extend([
        setup(),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        Metric::new("error_rate", m.failed as f64 / m.attempted as f64, "ratio")
            .counted(m.attempted, format!("{} failed", m.failed)),
        Metric::new("machine_misses", m.stats.machines_built as f64, "count")
            .counted(m.attempted, "query machines compiled during the timed loop"),
    ]);
    report.extend(m.extra.iter().cloned());
    report.extend(per_shape(m));
    (gated, report)
}

/// Median latency per (kind, shape), for reading a run by eye.
fn per_shape(m: &Measured) -> Vec<Metric> {
    let mut groups = std::collections::BTreeMap::<String, Vec<f64>>::new();
    for s in m.samples.iter().filter(|s| s.ok) {
        let key = format!("{}.{}", s.kind.name(), m.shapes[s.shape].label());
        groups.entry(key).or_default().push(s.ms);
    }
    groups
        .iter()
        .map(|(key, v)| p50(&format!("shape.{key}.p50_ms"), v))
        .collect()
}

fn print_report(workload: &str, report: &[Metric]) {
    let rows: Vec<String> = report
        .iter()
        .map(|r| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"count\": {}, \"note\": {}}}",
                json_string(&r.name),
                json_number(r.value),
                json_string(r.unit),
                r.count.map_or("null".to_string(), |c| c.to_string()),
                json_string(&r.note),
            )
        })
        .collect();
    println!(
        "{{\"report\": {{\"workload\": {}, \"metrics\": {{{}}}}}}}",
        json_string(workload),
        rows.join(", ")
    );
}

fn result_line(attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let rows: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        rows.join(", ")
    )
}

pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

pub fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
