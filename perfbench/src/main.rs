//! The repository benchmark: three workloads over the SpikeDyn stack.
//!
//! ```sh
//! python3 perfbench/run.py --workload learn-n400 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `run.py` builds this package and runs it with the same arguments. Each
//! run prints a provenance line and, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Spans of a
//! traced run are written to `.bench_out/`. `BENCHMARK.json` records why
//! each workload exists, its fixed rates and which layer metric should move
//! which end-to-end metric.

mod cluster;
mod fleet;
mod gate;
mod json;
mod learn;
mod openloop;
mod schedule;
mod serve;
mod spans;
mod stats;
mod wire;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use json::Value;

/// A reported metric: its name and unit.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Every end-to-end metric, reported by every workload on untraced runs.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("train_sps", "1/s"),
    m("infer_sps", "1/s"),
    m("train_mj_per_sample", "mJ"),
    m("infer_mj_per_sample", "mJ"),
    m("prequential_acc", "ratio"),
    m("ingest_p50_ms", "ms"),
    m("max_sps", "1/s"),
    m("checkpoint_p50_ms", "ms"),
    m("migrate_p50_ms", "ms"),
    m("ok_rate", "ratio"),
    m("peak_rss_mb", "MB"),
];

/// Every per-layer metric, reported by every workload on traced runs. A
/// layer a workload does not exercise reads 0 there.
pub const PER_LAYER: &[Metric] = &[
    m("core.encode_step_us", "us"),
    m("core.deliver_us", "us"),
    m("core.network_step_us", "us"),
    m("core.stdp_post_us", "us"),
    m("core.run_sample_us", "us"),
    m("core.syn_events_per_sample", "count"),
    m("core.neuron_updates_per_sample", "count"),
    m("core.weight_updates_per_sample", "count"),
    m("core.spikes_per_sample", "count"),
    m("core.retries_per_sample", "count"),
    m("core.steps_per_sample", "count"),
    m("spikedyn.train_image_us", "us"),
    m("spikedyn.fit_assignment_ms", "ms"),
    m("runtime.infer_us_per_sample", "us"),
    m("runtime.batch_speedup", "ratio"),
    m("runtime.pool_hit_rate", "ratio"),
    m("runtime.pool_wait_us", "us"),
    m("runtime.busy_share", "ratio"),
    m("online.ingest_batch_ms", "ms"),
    m("online.self_ms", "ms"),
    m("online.drift_events", "count"),
    m("online.checkpoint_ms", "ms"),
    m("online.restore_ms", "ms"),
    m("online.checkpoint_bytes", "bytes"),
    m("serve.client_rtt_ms.p50", "ms"),
    m("serve.client_rtt_ms.p95", "ms"),
    m("serve.hol_wait_ms.p95", "ms"),
    m("serve.gen_lag_ms.max", "ms"),
    m("serve.tx_bytes_per_req", "bytes"),
    m("serve.rx_bytes_per_req", "bytes"),
    m("serve.frame_encode_us", "us"),
    m("serve.frame_decode_us", "us"),
    m("serve.ticks", "count"),
    m("serve.jobs_per_tick", "count"),
    m("serve.tick_p99_ms", "ms"),
    m("serve.queue_share", "ratio"),
    m("serve.exec_share", "ratio"),
    m("serve.write_share", "ratio"),
    m("serve.backpressure_rejects", "count"),
    m("serve.cost_gap", "ratio"),
    m("cluster.relays", "count"),
    m("cluster.relay_bytes", "bytes"),
    m("cluster.relay_self_ms", "ms"),
    m("cluster.migrate_bytes", "bytes"),
    m("cluster.sessions_per_shard_max", "count"),
    m("obs.scrape_ms", "ms"),
    m("obs.spans_dropped", "count"),
    m("trace_overhead", "ratio"),
];

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["learn-n400", "serve-open", "cluster-migrate"];

/// Ingest latency limit: p90 of an 8-sample batch at or under 100 ms.
pub const LIMIT_P90_MS: f64 = 100.0;

/// Command-line arguments (all required).
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
                "--workload" => return Err(bad("unknown workload")),
                "--seed" => seed = Some(value.parse().map_err(|_| bad("not a u64"))?),
                "--seconds" => match value.parse::<u64>() {
                    Ok(s) if (1..=600).contains(&s) => seconds = Some(s),
                    _ => return Err(bad("whole seconds in 1..=600")),
                },
                "--trace" => match value.as_str() {
                    "0" => trace = Some(false),
                    "1" => trace = Some(true),
                    _ => return Err(bad("0 or 1")),
                },
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }

    /// Where this run writes its spans and scratch files.
    pub fn out_dir(&self) -> PathBuf {
        PathBuf::from(".bench_out").join(format!(
            "{}-s{}-t{}-p{}",
            self.workload,
            self.seed,
            u8::from(self.trace),
            std::process::id()
        ))
    }
}

/// What one workload run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Requests (or batches, in process) the run attempted.
    pub attempted: u64,
    /// Attempts that failed, were refused, or returned wrong outputs.
    pub failed: u64,
    /// Output checks that failed; any entry fails the command.
    pub mismatches: Vec<String>,
    /// Measured metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Per-phase figures, sample counts and other context for the reader.
    pub detail: Value,
}

impl Default for Outcome {
    fn default() -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            mismatches: Vec::new(),
            values: BTreeMap::new(),
            detail: Value::obj(),
        }
    }
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "{name} is not a declared metric"
        );
        assert!(value.is_finite(), "{name} is not finite");
        self.values.insert(name, value);
    }

    /// Records a failed output check.
    pub fn mismatch(&mut self, what: String) {
        self.failed += 1;
        self.mismatches.push(what);
    }

    /// `failed ÷ attempted` as its complement, so the metric is never 0.
    pub fn ok_rate(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Steal and total CPU ticks of the whole machine, from the first line of
/// `/proc/stat`, if it can be read.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// The share of CPU time the hypervisor gave to other guests while the
/// run lasted: a run that reads high here ran on a contended host.
fn steal_share(start: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (start?, cpu_ticks()?);
    (t1 > t0).then(|| s1.saturating_sub(s0) as f64 / (t1 - t0) as f64)
}

fn provenance(args: &Args, steal: Option<f64>) -> Value {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    let mut p = Value::obj();
    p.set(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    )
    .set("cpu_model", cpu)
    .set("rustc", env("PERFBENCH_RUSTC"))
    .set(
        "profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    )
    .set("commit", env("PERFBENCH_COMMIT"))
    .set("workload", args.workload.as_str())
    .set("seed", args.seed)
    .set("seconds", args.seconds)
    .set("trace", args.trace);
    if let Some(share) = steal {
        p.set("host_steal_share", share);
    }
    p
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ticks = cpu_ticks();
    let run = match args.workload.as_str() {
        "learn-n400" => learn::run(&args),
        "serve-open" => serve::run(&args),
        "cluster-migrate" => cluster::run(&args),
        _ => unreachable!("workload validated at parse time"),
    };
    let outcome = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for m in &outcome.mismatches {
        eprintln!("perfbench: output check failed: {m}");
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Value::obj();
    for metric in table {
        let value = match outcome.values.get(metric.name) {
            Some(&v) => v,
            // A layer this workload does not exercise.
            None if args.trace => 0.0,
            None => panic!("{} did not measure {}", args.workload, metric.name),
        };
        let mut v = Value::obj();
        v.set("value", value).set("unit", metric.unit);
        metrics.set(metric.name, v);
    }
    let correct = outcome.mismatches.is_empty();
    let mut context = Value::obj();
    context
        .set("provenance", provenance(&args, steal_share(ticks)))
        .set("detail", outcome.detail);
    println!("{}", context.render());
    let mut result = Value::obj();
    result
        .set("correct", correct)
        .set("attempted", outcome.attempted.max(1))
        .set("failed", outcome.failed)
        .set("metrics", metrics);
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_and_workload_names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(stats::valid_name(m.name), "{}", m.name);
            assert!(stats::valid_unit(m.unit), "{}", m.unit);
            assert!(seen.insert(m.name), "{} listed twice", m.name);
        }
        for w in WORKLOADS {
            assert!(stats::valid_name(w), "{w}");
        }
    }

    /// `BENCHMARK.json` lists exactly the metrics and workloads this program
    /// reports, in the same order.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names_in = |section: &str| -> Vec<String> {
            let start = text.find(&format!("\"{section}\"")).expect(section);
            let body = &text[start..];
            let end = body.find(']').expect("section end");
            body[..end]
                .split("\"name\"")
                .skip(1)
                .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
                .collect()
        };
        let want = |t: &[Metric]| t.iter().map(|m| m.name.to_string()).collect::<Vec<_>>();
        assert_eq!(names_in("end_to_end"), want(END_TO_END));
        assert_eq!(names_in("per_layer"), want(PER_LAYER));
        assert_eq!(names_in("workloads"), WORKLOADS.to_vec());
    }

    #[test]
    fn args_are_strict() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = parse("--workload serve-open --seed 3 --seconds 20 --trace 1").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (3, 20, true));
        assert!(parse("--workload nope --seed 3 --seconds 20 --trace 1").is_err());
        assert!(parse("--workload serve-open --seed x --seconds 20 --trace 1").is_err());
        assert!(parse("--workload serve-open --seed 3 --seconds 0 --trace 1").is_err());
        assert!(parse("--workload serve-open --seed 3 --seconds 20 --trace 2").is_err());
        assert!(parse("--workload serve-open --seed 3 --seconds 20").is_err());
        assert!(parse("--workload serve-open --seed 3 --seconds 20 --trace 1 --x 1").is_err());
    }
}
