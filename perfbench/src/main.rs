//! The repository benchmark: one command that runs a workload, checks
//! its outputs, and prints every metric by name and unit.
//!
//! ```text
//! lds-perfbench --workload <exact-torus|glauber-torus|wire-mixed>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run is untraced and reports the end-to-end
//! metrics; with `--trace 1` it records spans around the benchmark's own
//! calls into each layer and reports the per-layer metrics. The last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Workload choices,
//! seeds, rates and metric definitions are documented in `NOTES.md`.

mod exact;
mod glauber;
mod layers;
mod oracle;
mod stats;
mod trace;
mod wire;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use lds_gibbs::Config;
use lds_graph::Graph;

/// Pool width of every engine the benchmark builds (the reference
/// host's core count; fixed so results do not depend on the host).
pub const WIDTH: usize = 2;

/// How many times set-up is repeated per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 15;

/// End-to-end metrics: printed by every untraced run. The meaning of
/// the `lat_a`/`lat_b` classes and of `useful_*` per workload is in
/// `NOTES.md`. Tail latencies and resident memory are per-layer
/// `bench.*` metrics: on a small shared host they are ruled by vCPU
/// scheduling and allocator timing and too unsteady to carry a bound.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ok_share", "share"),
    ("useful_per_s", "1/s"),
    ("useful_share", "share"),
    ("lat_a_p50_ms", "ms"),
    ("lat_b_p50_ms", "ms"),
];

/// Per-layer metrics: printed by every traced run, 0 where the
/// workload does not load the layer.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("oracle.queries_per_run", "count"),
    ("oracle.support_queries_per_run", "count"),
    ("oracle.repeat_share", "share"),
    ("oracle.query_us_p50", "us"),
    ("oracle.query_us_p99", "us"),
    ("oracle.time_share", "share"),
    ("oracle.count_queries_per_run", "count"),
    ("oracle.count_repeat_share", "share"),
    ("engine.schedule_ms", "ms"),
    ("engine.ground_ms", "ms"),
    ("engine.sample_ms", "ms"),
    ("engine.reject_ms", "ms"),
    ("engine.anchor_ms", "ms"),
    ("engine.marginals_ms", "ms"),
    ("engine.glauber_ms", "ms"),
    ("core.jvv_acceptance_p50", "ratio"),
    ("core.jvv_clamped", "count"),
    ("core.glauber_sweeps", "count"),
    ("core.glauber_updates_per_run", "count"),
    ("localnet.rounds_per_run", "count"),
    ("localnet.round_bound_ratio_max", "ratio"),
    ("localnet.projected_clusters_per_run", "count"),
    ("localnet.bytes_cloned_per_run", "bytes"),
    ("localnet.clusters_inline_share", "share"),
    ("runtime.pool_jobs_per_req", "count"),
    ("runtime.pool_steals_per_req", "count"),
    ("runtime.pool_parks_per_req", "count"),
    ("runtime.pool_unparks_per_req", "count"),
    ("runtime.fanout_gain", "ratio"),
    ("serve.cache_hit_rate", "share"),
    ("serve.batch_size_mean", "count"),
    ("serve.peak_queue_depth", "count"),
    ("serve.rejected", "count"),
    ("serve.request_p50_us", "us"),
    ("serve.request_p99_us", "us"),
    ("net.op_run_p50_us", "us"),
    ("net.op_run_p99_us", "us"),
    ("net.bytes_in_per_req", "bytes"),
    ("net.bytes_out_per_req", "bytes"),
    ("net.backpressure", "count"),
    ("net.codec_encode_us", "us"),
    ("net.codec_decode_us", "us"),
    ("net.hop_p50_us", "us"),
    ("bench.rss_mb", "MB"),
    ("bench.lat_a_tail_ms", "ms"),
    ("bench.lat_b_tail_ms", "ms"),
    ("bench.gen_late_p99_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
];

/// What one invocation was asked to do.
pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Cfg {
    /// A share of the measuring time.
    pub fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// What a workload reports: operations attempted and failed, failed
/// output checks (each also counted as a failure), and metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub check_failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records one output check; a failed check counts as a failed
    /// operation and makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            if self.check_failures.len() < 20 {
                self.check_failures.push(what());
            }
        }
    }

    /// Records `n` operations that failed or were refused; they count
    /// against `ok_share` but are not wrong outputs.
    pub fn fail(&mut self, n: u64, what: String) {
        if n > 0 {
            self.failed += n;
            eprintln!("failed: {what} ({n})");
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Sets the metrics every workload reports the same way; `rss` was
    /// started when set-up ended.
    pub fn finish_common(&mut self, setup_s: f64, rss: stats::RssSampler) -> Result<(), String> {
        self.set("setup_s", setup_s);
        self.set("bench.rss_mb", rss.median_mb()?);
        let ok = 1.0 - self.failed as f64 / self.attempted.max(1) as f64;
        self.set("ok_share", ok);
        Ok(())
    }
}

/// Runs `build` `SETUP_REPS` times and returns the last result with
/// the median build time in seconds. Earlier results are dropped before
/// the next build starts.
pub fn timed_setup<T>(mut build: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(build()?);
        times.push(t.elapsed().as_secs_f64());
    }
    let built = last.expect("SETUP_REPS is positive");
    Ok((built, stats::median(&times)))
}

/// `true` iff `config` is an independent set of `g` (the support of
/// every hardcore model on `g`).
pub fn is_independent_set(g: &Graph, config: &Config) -> bool {
    config.len() == g.node_count()
        && g.edges()
            .iter()
            .all(|e| !(config.get(e.u).0 == 1 && config.get(e.v).0 == 1))
}

/// Where a traced run writes its spans.
pub fn trace_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(".bench_out").join(format!("{workload}-seed{seed}.jsonl"))
}

fn parse_args() -> Result<(String, Cfg), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok((
        workload.ok_or("--workload is required")?,
        Cfg {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        },
    ))
}

fn render(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let table = if trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = match outcome.metrics.get(name) {
            Some(&v) => v,
            // a layer the workload does not load reads 0
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.check_failures.is_empty(),
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    ))
}

fn main() -> ExitCode {
    let (workload, cfg) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: lds-perfbench --workload <exact-torus|glauber-torus|wire-mixed> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    // engines the wire server builds from a spec take their width from
    // the environment; pin it before any thread exists
    std::env::set_var("LDS_THREADS", WIDTH.to_string());
    let result = match workload.as_str() {
        "exact-torus" => exact::run(&cfg),
        "glauber-torus" => glauber::run(&cfg),
        "wire-mixed" => wire::run(&cfg),
        other => Err(format!("unknown workload {other}")),
    };
    let line = result.and_then(|outcome| {
        for failure in &outcome.check_failures {
            eprintln!("check failed: {failure}");
        }
        render(&outcome, cfg.trace)
    });
    match line {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|&(n, _)| n)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        for name in names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_printed() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).unwrap();
        let section = |key: &str, next: &str| {
            let start = json.find(&format!("\"{key}\"")).unwrap();
            let end = json[start..]
                .find(&format!("\"{next}\""))
                .map_or(json.len(), |e| start + e);
            json[start..end].to_string()
        };
        let listed = |text: String| -> Vec<(String, String)> {
            text.split("{\"name\": \"")
                .skip(1)
                .map(|entry| {
                    let name = entry.split('"').next().unwrap().to_string();
                    let unit = entry.split("\"unit\": \"").nth(1).unwrap();
                    (name, unit.split('"').next().unwrap().to_string())
                })
                .collect()
        };
        let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(
            listed(section("end_to_end", "per_layer")),
            owned(END_TO_END)
        );
        assert_eq!(listed(section("per_layer", "}}")), owned(PER_LAYER));
    }

    #[test]
    fn untraced_render_requires_every_end_to_end_metric() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        assert!(render(&o, false).is_err());
        for &(name, _) in END_TO_END {
            o.set(name, 1.5);
        }
        let line = render(&o, false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        // traced runs fill layers the workload does not load with 0
        assert!(render(&o, true)
            .unwrap()
            .contains("\"serve.rejected\": {\"value\": 0.0"));
    }

    #[test]
    fn a_failed_check_is_a_failure() {
        let mut o = Outcome::default();
        o.check(true, || unreachable!());
        o.check(false, || "bad".into());
        assert_eq!(o.failed, 1);
        assert_eq!(o.check_failures, vec!["bad".to_string()]);
    }
}
