//! Per-layer metrics shared by the workloads, each computed from
//! something the benchmark observes from outside: `RunReport` fields,
//! `lds-obs` counter deltas, the recording oracle's query log, and the
//! benchmark's own spans.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use lds_engine::{RunReport, ServedBackend, Task};
use lds_obs::MetricsSnapshot;

use crate::oracle::{Kind, Query};
use crate::stats::{self, counter_delta};
use crate::trace::{layer_times, Span};
use crate::Outcome;

/// The process metrics registry right now.
pub fn obs_snapshot() -> MetricsSnapshot {
    lds_obs::global().snapshot()
}

/// A sampling run's cost over the bound it is held to: chromatic
/// rounds over `bound_rounds` for an oracle-served run, executed over
/// planned sweeps for a Glauber-served one (a Glauber run's `rounds`
/// counts sweeps, and the round ledger holds it to its plan instead).
pub fn round_ratio(r: &RunReport) -> f64 {
    match (r.backend, &r.glauber) {
        (ServedBackend::Glauber { sweeps }, Some(g)) => g.sweeps as f64 / f64::from(sweeps),
        _ => r.rounds as f64 / r.bound_rounds,
    }
}

/// Checks a sampling report against its bound ([`round_ratio`] ≤ 1).
pub fn check_rounds(out: &mut Outcome, r: &RunReport) {
    let ratio = round_ratio(r);
    out.check(ratio <= 1.0, || {
        format!(
            "seed {}: {} rounds against a bound of {} (ratio {ratio})",
            r.seed, r.rounds, r.bound_rounds
        )
    });
}

/// Engine phases, JVV and Glauber statistics, and round counts from the
/// reports a traced run collected.
pub fn set_report_layers(out: &mut Outcome, reports: &[RunReport]) {
    const PHASES: [(&str, &str); 7] = [
        ("schedule", "engine.schedule_ms"),
        ("ground", "engine.ground_ms"),
        ("sample", "engine.sample_ms"),
        ("reject", "engine.reject_ms"),
        ("anchor", "engine.anchor_ms"),
        ("marginals", "engine.marginals_ms"),
        ("glauber", "engine.glauber_ms"),
    ];
    for (phase, metric) in PHASES {
        let times: Vec<f64> = reports
            .iter()
            .filter_map(|r| r.phase_wall_time(phase))
            .map(stats::ms)
            .collect();
        if !times.is_empty() {
            out.set(metric, stats::median(&times));
        }
    }
    let acceptance: Vec<f64> = reports
        .iter()
        .filter_map(|r| r.stats.as_ref())
        .map(|s| s.acceptance_product)
        .collect();
    if !acceptance.is_empty() {
        out.set("core.jvv_acceptance_p50", stats::median(&acceptance));
    }
    let clamped: usize = reports
        .iter()
        .filter_map(|r| r.stats.as_ref())
        .map(|s| s.clamped)
        .sum();
    out.set("core.jvv_clamped", clamped as f64);
    let glauber: Vec<_> = reports.iter().filter_map(|r| r.glauber.as_ref()).collect();
    if !glauber.is_empty() {
        let sweeps: Vec<f64> = glauber.iter().map(|g| g.sweeps as f64).collect();
        let updates: Vec<f64> = glauber.iter().map(|g| g.site_updates as f64).collect();
        out.set("core.glauber_sweeps", stats::median(&sweeps));
        out.set("core.glauber_updates_per_run", stats::mean(&updates));
    }
    let sampling: Vec<&RunReport> = reports
        .iter()
        .filter(|r| matches!(r.task, Task::SampleExact | Task::SampleApprox))
        .collect();
    let rounds: Vec<f64> = sampling.iter().map(|r| r.rounds as f64).collect();
    out.set("localnet.rounds_per_run", stats::mean(&rounds));
    let worst = sampling.iter().map(|r| round_ratio(r)).fold(0.0, f64::max);
    out.set("localnet.round_bound_ratio_max", worst);
}

/// Pool and chromatic-runner counter deltas over a traced window.
/// `requests` counts task executions; `sampling_runs` the ones that go
/// through the chromatic runner.
pub fn set_counter_layers(
    out: &mut Outcome,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    requests: u64,
    sampling_runs: u64,
) {
    let per = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    for (counter, metric) in [
        ("pool_jobs", "runtime.pool_jobs_per_req"),
        ("pool_steals", "runtime.pool_steals_per_req"),
        ("pool_parks", "runtime.pool_parks_per_req"),
        ("pool_unparks", "runtime.pool_unparks_per_req"),
    ] {
        out.set(metric, per(counter_delta(after, before, counter), requests));
    }
    let projected = counter_delta(after, before, "chromatic_clusters_projected");
    let inline = counter_delta(after, before, "chromatic_clusters_inline");
    let bytes = counter_delta(after, before, "chromatic_bytes_projected");
    out.set(
        "localnet.projected_clusters_per_run",
        per(projected, sampling_runs),
    );
    out.set("localnet.bytes_cloned_per_run", per(bytes, sampling_runs));
    out.set(
        "localnet.clusters_inline_share",
        per(inline, inline + projected),
    );
}

/// Oracle metrics from the recording oracle's log. `count_runs` names
/// the runs that were counting passes; every other run is a sampling
/// run, traced as a span named `run_span` whose children are the
/// oracle queries.
pub fn set_oracle_layers(
    out: &mut Outcome,
    queries: &[Query],
    sample_runs: usize,
    count_runs: &HashSet<u64>,
    spans: &[Span],
    run_span: &str,
) {
    let per = |n: usize, d: usize| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    let (counting, sampling): (Vec<&Query>, Vec<&Query>) =
        queries.iter().partition(|q| count_runs.contains(&q.run));
    let marginal: Vec<&&Query> = sampling
        .iter()
        .filter(|q| q.kind == Kind::Marginal)
        .collect();
    let support = sampling.len() - marginal.len();
    out.set("oracle.queries_per_run", per(marginal.len(), sample_runs));
    out.set("oracle.support_queries_per_run", per(support, sample_runs));
    out.set(
        "oracle.repeat_share",
        per(marginal.iter().filter(|q| q.repeat).count(), marginal.len()),
    );
    let us: Vec<f64> = queries
        .iter()
        .filter(|q| q.kind == Kind::Marginal)
        .map(|q| q.ns as f64 / 1e3)
        .collect();
    out.set("oracle.query_us_p50", stats::median(&us));
    let p99 = stats::tail_percentile(us.len(), 99.0).unwrap_or(50.0);
    out.set("oracle.query_us_p99", stats::percentile(&us, p99));
    out.set(
        "oracle.count_queries_per_run",
        per(counting.len(), count_runs.len()),
    );
    out.set(
        "oracle.count_repeat_share",
        per(counting.iter().filter(|q| q.repeat).count(), counting.len()),
    );
    // the part of the sampling runs' time their oracle-query children
    // cover: 1 − self / total of the run spans
    let run = layer_times(spans)
        .get(run_span)
        .copied()
        .unwrap_or_default();
    out.set(
        "oracle.time_share",
        if run.total_ns == 0 {
            0.0
        } else {
            1.0 - run.self_ns as f64 / run.total_ns as f64
        },
    );
}

/// Durations in milliseconds of the spans named `name`.
pub fn span_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

/// Time for the same request sequence at pool width 1 over width 2:
/// alternating repetitions, median of each side.
pub fn fanout_gain(
    budget: Duration,
    mut at_w1: impl FnMut() -> Result<(), String>,
    mut at_w2: impl FnMut() -> Result<(), String>,
) -> Result<f64, String> {
    let (mut w1, mut w2) = (Vec::new(), Vec::new());
    let end = Instant::now() + budget;
    while w1.len() < 3 || (Instant::now() < end && w1.len() < 50) {
        let t = Instant::now();
        at_w1()?;
        w1.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        at_w2()?;
        w2.push(t.elapsed().as_secs_f64());
    }
    Ok(stats::median(&w1) / stats::median(&w2))
}
