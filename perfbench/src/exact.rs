//! `exact-torus`: in-process closed loop of exact local-JVV samples on
//! the hardcore model (λ = 1) on `torus(4,4)` at ε = 0.001.
//!
//! The work is `run_batch(SampleExact)` over batches of 8 fresh seeds,
//! with one `Task::Count` after each batch. The SAW-tree oracle takes
//! nearly all of the time here, and the count uses it a second way
//! (frozen chain prefixes), so any oracle change shows on this
//! workload.
//!
//! ε = 0.001 because JVV acceptance falls as ≈ e^(−3n²ε): at the
//! engine's default ε = 0.01 almost no exact sample on 16 nodes
//! succeeds (acceptance ≈ e^(−7.7)), and the benchmark would time
//! failed runs. At 0.001 about half succeed (≈ e^(−0.77)), and only
//! succeeded samples count as work done.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lds_core::{counting, jvv};
use lds_engine::{Engine, ModelSpec, RunReport, Task};
use lds_graph::{generators, Graph};
use lds_localnet::Network;
use lds_runtime::ThreadPool;

use crate::layers;
use crate::oracle::{engine_saw_oracle, RecordingOracle};
use crate::stats::{self, derive, ms};
use crate::trace::Tracer;
use crate::{is_independent_set, timed_setup, Cfg, Outcome, WIDTH};

const LAMBDA: f64 = 1.0;
const EPS: f64 = 0.001;
const BATCH: usize = 8;
/// `useful_share` is the success rate over the first this-many seeds,
/// so it is an exact function of `--seed` and guards the output bits.
const FIXED_SET: u64 = 1024;
const TAG_SEEDS: u64 = 1;

fn graph() -> Graph {
    generators::torus(4, 4)
}

fn build(threads: usize) -> Result<Engine, String> {
    Engine::builder()
        .model(ModelSpec::Hardcore { lambda: LAMBDA })
        .graph(graph())
        .epsilon(EPS)
        .threads(threads)
        .build()
        .map_err(|e| format!("building the exact-torus engine: {e}"))
}

/// ln Z of the hardcore model on `g` by enumerating all 2^n
/// configurations (n ≤ 20).
pub fn enumerated_log_z(g: &Graph, lambda: f64) -> f64 {
    let n = g.node_count();
    assert!(n <= 20, "enumeration is for small graphs");
    let mut adj = vec![0u32; n];
    for e in g.edges() {
        adj[e.u.index()] |= 1 << e.v.index();
        adj[e.v.index()] |= 1 << e.u.index();
    }
    let z: f64 = (0u32..1 << n)
        .filter(|&s| (0..n).all(|v| s & (1 << v) == 0 || adj[v] & s == 0))
        .map(|s| lambda.powi(s.count_ones() as i32))
        .sum();
    z.ln()
}

struct Checker {
    g: Graph,
    log_z: f64,
}

impl Checker {
    fn sample(&self, out: &mut Outcome, seed: u64, r: &RunReport) {
        out.check(r.seed == seed && r.task == Task::SampleExact, || {
            format!("report for seed {} answered seed {seed}", r.seed)
        });
        let valid = r.config().is_some_and(|c| is_independent_set(&self.g, c));
        out.check(!r.succeeded || valid, || {
            format!("seed {seed}: succeeded sample is not an independent set")
        });
        layers::check_rounds(out, r);
    }

    fn count(&self, out: &mut Outcome, r: &RunReport) {
        let within = match r.output {
            lds_engine::TaskOutput::Count {
                log_z,
                log_error_bound,
            } => (log_z - self.log_z).abs() <= log_error_bound,
            _ => false,
        };
        out.check(within, || {
            format!(
                "count {:?} is not within its error bound of the exact ln Z {}",
                r.output, self.log_z
            )
        });
    }
}

pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let (engine, setup_s) = timed_setup(|| build(WIDTH))?;
    let g = graph();
    let checker = Checker {
        log_z: enumerated_log_z(&g, LAMBDA),
        g,
    };
    let rss = stats::RssSampler::start();
    let mut out = Outcome::default();
    if cfg.trace {
        traced(cfg, &engine, &checker, &mut out)?;
    } else {
        timed(cfg, &engine, &checker, &mut out)?;
    }
    out.finish_common(setup_s, rss)?;
    Ok(out)
}

fn seeds(cfg: &Cfg, from: u64) -> Vec<u64> {
    (from..from + BATCH as u64)
        .map(|i| derive(cfg.seed, TAG_SEEDS, i))
        .collect()
}

fn timed(cfg: &Cfg, engine: &Engine, checker: &Checker, out: &mut Outcome) -> Result<(), String> {
    let (mut batch_ms, mut count_ms) = (Vec::new(), Vec::new());
    let (mut sampling, mut succeeded, mut fixed_succeeded) = (Duration::ZERO, 0u64, 0u64);
    let deadline = Instant::now() + cfg.budget(1.0);
    let mut next = 0u64;
    // the clock decides how many batches are timed; the fixed seed set
    // is completed off the clock when the host is slow
    while Instant::now() < deadline || next < FIXED_SET {
        let on_clock = Instant::now() < deadline;
        let batch = seeds(cfg, next);
        let t = Instant::now();
        let reports = engine.run_batch(Task::SampleExact, &batch);
        let dt = t.elapsed();
        out.attempted += BATCH as u64;
        let reports = match reports {
            Ok(reports) => reports,
            Err(e) => {
                out.fail(BATCH as u64, format!("exact batch failed: {e}"));
                Vec::new()
            }
        };
        for (i, (seed, r)) in batch.iter().zip(&reports).enumerate() {
            checker.sample(out, *seed, r);
            if next + (i as u64) < FIXED_SET {
                fixed_succeeded += u64::from(r.succeeded);
            }
            if on_clock {
                succeeded += u64::from(r.succeeded);
            }
        }
        next += BATCH as u64;
        if !on_clock {
            continue;
        }
        sampling += dt;
        batch_ms.push(ms(dt));
        let t = Instant::now();
        let count = engine.run_with_seed(Task::Count, batch[0]);
        count_ms.push(ms(t.elapsed()));
        out.attempted += 1;
        match count {
            Ok(r) => checker.count(out, &r),
            Err(e) => out.fail(1, format!("count failed: {e}")),
        }
    }
    out.set("useful_per_s", succeeded as f64 / sampling.as_secs_f64());
    out.set("useful_share", fixed_succeeded as f64 / FIXED_SET as f64);
    out.set("lat_a_p50_ms", stats::median(&count_ms));
    out.set("lat_b_p50_ms", stats::median(&batch_ms));
    Ok(())
}

/// The traced run: the engine path with spans around each call, then
/// the same seeds through `lds_core` with the recording oracle (pool
/// width 1, so oracle spans never overlap), checked bit for bit
/// against the engine, then the fan-out gain.
fn traced(cfg: &Cfg, engine: &Engine, checker: &Checker, out: &mut Outcome) -> Result<(), String> {
    let tracer = Arc::new(Tracer::new());
    let window = Instant::now();

    // 1. engine path
    let before = layers::obs_snapshot();
    let (mut samples, mut counts) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + cfg.budget(0.4);
    let mut next = 0u64;
    while Instant::now() < deadline || counts.len() < 2 {
        let batch = seeds(cfg, next);
        let request = next / BATCH as u64 + 1;
        let reports = tracer
            .span(0, "engine.run_batch", request, |_| {
                engine.run_batch(Task::SampleExact, &batch)
            })
            .map_err(|e| format!("exact batch failed: {e}"))?;
        let count = tracer
            .span(0, "engine.count", request, |_| {
                engine.run_with_seed(Task::Count, batch[0])
            })
            .map_err(|e| format!("count failed: {e}"))?;
        out.attempted += BATCH as u64 + 1;
        for (seed, r) in batch.iter().zip(&reports) {
            checker.sample(out, *seed, r);
        }
        checker.count(out, &count);
        samples.extend(reports);
        counts.push(count);
        next += BATCH as u64;
    }
    let after = layers::obs_snapshot();
    let requests = (samples.len() + counts.len()) as u64;
    layers::set_counter_layers(out, &before, &after, requests, samples.len() as u64);
    let mut reports = samples.clone();
    reports.extend(counts.iter().cloned());
    layers::set_report_layers(out, &reports);

    // 2. the same seeds through lds_core with the recording oracle
    let oracle = RecordingOracle::new(
        engine_saw_oracle(LAMBDA, engine.rate()),
        Arc::clone(&tracer),
    );
    let recorder = Arc::clone(oracle.recorder());
    let instance = Arc::new(engine.instance().clone());
    let model = instance.model();
    let serial = ThreadPool::new(1);
    let deadline = Instant::now() + cfg.budget(0.4);
    let (mut run_id, mut sample_runs) = (1_000_000u64, 0usize);
    let mut count_runs = HashSet::new();
    for (i, engine_report) in samples.iter().enumerate() {
        if Instant::now() >= deadline && sample_runs >= BATCH {
            break;
        }
        run_id += 1;
        let seed = engine_report.seed;
        let net = Network::from_shared(Arc::clone(&instance), seed);
        let (run, _, stats, _) = tracer.span(0, "jvv.sample_exact", run_id, |id| {
            recorder.begin_run(run_id, id);
            jvv::sample_exact_local_with(&net, &oracle, EPS, 0, &serial)
        });
        sample_runs += 1;
        out.attempted += 1;
        let same = engine_report.config().map(|c| c.values()) == Some(&run.outputs[..])
            && engine_report.succeeded == run.succeeded()
            && engine_report.rounds == run.rounds
            && engine_report
                .stats
                .as_ref()
                .map(|s| s.acceptance_product.to_bits())
                == Some(stats.acceptance_product.to_bits());
        out.check(same, || {
            format!("seed {seed}: traced sample differs from the engine's")
        });
        if i % BATCH == BATCH - 1 {
            run_id += 1;
            count_runs.insert(run_id);
            let c = tracer
                .span(0, "counting.log_z", run_id, |id| {
                    recorder.begin_run(run_id, id);
                    counting::log_partition_function_detailed(
                        model,
                        instance.pinning(),
                        &oracle,
                        EPS,
                        &serial,
                    )
                })
                .map_err(|e| format!("traced count failed: {e:?}"))?;
            out.attempted += 1;
            let engine_count = &counts[i / BATCH];
            let same = matches!(engine_count.output, lds_engine::TaskOutput::Count { log_z, log_error_bound }
                if log_z.to_bits() == c.estimate.log_z.to_bits()
                    && log_error_bound.to_bits() == c.estimate.log_error_bound.to_bits());
            out.check(same, || {
                "traced count differs from the engine's".to_string()
            });
        }
    }
    let spans = tracer.spans();
    let count_ms = layers::span_ms(&spans, "engine.count");
    let batch_ms = layers::span_ms(&spans, "engine.run_batch");
    out.set(
        "bench.lat_a_tail_ms",
        stats::supported_tail(&count_ms, 90.0),
    );
    out.set(
        "bench.lat_b_tail_ms",
        stats::supported_tail(&batch_ms, 90.0),
    );
    layers::set_oracle_layers(
        out,
        &recorder.queries(),
        sample_runs,
        &count_runs,
        &spans,
        "jvv.sample_exact",
    );
    let traced_for = window.elapsed();
    out.set(
        "bench.trace_overhead_pct",
        100.0 * tracer.overhead().as_secs_f64() / traced_for.as_secs_f64(),
    );
    tracer
        .write_jsonl(&crate::trace_path("exact-torus", cfg.seed))
        .map_err(|e| format!("writing spans: {e}"))?;

    // 3. fan-out: the same two batches and count at width 1 and 2
    let narrow = build(1)?;
    let work = |e: &Engine| -> Result<(), String> {
        for b in 0..2 {
            let batch = seeds(cfg, b * BATCH as u64);
            e.run_batch(Task::SampleExact, &batch)
                .and_then(|_| e.run_with_seed(Task::Count, batch[0]))
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    };
    let gain = layers::fanout_gain(cfg.budget(0.2), || work(&narrow), || work(engine))?;
    out.set("runtime.fanout_gain", gain);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumeration_counts_independent_sets() {
        // C4 has 7 independent sets; the 4×4 torus has 743
        assert_eq!(enumerated_log_z(&generators::cycle(4), 1.0), 7f64.ln());
        let z = enumerated_log_z(&generators::torus(4, 4), 1.0).exp();
        assert!((z - 743.0).abs() < 1e-9, "{z}");
    }
}
