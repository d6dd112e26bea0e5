//! `glauber-torus`: in-process closed loop, one request at a time, of
//! `SampleApprox` served by local Glauber dynamics (`Backend::Glauber`
//! with the certified `Auto` budget) on the hardcore model (λ = 1) on
//! `torus(8,8)`.
//!
//! The Glauber path makes no oracle query, so its time goes to the
//! chromatic runner with halo projection (`localnet`), the pool
//! (`runtime`) and the sweep kernel (`core::glauber`). It is the
//! workload on which an oracle change must show no effect, and it
//! exposes intra-run fan-out.

use std::sync::Arc;
use std::time::Instant;

use lds_core::glauber;
use lds_engine::{Backend, Engine, ModelSpec, RunReport, ServedBackend, SweepBudget, Task};
use lds_graph::{generators, Graph};
use lds_localnet::Network;
use lds_runtime::ThreadPool;

use crate::layers;
use crate::stats::{self, derive, ms};
use crate::trace::Tracer;
use crate::{is_independent_set, timed_setup, Cfg, Outcome, WIDTH};

const LAMBDA: f64 = 1.0;
const TAG_SEEDS: u64 = 2;

fn graph() -> Graph {
    generators::torus(8, 8)
}

fn build(threads: usize) -> Result<Engine, String> {
    Engine::builder()
        .model(ModelSpec::Hardcore { lambda: LAMBDA })
        .graph(graph())
        .backend(Backend::Glauber {
            sweeps: SweepBudget::Auto,
        })
        .threads(threads)
        .build()
        .map_err(|e| format!("building the glauber-torus engine: {e}"))
}

fn check(out: &mut Outcome, g: &Graph, seed: u64, r: &RunReport) {
    let valid = r.config().is_some_and(|c| is_independent_set(g, c));
    out.check(
        r.seed == seed
            && r.succeeded
            && valid
            && matches!(r.backend, ServedBackend::Glauber { .. }),
        || format!("seed {seed}: not a Glauber-served independent set"),
    );
    layers::check_rounds(out, r);
}

pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let (engine, setup_s) = timed_setup(|| build(WIDTH))?;
    let rss = stats::RssSampler::start();
    let mut out = Outcome::default();
    if cfg.trace {
        traced(cfg, &engine, &mut out)?;
    } else {
        timed(cfg, &engine, &mut out)?;
    }
    out.finish_common(setup_s, rss)?;
    Ok(out)
}

fn timed(cfg: &Cfg, engine: &Engine, out: &mut Outcome) -> Result<(), String> {
    let g = graph();
    let (mut latency, mut service) = (Vec::new(), Vec::new());
    let mut succeeded = 0u64;
    let deadline = Instant::now() + cfg.budget(1.0);
    let mut i = 0;
    while Instant::now() < deadline {
        let seed = derive(cfg.seed, TAG_SEEDS, i);
        i += 1;
        let t = Instant::now();
        let r = engine.run_with_seed(Task::SampleApprox, seed);
        latency.push(ms(t.elapsed()));
        out.attempted += 1;
        match r {
            Ok(r) => {
                check(out, &g, seed, &r);
                succeeded += u64::from(r.succeeded);
                service.push(ms(r.wall_time));
            }
            Err(e) => out.fail(1, format!("seed {seed}: {e}")),
        }
    }
    let busy_s: f64 = latency.iter().sum::<f64>() / 1e3;
    out.set("useful_per_s", succeeded as f64 / busy_s);
    out.set("useful_share", succeeded as f64 / out.attempted as f64);
    out.set("lat_a_p50_ms", stats::median(&latency));
    out.set("lat_b_p50_ms", stats::median(&service));
    Ok(())
}

/// The traced run: the engine path with spans around each call, the
/// same seeds through `lds_core::glauber` directly (checked bit for bit
/// against the engine), and the fan-out gain. `sample_glauber_with`
/// takes no oracle at all, so the oracle metrics read 0.
fn traced(cfg: &Cfg, engine: &Engine, out: &mut Outcome) -> Result<(), String> {
    let g = graph();
    let tracer = Tracer::new();
    let window = Instant::now();

    // 1. engine path
    let before = layers::obs_snapshot();
    let mut reports = Vec::new();
    let deadline = Instant::now() + cfg.budget(0.5);
    let mut i = 0;
    while Instant::now() < deadline || reports.len() < 20 {
        let seed = derive(cfg.seed, TAG_SEEDS, i);
        i += 1;
        let r = tracer
            .span(0, "engine.sample_approx", i, |_| {
                engine.run_with_seed(Task::SampleApprox, seed)
            })
            .map_err(|e| format!("seed {seed}: {e}"))?;
        out.attempted += 1;
        check(out, &g, seed, &r);
        reports.push(r);
    }
    let after = layers::obs_snapshot();
    let n = reports.len() as u64;
    layers::set_counter_layers(out, &before, &after, n, n);
    layers::set_report_layers(out, &reports);

    // 2. the same seeds through lds_core::glauber
    let instance = Arc::new(engine.instance().clone());
    let pool = ThreadPool::new(WIDTH);
    let deadline = Instant::now() + cfg.budget(0.3);
    let mut direct_runs = 0;
    for r in &reports {
        if Instant::now() >= deadline && direct_runs >= 8 {
            break;
        }
        let ServedBackend::Glauber { sweeps } = r.backend else {
            continue;
        };
        let net = Network::from_shared(Arc::clone(&instance), r.seed);
        let (run, _, gstats, _) = tracer.span(0, "glauber.sample", r.seed, |_| {
            glauber::sample_glauber_with(&net, sweeps as usize, 0, &pool)
        });
        direct_runs += 1;
        out.attempted += 1;
        let same = r.config().map(|c| c.values()) == Some(&run.outputs[..])
            && r.glauber.as_ref() == Some(&gstats);
        out.check(same, || {
            format!(
                "seed {}: direct Glauber run differs from the engine's",
                r.seed
            )
        });
    }
    let spans = tracer.spans();
    let latency = layers::span_ms(&spans, "engine.sample_approx");
    let service: Vec<f64> = reports.iter().map(|r| ms(r.wall_time)).collect();
    out.set("bench.lat_a_tail_ms", stats::supported_tail(&latency, 99.0));
    out.set("bench.lat_b_tail_ms", stats::supported_tail(&service, 99.0));
    out.set(
        "bench.trace_overhead_pct",
        100.0 * tracer.overhead().as_secs_f64() / window.elapsed().as_secs_f64(),
    );
    tracer
        .write_jsonl(&crate::trace_path("glauber-torus", cfg.seed))
        .map_err(|e| format!("writing spans: {e}"))?;

    // 3. fan-out: the same request sequence at width 1 and 2
    let narrow = build(1)?;
    let work = |e: &Engine| -> Result<(), String> {
        for k in 0..10 {
            e.run_with_seed(Task::SampleApprox, derive(cfg.seed, TAG_SEEDS, k))
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    };
    let gain = layers::fanout_gain(cfg.budget(0.2), || work(&narrow), || work(engine))?;
    out.set("runtime.fanout_gain", gain);
    Ok(())
}
