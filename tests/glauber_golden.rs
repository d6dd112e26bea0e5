//! Golden bit-identity of the Glauber backend: a pinned digest of what
//! Glauber-served engine reports contain.
//!
//! For each instance the digest folds, over seeds `0..200`, the sampled
//! configuration, the `GlauberStats` diagnostics, the charged `rounds`
//! and the `succeeded` bit of every report into one FNV-1a hash. The
//! expected values are constants, so a change to how the backend
//! executes (its scan order, its randomness, its round charge) that
//! moves any bit of any report fails here, at every pool width.
//! FNV-1a is spelled out instead of `DefaultHasher`, whose output is
//! not specified to be stable across Rust releases.

use lds::engine::{Backend, Engine, ModelSpec, RunReport, SweepBudget, Task};
use lds::gibbs::{PartialConfig, Value};
use lds::graph::{generators, Graph, NodeId};

const SEEDS: u64 = 200;
const WIDTHS: [usize; 3] = [1, 2, 4];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

fn fold(h: &mut Fnv, r: &RunReport) {
    h.u64(r.seed);
    h.u64(u64::from(r.succeeded));
    h.u64(r.rounds as u64);
    let config = r.config().expect("a sampling report");
    h.u64(config.len() as u64);
    for v in config.values() {
        h.u64(u64::from(v.0));
    }
    let stats = r.glauber.as_ref().expect("Glauber served");
    h.u64(stats.sweeps as u64);
    h.u64(stats.site_updates);
    h.u64(stats.last_sweep_changes as u64);
    h.u64(stats.locality as u64);
}

fn digest(
    spec: ModelSpec,
    g: Graph,
    pinning: Option<PartialConfig>,
    sweeps: SweepBudget,
    threads: usize,
) -> u64 {
    let mut builder = Engine::builder()
        .model(spec)
        .graph(g)
        .backend(Backend::Glauber { sweeps })
        .threads(threads);
    if let Some(tau) = pinning {
        builder = builder.pinning(tau);
    }
    let engine = builder.build().expect("in regime");
    let seeds: Vec<u64> = (0..SEEDS).collect();
    let mut h = Fnv::new();
    for r in engine.run_batch(Task::SampleApprox, &seeds).unwrap() {
        fold(&mut h, &r);
    }
    h.0
}

fn assert_golden(
    name: &str,
    expected: u64,
    spec: ModelSpec,
    g: Graph,
    pinning: Option<PartialConfig>,
    sweeps: SweepBudget,
) {
    for threads in WIDTHS {
        let got = digest(spec.clone(), g.clone(), pinning.clone(), sweeps, threads);
        assert_eq!(
            got, expected,
            "{name} at width {threads}: digest {got:#018x}, expected {expected:#018x}"
        );
    }
}

/// The benchmark workload: hardcore λ = 1 on `torus(8,8)`, certified
/// sweep budget.
#[test]
fn hardcore_torus_8x8_is_golden() {
    assert_golden(
        "hardcore torus(8,8)",
        0xb9c3_219d_0007_2ee7,
        ModelSpec::Hardcore { lambda: 1.0 },
        generators::torus(8, 8),
        None,
        SweepBudget::Auto,
    );
}

/// The telemetry reference instance: hardcore λ = 1 on `cycle(10)`.
#[test]
fn hardcore_cycle_10_is_golden() {
    assert_golden(
        "hardcore cycle(10)",
        0xba93_bfd0_f897_79f1,
        ModelSpec::Hardcore { lambda: 1.0 },
        generators::cycle(10),
        None,
        SweepBudget::Auto,
    );
}

/// A pinned instance: 4-colorings of `cycle(9)` with two pinned nodes,
/// so the ground pass and the sweeps both have to skip pinned sites.
#[test]
fn pinned_coloring_cycle_9_is_golden() {
    let mut tau = PartialConfig::empty(9);
    tau.pin(NodeId(0), Value(1));
    tau.pin(NodeId(4), Value(3));
    assert_golden(
        "pinned 4-coloring cycle(9)",
        0x59e8_3e72_89c3_e699,
        ModelSpec::Coloring { q: 4 },
        generators::cycle(9),
        Some(tau),
        SweepBudget::Fixed(12),
    );
}
