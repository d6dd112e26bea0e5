//! The engine-lifetime SAW-oracle memo is invisible in the output bits.
//!
//! * a proptest: [`MemoizedSawOracle`] answers `marginal_mul` and
//!   `support_mul` bit-identically to the plain [`TwoSpinSawOracle`],
//!   cold and warm, at two ε values (one of them the count's anchor
//!   floor), on `torus(4,4)`, `cycle(10)`, the line graph of `cycle(5)`
//!   and `grid(6,6)` — the last with a planned radius below its diameter;
//! * on `grid(6,6)`, pinnings that differ only outside `B_t(v)` share one
//!   memo entry, and a pin on the ball's boundary makes a new one;
//! * a cold engine and a warm one (which first ran 64 other seeds) give
//!   `semantic_eq` reports with equal acceptance-product bits and equal
//!   `Count` `log_z` bits, at pool widths 1 and 4;
//! * the memo never holds more than [`MEMO_CAPACITY`] entries.
//!
//! The CI determinism matrix runs this suite under
//! `LDS_THREADS ∈ {1, 4, 8}`.

use lds::core::counting::ANCHOR_EPS_FLOOR;
use lds::engine::{Engine, ModelSpec, Task};
use lds::gibbs::models::hardcore;
use lds::gibbs::models::two_spin::TwoSpinParams;
use lds::gibbs::{GibbsModel, PartialConfig, Value};
use lds::graph::{generators, traversal, Graph, LineGraph, NodeId};
use lds::oracle::{
    DecayRate, MemoizedSawOracle, MultiplicativeInference, TwoSpinSawOracle, MEMO_CAPACITY,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The two error targets every query is asked at: a sharp one, and the
/// count's anchor-pass floor.
const EPSILONS: [f64; 2] = [0.05, ANCHOR_EPS_FLOOR];

/// With this rate the planned radius is 8 at ε = 0.05 and 5 at the
/// anchor floor — both below the diameter 10 of `grid(6,6)`.
fn saw() -> TwoSpinSawOracle {
    TwoSpinSawOracle::new(TwoSpinParams::hardcore(1.0), DecayRate::new(0.5, 2.0))
}

fn workload(idx: usize) -> Graph {
    match idx {
        0 => generators::torus(4, 4),
        1 => generators::cycle(10),
        2 => LineGraph::of(&generators::cycle(5)).graph().clone(),
        _ => generators::grid(6, 6),
    }
}

/// A random feasible hardcore pinning: each node is pinned with
/// probability `density`, to 1 only when no neighbour is pinned to 1.
fn random_pinning(g: &Graph, density: f64, rng: &mut StdRng) -> PartialConfig {
    let mut tau = PartialConfig::empty(g.node_count());
    for v in g.nodes() {
        if !rng.gen_bool(density) {
            continue;
        }
        let occupied_nb = g.neighbors(v).any(|&u| tau.get(u) == Some(Value(1)));
        let value = if !occupied_nb && rng.gen_bool(0.5) {
            1
        } else {
            0
        };
        tau.pin(v, Value(value));
    }
    tau
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    /// Cold and warm memoized answers equal the plain oracle's bits.
    #[test]
    fn memoized_answers_are_bit_identical_to_the_plain_oracle(
        gidx in 0usize..4,
        seed in any::<u64>(),
        density in 0.0f64..0.6,
    ) {
        let g = workload(gidx);
        let model = hardcore::model(&g, 1.0);
        let plain = saw();
        let memo = MemoizedSawOracle::new(saw(), model.graph());
        let mut rng = StdRng::seed_from_u64(seed);
        let queries: Vec<(NodeId, PartialConfig)> = (0..6)
            .map(|_| {
                let v = NodeId::from_index(rng.gen_range(0..g.node_count()));
                (v, random_pinning(&g, density, &mut rng))
            })
            .collect();
        // every query twice: the second pass answers from the memo
        for pass in 0..2 {
            for &eps in &EPSILONS {
                for (v, tau) in &queries {
                    let want = plain.marginal_mul(&model, tau, *v, eps);
                    let got = memo.marginal_mul(&model, tau, *v, eps);
                    prop_assert_eq!(bits(&got), bits(&want), "marginal pass {} eps {} v {}", pass, eps, v);
                    let want = plain.support_mul(&model, tau, *v, eps);
                    let got = memo.support_mul(&model, tau, *v, eps);
                    prop_assert_eq!(got, want, "support pass {} eps {} v {}", pass, eps, v);
                }
            }
        }
        prop_assert!(memo.len() <= 2 * EPSILONS.len() * queries.len());
    }
}

#[test]
fn pinnings_that_differ_only_outside_the_ball_share_an_entry() {
    let g = generators::grid(6, 6);
    let model = hardcore::model(&g, 1.0);
    // a fast-decay plan: radius 3 at ε = 0.05, too shallow for the
    // stopping rule, so every query deepens to the cap and reads the
    // whole ball, boundary included
    let plain = TwoSpinSawOracle::new(TwoSpinParams::hardcore(1.0), DecayRate::new(0.1, 2.0));
    let eps = 0.05;
    let t = plain.radius_mul(&model, eps);
    assert_eq!(t, 3, "below the grid's diameter 10");
    let corner = NodeId(0);
    let dist = traversal::bfs_distances(&g, corner);
    let at = |d: usize| -> Vec<NodeId> {
        g.nodes()
            .filter(|u| dist[u.index()] as usize == d)
            .collect()
    };

    let memo = MemoizedSawOracle::new(plain.clone(), model.graph());
    let empty = PartialConfig::empty(36);
    let first = memo.marginal_mul(&model, &empty, corner, eps);
    assert_eq!(
        bits(&first),
        bits(&plain.marginal_mul(&model, &empty, corner, eps))
    );
    assert_eq!(memo.len(), 1, "the query reaches the memo");
    let pinned_at = |u: NodeId| {
        let mut tau = PartialConfig::empty(36);
        tau.pin(u, Value(1));
        tau
    };
    // outside B_t: the walk cannot read the pin, so the entry is shared
    for u in (t + 1..=10).flat_map(at) {
        let tau = pinned_at(u);
        let got = memo.marginal_mul(&model, &tau, corner, eps);
        assert_eq!(memo.len(), 1, "a pin at {u}, outside B_t, shares the entry");
        assert_eq!(bits(&got), bits(&first));
        assert_eq!(
            bits(&got),
            bits(&plain.marginal_mul(&model, &tau, corner, eps))
        );
    }
    // on the boundary of B_t: the walk reads the pin, so each is a new
    // entry with its own answer
    let boundary = at(t);
    for (i, &u) in boundary.iter().enumerate() {
        let tau = pinned_at(u);
        let want = plain.marginal_mul(&model, &tau, corner, eps);
        assert_ne!(bits(&want), bits(&first), "the walk reads the pin at {u}");
        assert_eq!(
            bits(&memo.marginal_mul(&model, &tau, corner, eps)),
            bits(&want)
        );
        assert_eq!(memo.len(), 2 + i);
    }
}

#[test]
fn the_memo_never_exceeds_its_capacity() {
    let g = generators::cycle(10);
    let model: GibbsModel = hardcore::model(&g, 1.0);
    let plain = saw();
    let memo = MemoizedSawOracle::new(saw(), model.graph());
    let tau = PartialConfig::empty(10);
    // distinct ε bits make distinct keys (same planned radius)
    let distinct = MEMO_CAPACITY + MEMO_CAPACITY / 8;
    for i in 0..distinct {
        let eps = ANCHOR_EPS_FLOOR + i as f64 * 1e-12;
        let got = memo.marginal_mul(&model, &tau, NodeId(3), eps);
        if i % 4096 == 0 {
            assert!(memo.len() <= MEMO_CAPACITY, "{} entries", memo.len());
            assert_eq!(
                bits(&got),
                bits(&plain.marginal_mul(&model, &tau, NodeId(3), eps))
            );
        }
    }
    let held = memo.len();
    assert!(held <= MEMO_CAPACITY, "{held} entries");
    assert!(held < distinct, "full shards evict");
    assert!(held > MEMO_CAPACITY / 2, "evictions are one at a time");
}

fn torus_engine(threads: usize) -> Engine {
    Engine::builder()
        .model(ModelSpec::Hardcore { lambda: 1.0 })
        .graph(generators::torus(4, 4))
        .epsilon(0.001)
        .threads(threads)
        .build()
        .expect("in regime")
}

#[test]
fn a_warm_engine_reports_the_bits_of_a_cold_one() {
    let seeds: Vec<u64> = (0..8).map(|i| 0x5eed_0000 + i).collect();
    let others: Vec<u64> = (0..64).map(|i| 0xa11e_0000 + i).collect();
    for threads in [1usize, 4] {
        let warm = torus_engine(threads);
        warm.run_batch(Task::SampleExact, &others).unwrap();
        warm.run_with_seed(Task::Count, 1).unwrap();
        let cold_batch = torus_engine(threads)
            .run_batch(Task::SampleExact, &seeds)
            .unwrap();
        let warm_batch = warm.run_batch(Task::SampleExact, &seeds).unwrap();
        for (c, w) in cold_batch.iter().zip(&warm_batch) {
            assert!(c.semantic_eq(w), "seed {} at width {threads}", c.seed);
            let (cs, ws) = (c.stats.as_ref().unwrap(), w.stats.as_ref().unwrap());
            assert_eq!(
                cs.acceptance_product.to_bits(),
                ws.acceptance_product.to_bits()
            );
        }
        let cold_count = torus_engine(threads).run_with_seed(Task::Count, 2).unwrap();
        let warm_count = warm.run_with_seed(Task::Count, 2).unwrap();
        assert!(cold_count.semantic_eq(&warm_count));
        assert_eq!(
            cold_count.log_z().unwrap().to_bits(),
            warm_count.log_z().unwrap().to_bits()
        );
    }
}
