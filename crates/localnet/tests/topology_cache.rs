//! The instance topology cache is invisible in the schedules: a
//! chromatic schedule built on an instance whose diameter and power
//! graphs are already cached equals one built on a fresh instance, for
//! every seed and locality, and pinned children share the cached power
//! graphs instead of recomputing them.

use std::sync::Arc;

use lds_gibbs::models::hardcore;
use lds_gibbs::{PartialConfig, Value};
use lds_graph::{generators, Graph, NodeId};
use lds_localnet::scheduler::{chromatic_schedule, ChromaticSchedule};
use lds_localnet::{Instance, Network};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn graphs() -> Vec<Graph> {
    vec![
        generators::cycle(16),
        generators::torus(5, 6),
        generators::random_regular(16, 3, &mut StdRng::seed_from_u64(7)),
        generators::balanced_tree(2, 3),
    ]
}

fn assert_same_schedule(a: &ChromaticSchedule, b: &ChromaticSchedule, context: &str) {
    assert_eq!(a.order, b.order, "{context}: order");
    assert_eq!(
        a.color_clusters, b.color_clusters,
        "{context}: color_clusters"
    );
    assert_eq!(a.tail, b.tail, "{context}: tail");
    assert_eq!(a.failed, b.failed, "{context}: failed");
    assert_eq!(a.rounds, b.rounds, "{context}: rounds");
    assert_eq!(a.colors, b.colors, "{context}: colors");
    assert_eq!(
        a.max_weak_radius, b.max_weak_radius,
        "{context}: max_weak_radius"
    );
    assert_eq!(a.locality, b.locality, "{context}: locality");
}

#[test]
fn cached_schedules_equal_fresh_ones() {
    for (gi, g) in graphs().iter().enumerate() {
        let model = hardcore::model(g, 1.0);
        let cached = Arc::new(Instance::unconditioned(model.clone()));
        for seed in 0..6u64 {
            for locality in [1usize, 2, 3, 50] {
                for stream in [0u64, 3] {
                    let fresh = Network::new(Instance::unconditioned(model.clone()), seed);
                    let warm = Network::from_shared(Arc::clone(&cached), seed);
                    let context =
                        format!("graph {gi} seed {seed} locality {locality} stream {stream}");
                    assert_same_schedule(
                        &chromatic_schedule(&warm, locality, stream),
                        &chromatic_schedule(&fresh, locality, stream),
                        &context,
                    );
                }
            }
        }
    }
}

#[test]
fn pinned_children_share_the_cached_topology() {
    let g = generators::torus(6, 6);
    let inst = Instance::unconditioned(hardcore::model(&g, 1.0));
    let net = Network::new(inst, 11);
    let before = chromatic_schedule(&net, 2, 0);
    let mut extra = PartialConfig::empty(g.node_count());
    extra.pin(NodeId(5), Value(0));
    let child = net.with_pins(&extra);
    assert!(Arc::ptr_eq(
        &net.instance().power_graph(3),
        &child.instance().power_graph(3)
    ));
    assert_eq!(child.instance().diameter(), net.instance().diameter());
    // the pins do not enter the schedule: the child's equals the parent's
    assert_same_schedule(&chromatic_schedule(&child, 2, 0), &before, "pinned child");
}
