//! Local Glauber dynamics (Fischer–Ghaffari, arXiv:1802.06676) as a
//! chromatic systematic scan — the engine's second sampling backend.
//!
//! The classic single-site Glauber dynamics resamples one uniformly
//! random site per step from its exact conditional distribution; the
//! *local* variant updates many non-adjacent sites per round, so the
//! whole chain runs in `O(log n)` LOCAL rounds inside the uniqueness
//! regime. This module implements the **systematic-scan** form of that
//! chain: every sweep visits the nodes in the order of one chromatic
//! schedule ([`scheduler::chromatic_schedule`], locality = the model's
//! factor diameter), and every free node resamples its spin from the
//! conditional distribution given its current neighborhood. Sites of
//! the same color are distance `≥ locality + 2` apart, so this scan is
//! the execution Lemma 3.1's parallel cluster simulation is equivalent
//! to, and every run is charged the simulation's `schedule.rounds` LOCAL
//! rounds per pass (the ground pass plus each sweep).
//!
//! The scan itself runs as one fused sequential loop on the caller's
//! thread: no pool dispatch, no halo projection, one configuration and
//! one weights buffer for the whole run. A site update is a handful of
//! factor-table lookups, far less work than one pool dispatch, so fanning
//! same-color clusters out to workers made the sweeps slower, not faster:
//! on a 2-vCPU host, width 2 took 1.72 ms against 0.50 ms at width 1 on
//! `torus(8,8)`, and 136 ms against 74 ms on `torus(64,64)`. The output
//! is a function of the schedule order and the per-node randomness only,
//! so it is the same at any pool width, and the round charge is unchanged.
//!
//! Contrast with [`crate::baselines::glauber_dynamics`], the sequential
//! random-site baseline: same per-site update rule, but that chain picks
//! sites with a global RNG, while this one draws each site's randomness
//! from [`Network::node_rng`] (per node, per sweep) — the randomness a
//! LOCAL node holds.
//!
//! Each update touches only the factors containing the site — a table
//! lookup per factor — so a sweep costs `O(n · q · deg)` arithmetic with
//! **no inference-oracle queries at all**. That is the whole appeal over
//! the chain-rule sampler (Theorem 3.2) and local-JVV (Theorem 4.2) in
//! the high-volume `SampleApprox` regime: those pay a radius-`t` ball
//! enumeration per node, Glauber pays `sweeps` table lookups.
//!
//! The lookups run over a site plan compiled once per run: one flat copy
//! of the factor tables and, per node, one slot per touching factor
//! holding the table offset, the node's own stride, and a range of
//! `(node, stride)` pairs for the factor's other scope nodes. A site's
//! weight for value `c` is then `Π tables[off + Σ x_s · m_s + c · stride]`,
//! multiplied in the model's factor order, with no closure per lookup. Each site's coin
//! comes from a generator seeded word by word from its SplitMix64 seed,
//! the same state the byte-wise seeding builds. On `torus(8,8)` with 42
//! sweeps, on a shared 2-vCPU host, the traced `glauber-torus` benchmark
//! put the sweeps of one request at 0.34–0.36 ms before the plan and the
//! word seeding and at 0.14–0.19 ms after (medians of two campaigns of
//! alternated runs).
//!
//! The chain starts from the greedy feasible extension of the instance
//! pinning (Remark 2.3's sequential local oblivious construction), run
//! over the same schedule order so the start state is deterministic.
//! Mixing is certified by [`crate::regime::glauber_plan`] from the
//! model's SSM decay rate.

use std::time::{Duration, Instant};

use lds_gibbs::{distribution, Config, GibbsModel, Value};
use lds_graph::NodeId;
use lds_localnet::local::LocalRun;
use lds_localnet::scheduler::{self, ChromaticSchedule};
use lds_localnet::Network;
use lds_runtime::{CancelToken, Cancelled, ThreadPool};

/// Base randomness stream tag for Glauber sweeps: sweep `s` draws each
/// node's randomness from stream `STREAM_GLAUBER + s`. Stream tags pack
/// into the low 20 bits of [`Network::node_seed`]'s derivation, so the
/// base (plus any realistic sweep count) stays below `2^20` while
/// keeping clear of the sampler/JVV tags (1–3) and the runtime's
/// decomposition/node/workload tags.
pub const STREAM_GLAUBER: u64 = 0x4_0000;

/// The largest sweep budget whose streams stay distinct: sweep `s`
/// draws from stream `STREAM_GLAUBER + s`, and [`Network::node_seed`]
/// packs the stream into 20 bits below the node id, so a budget past
/// `2^20 − STREAM_GLAUBER` (786 432) would hand node `2k`'s late sweeps
/// the streams of node `2k + 1`. The certified `Auto` budget stays far
/// below it (under `100 · ln(n/δ)` sweeps at any certified rate).
pub const MAX_GLAUBER_SWEEPS: usize = (1 << 20) - STREAM_GLAUBER as usize;

/// Nodes scanned between cancellation checks, so a deadline token
/// (whose check reads the clock) costs `O(n / 256)` clock reads per pass.
const CANCEL_CHECK_STRIDE: usize = 256;

/// Mixing diagnostics of a [`sample_glauber_with`] execution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GlauberStats {
    /// Full sweeps executed.
    pub sweeps: usize,
    /// Total single-site resamples across all sweeps.
    pub site_updates: u64,
    /// Sites whose value changed in the final sweep — a cheap mixing
    /// diagnostic (a well-mixed chain keeps flipping at its stationary
    /// flip rate; a frozen chain reports 0).
    pub last_sweep_changes: usize,
    /// The schedule locality used for the sweeps (the model's factor
    /// diameter).
    pub locality: usize,
}

/// Per-phase wall-clock of a [`sample_glauber_with`] execution.
#[derive(Clone, Debug, Default)]
pub struct GlauberTimings {
    /// Decomposition + chromatic-schedule construction.
    pub schedule: Duration,
    /// The greedy ground pass.
    pub ground: Duration,
    /// All Glauber sweeps.
    pub sweeps: Duration,
}

/// Runs `sweeps` systematic-scan Glauber sweeps from the greedy ground
/// state, all over one chromatic schedule (locality = the model's factor
/// diameter) — the local Glauber dynamics of Fischer–Ghaffari in this
/// workspace's scan form.
///
/// `pool` is not used: the whole run is one sequential scan on the
/// caller's thread (see the module docs for why fan-out does not pay
/// here). The parameter keeps the signature shared with the other
/// sampling backends. The result is the same at any pool width.
///
/// The reported round count charges `schedule.rounds` LOCAL rounds per
/// chromatic pass (the ground pass plus each sweep), the cost of the
/// Lemma 3.1 simulation.
pub fn sample_glauber_with(
    net: &Network,
    sweeps: usize,
    stream: u64,
    pool: &ThreadPool,
) -> (
    LocalRun<Value>,
    ChromaticSchedule,
    GlauberStats,
    GlauberTimings,
) {
    sample_glauber_cancellable_with(net, sweeps, stream, pool, &CancelToken::never())
        .expect("a never-token cannot cancel")
}

/// [`sample_glauber_with`] with cooperative cancellation: the token is
/// checked before the schedule is built and then every
/// `CANCEL_CHECK_STRIDE` (256) nodes of the ground pass and of each
/// sweep, which includes once at the start of every sweep. Checks
/// consume no randomness, so a completed run is bit-identical to the
/// uncancellable one; a cancelled run returns `Err(`[`Cancelled`]`)`
/// with no partial result.
///
/// # Panics
///
/// Panics if `sweeps > `[`MAX_GLAUBER_SWEEPS`]: later sweeps would
/// reuse other nodes' randomness streams.
pub fn sample_glauber_cancellable_with(
    net: &Network,
    sweeps: usize,
    stream: u64,
    _pool: &ThreadPool,
    cancel: &CancelToken,
) -> Result<
    (
        LocalRun<Value>,
        ChromaticSchedule,
        GlauberStats,
        GlauberTimings,
    ),
    Cancelled,
> {
    assert!(
        sweeps <= MAX_GLAUBER_SWEEPS,
        "{sweeps} Glauber sweeps exceed the {MAX_GLAUBER_SWEEPS}-sweep stream budget"
    );
    let locality = net.instance().model().locality().max(1);
    let start = Instant::now();
    cancel.check()?;
    let schedule = scheduler::chromatic_schedule(net, locality, stream);
    let schedule_wall = start.elapsed();

    let start = Instant::now();
    let (mut config, ground_failures) = greedy_ground(net, &schedule.order, cancel)?;
    let ground_wall = start.elapsed();

    let mut stats = GlauberStats {
        sweeps,
        site_updates: 0,
        last_sweep_changes: 0,
        locality,
    };
    let start = Instant::now();
    let plan = SitePlan::new(net.instance().model());
    let mut weights = vec![0.0f64; net.instance().model().alphabet_size()];
    for s in 0..sweeps {
        let (resampled, changed) = sweep(
            net,
            &plan,
            &mut config,
            &schedule.order,
            stream_for_sweep(s),
            &mut weights,
            cancel,
        )?;
        stats.site_updates += resampled as u64;
        stats.last_sweep_changes = changed;
    }
    let sweeps_wall = start.elapsed();

    let failures: Vec<bool> = ground_failures
        .iter()
        .zip(&schedule.failed)
        .map(|(&g, &d)| g || d)
        .collect();
    let rounds = schedule.rounds * (sweeps + 1);
    Ok((
        LocalRun {
            outputs: config.values().to_vec(),
            failures,
            rounds,
        },
        schedule,
        stats,
        GlauberTimings {
            schedule: schedule_wall,
            ground: ground_wall,
            sweeps: sweeps_wall,
        },
    ))
}

/// The greedy ground pass: pin each free node, in `order`, to the first
/// value keeping the partial configuration locally feasible — the same
/// Remark 2.3 construction [`crate::baselines::glauber_dynamics`] starts
/// from. Returns the full configuration and the per-node failure bits; a
/// node with no feasible value takes `Value(0)` and fails.
///
/// Linear in the model size. While the pins so far are locally feasible,
/// pinning `v` to `c` keeps them feasible exactly when every factor
/// touching `v` that the pin completes is positive, so only those
/// factors are checked. Once a node fails, the pins hold a zero factor
/// for good (pins only complete more factors), so every later free node
/// fails too: the scan carries that as a `poisoned` flag, seeded by one
/// feasibility check of the instance pinning.
fn greedy_ground(
    net: &Network,
    order: &[NodeId],
    cancel: &CancelToken,
) -> Result<(Config, Vec<bool>), Cancelled> {
    let model = net.instance().model();
    let mut sigma = net.instance().pinning().clone();
    let mut failures = vec![false; net.node_count()];
    let mut poisoned = !model.is_locally_feasible(&sigma);
    for chunk in order.chunks(CANCEL_CHECK_STRIDE) {
        cancel.check()?;
        for &v in chunk {
            if sigma.is_pinned(v) {
                continue;
            }
            let feasible = if poisoned {
                None
            } else {
                (0..model.alphabet_size())
                    .map(Value::from_index)
                    .find(|&c| {
                        model.factors_touching(v).iter().all(|&fi| {
                            model.factors()[fi]
                                .eval_partial(|s| if s == v { Some(c) } else { sigma.get(s) })
                                .is_none_or(|w| w > 0.0)
                        })
                    })
            };
            let value = feasible.unwrap_or_else(|| {
                poisoned = true;
                failures[v.index()] = true;
                Value(0)
            });
            sigma.pin(v, value);
        }
    }
    Ok((sigma.to_config(), failures))
}

/// One factor touching a site, compiled for the site update: the
/// factor's table index is `off + Σ x_s · m_s + c · stride` for site
/// value `c`, the sum running over the slot's `others` pairs.
#[derive(Clone, Copy, Debug)]
struct Slot {
    /// Offset of the factor's table in [`SitePlan::tables`].
    off: usize,
    /// The site's own stride in the table.
    stride: usize,
    /// The factor's other scope nodes: a range of `(node, stride)`
    /// pairs in [`SitePlan::others`], empty for a unary factor.
    others: (usize, usize),
}

/// The model's factors compiled once per run for the sweep kernel: one
/// flat copy of every factor table, and for each node one [`Slot`] per
/// factor touching it, in [`GibbsModel::factors_touching`] order.
struct SitePlan {
    tables: Vec<f64>,
    slots: Vec<Slot>,
    /// Node `v`'s slots are `slots[starts[v]..starts[v + 1]]`.
    starts: Vec<usize>,
    others: Vec<(usize, usize)>,
}

impl SitePlan {
    fn new(model: &GibbsModel) -> SitePlan {
        let q = model.alphabet_size();
        let factors = model.factors();
        let mut offsets = Vec::with_capacity(factors.len());
        let mut tables = Vec::with_capacity(factors.iter().map(|f| f.table().len()).sum());
        for f in factors {
            offsets.push(tables.len());
            tables.extend_from_slice(f.table());
        }
        let n = model.node_count();
        let mut slots = Vec::with_capacity(factors.iter().map(|f| f.scope().len()).sum());
        let mut starts = Vec::with_capacity(n + 1);
        let mut others = Vec::new();
        starts.push(0);
        for v in 0..n {
            let v_id = NodeId::from_index(v);
            for &fi in model.factors_touching(v_id) {
                let scope = factors[fi].scope();
                // the first scope node varies slowest (see `Factor`)
                let stride_at = |p: usize| q.pow((scope.len() - 1 - p) as u32);
                let first = others.len();
                let mut stride = 0;
                for (p, &s) in scope.iter().enumerate() {
                    if s == v_id {
                        stride = stride_at(p);
                    } else {
                        others.push((s.index(), stride_at(p)));
                    }
                }
                slots.push(Slot {
                    off: offsets[fi],
                    stride,
                    others: (first, others.len()),
                });
            }
            starts.push(slots.len());
        }
        SitePlan {
            tables,
            slots,
            starts,
            others,
        }
    }

    /// Writes node `v`'s unnormalized conditional weights given `state`
    /// into `weights`: per value, the product of the touching factors'
    /// entries in slot order. Entries are finite and `≥ 0`, so a zero
    /// factor keeps the product at `+0.0`.
    fn site_weights(&self, v: usize, state: &[Value], weights: &mut [f64]) {
        weights.fill(1.0);
        for slot in &self.slots[self.starts[v]..self.starts[v + 1]] {
            let mut base = slot.off;
            for &(s, m) in &self.others[slot.others.0..slot.others.1] {
                base += state[s].index() * m;
            }
            for (c, w) in weights.iter_mut().enumerate() {
                *w *= self.tables[base + c * slot.stride];
            }
        }
    }
}

/// One systematic-scan Glauber sweep over `order`, in place: every free
/// node replaces its value with a draw from the exact conditional
/// distribution given its neighborhood (computed from the factors
/// touching the node only, through `plan`), using the node's private
/// randomness for `stream`. Returns the number of free sites resampled
/// and how many of them changed value. A frozen site (no positive
/// weight, which cannot happen from a feasible state) keeps its value
/// and consumes no randomness.
fn sweep(
    net: &Network,
    plan: &SitePlan,
    config: &mut Config,
    order: &[NodeId],
    stream: u64,
    weights: &mut [f64],
    cancel: &CancelToken,
) -> Result<(usize, usize), Cancelled> {
    let pinning = net.instance().pinning();
    let (mut resampled, mut changed) = (0usize, 0usize);
    for chunk in order.chunks(CANCEL_CHECK_STRIDE) {
        cancel.check()?;
        for &v in chunk {
            if pinning.is_pinned(v) {
                continue;
            }
            resampled += 1;
            plan.site_weights(v.index(), config.values(), weights);
            if weights.iter().sum::<f64>() <= 0.0 {
                continue;
            }
            let current = config.get(v);
            let value = distribution::sample_from_marginal(weights, &mut net.node_rng(v, stream));
            config.set(v, value);
            changed += usize::from(value != current);
        }
    }
    Ok((resampled, changed))
}

/// The randomness stream for sweep `s`: distinct per sweep so each sweep
/// re-draws fresh node randomness. Must stay below the `2^20` stream-tag
/// width of [`Network::node_seed`] or (node, sweep) pairs would alias
/// across nodes.
fn stream_for_sweep(s: usize) -> u64 {
    STREAM_GLAUBER + s as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use lds_gibbs::metrics;
    use lds_gibbs::models::{coloring, hardcore, ising};
    use lds_gibbs::{Factor, PartialConfig};
    use lds_graph::generators;
    use lds_localnet::Instance;

    fn hc_net(n: usize, lambda: f64, seed: u64) -> Network {
        let g = generators::cycle(n);
        Network::new(Instance::unconditioned(hardcore::model(&g, lambda)), seed)
    }

    #[test]
    fn outputs_are_feasible_configurations() {
        for seed in 0..20 {
            let net = hc_net(9, 1.5, seed);
            let (run, _, _, _) = sample_glauber_with(&net, 6, 0, &ThreadPool::sequential());
            assert!(run.succeeded(), "seed {seed}");
            let config = Config::from_values(run.outputs);
            assert!(
                net.instance().model().weight(&config) > 0.0,
                "seed {seed} produced an infeasible configuration"
            );
        }
    }

    /// The greedy ground pass as it ran before the linear scan: clone
    /// the pinning per candidate value and check every factor of the
    /// model. The linear [`greedy_ground`] must match it bit for bit.
    fn greedy_ground_reference(net: &Network, order: &[NodeId]) -> (Config, Vec<bool>) {
        let model = net.instance().model();
        let mut sigma = net.instance().pinning().clone();
        let mut failures = vec![false; net.node_count()];
        for &v in order {
            if sigma.is_pinned(v) {
                continue;
            }
            let feasible = (0..model.alphabet_size())
                .map(Value::from_index)
                .find(|&c| model.is_locally_feasible(&sigma.with_pin(v, c)));
            match feasible {
                Some(c) => sigma.pin(v, c),
                None => {
                    sigma.pin(v, Value(0));
                    failures[v.index()] = true;
                }
            }
        }
        (sigma.to_config(), failures)
    }

    fn assert_ground_matches_reference(net: &Network, context: &str) -> bool {
        let locality = net.instance().model().locality().max(1);
        let schedule = scheduler::chromatic_schedule(net, locality, 0);
        let (config, failures) =
            greedy_ground(net, &schedule.order, &CancelToken::never()).unwrap();
        let (ref_config, ref_failures) = greedy_ground_reference(net, &schedule.order);
        assert_eq!(config, ref_config, "{context}: ground config");
        assert_eq!(failures, ref_failures, "{context}: ground failures");
        failures.iter().any(|&f| f)
    }

    #[test]
    fn greedy_ground_matches_the_whole_config_check() {
        // 2-colorings of an odd cycle: the greedy extension must fail
        // somewhere, and every free node after the first failure fails
        let g = generators::cycle(5);
        let model = coloring::model(&g, 2);
        let mut saw_failure = false;
        for seed in 0..30 {
            let net = Network::new(Instance::unconditioned(model.clone()), seed);
            saw_failure |=
                assert_ground_matches_reference(&net, &format!("2-coloring seed {seed}"));
        }
        assert!(saw_failure, "the odd-cycle 2-coloring never failed");
        // a pinning that is infeasible from the start (with_pins does not
        // re-check): every free node fails
        let mut extra = PartialConfig::empty(5);
        extra.pin(NodeId(0), Value(1));
        extra.pin(NodeId(1), Value(1));
        let net = Network::new(Instance::unconditioned(model), 3).with_pins(&extra);
        assert!(assert_ground_matches_reference(&net, "infeasible pinning"));
        // hardcore, free and pinned, on a cycle and a torus
        for seed in 0..20 {
            let net = hc_net(11, 1.0, seed);
            assert!(!assert_ground_matches_reference(
                &net,
                &format!("hardcore seed {seed}")
            ));
            let g = generators::torus(5, 5);
            let mut tau = PartialConfig::empty(25);
            tau.pin(NodeId(seed as u32 % 25), Value(1));
            tau.pin(NodeId(12), Value(0));
            let inst = Instance::new(hardcore::model(&g, 1.0), tau).unwrap();
            let net = Network::new(inst, seed);
            assert!(!assert_ground_matches_reference(
                &net,
                &format!("pinned torus seed {seed}")
            ));
        }
    }

    /// One sweep as it ran before the site plan: every weight through
    /// `Factor::eval_partial`, breaking out of a value's product at the
    /// first zero. The planned [`sweep`] must match it bit for bit.
    fn sweep_reference(
        net: &Network,
        config: &mut Config,
        order: &[NodeId],
        stream: u64,
        weights: &mut [f64],
    ) -> (usize, usize) {
        let model = net.instance().model();
        let pinning = net.instance().pinning();
        let (mut resampled, mut changed) = (0usize, 0usize);
        for &v in order {
            if pinning.is_pinned(v) {
                continue;
            }
            resampled += 1;
            for (c, w) in weights.iter_mut().enumerate() {
                let mut local = 1.0f64;
                for &fi in model.factors_touching(v) {
                    local *= model.factors()[fi]
                        .eval_partial(|s| {
                            Some(if s == v {
                                Value::from_index(c)
                            } else {
                                config.get(s)
                            })
                        })
                        .expect("full config");
                    if local == 0.0 {
                        break;
                    }
                }
                *w = local;
            }
            if weights.iter().sum::<f64>() <= 0.0 {
                continue;
            }
            let current = config.get(v);
            let value = distribution::sample_from_marginal(weights, &mut net.node_rng(v, stream));
            config.set(v, value);
            changed += usize::from(value != current);
        }
        (resampled, changed)
    }

    /// Runs `sweeps` reference sweeps over the same schedule and ground
    /// state as [`sample_glauber_with`] and checks the outputs and the
    /// update counters against it.
    fn assert_sweeps_match_reference(net: &Network, sweeps: usize, context: &str) {
        let locality = net.instance().model().locality().max(1);
        let schedule = scheduler::chromatic_schedule(net, locality, 0);
        let (mut config, _) = greedy_ground(net, &schedule.order, &CancelToken::never()).unwrap();
        let mut weights = vec![0.0; net.instance().model().alphabet_size()];
        let (mut updates, mut last_changes) = (0u64, 0usize);
        for s in 0..sweeps {
            let (resampled, changed) = sweep_reference(
                net,
                &mut config,
                &schedule.order,
                stream_for_sweep(s),
                &mut weights,
            );
            updates += resampled as u64;
            last_changes = changed;
        }
        let (run, _, stats, _) = sample_glauber_with(net, sweeps, 0, &ThreadPool::sequential());
        assert_eq!(run.outputs, config.values(), "{context}: outputs");
        assert_eq!(stats.site_updates, updates, "{context}: site updates");
        assert_eq!(
            stats.last_sweep_changes, last_changes,
            "{context}: last sweep changes"
        );
    }

    #[test]
    fn planned_sweeps_match_the_factor_eval_reference() {
        let torus = generators::torus(5, 5);
        let mut tau = PartialConfig::empty(25);
        tau.pin(NodeId(0), Value(1));
        tau.pin(NodeId(12), Value(1));
        tau.pin(NodeId(13), Value(0));
        let pinned = Instance::new(hardcore::model(&torus, 1.3), tau).unwrap();
        let ising = Instance::unconditioned(ising::model(
            &generators::torus(4, 4),
            ising::IsingParams::new(0.3, -0.2),
        ));
        let cycle = generators::cycle(7);
        let lists: Vec<Vec<usize>> = (0..7)
            .map(|v| (0..4).filter(|&c| c != v % 4).collect())
            .collect();
        let list_coloring = Instance::unconditioned(coloring::list_model(&cycle, 4, &lists));
        let cases = [
            ("pinned hardcore torus", pinned),
            ("soft ising", ising),
            ("list 4-coloring", list_coloring),
            ("3-ary factor", Instance::unconditioned(ternary_model())),
        ];
        for (name, inst) in cases {
            for seed in 0..25 {
                let net = Network::new(inst.clone(), seed);
                assert_sweeps_match_reference(&net, 9, &format!("{name} seed {seed}"));
            }
        }
    }

    /// A 3-spin model on `path(6)` with soft asymmetric edge factors, a
    /// unary factor with a zero, and one 3-ary factor whose scope is out
    /// of id order (so every scope position has its own stride) and
    /// whose table holds zeros.
    fn ternary_model() -> GibbsModel {
        let g = generators::path(6);
        let mut factors: Vec<Factor> = g
            .edges()
            .iter()
            .map(|e| {
                let table = (0..9).map(|i| 0.5 + 0.25 * i as f64).collect();
                Factor::binary(e.u, e.v, 3, table)
            })
            .collect();
        factors.push(Factor::unary(NodeId(4), vec![1.0, 0.0, 2.5]));
        let table = (0..27)
            .map(|i| {
                if i % 7 == 3 {
                    0.0
                } else {
                    1.0 + (i % 5) as f64
                }
            })
            .collect();
        factors.push(Factor::new(vec![NodeId(3), NodeId(1), NodeId(2)], 3, table));
        GibbsModel::new(g, 3, factors, "ternary")
    }

    #[test]
    #[should_panic(expected = "stream budget")]
    fn sweep_budgets_past_the_stream_width_panic() {
        let net = hc_net(4, 1.0, 0);
        let _ = sample_glauber_with(&net, MAX_GLAUBER_SWEEPS + 1, 0, &ThreadPool::sequential());
    }

    #[test]
    fn the_last_allowed_sweep_keeps_its_stream_below_the_tag_width() {
        assert!(stream_for_sweep(MAX_GLAUBER_SWEEPS - 1) < 1 << 20);
        assert_eq!(stream_for_sweep(MAX_GLAUBER_SWEEPS), 1 << 20);
    }

    #[test]
    fn bit_identical_across_pool_widths() {
        for seed in [0u64, 3, 11] {
            let net = hc_net(14, 1.0, seed);
            let (reference, _, ref_stats, _) =
                sample_glauber_with(&net, 5, 0, &ThreadPool::sequential());
            for threads in [2usize, 4, 8] {
                let pool = ThreadPool::new(threads);
                let (run, _, stats, _) = sample_glauber_with(&net, 5, 0, &pool);
                assert_eq!(
                    run.outputs, reference.outputs,
                    "width {threads} seed {seed}"
                );
                assert_eq!(run.failures, reference.failures);
                assert_eq!(stats, ref_stats, "width {threads} seed {seed}");
            }
        }
    }

    #[test]
    fn respects_instance_pinning() {
        let g = generators::cycle(8);
        let model = hardcore::model(&g, 1.0);
        let mut tau = PartialConfig::empty(8);
        tau.pin(NodeId(0), Value(1));
        let inst = Instance::new(model, tau).unwrap();
        for seed in 0..10 {
            let net = Network::new(inst.clone(), seed);
            let (run, _, _, _) = sample_glauber_with(&net, 8, 0, &ThreadPool::sequential());
            assert_eq!(run.outputs[0], Value(1));
            assert_eq!(run.outputs[1], Value(0), "neighbor of pinned-occupied");
        }
    }

    #[test]
    fn colorings_stay_proper_through_sweeps() {
        let g = generators::cycle(7);
        let model = coloring::model(&g, 4);
        for seed in 0..10 {
            let net = Network::new(Instance::unconditioned(model.clone()), seed);
            let (run, _, _, _) = sample_glauber_with(&net, 6, 0, &ThreadPool::sequential());
            let config = Config::from_values(run.outputs);
            assert!(
                coloring::is_proper(&g, &config),
                "seed {seed}: improper coloring"
            );
        }
    }

    #[test]
    fn converges_to_the_target_marginal() {
        let g = generators::cycle(6);
        let model = hardcore::model(&g, 1.0);
        let trials = 20_000usize;
        let mut occupied = 0usize;
        for seed in 0..trials as u64 {
            let net = Network::new(Instance::unconditioned(model.clone()), seed);
            let (run, _, _, _) = sample_glauber_with(&net, 24, 0, &ThreadPool::sequential());
            if run.outputs[2] == Value(1) {
                occupied += 1;
            }
        }
        let est = occupied as f64 / trials as f64;
        let exact = distribution::marginal(&model, &PartialConfig::empty(6), NodeId(2)).unwrap()[1];
        assert!(
            (est - exact).abs() < 0.015,
            "glauber {est:.4} vs exact {exact:.4}"
        );
    }

    #[test]
    fn distinct_sweeps_draw_distinct_randomness() {
        // a 1-sweep and a 2-sweep run must disagree on some seed if the
        // second sweep draws fresh randomness
        let mut differs = false;
        for seed in 0..20 {
            let net = hc_net(10, 1.5, seed);
            let (one, _, _, _) = sample_glauber_with(&net, 1, 0, &ThreadPool::sequential());
            let (two, _, _, _) = sample_glauber_with(&net, 2, 0, &ThreadPool::sequential());
            if one.outputs != two.outputs {
                differs = true;
                break;
            }
        }
        assert!(differs, "second sweep never changed the configuration");
    }

    #[test]
    fn stats_count_site_updates_and_locality() {
        let net = hc_net(10, 1.0, 5);
        let (_, schedule, stats, _) = sample_glauber_with(&net, 3, 0, &ThreadPool::sequential());
        assert_eq!(stats.sweeps, 3);
        assert_eq!(stats.site_updates, 30, "10 free sites x 3 sweeps");
        assert_eq!(stats.locality, 1);
        assert!(schedule.rounds > 0);
    }

    #[test]
    fn tv_distance_to_stationarity_is_small() {
        // joint-distribution check on a small cycle, mirroring the
        // chain-rule sampler's test
        let n = 5usize;
        let g = generators::cycle(n);
        let model = hardcore::model(&g, 1.0);
        let trials = 40_000usize;
        let mut samples = Vec::with_capacity(trials);
        for seed in 0..trials as u64 {
            let net = Network::new(Instance::unconditioned(model.clone()), seed);
            let (run, _, _, _) = sample_glauber_with(&net, 24, 0, &ThreadPool::sequential());
            samples.push(Config::from_values(run.outputs));
        }
        let emp = metrics::empirical_distribution(&samples);
        let exact = distribution::joint_distribution(&model, &PartialConfig::empty(n)).unwrap();
        let tv = metrics::tv_distance_joint(&emp, &exact);
        assert!(tv < 0.05, "empirical TV {tv}");
    }
}
