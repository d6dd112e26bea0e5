//! An engine-lifetime memo over the SAW-tree oracle.
//!
//! [`MemoizedSawOracle`] answers a repeated `marginal_mul` /
//! `support_mul` query from a bounded cache instead of re-walking the
//! SAW tree. The answer is **bit-identical** to
//! [`TwoSpinSawOracle`]'s, by construction:
//!
//! * **Purity.** A query's result is a function of the query kind, `v`,
//!   `ε`, and the pinning — nothing else varies between calls on one
//!   oracle and one graph.
//! * **Locality.** The deepening stops at depth `t = radius_mul(ε)` at
//!   the latest, and the walk at depth cap `t` reads pins only within
//!   distance `t` of `v`. So the pinning matters only on the ball
//!   `B_t(v)`.
//!
//! The memo key is therefore `(kind, v, ε bits, pins on B_t(v))`, the
//! pins packed 2 bits per ball node (free, pinned vacant, pinned
//! occupied) in the ball's BFS order; two pinnings that differ only
//! outside the ball share an entry. The value is the certified interval the deepening stopped
//! at, and both paths post-process it the same way.
//!
//! The memo sits *behind* the first two depths of the deepening: a query
//! they decide (a pinned-occupied neighbor, a resolved support) costs
//! `O(Δ²)` and is never stored, so entries hold only real SAW-tree work.
//! Depth 2 is in front as well as depth 1 because a lookup costs about
//! what a depth-2 walk does: with the memo behind depth 1 alone, the
//! JVV ground pass (support queries that mostly stop at depth 2) ran
//! ~70% slower on a fresh engine. Misses then run the deepening from
//! depth 3 on — exactly the sequence the plain oracle runs after its own
//! first two attempts.
//!
//! Memory is bounded by [`MEMO_CAPACITY`] entries, each a key of
//! `⌈|B_t(v)|/32⌉` words plus a fixed header, and one ball node list per
//! queried `(v, t)`. Entries live in 16 independently locked
//! shards (so batch fan-out does not serialise on one mutex), each
//! capped at an equal share of the capacity; a full shard evicts one
//! arbitrary entry per insert. Nothing is allocated until the first
//! query that reaches the memo.
//!
//! Every memoized oracle reports into the process-wide `lds-obs`
//! registry: `oracle_queries`, `oracle_memo_hits`,
//! `oracle_memo_evictions`, the gauge `oracle_memo_entries`, and, for
//! computed queries only, `oracle_budget_exhausted` (the deepening ran
//! out of node budget: a weaker-than-planned ε) and the histogram
//! `oracle_stop_depth`. A query the early depths answer costs one
//! relaxed atomic; a hit costs two.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use lds_gibbs::{GibbsModel, PartialConfig, Value};
use lds_graph::{traversal, Graph, NodeId};
use lds_obs::{Counter, Gauge, Histogram};
use lds_runtime::splitmix64;

use crate::saw::{Deepened, MarginalBounds, QueryKind, TwoSpinSawOracle};
use crate::{InferenceOracle, MultiplicativeInference};

/// The most entries one memo holds.
pub const MEMO_CAPACITY: usize = 1 << 16;

/// Independently locked shards per memo.
const SHARDS: usize = 16;

const SHARD_CAPACITY: usize = MEMO_CAPACITY / SHARDS;

/// The process-wide oracle counters (see the module docs).
struct OracleMetrics {
    queries: Arc<Counter>,
    hits: Arc<Counter>,
    evictions: Arc<Counter>,
    entries: Arc<Gauge>,
    budget_exhausted: Arc<Counter>,
    stop_depth: Arc<Histogram>,
}

fn metrics() -> &'static OracleMetrics {
    static METRICS: OnceLock<OracleMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = lds_obs::global();
        OracleMetrics {
            queries: reg.counter("oracle_queries"),
            hits: reg.counter("oracle_memo_hits"),
            evictions: reg.counter("oracle_memo_evictions"),
            entries: reg.gauge("oracle_memo_entries"),
            budget_exhausted: reg.counter("oracle_budget_exhausted"),
            stop_depth: reg.histogram("oracle_stop_depth"),
        }
    })
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct Key {
    kind: QueryKind,
    v: u32,
    eps: u64,
    /// Pins on `B_t(v)`, 2 bits per ball node in ball order.
    pins: Box<[u64]>,
}

impl Key {
    fn shard(&self) -> usize {
        let mut h = splitmix64(u64::from(self.v) << 1 | (self.kind == QueryKind::Support) as u64);
        h = splitmix64(h ^ self.eps);
        for &w in self.pins.iter() {
            h = splitmix64(h ^ w);
        }
        (h % SHARDS as u64) as usize
    }
}

#[derive(Default)]
struct Shard {
    entries: HashMap<Key, MarginalBounds>,
    /// `B_t(v)` in BFS order, for the nodes `v` this shard owns.
    balls: HashMap<(u32, usize), Box<[NodeId]>>,
}

/// The shared state of a [`MemoizedSawOracle`] and its clones.
pub(crate) struct SawMemo {
    /// Structural digest and size of the bound graph.
    digest: u64,
    nodes: usize,
    /// Address of the graph most recently checked against `digest`.
    /// Relaxed suffices: the address publishes no data, since every
    /// caller reads its graph through its own reference.
    verified: AtomicUsize,
    shards: [Mutex<Shard>; SHARDS],
}

/// A digest of the graph's structure: its node count and sorted edge
/// list determine it completely.
fn digest(g: &Graph) -> u64 {
    g.edges()
        .iter()
        .fold(splitmix64(g.node_count() as u64), |h, e| {
            splitmix64(h ^ (u64::from(e.u.0) << 32 | u64::from(e.v.0)))
        })
}

impl SawMemo {
    fn new(graph: &Graph) -> Self {
        SawMemo {
            digest: digest(graph),
            nodes: graph.node_count(),
            verified: AtomicUsize::new(0),
            shards: std::array::from_fn(|_| Mutex::default()),
        }
    }

    fn shard(&self, i: usize) -> MutexGuard<'_, Shard> {
        // every critical section leaves the shard consistent, so a
        // poisoned lock is still safe to use
        self.shards[i]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Panics unless `g` is the graph this memo was bound to. A graph
    /// address that already passed is accepted with one load.
    fn check(&self, g: &Graph) {
        let addr = g as *const Graph as usize;
        assert_eq!(
            g.node_count(),
            self.nodes,
            "memoized SAW oracle queried on a different graph"
        );
        if self.verified.load(Ordering::Relaxed) != addr {
            assert_eq!(
                digest(g),
                self.digest,
                "memoized SAW oracle queried on a different graph"
            );
            self.verified.store(addr, Ordering::Relaxed);
        }
    }

    /// The memo key: `kind`, `v`, `ε` and the pins on `B_t(v)`.
    fn key(
        &self,
        g: &Graph,
        pinning: &PartialConfig,
        v: NodeId,
        eps: f64,
        kind: QueryKind,
        t: usize,
    ) -> Key {
        let mut shard = self.shard(v.index() % SHARDS);
        let ball = shard
            .balls
            .entry((v.0, t))
            .or_insert_with(|| traversal::ball(g, v, t).into_boxed_slice());
        let mut pins = vec![0u64; ball.len().div_ceil(32)].into_boxed_slice();
        for (i, &u) in ball.iter().enumerate() {
            // the walk tells a pin only as occupied (value 1) or not
            if let Some(x) = pinning.get(u) {
                pins[i / 32] |= (1 + u64::from(x == Value(1))) << (2 * (i % 32));
            }
        }
        Key {
            kind,
            v: v.0,
            eps: eps.to_bits(),
            pins,
        }
    }

    /// The bounds of the `kind` query at `(v, ε, pinning)` with depth
    /// cap `t`: from the memo when it holds them, else from `compute`
    /// (the rest of the deepening), which is then stored.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn get_or_compute(
        &self,
        g: &Graph,
        pinning: &PartialConfig,
        v: NodeId,
        eps: f64,
        kind: QueryKind,
        t: usize,
        compute: impl FnOnce() -> Deepened,
    ) -> MarginalBounds {
        let m = metrics();
        let key = self.key(g, pinning, v, eps, kind, t);
        let home = key.shard();
        if let Some(&bounds) = self.shard(home).entries.get(&key) {
            m.hits.inc();
            return bounds;
        }
        // compute outside the lock: two threads may race on one key,
        // and both then store the same bits
        let done = compute();
        m.stop_depth.record(done.depth as u64);
        if done.exhausted {
            m.budget_exhausted.inc();
        }
        let mut shard = self.shard(home);
        if shard.entries.len() >= SHARD_CAPACITY && !shard.entries.contains_key(&key) {
            let victim = shard.entries.keys().next().cloned();
            shard
                .entries
                .remove(&victim.expect("a full shard has entries"));
            m.evictions.inc();
            m.entries.add(-1);
        }
        if shard.entries.insert(key, done.bounds).is_none() {
            m.entries.add(1);
        }
        done.bounds
    }

    fn len(&self) -> usize {
        (0..SHARDS).map(|i| self.shard(i).entries.len()).sum()
    }
}

impl Drop for SawMemo {
    fn drop(&mut self) {
        metrics().entries.add(-(self.len() as i64));
    }
}

/// [`TwoSpinSawOracle`] with an engine-lifetime memo over its
/// multiplicative queries; see the [module docs](self).
///
/// Bound at construction to one graph: every query must pass a model on
/// that graph (checked structurally, and by address once seen), and
/// panics otherwise. Clones share one memo. The additive
/// [`InferenceOracle`] queries are forwarded unmemoized.
///
/// # Example
///
/// ```
/// use lds_gibbs::models::{hardcore, two_spin::TwoSpinParams};
/// use lds_gibbs::PartialConfig;
/// use lds_graph::{generators, NodeId};
/// use lds_oracle::{DecayRate, MemoizedSawOracle, MultiplicativeInference, TwoSpinSawOracle};
///
/// let g = generators::cycle(10);
/// let model = hardcore::model(&g, 1.0);
/// let saw = TwoSpinSawOracle::new(TwoSpinParams::hardcore(1.0), DecayRate::new(0.5, 2.0));
/// let memo = MemoizedSawOracle::new(saw.clone(), model.graph());
/// let tau = PartialConfig::empty(10);
/// let cold = memo.marginal_mul(&model, &tau, NodeId(0), 0.01);
/// let warm = memo.marginal_mul(&model, &tau, NodeId(0), 0.01);
/// assert_eq!(cold, warm);
/// assert_eq!(cold, saw.marginal_mul(&model, &tau, NodeId(0), 0.01));
/// assert_eq!(memo.len(), 1);
/// ```
#[derive(Clone)]
pub struct MemoizedSawOracle {
    saw: TwoSpinSawOracle,
    memo: Arc<SawMemo>,
}

impl MemoizedSawOracle {
    /// Wraps `saw` with an empty memo bound to `graph`. Allocates no
    /// memo storage until a query reaches it.
    pub fn new(saw: TwoSpinSawOracle, graph: &Graph) -> Self {
        MemoizedSawOracle {
            saw,
            memo: Arc::new(SawMemo::new(graph)),
        }
    }

    /// Entries the memo currently holds (at most [`MEMO_CAPACITY`]).
    pub fn len(&self) -> usize {
        self.memo.len()
    }

    /// Whether the memo holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The model's graph, after checking it is the bound one.
    fn graph<'m>(&self, model: &'m GibbsModel) -> &'m Graph {
        metrics().queries.inc();
        let g = model.graph();
        self.memo.check(g);
        g
    }
}

impl std::fmt::Debug for MemoizedSawOracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoizedSawOracle")
            .field("saw", &self.saw)
            .finish_non_exhaustive()
    }
}

impl MultiplicativeInference for MemoizedSawOracle {
    fn name(&self) -> &str {
        MultiplicativeInference::name(&self.saw)
    }

    fn radius_mul(&self, model: &GibbsModel, eps: f64) -> usize {
        self.saw.radius_mul(model, eps)
    }

    fn marginal_mul(
        &self,
        model: &GibbsModel,
        pinning: &PartialConfig,
        v: NodeId,
        eps: f64,
    ) -> Vec<f64> {
        let g = self.graph(model);
        self.saw
            .marginal_mul_in(g, pinning, v, eps, Some(&self.memo))
    }

    fn support_mul(
        &self,
        model: &GibbsModel,
        pinning: &PartialConfig,
        v: NodeId,
        eps: f64,
    ) -> Vec<bool> {
        let g = self.graph(model);
        self.saw
            .support_mul_in(g, pinning, v, eps, Some(&self.memo))
    }
}

impl InferenceOracle for MemoizedSawOracle {
    fn name(&self) -> &str {
        InferenceOracle::name(&self.saw)
    }

    fn radius(&self, n: usize, delta: f64) -> usize {
        self.saw.radius(n, delta)
    }

    fn marginal(
        &self,
        model: &GibbsModel,
        pinning: &PartialConfig,
        v: NodeId,
        t: usize,
    ) -> Vec<f64> {
        self.saw.marginal(model, pinning, v, t)
    }
}
