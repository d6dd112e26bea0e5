//! A recording wrapper around the SAW-tree oracle.
//!
//! The wrapper is handed to `lds_core::jvv::sample_exact_local_with`
//! and `lds_core::counting::log_partition_function_detailed` in the
//! traced runs. It forwards **all four** `MultiplicativeInference`
//! methods: leaning on the trait's default `support_mul` would route
//! support queries through `marginal_mul`, drop the SAW early-out, and
//! time a different program than the engine runs.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use lds_gibbs::models::two_spin::TwoSpinParams;
use lds_gibbs::{GibbsModel, PartialConfig};
use lds_graph::NodeId;
use lds_oracle::{DecayRate, MultiplicativeInference, TwoSpinSawOracle};

use crate::trace::Tracer;

/// The engine's oracle for a hardcore model of decay rate `rate`,
/// constructed exactly as the engine builder constructs it.
pub fn engine_saw_oracle(lambda: f64, rate: f64) -> TwoSpinSawOracle {
    TwoSpinSawOracle::new(
        TwoSpinParams::hardcore(lambda),
        DecayRate::new(rate.clamp(1e-6, 0.95), 2.0),
    )
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    Marginal,
    Support,
}

/// One query as the wrapper saw it.
#[derive(Clone, Debug)]
pub struct Query {
    pub kind: Kind,
    /// The run (traced request) the query belongs to.
    pub run: u64,
    pub ns: u64,
    /// Whether the same `(node, pinning, ε)` was already asked, with
    /// the same kind, earlier in the same run.
    pub repeat: bool,
}

type Key = (Kind, u32, Vec<(u32, u32)>, u64);

struct Log {
    queries: Vec<Query>,
    /// Keys seen in the current run.
    seen: HashSet<Key>,
}

/// Shared state of every clone of a [`RecordingOracle`].
pub struct Recorder {
    tracer: Arc<Tracer>,
    /// The span the next queries nest under (the traced run's span).
    parent: AtomicU64,
    run: AtomicU64,
    log: Mutex<Log>,
}

impl Recorder {
    /// Starts a new run: later queries nest under span `parent` and
    /// count repeats afresh.
    pub fn begin_run(&self, run: u64, parent: u64) {
        self.parent.store(parent, Ordering::Relaxed);
        self.run.store(run, Ordering::Relaxed);
        self.log.lock().expect("oracle log poisoned").seen.clear();
    }

    pub fn queries(&self) -> Vec<Query> {
        self.log
            .lock()
            .expect("oracle log poisoned")
            .queries
            .clone()
    }
}

/// `TwoSpinSawOracle` plus a record of every query it answers.
#[derive(Clone)]
pub struct RecordingOracle {
    inner: TwoSpinSawOracle,
    recorder: Arc<Recorder>,
}

impl RecordingOracle {
    pub fn new(inner: TwoSpinSawOracle, tracer: Arc<Tracer>) -> Self {
        RecordingOracle {
            inner,
            recorder: Arc::new(Recorder {
                tracer,
                parent: AtomicU64::new(0),
                run: AtomicU64::new(0),
                log: Mutex::new(Log {
                    queries: Vec::new(),
                    seen: HashSet::new(),
                }),
            }),
        }
    }

    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.recorder
    }

    fn timed<T>(
        &self,
        kind: Kind,
        pinning: &PartialConfig,
        v: NodeId,
        eps: f64,
        f: impl FnOnce() -> T,
    ) -> T {
        let rec = &self.recorder;
        let id = rec.tracer.open();
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let parent = rec.parent.load(Ordering::Relaxed);
        let run = rec.run.load(Ordering::Relaxed);
        let name = match kind {
            Kind::Marginal => "oracle.marginal",
            Kind::Support => "oracle.support",
        };
        rec.tracer.record(id, parent, name, run, start, end);
        let book = Instant::now();
        let key: Key = (
            kind,
            v.0,
            pinning.pins().map(|(u, x)| (u.0, x.0)).collect(),
            eps.to_bits(),
        );
        let mut log = rec.log.lock().expect("oracle log poisoned");
        let repeat = !log.seen.insert(key);
        log.queries.push(Query {
            kind,
            run,
            ns: (end - start).as_nanos() as u64,
            repeat,
        });
        drop(log);
        rec.tracer.add_overhead(book.elapsed());
        out
    }
}

impl MultiplicativeInference for RecordingOracle {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn radius_mul(&self, model: &GibbsModel, eps: f64) -> usize {
        self.inner.radius_mul(model, eps)
    }

    fn marginal_mul(
        &self,
        model: &GibbsModel,
        pinning: &PartialConfig,
        v: NodeId,
        eps: f64,
    ) -> Vec<f64> {
        self.timed(Kind::Marginal, pinning, v, eps, || {
            self.inner.marginal_mul(model, pinning, v, eps)
        })
    }

    fn support_mul(
        &self,
        model: &GibbsModel,
        pinning: &PartialConfig,
        v: NodeId,
        eps: f64,
    ) -> Vec<bool> {
        self.timed(Kind::Support, pinning, v, eps, || {
            self.inner.support_mul(model, pinning, v, eps)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lds_core::jvv;
    use lds_gibbs::models::hardcore;
    use lds_gibbs::Value;
    use lds_graph::generators;
    use lds_localnet::{Instance, Network};
    use lds_runtime::ThreadPool;

    fn setup() -> (GibbsModel, TwoSpinSawOracle, RecordingOracle) {
        let g = generators::torus(4, 4);
        let rate = lds_core::regime::hardcore(&g, 1.0).unwrap().rate;
        let inner = engine_saw_oracle(1.0, rate);
        let wrapped = RecordingOracle::new(inner.clone(), Arc::new(Tracer::new()));
        (hardcore::model(&g, 1.0), inner, wrapped)
    }

    #[test]
    fn every_method_is_forwarded_to_the_saw_oracle() {
        let (model, inner, wrapped) = setup();
        assert_eq!(wrapped.name(), inner.name());
        assert_eq!(
            wrapped.radius_mul(&model, 0.001),
            inner.radius_mul(&model, 0.001)
        );
        let mut tau = PartialConfig::empty(16);
        tau.pin(NodeId(1), Value(1));
        tau.pin(NodeId(6), Value(0));
        for v in [0u32, 2, 5, 6, 10] {
            let v = NodeId(v);
            let m = wrapped.marginal_mul(&model, &tau, v, 0.001);
            assert_eq!(m, inner.marginal_mul(&model, &tau, v, 0.001));
            let s = wrapped.support_mul(&model, &tau, v, 0.001);
            assert_eq!(s, inner.support_mul(&model, &tau, v, 0.001));
        }
        // a support query must reach the SAW override, not the trait's
        // default (which would show up here as a marginal query)
        let q = wrapped.recorder().queries();
        let kinds: Vec<Kind> = q.iter().map(|q| q.kind).collect();
        assert_eq!(kinds.len(), 10);
        assert_eq!(kinds.iter().filter(|&&k| k == Kind::Support).count(), 5);
        assert_eq!(kinds.iter().filter(|&&k| k == Kind::Marginal).count(), 5);
    }

    #[test]
    fn wrapped_exact_sampler_matches_the_bare_oracle_bit_for_bit() {
        let (model, inner, wrapped) = setup();
        let instance = Arc::new(Instance::new(model, PartialConfig::empty(16)).unwrap());
        let pool = ThreadPool::new(1);
        for seed in [1u64, 2, 3] {
            let net = Network::from_shared(Arc::clone(&instance), seed);
            let (a, _, sa, _) = jvv::sample_exact_local_with(&net, &wrapped, 0.001, 0, &pool);
            let (b, _, sb, _) = jvv::sample_exact_local_with(&net, &inner, 0.001, 0, &pool);
            assert_eq!(a.outputs, b.outputs);
            assert_eq!(a.failures, b.failures);
            assert_eq!(
                sa.acceptance_product.to_bits(),
                sb.acceptance_product.to_bits()
            );
        }
        let q = wrapped.recorder().queries();
        assert!(q.iter().any(|q| q.kind == Kind::Support));
        assert!(q.iter().any(|q| q.kind == Kind::Marginal));
    }

    #[test]
    fn repeats_are_counted_within_a_run_only() {
        let (model, _, wrapped) = setup();
        let tau = PartialConfig::empty(16);
        let rec = Arc::clone(wrapped.recorder());
        rec.begin_run(1, 0);
        wrapped.marginal_mul(&model, &tau, NodeId(3), 0.01);
        wrapped.marginal_mul(&model, &tau, NodeId(3), 0.01);
        wrapped.support_mul(&model, &tau, NodeId(3), 0.01);
        rec.begin_run(2, 0);
        wrapped.marginal_mul(&model, &tau, NodeId(3), 0.01);
        let repeats: Vec<bool> = rec.queries().iter().map(|q| q.repeat).collect();
        assert_eq!(repeats, vec![false, true, false, false]);
    }
}
