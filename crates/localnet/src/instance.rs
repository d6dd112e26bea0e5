use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

use lds_gibbs::{GibbsModel, PartialConfig};
use lds_graph::{power, traversal, Graph};

/// Error returned when constructing an [`Instance`] whose pinning is not
/// even locally feasible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InfeasiblePinning;

impl fmt::Display for InfeasiblePinning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pinning violates a fully pinned constraint")
    }
}

impl std::error::Error for InfeasiblePinning {}

/// A distributed sampling/counting instance `(G, x, τ)` (paper,
/// Definition 2.2): a joint distribution `μ = μ_{(G,x)}` given as a
/// [`GibbsModel`], together with a feasible pinning `τ ∈ Σ^Λ`. The target
/// distribution is the conditional `μ^τ`.
///
/// # Example
///
/// ```
/// use lds_gibbs::models::hardcore;
/// use lds_gibbs::{PartialConfig, Value};
/// use lds_graph::{generators, NodeId};
/// use lds_localnet::Instance;
///
/// let g = generators::path(3);
/// let mut tau = PartialConfig::empty(3);
/// tau.pin(NodeId(0), Value(1));
/// let inst = Instance::new(hardcore::model(&g, 1.0), tau).unwrap();
/// assert_eq!(inst.pinning().pinned_count(), 1);
/// ```
///
/// An instance also carries a shared cache of seed-independent facts
/// about its carrier graph (its diameter and the power graphs `G^k`
/// that chromatic schedules decompose). The cache fills on first use,
/// and clones and [`Instance::with_pins`] children share it, since they
/// all have the same graph.
#[derive(Clone, Debug)]
pub struct Instance {
    model: GibbsModel,
    pinning: PartialConfig,
    topology: Arc<TopologyCache>,
}

/// Lazily filled topology of a carrier graph. Holds one power graph per
/// distinct exponent requested, and nothing before the first request.
#[derive(Debug, Default)]
struct TopologyCache {
    diameter: OnceLock<usize>,
    powers: Mutex<HashMap<usize, Arc<Graph>>>,
}

impl Instance {
    /// Creates an instance, verifying the pinning is locally feasible.
    ///
    /// Full (global) feasibility is exponential to verify; the paper
    /// assumes instances come with feasible `τ`. For locally admissible
    /// models (Definition 2.5) local feasibility *is* feasibility, which
    /// covers every model family shipped in [`lds_gibbs::models`] under
    /// their standard parameter regimes.
    ///
    /// # Errors
    ///
    /// Returns [`InfeasiblePinning`] if a fully pinned factor evaluates to
    /// zero.
    ///
    /// # Panics
    ///
    /// Panics if the pinning length differs from the model's node count.
    pub fn new(model: GibbsModel, pinning: PartialConfig) -> Result<Self, InfeasiblePinning> {
        assert_eq!(
            pinning.len(),
            model.node_count(),
            "pinning must cover the node set"
        );
        if !model.is_locally_feasible(&pinning) {
            return Err(InfeasiblePinning);
        }
        Ok(Instance {
            model,
            pinning,
            topology: Arc::default(),
        })
    }

    /// Creates an instance with the empty pinning (always feasible).
    pub fn unconditioned(model: GibbsModel) -> Self {
        let n = model.node_count();
        Instance {
            model,
            pinning: PartialConfig::empty(n),
            topology: Arc::default(),
        }
    }

    /// The joint distribution `μ_{(G,x)}`.
    pub fn model(&self) -> &GibbsModel {
        &self.model
    }

    /// The pinning `τ`.
    pub fn pinning(&self) -> &PartialConfig {
        &self.pinning
    }

    /// Number of network nodes `n`.
    pub fn node_count(&self) -> usize {
        self.model.node_count()
    }

    /// Returns a new instance with extra pins merged in (the
    /// self-reduction `τ ∧ σ`); no feasibility re-check is performed.
    pub fn with_pins(&self, extra: &PartialConfig) -> Instance {
        let mut pinning = self.pinning.clone();
        pinning.extend_with(extra);
        Instance {
            model: self.model.clone(),
            pinning,
            topology: Arc::clone(&self.topology),
        }
    }

    /// The diameter of the carrier graph, computed on first use.
    pub fn diameter(&self) -> usize {
        *self
            .topology
            .diameter
            .get_or_init(|| traversal::diameter(self.model.graph()) as usize)
    }

    /// The power graph `G^k` of the carrier graph, computed on the first
    /// request for `k` and shared by every later one.
    pub fn power_graph(&self, k: usize) -> Arc<Graph> {
        let mut powers = self.topology.powers.lock().expect("topology cache lock");
        Arc::clone(
            powers
                .entry(k)
                .or_insert_with(|| Arc::new(power::power(self.model.graph(), k))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lds_gibbs::models::hardcore;
    use lds_gibbs::Value;
    use lds_graph::{generators, NodeId};

    #[test]
    fn accepts_feasible_pinning() {
        let g = generators::path(3);
        let mut tau = PartialConfig::empty(3);
        tau.pin(NodeId(0), Value(1));
        tau.pin(NodeId(2), Value(1));
        assert!(Instance::new(hardcore::model(&g, 1.0), tau).is_ok());
    }

    #[test]
    fn rejects_locally_infeasible_pinning() {
        let g = generators::path(2);
        let mut tau = PartialConfig::empty(2);
        tau.pin(NodeId(0), Value(1));
        tau.pin(NodeId(1), Value(1));
        let err = Instance::new(hardcore::model(&g, 1.0), tau).unwrap_err();
        assert_eq!(err, InfeasiblePinning);
        assert!(err.to_string().contains("constraint"));
    }

    #[test]
    fn with_pins_merges() {
        let g = generators::path(3);
        let inst = Instance::unconditioned(hardcore::model(&g, 1.0));
        let mut extra = PartialConfig::empty(3);
        extra.pin(NodeId(1), Value(0));
        let inst2 = inst.with_pins(&extra);
        assert_eq!(inst2.pinning().pinned_count(), 1);
        assert_eq!(inst.pinning().pinned_count(), 0);
    }

    #[test]
    fn topology_matches_the_graph_and_is_shared_by_clones() {
        let g = generators::torus(4, 5);
        let inst = Instance::unconditioned(hardcore::model(&g, 1.0));
        assert_eq!(inst.diameter(), traversal::diameter(&g) as usize);
        for k in [1, 2, 3] {
            let h = inst.power_graph(k);
            assert!(*h == power::power(&g, k), "G^{k}");
            assert!(Arc::ptr_eq(&h, &inst.clone().power_graph(k)));
        }
    }
}
