//! Cluster-level placement strategies.
//!
//! Every fleet design the cluster evaluates differs only in *where the
//! front-end dispatcher sends the next request*, so that seam is one
//! method, [`BalancerKind::pick`], consulted once per dispatched
//! arrival — the same shape as [`Policy`](crate::policy::Policy) one
//! level down. All mutable placement state (the round-robin cursor,
//! the dispatcher's private RNG stream) lives in the cluster and is
//! lent to the pick through a [`PlacementView`] for the duration of
//! one decision.
//!
//! # Contract
//!
//! * [`BalancerKind::pick`] is consulted with *every* node visible,
//!   healthy or not; health-based relocation is the cluster's job
//!   (uniform across strategies), so a strategy stays a pure
//!   preference function.
//! * Decisions must be deterministic in `(view, arrival)`: the only
//!   randomness allowed is the view's seeded RNG stream, which is
//!   isolated from every workload stream (same discipline as fault
//!   injection), so placement never perturbs per-node event streams.

use accelflow_sim::rng::SimRng;

use crate::arrivals::Arrival;

/// The placement strategies the cluster front-end can run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BalancerKind {
    /// Rotate through nodes in index order.
    RoundRobin,
    /// Draw a node from the configured weight distribution.
    WeightedRandom,
    /// Send to the node with the fewest in-flight requests.
    LeastLoaded,
    /// Pin each service to a home node (keeps that node's accelerator
    /// scratchpads and TLBs warm for the service's traces).
    LocalityAware,
}

impl BalancerKind {
    /// Every strategy, in sweep order.
    pub const ALL: [BalancerKind; 4] = [
        BalancerKind::RoundRobin,
        BalancerKind::WeightedRandom,
        BalancerKind::LeastLoaded,
        BalancerKind::LocalityAware,
    ];

    /// Short stable identifier (tables, CI output).
    pub fn name(self) -> &'static str {
        match self {
            BalancerKind::RoundRobin => "round_robin",
            BalancerKind::WeightedRandom => "weighted_random",
            BalancerKind::LeastLoaded => "least_loaded",
            BalancerKind::LocalityAware => "locality",
        }
    }

    /// Preferred node for `arrival`: an index below `view.nodes()`.
    /// Ties and health are resolved by the cluster.
    pub(crate) fn pick(self, view: &mut PlacementView<'_>, arrival: &Arrival) -> usize {
        match self {
            BalancerKind::RoundRobin => {
                *view.rr_cursor = (*view.rr_cursor + 1) % view.nodes();
                *view.rr_cursor
            }
            BalancerKind::WeightedRandom => view.rng.weighted_index(view.weights),
            // min_by_key keeps the first minimum: ties break to the
            // lowest node index, deterministically.
            BalancerKind::LeastLoaded => view
                .live
                .iter()
                .enumerate()
                .min_by_key(|&(_, &live)| live)
                .map(|(i, _)| i)
                .expect("cluster has at least one node"),
            // Pin each service to a home node.
            BalancerKind::LocalityAware => arrival.service.0 % view.nodes(),
        }
    }
}

impl std::fmt::Display for BalancerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The cluster state a strategy may consult for one placement
/// decision. Borrowed fields stay owned by the cluster model; a
/// strategy holds nothing across decisions.
pub(crate) struct PlacementView<'a> {
    /// In-flight request count per node, indexed by node id.
    pub(crate) live: &'a [u64],
    /// Dispatch weight per node (same length as `live`; uniform when
    /// the config left weights empty).
    pub(crate) weights: &'a [f64],
    /// Round-robin cursor: index of the most recently picked node.
    pub(crate) rr_cursor: &'a mut usize,
    /// The dispatcher's private seeded stream (never shared with
    /// workload or fault RNGs).
    pub(crate) rng: &'a mut SimRng,
}

impl PlacementView<'_> {
    /// Number of nodes in the cluster (never zero).
    pub(crate) fn nodes(&self) -> usize {
        self.live.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Program, ServiceId};
    use accelflow_accel::queue::TenantId;
    use accelflow_sim::time::SimTime;

    fn arrival(service: usize) -> Arrival {
        Arrival {
            at: SimTime::ZERO,
            service: ServiceId(service),
            tenant: TenantId(0),
            program: Program {
                steps: Vec::new(),
                slo_slack: None,
                priority: 0,
            },
        }
    }

    fn view<'a>(
        live: &'a [u64],
        weights: &'a [f64],
        cursor: &'a mut usize,
        rng: &'a mut SimRng,
    ) -> PlacementView<'a> {
        PlacementView {
            live,
            weights,
            rr_cursor: cursor,
            rng,
        }
    }

    #[test]
    fn round_robin_cycles_all_nodes() {
        let live = [0u64; 3];
        let weights = [1.0; 3];
        let (mut cursor, mut rng) = (0usize, SimRng::seed(1));
        let picks: Vec<usize> = (0..6)
            .map(|_| {
                BalancerKind::RoundRobin.pick(
                    &mut view(&live, &weights, &mut cursor, &mut rng),
                    &arrival(0),
                )
            })
            .collect();
        assert_eq!(picks, vec![1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn least_loaded_picks_minimum_and_breaks_ties_low() {
        let weights = [1.0; 4];
        let (mut cursor, mut rng) = (0usize, SimRng::seed(1));
        let live = [5u64, 2, 7, 2];
        let pick = BalancerKind::LeastLoaded.pick(
            &mut view(&live, &weights, &mut cursor, &mut rng),
            &arrival(0),
        );
        assert_eq!(pick, 1, "first minimum wins the tie");
    }

    #[test]
    fn locality_pins_services_to_home_nodes() {
        let live = [0u64; 3];
        let weights = [1.0; 3];
        let (mut cursor, mut rng) = (0usize, SimRng::seed(1));
        for svc in 0..9 {
            let pick = BalancerKind::LocalityAware.pick(
                &mut view(&live, &weights, &mut cursor, &mut rng),
                &arrival(svc),
            );
            assert_eq!(pick, svc % 3, "service {svc} must stay on its home node");
        }
    }

    #[test]
    fn weighted_random_respects_zero_weights_and_seed() {
        let live = [0u64; 3];
        let weights = [1.0, 0.0, 3.0];
        let (mut cursor, mut rng) = (0usize, SimRng::seed(7));
        let mut counts = [0u32; 3];
        for _ in 0..2000 {
            counts[BalancerKind::WeightedRandom.pick(
                &mut view(&live, &weights, &mut cursor, &mut rng),
                &arrival(0),
            )] += 1;
        }
        assert_eq!(counts[1], 0, "zero-weight node must never be picked");
        assert!(
            counts[2] > counts[0] * 2,
            "weight-3 node must dominate: {counts:?}"
        );
        // Same seed, same picks: the stream is deterministic.
        let (mut c2, mut rng2) = (0usize, SimRng::seed(7));
        let first = BalancerKind::WeightedRandom
            .pick(&mut view(&live, &weights, &mut c2, &mut rng2), &arrival(0));
        let (mut c3, mut rng3) = (0usize, SimRng::seed(7));
        assert_eq!(
            first,
            BalancerKind::WeightedRandom
                .pick(&mut view(&live, &weights, &mut c3, &mut rng3), &arrival(0))
        );
    }
}
