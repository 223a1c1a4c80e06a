//! Cluster-scale orchestration: a fleet of [`Machine`]s behind a
//! two-level orchestrator.
//!
//! The paper evaluates one 36-core server; microservices run on
//! fleets. This module composes N per-node machines under a single
//! *front-end dispatcher* that places every arriving request on a node
//! (a [`BalancerKind`] strategy), models the inter-node network
//! ([`NodeLink`]), and keep-alive-polls node health so work is
//! relocated away from fault-suspended nodes — the cluster-level
//! mirror of the per-machine sibling re-dispatch in
//! [`crate::faults`].
//!
//! # One shared kernel, not N simulations
//!
//! The whole fleet is ONE discrete-event [`Model`]: a
//! [`ClusterModel`](self) whose event type wraps each node's
//! [`Ev`] with its node id, plus a keep-alive tick. Every node event
//! flows through the one shared outer [`EventQueue`], so cross-node
//! causality (dispatch, relocation, health) needs no clock
//! synchronization protocol — there is only one clock.
//!
//! Each node keeps a private *scratch* [`EventQueue`] whose only job
//! is to satisfy [`Machine::handle`]'s signature: before a node event
//! is forwarded, the scratch clock is [`sync_to`] the outer clock;
//! after the handler returns, everything it scheduled is
//! [`drain_pending`]ed into the outer queue, tagged with the node id.
//! Within one handler call the drain yields events in exactly the
//! `(time, insertion order)` sequence the machine's own kernel would
//! have used, and re-sequencing a sorted batch into the outer queue
//! preserves that order; across calls, batches stay contiguous. A
//! one-node cluster over a [`NodeLink::zero`] link is therefore
//! **byte-identical** to a bare [`Machine`] run — the golden
//! differential tests pin this.
//!
//! # Admission chain
//!
//! The front end holds the global arrival list and dispatches lazily:
//! arrival *k+1* is placed only when arrival *k* is delivered. Each
//! dispatch consults the balancer over all nodes, walks to the next
//! healthy node when the preferred one is suspended (counted as a
//! relocation, paying [`NodeLink::relocation_extra_hops`]), pushes the
//! payload onto the chosen machine with
//! `Machine::push_external_arrival`, and schedules its
//! [`Ev::Arrive`] at `max(arrival.at + link delay, now)` — FIFO
//! dispatch-queue semantics, so relocated arrivals paying extra hops
//! never time-travel.
//!
//! # Determinism
//!
//! Per-node machines are seeded `seed + node_id`; the dispatcher's own
//! randomness (weighted-random placement) draws from a private stream
//! salted off the run seed, so placement decisions never perturb any
//! node's event stream and runs are byte-deterministic at any host
//! thread count. See `docs/CLUSTER.md`.
//!
//! [`sync_to`]: EventQueue::sync_to
//! [`drain_pending`]: EventQueue::drain_pending

mod balancer;
mod report;
mod snapshot;

pub use balancer::BalancerKind;
use balancer::PlacementView;
pub use report::{ClusterReport, HealthReport};
pub use snapshot::{ClusterRun, CLUSTER_SNAPSHOT_MAGIC};

use accelflow_accel::timing::ServiceTimeModel;
use accelflow_sim::engine::{EventQueue, Model};
use accelflow_sim::rng::SimRng;
use accelflow_sim::time::{SimDuration, SimTime};
use accelflow_trace::templates::TraceLibrary;

use crate::arrivals::{poisson_arrivals, Arrival};
use crate::machine::{Ev, Machine, MachineConfig};
use crate::request::ServiceSpec;

/// Salt for the dispatcher's private RNG stream — distinct from the
/// machine workload salt so cluster placement draws can never collide
/// with any node's event randomness.
const DISPATCH_RNG_SALT: u64 = 0xBA1A_4CE5;

/// The inter-node network: per-hop switch latency plus payload
/// serialization, the two first-order terms of a datacenter fabric.
#[derive(Clone, Copy, Debug)]
pub struct NodeLink {
    /// One-way latency per switch hop.
    pub hop_latency: SimDuration,
    /// Serialization cost per payload byte (80 ps/B ≈ 100 Gb/s).
    pub ps_per_byte: u64,
    /// Bytes on the wire per dispatched request (envelope + payload).
    pub request_bytes: u64,
    /// Extra hops a relocated arrival pays on top of the direct path
    /// (the detour through the dispatcher's fallback route).
    pub relocation_extra_hops: u32,
}

impl NodeLink {
    /// A free network: zero latency, zero serialization. A one-node
    /// cluster over this link is byte-identical to a bare machine.
    pub fn zero() -> Self {
        NodeLink {
            hop_latency: SimDuration::ZERO,
            ps_per_byte: 0,
            request_bytes: 0,
            relocation_extra_hops: 0,
        }
    }

    /// Typical intra-datacenter numbers: ~2 µs per switch hop,
    /// 100 Gb/s links (80 ps/byte), a 1 KiB request envelope, and a
    /// two-hop detour for relocated work.
    pub fn datacenter() -> Self {
        NodeLink {
            hop_latency: SimDuration::from_micros(2),
            ps_per_byte: 80,
            request_bytes: 1024,
            relocation_extra_hops: 2,
        }
    }

    /// Wire delay for a dispatch crossing `hops` switch hops.
    pub fn delay(&self, hops: u32) -> SimDuration {
        SimDuration::from_picos(
            self.hop_latency.as_picos() * hops as u64 + self.ps_per_byte * self.request_bytes,
        )
    }
}

/// Configuration of one cluster run.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Fleet size (≥ 1).
    pub nodes: usize,
    /// Per-node machine configuration (every node is identical
    /// hardware; seeds differ, so fault draws and service times
    /// diverge per node).
    pub node: MachineConfig,
    /// The inter-node network model.
    pub link: NodeLink,
    /// Placement strategy for the front-end dispatcher.
    pub balancer: BalancerKind,
    /// Dispatch weight per node for weighted-random placement. Empty
    /// means uniform; otherwise the length must equal `nodes`, every
    /// weight must be finite and non-negative, and at least one must be
    /// positive (checked when the run starts).
    pub weights: Vec<f64>,
    /// Keep-alive health-poll period; `None` disables polling (nodes
    /// are never suspended and no relocation happens).
    pub keepalive: Option<SimDuration>,
    /// A node is suspended while at least this many of its accelerator
    /// stations sit inside fault-stall windows (clamped to ≥ 1).
    pub suspend_dark_stations: usize,
}

impl ClusterConfig {
    /// A cluster of `nodes` identical machines over a datacenter link,
    /// round-robin placement, keep-alive polling off.
    pub fn new(nodes: usize, node: MachineConfig) -> Self {
        ClusterConfig {
            nodes,
            node,
            link: NodeLink::datacenter(),
            balancer: BalancerKind::RoundRobin,
            weights: Vec::new(),
            keepalive: None,
            suspend_dark_stations: 1,
        }
    }

    /// The per-node dispatch weights a run places with: uniform when
    /// [`ClusterConfig::weights`] is empty, else a validated copy.
    ///
    /// # Panics
    ///
    /// Panics when the weights are non-empty and their length differs
    /// from `nodes`, when any weight is negative or non-finite, or when
    /// they are all zero — weighted-random placement could not draw a
    /// node from them.
    fn dispatch_weights(&self) -> Vec<f64> {
        if self.weights.is_empty() {
            return vec![1.0; self.nodes];
        }
        assert_eq!(
            self.weights.len(),
            self.nodes,
            "ClusterConfig::weights must match the node count"
        );
        assert!(
            self.weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "ClusterConfig::weights must be finite and non-negative: {:?}",
            self.weights
        );
        assert!(
            self.weights.iter().any(|&w| w > 0.0),
            "ClusterConfig::weights must not all be zero: {:?}",
            self.weights
        );
        self.weights.clone()
    }
}

/// Cluster events: a node's machine event tagged with its node id, or
/// the fleet-wide keep-alive tick. Module-private — the outer kernel's
/// vocabulary is an implementation detail.
#[derive(Clone, Debug)]
enum CEv {
    /// Deliver a machine event to node `.0`.
    Node(u16, Ev),
    /// Poll every node's health and re-arm the next tick.
    KeepAlive,
}

/// One node: its machine plus the persistent scratch queue adapting
/// [`Machine::handle`] to the shared outer kernel.
struct NodeSlot {
    machine: Machine,
    scratch: EventQueue<Ev>,
    /// Set by the keep-alive poll while the node looks dark; the
    /// dispatcher routes around suspended nodes.
    suspended: bool,
}

/// The fleet as one discrete-event model. See the module docs.
struct ClusterModel<F> {
    nodes: Vec<NodeSlot>,
    link: NodeLink,
    balancer: BalancerKind,
    weights: Vec<f64>,
    rr_cursor: usize,
    rng: SimRng,
    /// Undispatched arrivals, reversed so the admission chain pops the
    /// earliest next (same discipline as the machine's own list).
    pending: Vec<Arrival>,
    keepalive: Option<SimDuration>,
    suspend_dark_stations: usize,
    health: HealthReport,
    /// Reused buffer for the per-decision live-load snapshot.
    live_scratch: Vec<u64>,
    observe: F,
}

impl<F> ClusterModel<F> {
    /// Places the next pending arrival: consult the balancer, route
    /// around suspended nodes, push the payload onto the target
    /// machine. Returns the event for the caller to schedule into the
    /// outer queue — `None` once the arrival list is exhausted.
    fn dispatch_next(&mut self, now: SimTime) -> Option<(SimTime, u16, u32)> {
        let arrival = self.pending.pop()?;
        self.live_scratch.clear();
        self.live_scratch
            .extend(self.nodes.iter().map(|n| n.machine.live_requests()));
        let mut view = PlacementView {
            live: &self.live_scratch,
            weights: &self.weights,
            rr_cursor: &mut self.rr_cursor,
            rng: &mut self.rng,
        };
        let preferred = self.balancer.pick(&mut view, &arrival);
        debug_assert!(preferred < self.nodes.len(), "balancer picked {preferred}");
        let (target, hops) = if self.nodes[preferred].suspended {
            // Walk forward from the preferred node to the next healthy
            // one; if the whole fleet is dark, the preferred node keeps
            // the work (it will queue behind the stall).
            let healthy = (1..self.nodes.len())
                .map(|d| (preferred + d) % self.nodes.len())
                .find(|&i| !self.nodes[i].suspended);
            match healthy {
                Some(t) => {
                    self.health.relocations += 1;
                    (t, 1 + self.link.relocation_extra_hops)
                }
                None => (preferred, 1),
            }
        } else {
            (preferred, 1)
        };
        // FIFO dispatch-queue semantics: the wire delay is paid from
        // the arrival instant, but admission never precedes the
        // dispatch decision itself.
        let at = (arrival.at + self.link.delay(hops)).max(now);
        self.health.dispatched[target] += 1;
        let local = self.nodes[target].machine.push_external_arrival(arrival);
        Some((at, target as u16, local))
    }

    /// Keep-alive round: re-arm the next tick, then poll every node's
    /// dark-station count against the suspension threshold.
    fn on_keepalive(&mut self, now: SimTime, outer: &mut EventQueue<CEv>) {
        self.health.polls += 1;
        let tick = self
            .keepalive
            .expect("keep-alive tick fired with polling disabled");
        outer.schedule_at(now + tick, CEv::KeepAlive);
        let threshold = self.suspend_dark_stations.max(1);
        for node in &mut self.nodes {
            let unhealthy = node.machine.dark_stations(now) >= threshold;
            if unhealthy != node.suspended {
                node.suspended = unhealthy;
                if unhealthy {
                    self.health.suspensions += 1;
                } else {
                    self.health.recoveries += 1;
                }
            }
        }
    }
}

impl<F: FnMut(SimTime, u16, &Ev)> Model for ClusterModel<F> {
    type Event = CEv;

    fn handle(&mut self, now: SimTime, event: CEv, outer: &mut EventQueue<CEv>) {
        match event {
            CEv::Node(i, ev) => {
                (self.observe)(now, i, &ev);
                let is_arrive = matches!(ev, Ev::Arrive(_));
                let node = &mut self.nodes[i as usize];
                node.scratch.sync_to(now);
                node.machine.handle(now, ev, &mut node.scratch);
                // Chain the global admission sequence BEFORE draining:
                // a bare machine's on_arrive schedules the next Arrive
                // first and its own follow-ons after, and the
                // differential tests pin that exact sequence.
                if is_arrive {
                    if let Some((at, target, local)) = self.dispatch_next(now) {
                        outer.schedule_at(at, CEv::Node(target, Ev::Arrive(local)));
                    }
                }
                let node = &mut self.nodes[i as usize];
                node.scratch
                    .drain_pending(|at, ev| outer.schedule_at(at, CEv::Node(i, ev)));
            }
            CEv::KeepAlive => self.on_keepalive(now, outer),
        }
    }
}

/// Entry points for cluster runs (the fleet-level analog of
/// [`Machine::run_workload`] and friends).
pub struct Cluster;

impl Cluster {
    /// Convenience runner: one Poisson arrival stream at
    /// `rps_per_service` for each service, placed across the fleet.
    ///
    /// ```
    /// use accelflow_core::cluster::{Cluster, ClusterConfig};
    /// use accelflow_core::machine::MachineConfig;
    /// use accelflow_core::policy::Policy;
    /// use accelflow_core::request::{CallSpec, ServiceSpec, StageSpec};
    /// use accelflow_sim::time::SimDuration;
    /// use accelflow_trace::templates::TemplateId;
    ///
    /// let svc = ServiceSpec::new(
    ///     "Ping",
    ///     vec![StageSpec::Call(CallSpec::new(TemplateId::T1))],
    /// );
    /// let mut node = MachineConfig::new(Policy::AccelFlow);
    /// node.warmup = SimDuration::from_millis(1);
    /// let cfg = ClusterConfig::new(2, node);
    /// let report =
    ///     Cluster::run_workload(&cfg, &[svc], 500.0, SimDuration::from_millis(5), 7);
    /// assert!(report.offered() > 0);
    /// assert!(report.completion_ratio() > 0.99);
    /// ```
    pub fn run_workload(
        cfg: &ClusterConfig,
        services: &[ServiceSpec],
        rps_per_service: f64,
        duration: SimDuration,
        seed: u64,
    ) -> ClusterReport {
        let timing = {
            let mut t = ServiceTimeModel::calibrated(cfg.node.arch.core_clock);
            t.set_speedup_scale(cfg.node.speedup_scale);
            t
        };
        let lib = TraceLibrary::standard();
        let arrivals = poisson_arrivals(services, &lib, &timing, rps_per_service, duration, seed);
        Self::run_arrivals(cfg, services, arrivals, duration, seed)
    }

    /// Runs a pre-generated arrival list through the fleet.
    pub fn run_arrivals(
        cfg: &ClusterConfig,
        services: &[ServiceSpec],
        arrivals: Vec<Arrival>,
        duration: SimDuration,
        seed: u64,
    ) -> ClusterReport {
        Self::run_arrivals_observed(cfg, services, arrivals, duration, seed, |_, _, _| {})
    }

    /// [`Cluster::run_arrivals`] with a per-node event observer:
    /// `observe(now, node, event)` fires for every delivered node
    /// event, in delivery order, before the node handles it. Read-only
    /// — this anchors the cluster↔machine differential tests the same
    /// way [`Machine::run_arrivals_observed`] anchors the golden
    /// snapshots.
    ///
    /// One-shot wrapper over [`ClusterRun`]; hold the run open instead
    /// when you need mid-run checkpoints.
    ///
    /// # Panics
    ///
    /// Panics when `cfg.nodes` is zero or `cfg.weights` is invalid
    /// (see [`ClusterConfig::weights`]).
    pub fn run_arrivals_observed(
        cfg: &ClusterConfig,
        services: &[ServiceSpec],
        arrivals: Vec<Arrival>,
        duration: SimDuration,
        seed: u64,
        observe: impl FnMut(SimTime, u16, &Ev),
    ) -> ClusterReport {
        ClusterRun::start(cfg, services, arrivals, duration, seed, observe).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;
    use crate::request::{CallSpec, StageSpec};
    use accelflow_trace::templates::TemplateId;

    fn ping() -> ServiceSpec {
        ServiceSpec::new("Ping", vec![StageSpec::Call(CallSpec::new(TemplateId::T1))])
    }

    fn node_cfg() -> MachineConfig {
        let mut cfg = MachineConfig::new(Policy::AccelFlow);
        cfg.warmup = SimDuration::from_millis(1);
        cfg.audit = true;
        cfg
    }

    #[test]
    fn link_delay_components() {
        let zero = NodeLink::zero();
        assert_eq!(zero.delay(1), SimDuration::ZERO);
        assert_eq!(zero.delay(4), SimDuration::ZERO);
        let dc = NodeLink::datacenter();
        let one = dc.delay(1);
        let three = dc.delay(3);
        // Serialization is paid once; hops scale linearly.
        assert_eq!(
            three.as_picos() - one.as_picos(),
            2 * dc.hop_latency.as_picos()
        );
        assert!(one > dc.hop_latency, "serialization term must be non-zero");
    }

    #[test]
    fn fleet_completes_offered_load() {
        let cfg = ClusterConfig::new(3, node_cfg());
        let report = Cluster::run_workload(&cfg, &[ping()], 600.0, SimDuration::from_millis(5), 7);
        assert!(report.offered() > 0);
        assert!(report.completion_ratio() > 0.99, "{report:?}");
        assert_eq!(report.clamped, 0, "cluster layer must never time-travel");
        // Round-robin spreads a uniform stream near-evenly.
        assert!(report.dispatch_imbalance() < 1.5);
        // Every dispatched arrival is accounted to some node.
        let dispatched: u64 = report.health.dispatched.iter().sum();
        let admitted: u64 = report
            .per_node
            .iter()
            .flat_map(|r| &r.per_service)
            .map(|s| s.offered)
            .sum();
        assert!(dispatched >= admitted, "{dispatched} < {admitted}");
        for node in &report.per_node {
            assert!(node.audit.is_clean(), "{:?}", node.audit);
        }
    }

    #[test]
    fn every_balancer_runs_and_dispatches_everything() {
        for kind in BalancerKind::ALL {
            let mut cfg = ClusterConfig::new(4, node_cfg());
            cfg.balancer = kind;
            let report =
                Cluster::run_workload(&cfg, &[ping()], 400.0, SimDuration::from_millis(4), 9);
            assert!(report.completed() > 0, "{kind} completed nothing");
            assert_eq!(report.health.relocations, 0, "no faults, no relocation");
        }
    }

    #[test]
    fn keepalive_polls_at_the_configured_period() {
        let mut cfg = ClusterConfig::new(2, node_cfg());
        cfg.keepalive = Some(SimDuration::from_micros(500));
        let report = Cluster::run_workload(&cfg, &[ping()], 200.0, SimDuration::from_millis(4), 5);
        // 4 ms window + 30 ms drain at 0.5 ms/tick: the poll count lands
        // in the mid-tens; pin the order of magnitude, not the exact
        // count (the final tick races the drain deadline).
        assert!(
            (30..=80).contains(&report.health.polls),
            "polls = {}",
            report.health.polls
        );
        assert_eq!(report.health.suspensions, 0, "no faults, no suspensions");
    }

    #[test]
    fn per_node_control_arms_and_aggregates() {
        let mut node = node_cfg();
        node.instances_per_accel = 4;
        node.control.rate_limit = Some(crate::control::RateLimit {
            tokens_per_sec: 20_000.0,
            burst: 4.0,
        });
        node.control.autoscaler = Some(crate::control::AutoscalerConfig::static_at(2));
        let cfg = ClusterConfig::new(3, node);
        let report =
            Cluster::run_workload(&cfg, &[ping()], 150_000.0, SimDuration::from_millis(4), 21);
        let control = report.control();
        // Each node's ingress throttles independently...
        assert!(report.per_node.iter().all(|n| n.control.rate_limited > 0));
        // ...and the fleet view sums them.
        assert_eq!(
            control.rate_limited,
            report.per_node.iter().map(|n| n.control.rate_limited).sum()
        );
        assert!(control.admitted > 0);
        // The per-node tick chains ran (armed through the outer kernel).
        assert!(control.scaler_samples > 0, "{control:?}");
        assert!(control.scaler_dark_time > SimDuration::ZERO);
        for node in &report.per_node {
            assert!(node.audit.is_clean(), "{:?}", node.audit);
        }
    }

    #[test]
    #[should_panic(expected = "weights must match the node count")]
    fn mismatched_weights_are_rejected() {
        let mut cfg = ClusterConfig::new(3, node_cfg());
        cfg.weights = vec![1.0, 2.0];
        let _ = Cluster::run_workload(&cfg, &[ping()], 100.0, SimDuration::from_millis(2), 1);
    }

    fn run_with_weights(weights: Vec<f64>) {
        let mut cfg = ClusterConfig::new(3, node_cfg());
        cfg.balancer = BalancerKind::WeightedRandom;
        cfg.weights = weights;
        let _ = Cluster::run_workload(&cfg, &[ping()], 100.0, SimDuration::from_millis(2), 1);
    }

    #[test]
    #[should_panic(expected = "must not all be zero")]
    fn all_zero_weights_are_rejected() {
        run_with_weights(vec![0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "must be finite and non-negative")]
    fn negative_weights_are_rejected() {
        run_with_weights(vec![3.0, -1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "must be finite and non-negative")]
    fn infinite_weights_are_rejected() {
        run_with_weights(vec![1.0, f64::INFINITY, 1.0]);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_is_rejected() {
        let cfg = ClusterConfig::new(0, node_cfg());
        let _ = Cluster::run_workload(&cfg, &[ping()], 100.0, SimDuration::from_millis(2), 1);
    }
}
