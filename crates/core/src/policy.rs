//! The orchestration policies under evaluation (paper §III, §VI).
//!
//! Five server designs orchestrate the same nine accelerators (plus a
//! no-accelerator baseline and an idealized bound), and the Fig 13
//! ablation isolates AccelFlow's techniques one at a time:
//!
//! | policy | orchestration |
//! |---|---|
//! | `NonAcc` | every tax op runs on a CPU core |
//! | `CpuCentric` | a core invokes one accelerator at a time; completion interrupts the core |
//! | `Relief` | centralized HW manager, one shared queue for all 72 PEs |
//! | `ReliefPerTypeQ` | Fig 13 step 1: + a queue per accelerator type |
//! | `Direct` | Fig 13 step 2: + traces with direct accelerator-to-accelerator transfers; branches, transforms, and large payloads still bounce to the manager |
//! | `CntrFlow` | Fig 13 step 3: + branches resolved in output dispatchers |
//! | `AccelFlow` | the full design: + transforms and large payloads handled by dispatchers |
//! | `AccelFlowDeadline` | AccelFlow with the deadline-aware input-dispatcher policy (§IV-C) |
//! | `Cohort` | statically linked accelerator pairs communicate directly; everything else is orchestrated by cores through shared-memory software queues |
//! | `Ideal` | direct communication with zero orchestration cost (Fig 14's bound) |
//!
//! `Policy` is also the machine's strategy: every decision the designs
//! disagree on is a method here (or, for the hop transition that needs
//! machine state, one `match` over the policy in the machine's
//! `transfer` module), read straight from the configured policy. A new
//! policy is one variant plus the match arms the compiler demands.

use accelflow_accel::dispatcher::QueuePolicy;
use accelflow_arch::config::ArchConfig;
use accelflow_sim::time::SimDuration;
use accelflow_trace::kind::AccelKind;

/// How a payload moves between two accelerator stations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TransferMode {
    /// Raw interconnect latency only — the Ideal bound.
    Instant,
    /// Staged through the core's memory hierarchy (two network legs
    /// plus a cache access); designs without A-DMA engines.
    StagedViaCore,
    /// An A-DMA engine moves the payload station-to-station.
    Dma,
}

/// An orchestration policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Policy {
    /// No accelerators: all tax operations execute on cores.
    NonAcc,
    /// Cores orchestrate accelerators one invocation at a time.
    CpuCentric,
    /// RELIEF-style centralized hardware manager with a single shared
    /// queue.
    Relief,
    /// RELIEF with per-accelerator-type queues (Fig 13 "PerAccTypeQ").
    ReliefPerTypeQ,
    /// Traces + direct transfers; control flow and transforms still go
    /// through the manager (Fig 13 "Direct").
    Direct,
    /// Direct + branch resolution in dispatchers (Fig 13 "CntrFlow").
    CntrFlow,
    /// The complete AccelFlow design.
    AccelFlow,
    /// AccelFlow with deadline-aware input scheduling (§IV-C).
    AccelFlowDeadline,
    /// Cohort-style static pair chaining with software queues.
    Cohort,
    /// Zero-overhead direct chaining (upper bound, Fig 14).
    Ideal,
}

impl Policy {
    /// The five architectures of Fig 11/12/14, in the paper's order.
    pub const HEADLINE: [Policy; 5] = [
        Policy::NonAcc,
        Policy::CpuCentric,
        Policy::Relief,
        Policy::Cohort,
        Policy::AccelFlow,
    ];

    /// The Fig 13 ablation ladder, in order of technique addition.
    pub const ABLATION: [Policy; 5] = [
        Policy::Relief,
        Policy::ReliefPerTypeQ,
        Policy::Direct,
        Policy::CntrFlow,
        Policy::AccelFlow,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Policy::NonAcc => "Non-acc",
            Policy::CpuCentric => "CPU-Centric",
            Policy::Relief => "RELIEF",
            Policy::ReliefPerTypeQ => "PerAccTypeQ",
            Policy::Direct => "Direct",
            Policy::CntrFlow => "CntrFlow",
            Policy::AccelFlow => "AccelFlow",
            Policy::AccelFlowDeadline => "AccelFlow+DL",
            Policy::Cohort => "Cohort",
            Policy::Ideal => "Ideal",
        }
    }

    /// Whether whole segments run on cores, never touching an
    /// accelerator.
    pub fn cpu_only(self) -> bool {
        matches!(self, Policy::NonAcc)
    }

    /// Whether a centralized hardware manager mediates transfers.
    pub fn uses_manager(self) -> bool {
        matches!(
            self,
            Policy::Relief | Policy::ReliefPerTypeQ | Policy::Direct | Policy::CntrFlow
        )
    }

    /// Whether RELIEF's single shared queue (with its head-of-line
    /// blocking across accelerator types) is in force.
    pub fn single_shared_queue(self) -> bool {
        matches!(self, Policy::Relief)
    }

    /// Whether accelerator-to-accelerator transfers bypass both cores
    /// and the manager for plain (branch-free, transform-free) hops.
    pub fn direct_transfers(self) -> bool {
        matches!(
            self,
            Policy::Direct
                | Policy::CntrFlow
                | Policy::AccelFlow
                | Policy::AccelFlowDeadline
                | Policy::Ideal
        )
    }

    /// Whether output dispatchers resolve branches (vs. bouncing to the
    /// manager or core).
    pub fn branches_in_dispatcher(self) -> bool {
        matches!(
            self,
            Policy::CntrFlow | Policy::AccelFlow | Policy::AccelFlowDeadline | Policy::Ideal
        )
    }

    /// Whether output dispatchers perform data transformations and
    /// drive Memory-Pointer payloads themselves.
    pub fn transforms_in_dispatcher(self) -> bool {
        matches!(
            self,
            Policy::AccelFlow | Policy::AccelFlowDeadline | Policy::Ideal
        )
    }

    /// Whether orchestration costs are suppressed entirely (the Ideal
    /// bound of Fig 14: "communicate directly without incurring the
    /// overheads of branch resolution or data transformations").
    pub fn zero_orchestration(self) -> bool {
        matches!(self, Policy::Ideal)
    }

    /// Whether cores orchestrate every hop (interrupt-driven).
    pub fn core_orchestrated(self) -> bool {
        matches!(self, Policy::CpuCentric | Policy::Cohort)
    }

    /// The input-dispatcher scheduling policy this design uses.
    pub fn queue_policy(self) -> QueuePolicy {
        match self {
            Policy::AccelFlowDeadline => QueuePolicy::DeadlineAware,
            _ => QueuePolicy::Fifo,
        }
    }

    /// Core-side cost of submitting a fresh trace call.
    pub(crate) fn submit_cost(self, arch: &ArchConfig) -> SimDuration {
        match self {
            Policy::NonAcc | Policy::CpuCentric | Policy::Relief | Policy::ReliefPerTypeQ => {
                arch.cpu_submit_overhead
            }
            Policy::Direct | Policy::CntrFlow | Policy::AccelFlow | Policy::AccelFlowDeadline => {
                arch.cycles(arch.enqueue_cycles)
            }
            Policy::Cohort => arch.cohort_queue_overhead,
            Policy::Ideal => SimDuration::ZERO,
        }
    }

    /// Manager occupancy paid when a queue entry's Memory-Pointer
    /// payload spills past the inline bytes; `None` when the design
    /// handles spills without the manager.
    pub(crate) fn spill_manager_occupancy(self, arch: &ArchConfig) -> Option<SimDuration> {
        match self {
            Policy::Relief | Policy::ReliefPerTypeQ => Some(arch.manager_service_time),
            Policy::Direct | Policy::CntrFlow => Some(arch.manager_fallback_time),
            Policy::NonAcc
            | Policy::CpuCentric
            | Policy::AccelFlow
            | Policy::AccelFlowDeadline
            | Policy::Cohort
            | Policy::Ideal => None,
        }
    }

    /// How the payload travels from a `from` station to a `to` station.
    ///
    /// # Panics
    ///
    /// Panics for [`Policy::NonAcc`], which runs no accelerator hops.
    pub(crate) fn transfer_mode(self, from: AccelKind, to: AccelKind) -> TransferMode {
        match self {
            Policy::NonAcc => unreachable!("Non-acc runs no accelerator hops"),
            Policy::CpuCentric => TransferMode::StagedViaCore,
            Policy::Cohort if Self::cohort_linked(from, to) => TransferMode::Dma,
            Policy::Cohort => TransferMode::StagedViaCore,
            Policy::Relief
            | Policy::ReliefPerTypeQ
            | Policy::Direct
            | Policy::CntrFlow
            | Policy::AccelFlow
            | Policy::AccelFlowDeadline => TransferMode::Dma,
            Policy::Ideal => TransferMode::Instant,
        }
    }

    /// Whether the TCP dispatcher pre-loads the response trace from the
    /// ATM at an `AwaitResponse` boundary (§IV-B) instead of leaving it
    /// to the core: the direct-transfer family minus the Ideal bound.
    pub(crate) fn preloads_response_trace(self) -> bool {
        self.direct_transfers() && !self.zero_orchestration()
    }

    /// Whether a core must notice and resubmit when an external
    /// response re-enters through TCP — wherever software coordinates.
    /// The AccelFlow family re-dispatches in hardware instead; Non-acc
    /// responses re-enter through the CPU path and never ask.
    pub(crate) fn resubmits_external_response(self) -> bool {
        self.core_orchestrated() || self.uses_manager()
    }

    /// Whether a failed trace hop is re-issued by software on a core
    /// (paying the submit overhead per retry). The direct-transfer
    /// family re-issues from the hardware front-end instead — retries
    /// cost only the backoff delay. See `docs/RESILIENCE.md`.
    pub(crate) fn recovery_via_core(self) -> bool {
        !self.direct_transfers()
    }

    /// Cohort's statically linked ordered pairs: Cohort links "a few"
    /// accelerators that always go together — the TCP→Decr receive edge
    /// and the Encr→TCP send edge. Transfers matching a linked pair
    /// bypass the cores.
    pub fn cohort_links() -> [(AccelKind, AccelKind); 2] {
        use AccelKind::*;
        [(Tcp, Decr), (Encr, Tcp)]
    }

    /// Whether this ordered hop is covered by a Cohort static link.
    pub fn cohort_linked(from: AccelKind, to: AccelKind) -> bool {
        Self::cohort_links().contains(&(from, to))
    }
}

impl std::fmt::Display for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_ladder_is_monotone_in_capabilities() {
        // Each Fig 13 step adds a capability and keeps the previous ones.
        let ladder = Policy::ABLATION;
        let caps = |p: Policy| {
            [
                !p.single_shared_queue(),
                p.direct_transfers(),
                p.branches_in_dispatcher(),
                p.transforms_in_dispatcher(),
            ]
        };
        for w in ladder.windows(2) {
            let (a, b) = (caps(w[0]), caps(w[1]));
            for i in 0..a.len() {
                assert!(!a[i] || b[i], "{} → {} loses capability {i}", w[0], w[1]);
            }
            assert_ne!(a, b, "{} → {} adds nothing", w[0], w[1]);
        }
    }

    #[test]
    fn every_policy_decision_is_pinned() {
        use AccelKind::{Decr, Dser, Ldb, Tcp};
        use QueuePolicy::{DeadlineAware, Fifo};
        use TransferMode::{Dma, Instant, StagedViaCore as Staged};
        let a = ArchConfig::default();
        let cpu = a.cpu_submit_overhead;
        let enq = a.cycles(a.enqueue_cycles);
        let (svc, fb) = (a.manager_service_time, a.manager_fallback_time);
        // policy, submit cost, spill occupancy, transfer mode on a
        // Cohort-linked (Tcp→Decr) and an unlinked (Dser→Ldb) hop,
        // preloads response trace, resubmits external response,
        // recovery via core, input-queue policy.
        #[rustfmt::skip]
        let rows = [
            (Policy::NonAcc,            cpu,                    None,      None,                     false, false, true,  Fifo),
            (Policy::CpuCentric,        cpu,                    None,      Some((Staged, Staged)),   false, true,  true,  Fifo),
            (Policy::Relief,            cpu,                    Some(svc), Some((Dma, Dma)),         false, true,  true,  Fifo),
            (Policy::ReliefPerTypeQ,    cpu,                    Some(svc), Some((Dma, Dma)),         false, true,  true,  Fifo),
            (Policy::Direct,            enq,                    Some(fb),  Some((Dma, Dma)),         true,  true,  false, Fifo),
            (Policy::CntrFlow,          enq,                    Some(fb),  Some((Dma, Dma)),         true,  true,  false, Fifo),
            (Policy::AccelFlow,         enq,                    None,      Some((Dma, Dma)),         true,  false, false, Fifo),
            (Policy::AccelFlowDeadline, enq,                    None,      Some((Dma, Dma)),         true,  false, false, DeadlineAware),
            (Policy::Cohort,            a.cohort_queue_overhead, None,     Some((Dma, Staged)),      false, true,  true,  Fifo),
            (Policy::Ideal,             SimDuration::ZERO,      None,      Some((Instant, Instant)), false, false, false, Fifo),
        ];
        for (p, submit, spill, modes, preload, resubmit, via_core, queue) in rows {
            assert_eq!(p.submit_cost(&a), submit, "{p} submit_cost");
            assert_eq!(p.spill_manager_occupancy(&a), spill, "{p} spill");
            match modes {
                Some(m) => assert_eq!(
                    (p.transfer_mode(Tcp, Decr), p.transfer_mode(Dser, Ldb)),
                    m,
                    "{p} transfer_mode"
                ),
                None => assert!(
                    std::panic::catch_unwind(|| p.transfer_mode(Tcp, Decr)).is_err(),
                    "{p} runs no accelerator hops"
                ),
            }
            assert_eq!(p.preloads_response_trace(), preload, "{p} preload");
            assert_eq!(p.resubmits_external_response(), resubmit, "{p} resubmit");
            assert_eq!(p.recovery_via_core(), via_core, "{p} recovery_via_core");
            assert_eq!(p.queue_policy(), queue, "{p} queue_policy");
        }
        // The defaults must keep the three submit costs apart, or the
        // rows above could not tell the families apart.
        assert!(cpu != enq && enq != a.cohort_queue_overhead && cpu != a.cohort_queue_overhead);
        assert_ne!(svc, fb);
    }

    #[test]
    fn headline_policies_are_distinct_designs() {
        assert!(Policy::NonAcc.cpu_only());
        assert!(Policy::CpuCentric.core_orchestrated());
        assert!(Policy::Relief.uses_manager());
        assert!(Policy::Relief.single_shared_queue());
        assert!(!Policy::ReliefPerTypeQ.single_shared_queue());
        assert!(Policy::Cohort.core_orchestrated());
        assert!(Policy::AccelFlow.direct_transfers());
        assert!(!Policy::AccelFlow.uses_manager());
        assert!(Policy::Ideal.zero_orchestration());
        assert!(!Policy::AccelFlow.zero_orchestration());
    }

    #[test]
    fn deadline_variant_changes_only_scheduling() {
        let a = Policy::AccelFlow;
        let b = Policy::AccelFlowDeadline;
        assert_eq!(a.direct_transfers(), b.direct_transfers());
        assert_eq!(a.branches_in_dispatcher(), b.branches_in_dispatcher());
        assert_ne!(a.queue_policy(), b.queue_policy());
    }

    #[test]
    fn cohort_links_cover_the_universal_adjacencies() {
        use AccelKind::*;
        assert!(Policy::cohort_linked(Tcp, Decr));
        assert!(Policy::cohort_linked(Encr, Tcp));
        assert!(!Policy::cohort_linked(Decr, Tcp), "links are ordered");
        assert!(!Policy::cohort_linked(Dser, Ldb));
    }

    #[test]
    fn names_are_unique() {
        let all = [
            Policy::NonAcc,
            Policy::CpuCentric,
            Policy::Relief,
            Policy::ReliefPerTypeQ,
            Policy::Direct,
            Policy::CntrFlow,
            Policy::AccelFlow,
            Policy::AccelFlowDeadline,
            Policy::Cohort,
            Policy::Ideal,
        ];
        let mut names: Vec<&str> = all.iter().map(|p| p.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }
}
