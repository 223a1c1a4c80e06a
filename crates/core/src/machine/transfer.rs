//! Payload movement: core→accelerator submission, the inter-hop
//! transition after a PE completes, and external-response re-entry.
//!
//! [`MachineCtx::after_hop`] is the policy-defining moment of the
//! model: the completed hop's output must reach its next station (or
//! the originating core). The *orchestration cost* of the transition
//! is [`MachineCtx::hop_transition`], one `match` over the configured
//! [`Policy`] — dispatcher glue for the AccelFlow family (bouncing
//! unresolved branches and transforms to the manager on the ablation
//! rungs), manager interrupts for RELIEF, core interrupts for
//! CPU-Centric and unlinked Cohort hops, nothing for Ideal. The
//! *transfer mechanism* is [`Policy::transfer_mode`]: A-DMA,
//! core staging, or raw interconnect latency.

use accelflow_arch::topology::Endpoint;
use accelflow_sim::engine::EventQueue;
use accelflow_sim::telemetry::CompId;
use accelflow_sim::time::{SimDuration, SimTime};
use accelflow_trace::kind::AccelKind;

use crate::policy::{Policy, TransferMode};
use crate::request::{CallAddr, SegmentEnd};

use super::{Ev, MachineCtx};

/// Snapshot of the completed hop: everything the transition needs
/// without re-borrowing the request table.
struct HopInfo {
    kind: AccelKind,
    out_bytes: u64,
    glue_instrs: u32,
    branches_after: u8,
    transform_after: bool,
    fork_after: bool,
    next_kind: Option<AccelKind>,
    end: SegmentEnd,
    has_next_segment: bool,
}

impl MachineCtx {
    /// Core-side submission of a fresh trace call (non-Non-acc
    /// policies): the policy's submit cost on a core, then a DMA of the
    /// payload into the first accelerator — unless the call enters as a
    /// network message, which lands at TCP directly.
    pub(crate) fn submit_call(&mut self, now: SimTime, addr: CallAddr, queue: &mut EventQueue<Ev>) {
        let entry_is_network = {
            let r = self.req(addr.req);
            let call = Self::call_of(&r.program, addr.step, addr.par);
            call.segments[0].entry_is_network
        };
        if entry_is_network {
            // The message lands at TCP directly; no core submission.
            queue.schedule(SimDuration::ZERO, Ev::HopArrive(addr));
        } else {
            // The core prepares and submits the trace (Enqueue + A-DMA
            // programming for AccelFlow; heavier software paths for the
            // baselines).
            let submit = self.cfg.policy.submit_cost(&self.cfg.arch);
            let booking = if submit.is_zero() {
                None
            } else {
                Some(self.cores.acquire(now, submit))
            };
            if let Some(b) = &booking {
                self.energy.add_core_busy(submit);
                self.charge(addr.req, |bd| bd.orchestration += submit);
                let _ = b;
            }
            let start = booking.map(|b| b.finish).unwrap_or(now);
            // DMA the payload from the core into the first accelerator.
            let (first_kind, bytes) = {
                let r = self.req(addr.req);
                let call = Self::call_of(&r.program, addr.step, addr.par);
                let hop = &call.segments[0].hops[0];
                (hop.kind, hop.in_bytes)
            };
            let booking = self.dma.transfer(
                start,
                &self.net,
                Endpoint::Cores,
                Self::endpoint(first_kind),
                bytes,
            );
            self.energy.add_dma_bytes(bytes);
            self.energy.add_noc_bytes(bytes);
            let comm = booking.finish.saturating_since(start);
            self.charge(addr.req, |bd| bd.communication += comm);
            self.tel_span(
                booking.start,
                CompId::DMA,
                "dma",
                booking.finish.saturating_since(booking.start),
                addr.req,
                bytes,
            );
            if self.dma_transfer_faulted(booking.finish, addr, queue) {
                return;
            }
            queue.schedule_at(booking.finish, Ev::HopArrive(addr));
        }
    }

    /// The policy-defining transition after a completed hop. `accel` is
    /// the station whose output dispatcher runs the transition (only
    /// telemetry attribution uses it).
    pub(crate) fn after_hop(
        &mut self,
        now: SimTime,
        addr: CallAddr,
        accel: u8,
        queue: &mut EventQueue<Ev>,
    ) {
        let info = {
            let r = self.req(addr.req);
            let call = Self::call_of(&r.program, addr.step, addr.par);
            let seg = &call.segments[addr.seg as usize];
            let hop = &seg.hops[addr.hop as usize];
            let is_last = addr.hop as usize + 1 == seg.hops.len();
            HopInfo {
                kind: hop.kind,
                out_bytes: hop.out_bytes,
                glue_instrs: hop.glue_instrs,
                branches_after: hop.branches_after,
                transform_after: hop.transform_after,
                fork_after: hop.fork_after,
                next_kind: if is_last {
                    None
                } else {
                    Some(seg.hops[addr.hop as usize + 1].kind)
                },
                end: seg.end,
                has_next_segment: (addr.seg as usize + 1) < call.segments.len(),
            }
        };

        // --- Orchestration cost of the transition ---
        let t = self.hop_transition(now, addr, accel, &info);

        // --- Fork a result copy to the CPU (T6), in parallel ---
        if info.fork_after {
            let notify = self.cfg.arch.notification_latency();
            self.charge(addr.req, |b| b.communication += notify);
            self.energy.add_noc_bytes(info.out_bytes);
        }

        // --- Move the payload to its next station ---
        if let Some(next) = info.next_kind {
            let next_addr = CallAddr {
                hop: addr.hop + 1,
                ..addr
            };
            let from = Self::endpoint(info.kind);
            let to = Self::endpoint(next);
            match self.cfg.policy.transfer_mode(info.kind, next) {
                TransferMode::Instant => {
                    // Zero-cost orchestration bound: only the raw
                    // interconnect latency, no engine occupancy.
                    let arrive = t + self.net.transfer_time(from, to, info.out_bytes);
                    let comm = arrive.saturating_since(t);
                    self.charge(addr.req, |b| b.communication += comm);
                    queue.schedule_at(arrive, Ev::HopArrive(next_addr));
                }
                TransferMode::StagedViaCore => {
                    // Data staged through the core's memory via the
                    // coherent hierarchy (these designs do not use the
                    // A-DMA engines): two network legs plus the cache
                    // access, pure latency on the request.
                    let legs = self
                        .net
                        .transfer_time(from, Endpoint::Cores, info.out_bytes)
                        + self.net.transfer_time(Endpoint::Cores, to, info.out_bytes)
                        + self.cfg.arch.payload_access(info.out_bytes);
                    self.bus.stream(t, info.out_bytes / 2);
                    self.energy.add_noc_bytes(2 * info.out_bytes);
                    self.charge(addr.req, |b| b.communication += legs);
                    queue.schedule_at(t + legs, Ev::HopArrive(next_addr));
                }
                TransferMode::Dma => {
                    let booking = self.dma.transfer(t, &self.net, from, to, info.out_bytes);
                    self.energy.add_dma_bytes(info.out_bytes);
                    self.energy.add_noc_bytes(info.out_bytes);
                    let comm = booking.finish.saturating_since(t);
                    self.charge(addr.req, |b| b.communication += comm);
                    self.tel_span(
                        booking.start,
                        CompId::DMA,
                        "dma",
                        booking.finish.saturating_since(booking.start),
                        addr.req,
                        info.out_bytes,
                    );
                    if self.dma_transfer_faulted(booking.finish, next_addr, queue) {
                        return;
                    }
                    queue.schedule_at(booking.finish, Ev::HopArrive(next_addr));
                }
            }
            return;
        }

        // --- End of segment ---
        match info.end {
            SegmentEnd::ToCpu => {
                // DMA the result to memory and notify the core.
                let service = self.cfg.arch.payload_access(info.out_bytes)
                    + self
                        .net
                        .transfer_time(Self::endpoint(info.kind), Endpoint::Cores, 0);
                let booking = self.dma.transfer_with_service(t, service, info.out_bytes);
                self.bus.stream(t, info.out_bytes / 2);
                self.energy.add_dma_bytes(info.out_bytes);
                self.tel_span(
                    booking.start,
                    CompId::DMA,
                    "dma",
                    booking.finish.saturating_since(booking.start),
                    addr.req,
                    info.out_bytes,
                );
                let notify = self.cfg.arch.notification_latency();
                let done_at = booking.finish + notify;
                let comm = done_at.saturating_since(t);
                self.charge(addr.req, |b| b.communication += comm);
                // A corrupt result delivery re-runs the hop instead of
                // completing the call.
                if self.dma_transfer_faulted(done_at, addr, queue) {
                    return;
                }
                let error = {
                    let r = self.req(addr.req);
                    let call = Self::call_of(&r.program, addr.step, addr.par);
                    call.segments[addr.seg as usize].trace.name() == "report_error"
                };
                queue.schedule_at(
                    done_at,
                    Ev::CallDone {
                        req: addr.req,
                        step: addr.step,
                        par: addr.par,
                        error,
                    },
                );
            }
            SegmentEnd::Continue => {
                debug_assert!(info.has_next_segment, "Continue requires a next segment");
                // Split subtrace: the dispatcher reads the ATM and
                // forwards to the next segment's first accelerator.
                self.totals.atm_reads += 1;
                let _ = self.lib.atm_mut().load(accelflow_trace::atm::AtmAddr(0));
                self.tel_instant(t, CompId::ATM, "atm_read", addr.req);
                let t2 = t + self.cfg.arch.atm_read_latency + self.atm_read_penalty(t, addr);
                let next_addr = CallAddr {
                    seg: addr.seg + 1,
                    hop: 0,
                    ..addr
                };
                queue.schedule_at(t2, Ev::HopArrive(next_addr));
            }
            SegmentEnd::AwaitResponse { external } => {
                debug_assert!(
                    info.has_next_segment,
                    "AwaitResponse requires a next segment"
                );
                // AccelFlow: the TCP dispatcher pre-loads the response
                // trace from the ATM (§IV-B). Baselines: the core will
                // re-orchestrate when the response interrupt arrives.
                if self.cfg.policy.preloads_response_trace() {
                    self.totals.atm_reads += 1;
                    let _ = self.lib.atm_mut().load(accelflow_trace::atm::AtmAddr(0));
                    self.tel_instant(t, CompId::ATM, "atm_read", addr.req);
                }
                let next_addr = CallAddr {
                    seg: addr.seg + 1,
                    hop: 0,
                    ..addr
                };
                self.charge(addr.req, |b| b.external += external);
                self.tel_span(
                    t,
                    CompId::MACHINE,
                    "external",
                    external.min(self.cfg.tcp_timeout),
                    addr.req,
                    0,
                );
                if external >= self.cfg.tcp_timeout {
                    queue.schedule_at(
                        t + self.cfg.tcp_timeout,
                        Ev::Timeout {
                            req: addr.req,
                            step: addr.step,
                            par: addr.par,
                        },
                    );
                } else {
                    queue.schedule_at(t + external, Ev::ExternalArrive(next_addr));
                }
            }
        }
    }

    /// The orchestration cost of the transition after a completed hop.
    /// May occupy cores or the manager and charge latency; returns when
    /// the payload is ready to move on.
    fn hop_transition(
        &mut self,
        now: SimTime,
        addr: CallAddr,
        accel: u8,
        info: &HopInfo,
    ) -> SimTime {
        let p = self.cfg.policy;
        match p {
            Policy::NonAcc => unreachable!("Non-acc runs no accelerator hops"),
            // Completion interrupts the originating core, which then
            // submits the next invocation.
            Policy::CpuCentric => {
                let arch = &self.cfg.arch;
                let overhead = arch.cpu_interrupt_overhead + arch.cpu_submit_overhead;
                self.core_transition(now, addr, overhead)
            }
            Policy::Relief | Policy::ReliefPerTypeQ => self.manager_transition(now, addr),
            Policy::Direct | Policy::CntrFlow | Policy::AccelFlow | Policy::AccelFlowDeadline => {
                self.dispatcher_transition(
                    now,
                    addr,
                    accel,
                    info,
                    p.branches_in_dispatcher(),
                    p.transforms_in_dispatcher(),
                )
            }
            Policy::Cohort => {
                let linked = info
                    .next_kind
                    .is_some_and(|n| Policy::cohort_linked(info.kind, n));
                if linked {
                    // Producer/consumer software queue in the LLC.
                    let hand = self.cfg.arch.cycles(2.0 * self.cfg.arch.llc_latency_cycles);
                    self.charge(addr.req, |bd| bd.orchestration += hand);
                    now + hand
                } else {
                    // Unlinked hops fall back to core orchestration
                    // (Cohort "otherwise relies on the cores"): the core
                    // polls the software queue, runs the glue, and
                    // resubmits — the CPU-Centric software path minus
                    // the interrupt entry.
                    let arch = &self.cfg.arch;
                    let overhead = arch.cohort_queue_overhead + arch.cpu_submit_overhead;
                    self.core_transition(now, addr, overhead)
                }
            }
            // Zero-overhead bound: transitions are free.
            Policy::Ideal => now,
        }
    }

    /// Core-orchestrated transition: a core spends `overhead` on the
    /// hand-off before the payload may move.
    fn core_transition(&mut self, now: SimTime, addr: CallAddr, overhead: SimDuration) -> SimTime {
        let b = self.cores.acquire(now, overhead);
        self.energy.add_core_busy(overhead);
        let spent = b.finish.saturating_since(now);
        self.charge(addr.req, |bd| bd.orchestration += spent);
        b.finish
    }

    /// Output-dispatcher transition (the AccelFlow ablation ladder): the
    /// dispatcher executes the glue instructions; rungs that cannot
    /// resolve branches or transforms locally bounce to the manager.
    fn dispatcher_transition(
        &mut self,
        now: SimTime,
        addr: CallAddr,
        accel: u8,
        info: &HopInfo,
        branches_in_dispatcher: bool,
        transforms_in_dispatcher: bool,
    ) -> SimTime {
        let mut t = now;
        let td = self.dispatcher_time(info.glue_instrs);
        self.totals.dispatcher_instrs += info.glue_instrs as u64;
        self.totals.dispatches += 1;
        self.energy.add_dispatcher_instrs(info.glue_instrs as u64);
        self.charge(addr.req, |b| b.orchestration += td);
        self.tel_span(
            t,
            CompId::accelerator(accel as u16),
            "glue",
            td,
            addr.req,
            info.glue_instrs as u64,
        );
        t += td;
        // Ablation rungs bounce unresolved work to the manager.
        let needs_manager_branch = info.branches_after > 0 && !branches_in_dispatcher;
        let needs_manager_transform = info.transform_after && !transforms_in_dispatcher;
        if needs_manager_branch || needs_manager_transform {
            let after_irq = t + self.cfg.arch.manager_latency;
            let b = self
                .manager
                .acquire(after_irq, self.cfg.arch.manager_fallback_time);
            let spent = b.finish.saturating_since(t);
            self.charge(addr.req, |bd| bd.orchestration += spent);
            self.tel_span(
                b.start,
                CompId::MANAGER,
                "manager",
                self.cfg.arch.manager_fallback_time,
                addr.req,
                0,
            );
            t = b.finish;
        }
        t
    }

    /// RELIEF-style transition: every completion interrupts the manager —
    /// interrupt-delivery latency plus serialized decision occupancy
    /// (§VII-A1).
    fn manager_transition(&mut self, now: SimTime, addr: CallAddr) -> SimTime {
        let after_irq = now + self.cfg.arch.manager_latency;
        let b = self
            .manager
            .acquire(after_irq, self.cfg.arch.manager_service_time);
        let spent = b.finish.saturating_since(now);
        self.charge(addr.req, |bd| bd.orchestration += spent);
        self.totals.manager_busy += self.cfg.arch.manager_service_time;
        self.tel_span(
            b.start,
            CompId::MANAGER,
            "manager",
            self.cfg.arch.manager_service_time,
            addr.req,
            0,
        );
        b.finish
    }

    pub(crate) fn on_external_arrive(
        &mut self,
        now: SimTime,
        addr: CallAddr,
        queue: &mut EventQueue<Ev>,
    ) {
        if self.req_gone(addr.req) {
            return;
        }
        // Response messages re-enter through TCP. In the baselines the
        // core must notice and resubmit the processing chain.
        if self.cfg.policy.resubmits_external_response() {
            let submit = self.cfg.arch.cpu_submit_overhead;
            let b = self.cores.acquire(now, submit);
            self.energy.add_core_busy(submit);
            let spent = b.finish.saturating_since(now);
            self.charge(addr.req, |bd| bd.orchestration += spent);
            queue.schedule_at(b.finish, Ev::HopArrive(addr));
        } else {
            queue.schedule(SimDuration::ZERO, Ev::HopArrive(addr));
        }
    }
}
