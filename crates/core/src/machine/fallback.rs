//! Software execution paths: the Non-acc baseline (every segment runs
//! on a core) and the CPU fallback that absorbs work when every
//! instance of an accelerator type rejects an admission (§IV-A).
//!
//! Both paths converge on [`MachineCtx::on_fallback_done`], which
//! re-enters the normal segment-end handling — the only difference
//! from the accelerated path being that continuation hops stay on the
//! CPU for cpu-only policies.

use accelflow_sim::engine::EventQueue;
use accelflow_sim::time::{SimDuration, SimTime};

use crate::request::{CallAddr, SegmentEnd};

use super::{Ev, MachineCtx};

impl MachineCtx {
    /// Non-acc path: the whole segment is CPU work.
    pub(crate) fn start_segment_on_cpu(
        &mut self,
        now: SimTime,
        addr: CallAddr,
        queue: &mut EventQueue<Ev>,
    ) {
        // An external response may arrive after a timeout terminated
        // the request.
        if self.req_gone(addr.req) {
            return;
        }
        let work = {
            let r = self.req(addr.req);
            let call = Self::call_of(&r.program, addr.step, addr.par);
            let seg = &call.segments[addr.seg as usize];
            seg.hops
                .iter()
                .map(|h| self.timing.cpu_time(h.kind, h.in_bytes))
                .sum::<SimDuration>()
        };
        let booking = self.cores.acquire(now, work);
        self.energy.add_core_busy(work);
        self.charge(addr.req, |b| b.cpu += work);
        queue.schedule_at(booking.finish, Ev::FallbackDone(addr));
    }

    /// CPU fallback: execute the rest of the segment in software.
    pub(crate) fn fallback_segment(
        &mut self,
        now: SimTime,
        addr: CallAddr,
        queue: &mut EventQueue<Ev>,
    ) {
        let work = {
            let r = self.req(addr.req);
            let call = Self::call_of(&r.program, addr.step, addr.par);
            let seg = &call.segments[addr.seg as usize];
            seg.hops[addr.hop as usize..]
                .iter()
                .map(|h| self.timing.cpu_time(h.kind, h.in_bytes))
                .sum::<SimDuration>()
        };
        let booking = self.cores.acquire(now, work);
        self.energy.add_core_busy(work);
        self.charge(addr.req, |b| b.cpu += work);
        queue.schedule_at(booking.finish, Ev::FallbackDone(addr));
    }

    pub(crate) fn on_fallback_done(
        &mut self,
        now: SimTime,
        addr: CallAddr,
        queue: &mut EventQueue<Ev>,
    ) {
        if self.req_gone(addr.req) {
            return;
        }
        let (end, has_next, is_error) = {
            let r = self.req(addr.req);
            let call = Self::call_of(&r.program, addr.step, addr.par);
            let seg = &call.segments[addr.seg as usize];
            (
                seg.end,
                (addr.seg as usize + 1) < call.segments.len(),
                seg.trace.name() == "report_error",
            )
        };
        match end {
            SegmentEnd::ToCpu => {
                queue.schedule(
                    SimDuration::ZERO,
                    Ev::CallDone {
                        req: addr.req,
                        step: addr.step,
                        par: addr.par,
                        error: is_error,
                    },
                );
            }
            SegmentEnd::Continue => {
                debug_assert!(has_next);
                let next_addr = CallAddr {
                    seg: addr.seg + 1,
                    hop: 0,
                    ..addr
                };
                if self.cfg.policy.cpu_only() {
                    self.start_segment_on_cpu(now, next_addr, queue);
                } else {
                    queue.schedule(SimDuration::ZERO, Ev::HopArrive(next_addr));
                }
            }
            SegmentEnd::AwaitResponse { external } => {
                debug_assert!(has_next);
                self.charge(addr.req, |b| b.external += external);
                let next_addr = CallAddr {
                    seg: addr.seg + 1,
                    hop: 0,
                    ..addr
                };
                if external >= self.cfg.tcp_timeout {
                    queue.schedule_at(
                        now + self.cfg.tcp_timeout,
                        Ev::Timeout {
                            req: addr.req,
                            step: addr.step,
                            par: addr.par,
                        },
                    );
                } else if self.cfg.policy.cpu_only() {
                    queue.schedule_at(now + external, Ev::ExternalArriveCpu(next_addr));
                } else {
                    queue.schedule_at(now + external, Ev::ExternalArrive(next_addr));
                }
            }
        }
    }
}
