//! Machine-level checkpoint/restore and the resumable [`MachineRun`]
//! handle.
//!
//! A snapshot captures the machine's complete dynamic state — request
//! slab, accelerator stations, queues, RNG stream positions, fault and
//! control state, measurement sinks — plus the pending event set, under
//! a versioned header carrying a configuration hash. Restoring into a
//! machine rebuilt from the *same* configuration resumes the run
//! byte-identically (enforced by `tests/snapshot_equivalence.rs`);
//! restoring into a different configuration is refused.
//!
//! What is rebuilt rather than serialized: everything derivable from
//! [`MachineConfig`] alone — the policy's dispatch tables, the service
//! time model, the trace library contents, the interconnect, and the
//! chiplet layout. The ATM's read/write counters are dynamic and *are*
//! carried over. See `docs/CHECKPOINT.md` for the captured/not-captured
//! accounting and the determinism argument.

use accelflow_accel::queue::TenantId;
use accelflow_sim::engine::{EventQueue, Model, Simulation};
use accelflow_sim::slab::SlotId;
use accelflow_sim::snapshot::{
    check_header, fnv1a, write_header, SnapReader, SnapWriter, Snapshot, SnapshotError,
};
use accelflow_sim::time::{SimDuration, SimTime};
use accelflow_trace::kind::AccelKind;

use crate::arrivals::Arrival;
use crate::request::ServiceSpec;
use crate::request::{CallAddr, HopExec, Program, Segment, SegmentEnd, ServiceId, Step, TraceCall};
use crate::stats::{Breakdown, MachineTotals, RunReport, ServiceStats};

use super::accounting::TelState;
use super::dispatch::SharedJob;
use super::{Ev, Machine, MachineConfig, MachineCtx};

/// Leading magic bytes of a machine snapshot.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"AFSN";

/// Drain window granted past the arrival horizon before the report is
/// extracted (stragglers complete; matches the pre-checkpoint runner).
const DRAIN_MARGIN: SimDuration = SimDuration::from_millis(30);

// ----- request-program serialization -----

impl Snapshot for ServiceId {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.0);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(ServiceId(r.usize()?))
    }
}

impl Snapshot for CallAddr {
    fn save(&self, w: &mut SnapWriter) {
        // The packed queue-entry tag is already the canonical wire form.
        w.u64(self.tag());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(CallAddr::from_tag(r.u64()?))
    }
}

impl Snapshot for SegmentEnd {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            SegmentEnd::ToCpu => w.u8(0),
            SegmentEnd::Continue => w.u8(1),
            SegmentEnd::AwaitResponse { external } => {
                w.u8(2);
                external.save(w);
            }
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(match r.u8()? {
            0 => SegmentEnd::ToCpu,
            1 => SegmentEnd::Continue,
            2 => SegmentEnd::AwaitResponse {
                external: SimDuration::load(r)?,
            },
            other => {
                return Err(SnapshotError::Corrupt(format!(
                    "unknown SegmentEnd tag {other}"
                )))
            }
        })
    }
}

impl Snapshot for HopExec {
    fn save(&self, w: &mut SnapWriter) {
        self.kind.save(w);
        self.pm.save(w);
        w.u64(self.in_bytes);
        w.u64(self.out_bytes);
        w.u32(self.glue_instrs);
        w.u8(self.branches_after);
        w.bool(self.transform_after);
        w.bool(self.fork_after);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(HopExec {
            kind: AccelKind::load(r)?,
            pm: accelflow_trace::ir::PositionMark::load(r)?,
            in_bytes: r.u64()?,
            out_bytes: r.u64()?,
            glue_instrs: r.u32()?,
            branches_after: r.u8()?,
            transform_after: r.bool()?,
            fork_after: r.bool()?,
        })
    }
}

impl Snapshot for Segment {
    fn save(&self, w: &mut SnapWriter) {
        self.trace.save(w);
        self.flags.save(w);
        w.bool(self.entry_is_network);
        self.hops.save(w);
        self.end.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Segment {
            trace: std::sync::Arc::load(r)?,
            flags: accelflow_trace::cond::PayloadFlags::load(r)?,
            entry_is_network: r.bool()?,
            hops: Vec::load(r)?,
            end: SegmentEnd::load(r)?,
        })
    }
}

impl Snapshot for TraceCall {
    fn save(&self, w: &mut SnapWriter) {
        self.segments.save(w);
        w.u64(self.vaddr);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(TraceCall {
            segments: Vec::load(r)?,
            vaddr: r.u64()?,
        })
    }
}

impl Snapshot for Step {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            Step::Cpu { cycles } => {
                w.u8(0);
                w.f64(*cycles);
            }
            Step::Call(c) => {
                w.u8(1);
                c.save(w);
            }
            Step::Parallel(cs) => {
                w.u8(2);
                cs.save(w);
            }
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(match r.u8()? {
            0 => Step::Cpu { cycles: r.f64()? },
            1 => Step::Call(TraceCall::load(r)?),
            2 => Step::Parallel(Vec::load(r)?),
            other => return Err(SnapshotError::Corrupt(format!("unknown Step tag {other}"))),
        })
    }
}

impl Snapshot for Program {
    fn save(&self, w: &mut SnapWriter) {
        self.steps.save(w);
        self.slo_slack.save(w);
        w.u8(self.priority);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Program {
            steps: Vec::load(r)?,
            slo_slack: Option::load(r)?,
            priority: r.u8()?,
        })
    }
}

impl Snapshot for Arrival {
    fn save(&self, w: &mut SnapWriter) {
        self.at.save(w);
        self.service.save(w);
        self.tenant.save(w);
        self.program.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Arrival {
            at: SimTime::load(r)?,
            service: ServiceId::load(r)?,
            tenant: TenantId::load(r)?,
            program: Program::load(r)?,
        })
    }
}

impl Snapshot for super::lifecycle::RequestState {
    fn save(&self, w: &mut SnapWriter) {
        self.service.save(w);
        self.tenant.save(w);
        self.arrival.save(w);
        w.bool(self.measured);
        self.program.save(w);
        w.usize(self.step);
        w.u32(self.pending_calls);
        w.u32(self.active_calls);
        w.u32(self.completed_pars);
        self.deadline.save(w);
        w.bool(self.done);
        w.bool(self.error);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(super::lifecycle::RequestState {
            service: ServiceId::load(r)?,
            tenant: TenantId::load(r)?,
            arrival: SimTime::load(r)?,
            measured: r.bool()?,
            program: Program::load(r)?,
            step: r.usize()?,
            pending_calls: r.u32()?,
            active_calls: r.u32()?,
            completed_pars: r.u32()?,
            deadline: Option::load(r)?,
            done: r.bool()?,
            error: r.bool()?,
        })
    }
}

impl Snapshot for SharedJob {
    fn save(&self, w: &mut SnapWriter) {
        self.entry.save(w);
        self.kind.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(SharedJob {
            entry: accelflow_accel::queue::QueueEntry::load(r)?,
            kind: AccelKind::load(r)?,
        })
    }
}

// ----- event serialization -----

impl Snapshot for Ev {
    fn save(&self, w: &mut SnapWriter) {
        // Stable one-byte tags, independent of declaration order.
        match self {
            Ev::Arrive(idx) => {
                w.u8(0);
                w.u32(*idx);
            }
            Ev::StartStep(req) => {
                w.u8(1);
                w.u32(*req);
            }
            Ev::AppDone(req) => {
                w.u8(2);
                w.u32(*req);
            }
            Ev::HopArrive(addr) => {
                w.u8(3);
                addr.save(w);
            }
            Ev::HopArriveRetry(addr) => {
                w.u8(4);
                addr.save(w);
            }
            Ev::ExternalArriveCpu(addr) => {
                w.u8(5);
                addr.save(w);
            }
            Ev::PeDone {
                addr,
                accel,
                pe,
                busy_ps,
            } => {
                w.u8(6);
                addr.save(w);
                w.u8(*accel);
                w.u8(*pe);
                w.u64(*busy_ps);
            }
            Ev::TryStart(accel) => {
                w.u8(7);
                w.u8(*accel);
            }
            Ev::ExternalArrive(addr) => {
                w.u8(8);
                addr.save(w);
            }
            Ev::CallDone {
                req,
                step,
                par,
                error,
            } => {
                w.u8(9);
                w.u32(*req);
                w.u8(*step);
                w.u8(*par);
                w.bool(*error);
            }
            Ev::FallbackDone(addr) => {
                w.u8(10);
                addr.save(w);
            }
            Ev::Timeout { req, step, par } => {
                w.u8(11);
                w.u32(*req);
                w.u8(*step);
                w.u8(*par);
            }
            Ev::FaultInject(class) => {
                w.u8(12);
                class.save(w);
            }
            Ev::StallEnd(station) => {
                w.u8(13);
                w.u8(*station);
            }
            Ev::ScaleTick => w.u8(14),
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(match r.u8()? {
            0 => Ev::Arrive(r.u32()?),
            1 => Ev::StartStep(r.u32()?),
            2 => Ev::AppDone(r.u32()?),
            3 => Ev::HopArrive(CallAddr::load(r)?),
            4 => Ev::HopArriveRetry(CallAddr::load(r)?),
            5 => Ev::ExternalArriveCpu(CallAddr::load(r)?),
            6 => Ev::PeDone {
                addr: CallAddr::load(r)?,
                accel: r.u8()?,
                pe: r.u8()?,
                busy_ps: r.u64()?,
            },
            7 => Ev::TryStart(r.u8()?),
            8 => Ev::ExternalArrive(CallAddr::load(r)?),
            9 => Ev::CallDone {
                req: r.u32()?,
                step: r.u8()?,
                par: r.u8()?,
                error: r.bool()?,
            },
            10 => Ev::FallbackDone(CallAddr::load(r)?),
            11 => Ev::Timeout {
                req: r.u32()?,
                step: r.u8()?,
                par: r.u8()?,
            },
            12 => Ev::FaultInject(crate::faults::FaultClass::load(r)?),
            13 => Ev::StallEnd(r.u8()?),
            14 => Ev::ScaleTick,
            other => return Err(SnapshotError::Corrupt(format!("unknown Ev tag {other}"))),
        })
    }
}

// ----- measurement-sink serialization -----

impl Snapshot for Breakdown {
    fn save(&self, w: &mut SnapWriter) {
        self.cpu.save(w);
        self.accel.save(w);
        self.orchestration.save(w);
        self.communication.save(w);
        self.external.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Breakdown {
            cpu: SimDuration::load(r)?,
            accel: SimDuration::load(r)?,
            orchestration: SimDuration::load(r)?,
            communication: SimDuration::load(r)?,
            external: SimDuration::load(r)?,
        })
    }
}

impl Snapshot for ServiceStats {
    fn save(&self, w: &mut SnapWriter) {
        self.name.save(w);
        self.latency.save(w);
        w.u64(self.offered);
        w.u64(self.completed);
        w.u64(self.errors);
        w.u64(self.deadline_misses);
        self.breakdown.save(w);
        self.tax_by_kind.save(w);
        self.app_logic.save(w);
        self.samples.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(ServiceStats {
            name: String::load(r)?,
            latency: accelflow_sim::stats::Histogram::load(r)?,
            offered: r.u64()?,
            completed: r.u64()?,
            errors: r.u64()?,
            deadline_misses: r.u64()?,
            breakdown: Breakdown::load(r)?,
            tax_by_kind: <[SimDuration; AccelKind::COUNT]>::load(r)?,
            app_logic: SimDuration::load(r)?,
            samples: Vec::load(r)?,
        })
    }
}

impl Snapshot for MachineTotals {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.fallbacks);
        w.u64(self.overflows);
        w.u64(self.enqueue_rejections);
        w.u64(self.tcp_timeouts);
        w.u64(self.page_faults);
        w.u64(self.atm_reads);
        w.u64(self.dispatcher_instrs);
        w.u64(self.dispatches);
        w.u64(self.manager_jobs);
        self.manager_busy.save(w);
        self.accel_utilization.save(w);
        self.accel_jobs.save(w);
        self.tlb.save(w);
        w.u64(self.tenant_wipes);
        w.u64(self.tenant_throttled);
        w.u64(self.clamped_events);
        w.u64(self.dma_bytes);
        self.energy.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(MachineTotals {
            fallbacks: r.u64()?,
            overflows: r.u64()?,
            enqueue_rejections: r.u64()?,
            tcp_timeouts: r.u64()?,
            page_faults: r.u64()?,
            atm_reads: r.u64()?,
            dispatcher_instrs: r.u64()?,
            dispatches: r.u64()?,
            manager_jobs: r.u64()?,
            manager_busy: SimDuration::load(r)?,
            accel_utilization: <[f64; AccelKind::COUNT]>::load(r)?,
            accel_jobs: <[u64; AccelKind::COUNT]>::load(r)?,
            tlb: <[(u64, u64); AccelKind::COUNT]>::load(r)?,
            tenant_wipes: r.u64()?,
            tenant_throttled: r.u64()?,
            clamped_events: r.u64()?,
            dma_bytes: r.u64()?,
            energy: accelflow_arch::energy::EnergyReport::load(r)?,
        })
    }
}

impl Snapshot for TelState {
    /// The telemetry ring restores *empty* (records hold `&'static str`
    /// names that cannot round-trip through bytes); `emitted`/`dropped`
    /// counters, labels, and the windowed sampler all persist, so a
    /// restored run's telemetry report differs from a straight run's
    /// only in which record window the ring retains — documented in
    /// `docs/CHECKPOINT.md` under "not captured".
    fn save(&self, w: &mut SnapWriter) {
        self.sink.save(w);
        self.sampler.save(w);
        self.prev_busy.save(w);
        self.prev_at.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(TelState {
            sink: accelflow_sim::telemetry::Telemetry::load(r)?,
            sampler: accelflow_sim::telemetry::Sampler::load(r)?,
            prev_busy: Vec::load(r)?,
            prev_at: SimTime::load(r)?,
        })
    }
}

// ----- whole-machine checkpoint -----

impl MachineCtx {
    /// Serializes every dynamic field, in declaration order. Statics
    /// (timing model, trace library, interconnect) are
    /// rebuilt from config at restore.
    fn save_dynamic(&self, w: &mut SnapWriter) {
        self.dma.save(w);
        self.bus.save(w);
        self.cores.save(w);
        self.manager.save(w);
        self.accels.save(w);
        self.shared_queue.save(w);
        self.requests.save(w);
        self.req_slots.save(w);
        self.arrivals.save(w);
        self.stats.save(w);
        self.totals.save(w);
        self.energy.save(w);
        self.rng.save(w);
        self.tenant_active.save(w);
        self.warmup_end.save(w);
        self.end.save(w);
        w.u64(self.live);
        self.auditor.save(w);
        self.tel.save(w);
        self.faults.save(w);
        self.control.save(w);
        // The trace library is rebuilt from config, but the ATM's
        // read/write counters are run state.
        w.u64(self.lib.atm().reads());
        w.u64(self.lib.atm().writes());
    }

    /// Overwrites every dynamic field from the reader (the counterpart
    /// of [`MachineCtx::save_dynamic`]), validating structural
    /// consistency against the rebuilt configuration.
    fn load_dynamic(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        self.dma = Snapshot::load(r)?;
        self.bus = Snapshot::load(r)?;
        self.cores = Snapshot::load(r)?;
        self.manager = Snapshot::load(r)?;
        let accels: Vec<accelflow_accel::accelerator::Accelerator> = Snapshot::load(r)?;
        if accels.len() != AccelKind::COUNT * self.cfg.instances_per_accel {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot holds {} stations, config builds {}",
                accels.len(),
                AccelKind::COUNT * self.cfg.instances_per_accel
            )));
        }
        self.accels = accels;
        self.shared_queue = Snapshot::load(r)?;
        self.requests = Snapshot::load(r)?;
        self.req_slots = Snapshot::load(r)?;
        self.arrivals = Snapshot::load(r)?;
        if self.arrivals.len() > self.req_slots.len() {
            return Err(SnapshotError::Corrupt(format!(
                "{} pending arrivals but only {} request slots",
                self.arrivals.len(),
                self.req_slots.len()
            )));
        }
        let stats: Vec<ServiceStats> = Snapshot::load(r)?;
        if stats.len() != self.stats.len() {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot holds {} services, restore target has {}",
                stats.len(),
                self.stats.len()
            )));
        }
        self.stats = stats;
        self.totals = Snapshot::load(r)?;
        self.energy = Snapshot::load(r)?;
        self.rng = Snapshot::load(r)?;
        self.tenant_active = Snapshot::load(r)?;
        self.warmup_end = Snapshot::load(r)?;
        self.end = Snapshot::load(r)?;
        self.live = r.u64()?;
        self.auditor = Snapshot::load(r)?;
        self.tel = Snapshot::load(r)?;
        self.faults = Snapshot::load(r)?;
        self.control = Snapshot::load(r)?;
        let atm_reads = r.u64()?;
        let atm_writes = r.u64()?;
        self.lib.atm_mut().restore_counters(atm_reads, atm_writes);
        Ok(())
    }
}

impl Machine {
    /// The configuration-identity hash carried in snapshot headers:
    /// FNV-1a over the config's `Debug` rendering plus the service
    /// names. The workload seed is *not* part of the identity — every
    /// RNG stream position is serialized, so a snapshot carries its
    /// seed's consequences with it.
    pub fn config_hash(cfg: &MachineConfig, service_names: &[String]) -> u64 {
        let mut buf = format!("{cfg:?}").into_bytes();
        for name in service_names {
            buf.push(0);
            buf.extend_from_slice(name.as_bytes());
        }
        fnv1a(&buf)
    }

    /// Serializes the machine and its pending event set into a
    /// versioned snapshot. `queue` is borrowed mutably because
    /// observing delivery order requires a non-destructive drain (see
    /// [`EventQueue::save_snapshot`]); the queue is left undisturbed.
    pub fn snapshot(&self, queue: &mut EventQueue<Ev>) -> Vec<u8> {
        let names: Vec<String> = self.ctx.stats.iter().map(|s| s.name.clone()).collect();
        let mut w = SnapWriter::new();
        write_header(
            &mut w,
            SNAPSHOT_MAGIC,
            Self::config_hash(&self.ctx.cfg, &names),
        );
        self.ctx.save_dynamic(&mut w);
        queue.save_snapshot(&mut w);
        w.into_bytes()
    }

    /// Rebuilds a machine from `cfg` + `service_names` and overwrites
    /// its dynamic state from `bytes`, returning the machine and the
    /// restored event queue (reassemble with
    /// [`Simulation::from_parts`], or use
    /// [`MachineRun::restore`]). Refuses snapshots whose header magic,
    /// schema version, or configuration hash does not match.
    pub fn restore(
        cfg: &MachineConfig,
        service_names: &[String],
        bytes: &[u8],
    ) -> Result<(Machine, EventQueue<Ev>), SnapshotError> {
        let expected = Self::config_hash(cfg, service_names);
        let mut r = SnapReader::new(bytes);
        check_header(&mut r, SNAPSHOT_MAGIC, expected)?;
        let machine = Machine::restore_dynamic(cfg, service_names, &mut r)?;
        let queue = EventQueue::load_snapshot(&mut r)?;
        if !r.is_exhausted() {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes after the event queue",
                bytes.len() - r.position()
            )));
        }
        Ok((machine, queue))
    }

    /// Headerless body of [`Machine::snapshot`] — the cluster layer
    /// embeds per-node machine state under its own single header.
    pub(crate) fn save_dynamic(&self, w: &mut SnapWriter) {
        self.ctx.save_dynamic(w);
    }

    /// Headerless counterpart of [`Machine::save_dynamic`]: rebuilds
    /// statics from the configuration and overwrites dynamics from the
    /// reader.
    pub(crate) fn restore_dynamic(
        cfg: &MachineConfig,
        service_names: &[String],
        r: &mut SnapReader<'_>,
    ) -> Result<Machine, SnapshotError> {
        let mut machine = Machine::new(
            cfg.clone(),
            service_names.to_vec(),
            Vec::new(),
            SimTime::ZERO,
            0,
        );
        machine.ctx.load_dynamic(r)?;
        Ok(machine)
    }
}

// ----- the resumable run handle -----

/// Transparent [`Model`] shim that reports each event before forwarding
/// it to the machine (the anchor for golden event-stream hashing).
pub(crate) struct ObservedMachine<F> {
    pub(crate) machine: Machine,
    pub(crate) observe: F,
}

impl<F: FnMut(SimTime, &Ev)> Model for ObservedMachine<F> {
    type Event = Ev;
    fn handle(&mut self, now: SimTime, event: Ev, queue: &mut EventQueue<Ev>) {
        (self.observe)(now, &event);
        self.machine.handle(now, event, queue);
    }
}

/// A machine run held open for stepwise control: run to an instant,
/// snapshot, append arrivals, resume, finish. [`Machine::run_arrivals`]
/// and friends are one-shot wrappers over this.
///
/// The observer `F` is invoked for every delivered event in delivery
/// order — pass `|_, _| {}` when the event stream is not needed.
///
/// # Example: checkpoint mid-run, fork, resume
///
/// ```
/// use accelflow_core::machine::{Machine, MachineConfig, MachineRun};
/// use accelflow_core::policy::Policy;
/// use accelflow_core::request::{CallSpec, ServiceSpec, StageSpec};
/// use accelflow_sim::time::{SimDuration, SimTime};
/// use accelflow_trace::templates::TemplateId;
///
/// let mut cfg = MachineConfig::new(Policy::AccelFlow);
/// cfg.warmup = SimDuration::from_millis(1);
/// let services = vec![ServiceSpec::new(
///     "Ping",
///     vec![StageSpec::Call(CallSpec::new(TemplateId::T1))],
/// )];
/// let duration = SimDuration::from_millis(4);
/// let mut run = MachineRun::start_with(
///     &cfg, &services, 2_000.0, duration, 7, |_, _| {},
/// );
/// run.run_to(SimTime::ZERO + SimDuration::from_millis(2));
/// let bytes = run.snapshot();
///
/// // The original continues; a fork resumes from the same instant.
/// let straight = run.finish();
/// let mut fork = MachineRun::restore(&cfg, &services, &bytes, |_, _| {}).unwrap();
/// let forked = fork.finish();
/// assert_eq!(straight.completed(), forked.completed());
/// ```
pub struct MachineRun<F: FnMut(SimTime, &Ev)> {
    sim: Simulation<ObservedMachine<F>>,
}

impl<F: FnMut(SimTime, &Ev)> MachineRun<F> {
    /// Opens a run over a pre-generated arrival list. Arrivals stop at
    /// `duration`; [`MachineRun::finish`] grants the drain margin.
    pub fn start(
        cfg: &MachineConfig,
        services: &[ServiceSpec],
        arrivals: Vec<Arrival>,
        duration: SimDuration,
        seed: u64,
        observe: F,
    ) -> Self {
        let names = services.iter().map(|s| s.name.clone()).collect();
        let end = SimTime::ZERO + duration;
        let machine = Machine::new(cfg.clone(), names, arrivals, end, seed);
        let mut sim = Simulation::new(ObservedMachine { machine, observe });
        // Pre-reserve the event heap for the steady-state population:
        // each in-flight request contributes a handful of pending
        // events, bounded by the arrival backlog. Keeps the hot
        // schedule path allocation-free.
        let backlog = sim.model().machine.ctx.arrivals.len().clamp(256, 16_384);
        sim.queue_mut().reserve(backlog);
        if let Some(first) = sim.model().machine.ctx.arrivals.last() {
            let at = first.at;
            sim.queue_mut().schedule_at(at, Ev::Arrive(0));
        }
        // Arm each enabled fault class's Poisson stream (no-op, and no
        // RNG draws, when fault injection is disabled).
        let initial_faults = sim.model_mut().machine.ctx.draw_initial_faults();
        for (at, class) in initial_faults {
            sim.queue_mut().schedule_at(at, Ev::FaultInject(class));
        }
        // Arm the autoscaler's tick chain (no-op without an autoscaler).
        if let Some(at) = sim.model().machine.ctx.first_scale_tick() {
            sim.queue_mut().schedule_at(at, Ev::ScaleTick);
        }
        MachineRun { sim }
    }

    /// [`MachineRun::start`] with Poisson arrivals at `rps_per_service`
    /// for each service over `duration` (the [`Machine::run_workload`]
    /// generator).
    pub fn start_with(
        cfg: &MachineConfig,
        services: &[ServiceSpec],
        rps_per_service: f64,
        duration: SimDuration,
        seed: u64,
        observe: F,
    ) -> Self {
        let timing = {
            let mut t = accelflow_accel::timing::ServiceTimeModel::calibrated(cfg.arch.core_clock);
            t.set_speedup_scale(cfg.speedup_scale);
            t
        };
        let lib = accelflow_trace::templates::TraceLibrary::standard();
        let arrivals = crate::arrivals::poisson_arrivals(
            services,
            &lib,
            &timing,
            rps_per_service,
            duration,
            seed,
        );
        Self::start(cfg, services, arrivals, duration, seed, observe)
    }

    /// Reopens a run from a snapshot taken by [`MachineRun::snapshot`]
    /// (or [`Machine::snapshot`]). The restored run continues exactly
    /// where the saved one stood; extend it with
    /// [`MachineRun::append_arrivals`] for warm-started sweeps.
    pub fn restore(
        cfg: &MachineConfig,
        services: &[ServiceSpec],
        bytes: &[u8],
        observe: F,
    ) -> Result<Self, SnapshotError> {
        let names: Vec<String> = services.iter().map(|s| s.name.clone()).collect();
        let (machine, queue) = Machine::restore(cfg, &names, bytes)?;
        Ok(MachineRun {
            sim: Simulation::from_parts(ObservedMachine { machine, observe }, queue),
        })
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The arrival horizon (measurement window end; excludes drain).
    pub fn end(&self) -> SimTime {
        self.sim.model().machine.ctx.end
    }

    /// Delivers every event strictly before `t`.
    pub fn run_to(&mut self, t: SimTime) {
        self.sim.run_until(t);
    }

    /// Takes a versioned snapshot of the machine and its pending
    /// events. The run is not disturbed and may keep going.
    pub fn snapshot(&mut self) -> Vec<u8> {
        let (model, queue) = self.sim.parts_mut();
        model.machine.snapshot(queue)
    }

    /// Appends later arrivals to a (typically restored) run and extends
    /// the horizon to `new_end` — the warm-start path: simulate the
    /// shared prefix once, snapshot, then fork one restored copy per
    /// grid point and feed each its own tail.
    ///
    /// `tail` must be time-sorted and entirely at-or-after both the
    /// current clock and every pending arrival (it is a *tail*). If the
    /// preloaded arrival chain already drained, a fresh admission chain
    /// is armed at the first appended arrival.
    pub fn append_arrivals(&mut self, tail: Vec<Arrival>, new_end: SimTime) {
        let (model, queue) = self.sim.parts_mut();
        let ctx = &mut model.machine.ctx;
        ctx.end = ctx.end.max(new_end);
        if tail.is_empty() {
            return;
        }
        debug_assert!(tail.windows(2).all(|w| w[0].at <= w[1].at), "tail sorted");
        debug_assert!(
            ctx.arrivals
                .last()
                .is_none_or(|pending| pending.at <= tail[0].at),
            "tail starts after every pending arrival"
        );
        let chain_dead = ctx.arrivals.is_empty();
        let next_idx = ctx.req_slots.len() as u32;
        let first_at = tail[0].at;
        ctx.req_slots
            .extend(std::iter::repeat_n(SlotId::INVALID, tail.len()));
        // `arrivals` is stored reversed (earliest at the back, consumed
        // by pop); the appended tail is later than everything pending,
        // so its reversed form goes in front.
        let mut merged = tail;
        merged.reverse();
        merged.append(&mut ctx.arrivals);
        ctx.arrivals = merged;
        // The admission chain schedules each next Arrive as the prior
        // one delivers; if it already ran dry, re-arm it at the first
        // appended arrival.
        if chain_dead {
            queue.schedule_at(first_at, Ev::Arrive(next_idx));
        }
    }

    /// Runs through the drain window past the horizon and extracts the
    /// report.
    pub fn finish(mut self) -> RunReport {
        let drain = self.sim.model().machine.ctx.end + DRAIN_MARGIN;
        self.sim.run_until(drain);
        let now = self.sim.now();
        let end = self.sim.model().machine.ctx.end;
        let clamped = self.sim.queue_mut().clamped();
        let mut report = self.sim.into_model().machine.ctx.into_report(now, end);
        report.totals.clamped_events = clamped;
        report
    }
}
