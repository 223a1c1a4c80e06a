//! The three benchmark workloads and one pass over each: the streaming
//! workloads live here, `slo_search` in `search`.
//!
//! A pass builds its inputs from the seed, runs the simulation in fixed
//! simulated steps, and returns host-side measurements, the
//! deterministic simulated results, and any failed correctness check.
//! The same function serves the timed (untraced), traced and audited
//! passes; only the observer probe, the span recorder and
//! `MachineConfig::audit` differ, so the simulated results of all three
//! must agree bit for bit.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use accelflow_accel::timing::ServiceTimeModel;
use accelflow_bench::harness::{self, Scale};
use accelflow_core::cluster::{BalancerKind, ClusterConfig, ClusterReport, ClusterRun};
use accelflow_core::control::{AutoscalerConfig, ControlConfig, SloTarget};
use accelflow_core::faults::FaultConfig;
use accelflow_core::machine::{MachineConfig, MachineRun};
use accelflow_core::policy::Policy;
use accelflow_core::stats::RunReport;
use accelflow_core::Arrival;
use accelflow_sim::time::{SimDuration, SimTime};
use accelflow_trace::templates::TraceLibrary;
use accelflow_workloads::openloop::{openloop_arrivals, Diurnal};
use accelflow_workloads::socialnetwork;

use crate::layers::{Counter, GroupStats, LayerClock, Probe, GROUPS};
use crate::spans::{SpanId, Tracer};

/// Per-service mean load of the streaming workloads (the paper's
/// real-trace average, Fig 11).
pub const RPS_PER_SERVICE: f64 = 13_400.0;
/// Nodes of the `openloop_fleet` cluster.
pub const FLEET_NODES: usize = 4;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One AccelFlow machine, 8 SocialNetwork services, Alibaba-like
    /// bursty arrivals (Fig 11).
    BurstyMachine,
    /// A 4-node cluster under a one-day diurnal open-loop stream with
    /// control, autoscaling, keep-alive and fault injection on.
    OpenloopFleet,
    /// One sequential Fig 14 max-throughput search under RELIEF.
    SloSearch,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::BurstyMachine,
        Workload::OpenloopFleet,
        Workload::SloSearch,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BurstyMachine => "bursty_machine",
            Workload::OpenloopFleet => "openloop_fleet",
            Workload::SloSearch => "slo_search",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated steps of the stepped run (each timed on its own).
    pub fn steps(self) -> u64 {
        match self {
            Workload::OpenloopFleet => 2_000,
            Workload::BurstyMachine | Workload::SloSearch => 1_000,
        }
    }
}

/// How big a pass is. `Full` is the benchmark; `Smoke` keeps every code
/// path (and every metric) at a size the test suite can afford.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes documented in README.md.
    Full,
    /// A few milliseconds of simulated time per workload.
    Smoke,
}

impl Size {
    /// Parses `full` or `smoke`.
    pub fn parse(name: &str) -> Option<Size> {
        match name {
            "full" => Some(Size::Full),
            "smoke" => Some(Size::Smoke),
            _ => None,
        }
    }
}

/// What a pass is for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Untraced: event counts only; the end-to-end timings come from here.
    Timed,
    /// Traced: per-group host time plus spans.
    Traced,
    /// Untraced with the invariant auditor on in every machine.
    Audit,
}

/// Named numeric results. A `BTreeMap` so iteration order is stable.
pub type Values = BTreeMap<String, f64>;

/// Everything one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host-time and host-memory results.
    pub host: Values,
    /// Simulated results and modelled-component counts: deterministic
    /// per seed, identical across modes.
    pub sim: Values,
    /// Host milliseconds of each `run_to` step.
    pub steps_ms: Vec<f64>,
    /// Per-group event counts and self time (traced passes only).
    pub groups: GroupStats,
    /// Failed correctness checks, one line each.
    pub problems: Vec<String>,
}

impl Pass {
    pub(crate) fn host(&mut self, k: &str, v: f64) {
        self.host.insert(k.to_string(), v);
    }
    pub(crate) fn sim(&mut self, k: &str, v: f64) {
        self.sim.insert(k.to_string(), v);
    }
    pub(crate) fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// Which pieces of a `slo_search` pass run; the streaming workloads
/// always run whole.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Part {
    /// The search, then the stepped probe.
    Whole,
    /// The search alone.
    Search,
    /// The stepped probe alone. `Some` carries the search result an
    /// earlier pass found: the pass reports it, and an audited pass
    /// also probes the overload above it.
    Probe(Option<f64>),
}

/// Runs one pass of `workload` at `seed`.
pub fn run_pass(
    workload: Workload,
    size: Size,
    seed: u64,
    mode: Mode,
    part: Part,
    tracer: &mut Tracer,
) -> Pass {
    let root = tracer.begin(workload.name(), None);
    let mut pass = Pass::default();
    match (workload, mode) {
        (Workload::BurstyMachine, Mode::Traced) => {
            bursty::<LayerClock>(size, seed, mode, tracer, root, &mut pass)
        }
        (Workload::BurstyMachine, _) => {
            bursty::<Counter>(size, seed, mode, tracer, root, &mut pass)
        }
        (Workload::OpenloopFleet, Mode::Traced) => {
            fleet::<LayerClock>(size, seed, mode, tracer, root, &mut pass)
        }
        (Workload::OpenloopFleet, _) => fleet::<Counter>(size, seed, mode, tracer, root, &mut pass),
        (Workload::SloSearch, _) => {
            crate::search::slo_search(size, seed, mode, part, tracer, root, &mut pass)
        }
    }
    if !pass.host.contains_key("peak_rss_mb") {
        pass.host("peak_rss_mb", proc_status_kb("VmHWM") / 1024.0);
    }
    tracer.end(root, Vec::new());
    pass
}

// ----- host memory -----

/// A `kB` field of `/proc/self/status` (0 where unavailable).
pub fn proc_status_kb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| {
            let rest = l.strip_prefix(field)?.strip_prefix(':')?;
            rest.split_whitespace().next()?.parse::<f64>().ok()
        })
        .unwrap_or(0.0)
}

// ----- shared pieces -----

pub(crate) fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn at(ps: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_picos(ps)
}

/// Times a generator call: host seconds, arrival count and RSS growth
/// per arrival.
pub(crate) fn generate(
    pass: &mut Pass,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    name: &str,
    f: impl FnOnce() -> Vec<Arrival>,
) -> Vec<Arrival> {
    let span = tracer.begin(name, parent);
    let rss0 = proc_status_kb("VmRSS");
    let t = Instant::now();
    let arrivals = f();
    let gen_s = secs(t);
    let grown = (proc_status_kb("VmRSS") - rss0).max(0.0) * 1024.0;
    let n = arrivals.len() as f64;
    tracer.end(span, vec![("arrivals".into(), n)]);
    pass.host("workloads.gen_s", gen_s);
    pass.host("workloads.bytes_per_arrival", grown / n.max(1.0));
    pass.sim("workloads.arrivals", n);
    arrivals
}

/// Advances a run from `from` to `to` in `steps` equal simulated steps,
/// timing each `run_to` call; traced runs attach the step's per-group
/// self time to its span.
pub(crate) fn run_steps<P: Probe>(
    mut run_to: impl FnMut(SimTime),
    from: SimTime,
    to: SimTime,
    steps: u64,
    probe: &RefCell<P>,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
) -> Vec<f64> {
    let (a, b) = (from.as_picos(), to.as_picos());
    let mut out = Vec::with_capacity(steps as usize);
    for k in 1..=steps {
        let t = at(a + (b - a) * k / steps);
        let before = tracer.enabled().then(|| probe.borrow().groups());
        let span = tracer.begin("core.run_to", parent);
        let t0 = Instant::now();
        probe.borrow_mut().open();
        run_to(t);
        probe.borrow_mut().close();
        out.push(t0.elapsed().as_secs_f64() * 1e3);
        let args = before
            .map(|b| group_args(&probe.borrow().groups().since(&b)))
            .unwrap_or_default();
        tracer.end(span, args);
    }
    out
}

pub(crate) fn group_args(d: &GroupStats) -> Vec<(String, f64)> {
    let mut args = Vec::new();
    for (g, name) in GROUPS.iter().enumerate() {
        if d.events[g] > 0 {
            args.push((format!("{name}.events"), d.events[g] as f64));
            args.push((format!("{name}.self_us"), d.self_ns[g] as f64 / 1e3));
        }
    }
    args
}

/// Host-side results shared by every workload's stepped run.
pub(crate) fn record_run(
    pass: &mut Pass,
    setup_s: f64,
    start_s: f64,
    steps_ms: Vec<f64>,
    finish_s: f64,
) {
    let run_s = steps_ms.iter().sum::<f64>() / 1e3 + finish_s;
    pass.host("setup_s", setup_s);
    pass.host("core.start_s", start_s);
    pass.host("core.finish_s", finish_s);
    pass.host("run_s", run_s);
    pass.steps_ms = steps_ms;
}

/// Simulated results and modelled-component counts of machine reports
/// (one per node); `services` is the number of services sharing the
/// load.
pub(crate) fn record_reports(pass: &mut Pass, reports: &[&RunReport], services: usize) {
    let sum = |f: &dyn Fn(&RunReport) -> f64| reports.iter().map(|r| f(r)).sum::<f64>();
    let offered = sum(&|r| r.offered() as f64);
    let rejected = sum(&|r| r.control.rejected() as f64);
    let completed = sum(&|r| r.completed() as f64);
    let errors = sum(&|r| r.per_service.iter().map(|s| s.errors).sum::<u64>() as f64);
    let good = completed - errors;
    let attempted = offered + rejected;
    pass.sim("sim.offered", offered);
    pass.sim("sim.rejected", rejected);
    pass.sim("sim.completed_ok", good);
    pass.sim("failed_frac", (attempted - good) / attempted.max(1.0));

    let mut latency = accelflow_sim::stats::Histogram::new();
    for r in reports {
        latency.merge(&r.aggregate_latency());
    }
    pass.sim(
        "sim_p99_us",
        latency.percentile_duration(99.0).as_micros_f64(),
    );
    let measured = reports[0].measured.as_secs_f64();
    pass.sim("sim_goodput_rps", good / measured / services as f64);

    let jobs = sum(&|r| r.totals.accel_jobs.iter().sum::<u64>() as f64);
    pass.sim("accel.jobs", jobs);
    pass.sim(
        "accel.util_mean",
        sum(&|r| {
            let u = &r.totals.accel_utilization;
            u.iter().sum::<f64>() / u.len() as f64
        }) / reports.len() as f64,
    );
    pass.sim(
        "accel.enqueue_rejections",
        sum(&|r| r.totals.enqueue_rejections as f64),
    );
    pass.sim("accel.overflows", sum(&|r| r.totals.overflows as f64));
    let hits = sum(&|r| r.totals.tlb.iter().map(|t| t.0).sum::<u64>() as f64);
    let misses = sum(&|r| r.totals.tlb.iter().map(|t| t.1).sum::<u64>() as f64);
    pass.sim("arch.tlb_hit_ratio", hits / (hits + misses).max(1.0));
    pass.sim("arch.dma_bytes", sum(&|r| r.totals.dma_bytes as f64));
    pass.sim("trace.atm_reads", sum(&|r| r.totals.atm_reads as f64));
    let instrs = sum(&|r| r.totals.dispatcher_instrs as f64);
    let dispatches = sum(&|r| r.totals.dispatches as f64);
    pass.sim(
        "trace.glue_instr_per_dispatch",
        instrs / dispatches.max(1.0),
    );
    let orch = sum(&|r| r.total_breakdown().orchestration.as_secs_f64());
    let server = sum(&|r| r.total_breakdown().on_server().as_secs_f64());
    pass.sim(
        "core.orchestration_frac",
        orch / server.max(f64::MIN_POSITIVE),
    );
    let fallbacks = sum(&|r| r.totals.fallbacks as f64);
    pass.sim(
        "core.fallback_frac",
        fallbacks / (jobs + fallbacks).max(1.0),
    );
    pass.sim(
        "core.tenant_throttled",
        sum(&|r| r.totals.tenant_throttled as f64),
    );
    pass.sim(
        "core.manager_busy_frac",
        sum(&|r| r.totals.manager_busy.as_secs_f64() / r.ended_at.as_secs_f64().max(1e-12))
            / reports.len() as f64,
    );
    pass.sim("faults.injected", sum(&|r| r.faults.injected() as f64));
    pass.sim(
        "faults.recovery_actions",
        sum(&|r| r.faults.recovery_actions() as f64),
    );
    pass.sim("control.scale_ups", sum(&|r| r.control.scale_ups as f64));
    pass.sim(
        "control.scale_downs",
        sum(&|r| r.control.scale_downs as f64),
    );
    pass.sim("control.rejected", rejected);
    // One machine: no relocation, perfectly balanced (the fleet
    // overwrites these from its health report).
    pass.sim("cluster.relocations", 0.0);
    pass.sim("cluster.suspensions", 0.0);
    pass.sim("cluster.dispatch_imbalance", 1.0);
    pass.sim("audit.violations", sum(&|r| r.audit.violation_count as f64));
    pass.sim("sim.clamped", sum(&|r| r.totals.clamped_events as f64));
}

/// Conservation and kernel-sanity checks on a finished run: every
/// generated arrival was delivered exactly once; every measured one was
/// admitted (`offered`) or rejected at ingress (checked exactly when
/// `measured` is known: a cluster's link delay moves arrivals across the
/// window edges); no more requests completed than were admitted; the
/// kernel clamped nothing; and the auditor (when on) found nothing.
pub(crate) fn check_run(pass: &mut Pass, measured: Option<u64>, delivered: u64, total: u64) {
    let offered = pass.sim["sim.offered"] as u64;
    let rejected = pass.sim["sim.rejected"] as u64;
    let good = pass.sim["sim.completed_ok"] as u64;
    pass.check(delivered == total, || {
        format!("conservation: {delivered} arrivals delivered of {total} generated")
    });
    match measured {
        Some(m) => pass.check(offered + rejected == m, || {
            format!(
                "conservation: {offered} offered + {rejected} rejected != {m} measured arrivals"
            )
        }),
        None => pass.check(offered + rejected <= total, || {
            format!("conservation: {offered} offered + {rejected} rejected > {total} arrivals")
        }),
    }
    pass.check(good <= offered, || {
        format!("conservation: {good} completed > {offered} offered")
    });
    let clamped = pass.sim["sim.clamped"];
    pass.check(clamped == 0.0, || {
        format!("kernel clamped {clamped} events")
    });
    let violations = pass.sim["audit.violations"];
    pass.check(violations == 0.0, || {
        format!("auditor reported {violations} violations")
    });
}

fn measured_count(arrivals: &[Arrival], from: SimTime, to: SimTime) -> u64 {
    arrivals
        .iter()
        .filter(|a| a.at >= from && a.at < to)
        .count() as u64
}

// ----- bursty_machine -----

fn bursty<P: Probe + Default>(
    size: Size,
    seed: u64,
    mode: Mode,
    tracer: &mut Tracer,
    root: Option<SpanId>,
    pass: &mut Pass,
) {
    let ms = match size {
        Size::Full => 1_000,
        Size::Smoke => 20,
    };
    let t_setup = Instant::now();
    let services = socialnetwork::all();
    let scale = Scale {
        duration: SimDuration::from_millis(ms),
        warmup: SimDuration::from_millis(ms / 8),
        rps: RPS_PER_SERVICE,
        seed,
    };
    let mut cfg = harness::machine_config(Policy::AccelFlow, scale);
    cfg.audit = mode == Mode::Audit;
    let arrivals = generate(pass, tracer, root, "workloads.bursty_arrivals", || {
        harness::shared_arrivals(&services, scale)
    });
    let end = SimTime::ZERO + scale.duration;
    let measured = measured_count(&arrivals, SimTime::ZERO + scale.warmup, end);
    let total = arrivals.len() as u64;

    let probe = RefCell::new(P::default());
    let span = tracer.begin("core.MachineRun::start", root);
    let t_start = Instant::now();
    let mut run = MachineRun::start(&cfg, &services, arrivals, scale.duration, seed, |_, ev| {
        probe.borrow_mut().event(ev)
    });
    let start_s = secs(t_start);
    tracer.end(span, Vec::new());
    let setup_s = secs(t_setup);

    let steps = run_steps(
        |t| run.run_to(t),
        SimTime::ZERO,
        end,
        Workload::BurstyMachine.steps(),
        &probe,
        tracer,
        root,
    );
    let (report, finish_s) = finish_machine(run, &probe, tracer, root);
    record_run(pass, setup_s, start_s, steps, finish_s);
    record_reports(pass, &[&report], services.len());
    let events = probe.borrow().events();
    pass.sim("sim.events", events as f64);
    pass.groups = probe.borrow().groups();
    check_run(pass, Some(measured), probe.borrow().arrivals(), total);
}

pub(crate) fn finish_machine<F: FnMut(SimTime, &accelflow_core::machine::Ev), P: Probe>(
    run: MachineRun<F>,
    probe: &RefCell<P>,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
) -> (RunReport, f64) {
    let span = tracer.begin("core.MachineRun::finish", parent);
    let t = Instant::now();
    probe.borrow_mut().open();
    let report = run.finish();
    probe.borrow_mut().close();
    let finish_s = secs(t);
    tracer.end(span, Vec::new());
    (report, finish_s)
}

// ----- openloop_fleet -----

/// The narrow fleet node of `openloop_fleet` (as in `stats_openloop`):
/// one lit station saturates at the diurnal peak.
fn fleet_node(day: SimDuration, mode: Mode) -> MachineConfig {
    let mut cfg = MachineConfig::new(Policy::AccelFlow);
    cfg.warmup = SimDuration::from_picos(day.as_picos() / 120);
    cfg.audit = mode == Mode::Audit;
    cfg.arch.pes_per_accelerator = 2;
    cfg.speedup_scale = 0.25;
    cfg.instances_per_accel = 4;
    cfg.faults = FaultConfig::uniform(0.5);
    cfg.control = ControlConfig {
        autoscaler: Some(AutoscalerConfig::reactive()),
        slo: Some(SloTarget {
            window: SimDuration::from_picos(day.as_picos() / 256),
            p99_target: SimDuration::from_micros(1_000),
        }),
        ..ControlConfig::disabled()
    };
    cfg
}

fn fleet<P: Probe + Default>(
    size: Size,
    seed: u64,
    mode: Mode,
    tracer: &mut Tracer,
    root: Option<SpanId>,
    pass: &mut Pass,
) {
    let ms = match size {
        Size::Full => 2_400,
        Size::Smoke => 24,
    };
    let t_setup = Instant::now();
    let day = SimDuration::from_millis(ms);
    let services = vec![socialnetwork::uniq_id(), socialnetwork::login()];
    let node = fleet_node(day, mode);
    let mut cfg = ClusterConfig::new(FLEET_NODES, node);
    cfg.balancer = BalancerKind::LeastLoaded;
    cfg.keepalive = Some(SimDuration::from_micros(100));
    let lib = TraceLibrary::standard();
    let timing = ServiceTimeModel::calibrated(cfg.node.arch.core_clock);
    let arrivals = generate(pass, tracer, root, "workloads.openloop_arrivals", || {
        openloop_arrivals(
            &Diurnal::day(day, 0.8),
            &services,
            &lib,
            &timing,
            RPS_PER_SERVICE * FLEET_NODES as f64,
            day,
            seed,
        )
    });
    let end = SimTime::ZERO + day;
    let total = arrivals.len() as u64;

    let probe = RefCell::new(P::default());
    let span = tracer.begin("core.ClusterRun::start", root);
    let t_start = Instant::now();
    let mut run = ClusterRun::start(&cfg, &services, arrivals, day, seed, |_, _, ev| {
        probe.borrow_mut().event(ev)
    });
    let start_s = secs(t_start);
    tracer.end(span, Vec::new());
    let setup_s = secs(t_setup);

    let steps = run_steps(
        |t| run.run_to(t),
        SimTime::ZERO,
        end,
        Workload::OpenloopFleet.steps(),
        &probe,
        tracer,
        root,
    );
    let span = tracer.begin("core.ClusterRun::finish", root);
    let t = Instant::now();
    probe.borrow_mut().open();
    let report: ClusterReport = run.finish();
    probe.borrow_mut().close();
    let finish_s = secs(t);
    tracer.end(span, Vec::new());

    record_run(pass, setup_s, start_s, steps, finish_s);
    let nodes: Vec<&RunReport> = report.per_node.iter().collect();
    record_reports(pass, &nodes, services.len() * FLEET_NODES);
    pass.sim("sim.events", report.events as f64);
    pass.sim(
        "sim.clamped",
        pass.sim["sim.clamped"] + report.clamped as f64,
    );
    pass.sim("sim_slo_ok_frac", report.control().slo_compliance());
    pass.sim("cluster.relocations", report.health.relocations as f64);
    pass.sim("cluster.suspensions", report.health.suspensions as f64);
    pass.sim("cluster.dispatch_imbalance", report.dispatch_imbalance());
    pass.groups = probe.borrow().groups();
    check_run(pass, None, probe.borrow().arrivals(), total);
}
