//! The `slo_search` workload: one sequential Fig 14 max-throughput
//! search, a stepped probe below the knee, and (traced) the search's
//! pieces and its overload probe.

use std::cell::RefCell;
use std::time::Instant;

use accelflow_accel::timing::ServiceTimeModel;
use accelflow_bench::harness;
use accelflow_bench::sweep::WarmStart;
use accelflow_core::arrivals::poisson_arrivals;
use accelflow_core::machine::{MachineConfig, MachineRun};
use accelflow_core::policy::Policy;
use accelflow_core::request::ServiceSpec;
use accelflow_core::Arrival;
use accelflow_sim::time::{SimDuration, SimTime};
use accelflow_trace::templates::TraceLibrary;
use accelflow_workloads::socialnetwork;

use crate::layers::{Counter, LayerClock, Probe};
use crate::spans::{SpanId, Tracer};
use crate::workloads::{
    check_run, finish_machine, generate, group_args, proc_status_kb, record_reports, record_run,
    run_steps, secs, Mode, Part, Pass, Size, Workload,
};

/// SLO multiple of the `slo_search` throughput search (paper Fig 14).
pub const SLO_MULT: f64 = 5.0;
/// Load of the search's shared warm-up prefix (`harness`'s constant).
const PREFIX_RPS: f64 = 400.0;
/// Starting load of the search's exponential bracket.
const SEARCH_FLOOR_RPS: f64 = 100.0;

/// The `slo_search` machine: RELIEF, the search's 5 ms warm-up prefix.
/// `Smoke` shrinks the machine (as the harness's own search test does)
/// so the search probes small loads.
fn search_config(size: Size, mode: Mode) -> MachineConfig {
    let mut cfg = MachineConfig::new(Policy::Relief);
    cfg.warmup = SimDuration::from_millis(5);
    cfg.audit = mode == Mode::Audit;
    if size == Size::Smoke {
        cfg.arch.cores = 2;
        cfg.arch.pes_per_accelerator = 1;
    }
    cfg
}

/// The probe's timing model, as the harness builds it.
fn probe_timing(cfg: &MachineConfig) -> ServiceTimeModel {
    let mut timing = ServiceTimeModel::calibrated(cfg.arch.core_clock);
    timing.set_speedup_scale(cfg.speedup_scale);
    timing
}

/// The harness's probe window at `rps`: long enough for every service
/// to collect a stable P99.
fn probe_window(rps: f64) -> SimDuration {
    SimDuration::from_millis(((400.0 / rps) * 1000.0).clamp(80.0, 2_000.0) as u64)
}

/// A probe tail at `rps`: Poisson arrivals over `window`, shifted past
/// the prefix (the harness's tail when `window` is [`probe_window`]).
fn probe_tail(
    cfg: &MachineConfig,
    services: &[ServiceSpec],
    rps: f64,
    window: SimDuration,
    seed: u64,
) -> Vec<Arrival> {
    let lib = TraceLibrary::standard();
    let mut tail = poisson_arrivals(services, &lib, &probe_timing(cfg), rps, window, seed);
    for a in &mut tail {
        a.at = SimTime::ZERO + cfg.warmup + SimDuration::from_picos(a.at.as_picos());
    }
    tail
}

fn probe_prefix(cfg: &MachineConfig, services: &[ServiceSpec], seed: u64) -> Vec<Arrival> {
    let lib = TraceLibrary::standard();
    poisson_arrivals(
        services,
        &lib,
        &probe_timing(cfg),
        PREFIX_RPS,
        cfg.warmup,
        seed,
    )
}

/// The first bracket load the sequential search saw fail: the next
/// doubling above the result (bisection never leaves that bracket).
fn first_failing_bracket(max_rps: f64) -> f64 {
    let mut hi = SEARCH_FLOOR_RPS;
    while hi <= max_rps {
        hi *= 2.0;
    }
    hi
}

pub(crate) fn slo_search(
    size: Size,
    seed: u64,
    mode: Mode,
    part: Part,
    tracer: &mut Tracer,
    root: Option<SpanId>,
    pass: &mut Pass,
) {
    let services = vec![socialnetwork::uniq_id(), socialnetwork::login()];
    let cfg = search_config(size, mode);

    let max_rps = match part {
        Part::Probe(known) => known,
        Part::Whole | Part::Search => {
            let span = tracer.begin("bench.max_throughput_with_mode", root);
            let t = Instant::now();
            let found = harness::max_throughput_with_mode(&cfg, &services, SLO_MULT, seed, true);
            let search_s = secs(t);
            pass.host("search_s", search_s);
            pass.host("pass_s", search_s);
            tracer.end(span, Vec::new());
            // The workload's footprint is the search's, not the stepped
            // probe's that follows.
            pass.host("peak_rss_mb", proc_status_kb("VmHWM") / 1024.0);
            Some(found)
        }
    };
    if let Some(max_rps) = max_rps {
        pass.sim("sim_max_rps", max_rps);
        pass.check(max_rps > SEARCH_FLOOR_RPS, || {
            format!("the search found no sustainable load ({max_rps} rps)")
        });
    }
    if part == Part::Search {
        return;
    }

    // The stepped run: a warm-started RELIEF probe at a fixed load below
    // the knee, so the search workload reports the same per-step, set-up
    // and throughput timings as the streaming workloads.
    let steady = (steady_rps(size), steady_window(size));
    if mode == Mode::Traced {
        steady_probe::<LayerClock>(&cfg, &services, steady, seed, tracer, root, pass);
    } else {
        steady_probe::<Counter>(&cfg, &services, steady, seed, tracer, root, pass);
    }
    if mode == Mode::Timed {
        return;
    }
    // The traced and audited passes also cover the search's overload.
    let Some(max_rps) = max_rps else {
        pass.problems
            .push("a traced or audited probe needs the search result".into());
        return;
    };
    if mode == Mode::Traced {
        search_pieces(&cfg, &services, max_rps, seed, tracer, root, pass);
    } else {
        // The overload probe builds the backlogs; audit it too.
        let mut overload = Pass::default();
        let rps = first_failing_bracket(max_rps);
        probe_replay::<Counter>(&cfg, &services, rps, seed, tracer, root, &mut overload);
        for p in overload.problems {
            pass.problems.push(format!("overload probe: {p}"));
        }
    }
}

/// Load of the stepped probe, per service: about half of what the
/// search finds (172,000 RPS on `Full`, 26,800 on `Smoke`), below the
/// knee where the per-request cost is steady. It is fixed, not a share
/// of the result, so the probe's work does not follow the search.
fn steady_rps(size: Size) -> f64 {
    match size {
        Size::Full => 85_000.0,
        Size::Smoke => 13_000.0,
    }
}

/// Simulated window of the stepped probe.
fn steady_window(size: Size) -> SimDuration {
    match size {
        Size::Full => SimDuration::from_millis(1_000),
        Size::Smoke => SimDuration::from_millis(40),
    }
}

/// A warm-started probe at `rps` over `window` with a stepped tail: the
/// prefix is simulated and snapshotted, the snapshot restored with the
/// observer, and the tail appended (the `WarmStart::fork` sequence).
fn steady_probe<P: Probe + Default>(
    cfg: &MachineConfig,
    services: &[ServiceSpec],
    (rps, window): (f64, SimDuration),
    seed: u64,
    tracer: &mut Tracer,
    root: Option<SpanId>,
    pass: &mut Pass,
) {
    let t_setup = Instant::now();
    let prefix = probe_prefix(cfg, services, seed);
    let mut warm = MachineRun::start(cfg, services, prefix, cfg.warmup, seed, |_, _| {});
    let prefix_end = SimTime::ZERO + cfg.warmup;
    warm.run_to(prefix_end);
    let bytes = warm.snapshot();
    drop(warm);
    pass.sim("sim.snapshot_bytes", bytes.len() as f64);
    let tail = generate(pass, tracer, root, "workloads.poisson_arrivals", || {
        probe_tail(cfg, services, rps, window, seed)
    });
    let end = prefix_end + window;
    let total = tail.len() as u64;

    let probe = RefCell::new(P::default());
    let span = tracer.begin("core.MachineRun::restore", root);
    let t_start = Instant::now();
    let mut run = MachineRun::restore(cfg, services, &bytes, |_, ev| probe.borrow_mut().event(ev))
        .expect("a snapshot restores under its own config");
    run.append_arrivals(tail, end);
    let start_s = secs(t_start);
    tracer.end(span, Vec::new());
    let setup_s = secs(t_setup);

    let steps = run_steps(
        |t| run.run_to(t),
        prefix_end,
        end,
        Workload::SloSearch.steps(),
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
    check_run(pass, Some(total), probe.borrow().arrivals(), total);
}

/// Replays one search probe at `rps` through `MachineRun::start` (the
/// cold `WarmStart` sequence) under the probe, into `pass`.
fn probe_replay<P: Probe + Default>(
    cfg: &MachineConfig,
    services: &[ServiceSpec],
    rps: f64,
    seed: u64,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    pass: &mut Pass,
) {
    let prefix = probe_prefix(cfg, services, seed);
    let window = probe_window(rps);
    let tail = probe_tail(cfg, services, rps, window, seed);
    let prefix_end = SimTime::ZERO + cfg.warmup;
    let total = tail.len() as u64;
    let delivered = (prefix.len() + tail.len()) as u64;
    pass.sim("workloads.arrivals", total as f64);
    let probe = RefCell::new(P::default());
    let span = tracer.begin("core.MachineRun::start", parent);
    let mut run = MachineRun::start(cfg, services, prefix, cfg.warmup, seed, |_, ev| {
        probe.borrow_mut().event(ev)
    });
    tracer.end(span, Vec::new());
    probe.borrow_mut().open();
    run.run_to(prefix_end);
    run.append_arrivals(tail, prefix_end + window);
    probe.borrow_mut().close();
    let (report, _) = finish_machine(run, &probe, tracer, parent);
    record_reports(pass, &[&report], services.len());
    let events = probe.borrow().events();
    pass.sim("sim.events", events as f64);
    pass.groups = probe.borrow().groups();
    check_run(pass, Some(total), probe.borrow().arrivals(), delivered);
}

/// The traced pieces of the search: its unloaded baseline, the shared
/// prefix, a fork at the result, and the first failing bracket probe,
/// forked and then replayed under the layer clock.
fn search_pieces(
    cfg: &MachineConfig,
    services: &[ServiceSpec],
    max_rps: f64,
    seed: u64,
    tracer: &mut Tracer,
    root: Option<SpanId>,
    pass: &mut Pass,
) {
    let timed =
        |pass: &mut Pass, tracer: &mut Tracer, key: &str, name: &str, f: &mut dyn FnMut()| {
            let span = tracer.begin(name, root);
            let t = Instant::now();
            f();
            pass.host(key, secs(t));
            tracer.end(span, Vec::new());
        };
    timed(
        pass,
        tracer,
        "bench.unloaded_s",
        "bench.unloaded_p99s",
        &mut || {
            std::hint::black_box(harness::unloaded_p99s(cfg, services, seed));
        },
    );
    let mut warm = None;
    timed(
        pass,
        tracer,
        "bench.prefix_s",
        "bench.WarmStart::new",
        &mut || {
            warm = Some(WarmStart::new(
                cfg.clone(),
                services.to_vec(),
                probe_prefix(cfg, services, seed),
                cfg.warmup,
                seed,
                true,
            ));
        },
    );
    let warm = warm.expect("prefix built");
    let fork_at = |rps: f64| {
        let window = probe_window(rps);
        warm.fork(
            probe_tail(cfg, services, rps, window, seed),
            warm.prefix_end() + window,
        )
    };
    timed(
        pass,
        tracer,
        "bench.fork_s",
        "bench.WarmStart::fork",
        &mut || {
            std::hint::black_box(fork_at(max_rps));
        },
    );
    let overload_rps = first_failing_bracket(max_rps);
    let mut forked = None;
    timed(
        pass,
        tracer,
        "bench.overload_fork_s",
        "bench.WarmStart::fork_overload",
        &mut || {
            forked = Some(fork_at(overload_rps));
        },
    );
    let forked = forked.expect("overload probe ran");

    // The replay under the layer clock stands in for the fork, so its
    // simulated results must match the fork's bit for bit.
    let mut replay = Pass::default();
    let span = tracer.begin("bench.overload_replay", root);
    probe_replay::<LayerClock>(cfg, services, overload_rps, seed, tracer, span, &mut replay);
    tracer.end(span, group_args(&replay.groups));
    let mut fork = Pass::default();
    record_reports(&mut fork, &[&forked], services.len());
    let diverged: Vec<&String> = fork
        .sim
        .iter()
        .filter(|(k, v)| replay.sim.get(*k).map(|r| r.to_bits()) != Some(v.to_bits()))
        .map(|(k, _)| k)
        .collect();
    pass.check(diverged.is_empty(), || {
        format!("the overload replay diverged from WarmStart::fork in {diverged:?}")
    });
    pass.sim("bench.overload_rps", overload_rps);
    for (k, v) in &replay.sim {
        pass.sim(&format!("overload.{k}"), *v);
    }
    // The search's simulation cost is its overload probe's.
    pass.groups = replay.groups;
    for p in replay.problems {
        pass.problems.push(format!("overload replay: {p}"));
    }
}
