//! Standard experiment plumbing: run scales, policy runs with common
//! random numbers, unloaded-latency probes, and the SLO-bounded
//! max-throughput search (paper Fig 14: "the maximum load without
//! violating the SLO", SLO = 5× the unloaded service execution time).

use accelflow_accel::timing::ServiceTimeModel;
use accelflow_core::arrivals::Arrival;
use accelflow_core::machine::{Machine, MachineConfig};
use accelflow_core::policy::Policy;
use accelflow_core::request::ServiceSpec;
use accelflow_core::stats::RunReport;
use accelflow_sim::time::SimDuration;
use accelflow_trace::templates::TraceLibrary;
use accelflow_workloads::arrivals::{bursty_arrivals, BurstyProfile};

use crate::sweep;

/// The run scale of an experiment (duration, warmup, per-service load).
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Arrival window.
    pub duration: SimDuration,
    /// Warmup excluded from measurement.
    pub warmup: SimDuration,
    /// Mean requests/second per service (the paper's real-trace average
    /// is 13.4 kRPS).
    pub rps: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Scale {
    /// The default experiment scale; override with the environment
    /// variables `ACCELFLOW_DURATION_MS`, `ACCELFLOW_RPS`, and
    /// `ACCELFLOW_SEED`.
    pub fn from_env() -> Self {
        let ms = std::env::var("ACCELFLOW_DURATION_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(160u64);
        let rps = std::env::var("ACCELFLOW_RPS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(13_400.0f64);
        let seed = std::env::var("ACCELFLOW_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(42u64);
        Scale {
            duration: SimDuration::from_millis(ms),
            warmup: SimDuration::from_millis((ms / 8).max(2)),
            rps,
            seed,
        }
    }

    /// A small scale for tests and criterion benches.
    pub fn quick() -> Self {
        Scale {
            duration: SimDuration::from_millis(40),
            warmup: SimDuration::from_millis(4),
            rps: 2_000.0,
            seed: 42,
        }
    }
}

/// A machine config at this scale for a policy.
pub fn machine_config(policy: Policy, scale: Scale) -> MachineConfig {
    let mut cfg = MachineConfig::new(policy);
    cfg.warmup = scale.warmup;
    cfg
}

/// Generates the Alibaba-like bursty arrivals once, so every policy
/// sees the same requests (common random numbers).
pub fn shared_arrivals(services: &[ServiceSpec], scale: Scale) -> Vec<Arrival> {
    let lib = TraceLibrary::standard();
    let timing =
        ServiceTimeModel::calibrated(accelflow_arch::config::ArchConfig::icelake().core_clock);
    bursty_arrivals(
        services,
        &lib,
        &timing,
        scale.rps,
        scale.duration,
        scale.seed,
        &BurstyProfile::alibaba_like(),
    )
}

/// Runs one policy over a shared arrival list.
pub fn run_policy(
    policy: Policy,
    services: &[ServiceSpec],
    arrivals: Vec<Arrival>,
    scale: Scale,
) -> RunReport {
    let cfg = machine_config(policy, scale);
    Machine::run_arrivals(&cfg, services, arrivals, scale.duration, scale.seed)
}

/// Runs one policy with its own Poisson arrivals at `rps` per service.
pub fn run_poisson(policy: Policy, services: &[ServiceSpec], rps: f64, scale: Scale) -> RunReport {
    let cfg = machine_config(policy, scale);
    Machine::run_workload(&cfg, services, rps, scale.duration, scale.seed)
}

/// Per-service mean latency on an unloaded system (one request in
/// flight at a time, in expectation).
pub fn unloaded_means(policy: Policy, services: &[ServiceSpec], seed: u64) -> Vec<SimDuration> {
    let mut cfg = MachineConfig::new(policy);
    cfg.warmup = SimDuration::from_millis(1);
    let report = Machine::run_workload(
        &cfg,
        services,
        120.0, // light enough that requests almost never overlap
        SimDuration::from_millis(120),
        seed,
    );
    report.per_service.iter().map(|s| s.mean()).collect()
}

/// Per-service P99 latency on an unloaded system — the baseline for
/// the SLO check (comparing loaded P99 against unloaded P99 makes the
/// check robust to the workload's intrinsic stragglers).
pub fn unloaded_p99s(cfg: &MachineConfig, services: &[ServiceSpec], seed: u64) -> Vec<SimDuration> {
    let mut u = cfg.clone();
    u.warmup = SimDuration::from_millis(1);
    // Long light-load run: the P99 estimate needs enough samples per
    // service to capture the workload's intrinsic stragglers.
    let report = Machine::run_workload(&u, services, 400.0, SimDuration::from_millis(1_500), seed);
    report.per_service.iter().map(|s| s.p99()).collect()
}

/// Whether a run meets the SLO: every service's P99 within
/// `slo_mult ×` its unloaded mean, and (almost) nothing left behind.
pub fn meets_slo(report: &RunReport, unloaded: &[SimDuration], slo_mult: f64) -> bool {
    if report.completion_ratio() < 0.97 {
        return false;
    }
    report.per_service.iter().zip(unloaded).all(|(s, u)| {
        if s.completed < 200 {
            return true; // not enough signal to fail a service
        }
        s.p99() <= *u * slo_mult
    })
}

/// Binary-searches the maximum per-service load (requests/second) that
/// still meets the SLO (paper Fig 14; SLO = 5× unloaded).
pub fn max_throughput(policy: Policy, services: &[ServiceSpec], slo_mult: f64, seed: u64) -> f64 {
    let mut cfg = MachineConfig::new(policy);
    cfg.warmup = SimDuration::from_millis(5);
    max_throughput_with(&cfg, services, slo_mult, seed)
}

/// [`max_throughput`] with an explicit machine configuration (smaller
/// machines for tests, PE sweeps for Fig 19, deadline scheduling for
/// §VII-A3).
///
/// With more than one sweep thread available this runs the
/// *speculative* parallel search: the unloaded baseline and all bracket
/// doublings go out as one [`sweep::map`], then each bisection round
/// evaluates the next few levels of the decision tree concurrently.
/// Every probe is a pure function of `rps` (seeded simulation, fixed
/// window), so the speculative walk lands on exactly the probes the
/// sequential search would have made and returns a bit-identical
/// result — it only trades redundant probe work for wall-clock.
///
/// Probes always warm-start from a shared prefix snapshot; see
/// [`max_throughput_with_mode`] for the cold path.
pub fn max_throughput_with(
    cfg: &MachineConfig,
    services: &[ServiceSpec],
    slo_mult: f64,
    seed: u64,
) -> f64 {
    max_throughput_with_mode(cfg, services, slo_mult, seed, true)
}

/// [`max_throughput_with`] with the warm-start mode explicit. With
/// `warm = false` every probe re-simulates the shared prefix instead of
/// forking it from a snapshot — same two-phase code path, byte-identical
/// results (pinned in the bench determinism suite), just slower. The
/// cold mode is the honest baseline for the warm-start speedup row in
/// `docs/BENCHMARKS.md`.
pub fn max_throughput_with_mode(
    cfg: &MachineConfig,
    services: &[ServiceSpec],
    slo_mult: f64,
    seed: u64,
    warm: bool,
) -> f64 {
    let prefix = probe_prefix(cfg, services, seed, warm);
    if sweep::parallelism() == 1 || sweep::in_sweep() {
        max_throughput_sequential(&prefix, cfg, services, slo_mult, seed)
    } else {
        max_throughput_speculative(&prefix, cfg, services, slo_mult, seed)
    }
}

/// Starting load of the throughput search (requests/second/service).
const SEARCH_FLOOR_RPS: f64 = 100.0;
/// Doubling steps in the exponential bracket phase.
const BRACKET_STEPS: usize = 12;
/// Halving steps in the bisection phase.
const BISECT_STEPS: usize = 7;
/// Load of the shared warm-up prefix every probe forks from — fixed
/// (not the probe's own load) so the prefix is common to the whole
/// search and can be simulated once.
const PREFIX_RPS: f64 = 400.0;

/// The shared probe prefix of one throughput search: `cfg.warmup` of
/// arrivals at the fixed [`PREFIX_RPS`], simulated once and
/// snapshotted when `warm` (see [`sweep::WarmStart`]).
///
/// Probes historically ran their own load from t = 0, so the queue
/// ramp-up transient fell inside the (excluded) warmup window; with a
/// shared light-load prefix the ramp to the probe's load happens at
/// the measurement boundary instead, which makes the probe marginally
/// more conservative — and identical for every probe, warm or cold.
fn probe_prefix(
    cfg: &MachineConfig,
    services: &[ServiceSpec],
    seed: u64,
    warm: bool,
) -> sweep::WarmStart {
    let lib = TraceLibrary::standard();
    let mut timing = ServiceTimeModel::calibrated(cfg.arch.core_clock);
    timing.set_speedup_scale(cfg.speedup_scale);
    let prefix = accelflow_core::arrivals::poisson_arrivals(
        services, &lib, &timing, PREFIX_RPS, cfg.warmup, seed,
    );
    sweep::WarmStart::new(
        cfg.clone(),
        services.to_vec(),
        prefix,
        cfg.warmup,
        seed,
        warm,
    )
}

/// One SLO probe at `rps`: fork the shared prefix, append a tail at
/// the probe load over a window that adapts so every service collects
/// enough samples for a stable P99 (low-rate probes need longer
/// windows). Pure in `(prefix, rps)` — the cornerstone of the
/// speculative parallel search.
fn probe_report(
    prefix: &sweep::WarmStart,
    cfg: &MachineConfig,
    services: &[ServiceSpec],
    rps: f64,
    seed: u64,
) -> RunReport {
    let ms = ((400.0 / rps) * 1000.0).clamp(80.0, 2_000.0) as u64;
    let window = SimDuration::from_millis(ms);
    let lib = TraceLibrary::standard();
    let mut timing = ServiceTimeModel::calibrated(cfg.arch.core_clock);
    timing.set_speedup_scale(cfg.speedup_scale);
    let mut tail =
        accelflow_core::arrivals::poisson_arrivals(services, &lib, &timing, rps, window, seed);
    let offset = prefix.prefix_end();
    for a in &mut tail {
        a.at = offset + SimDuration::from_picos(a.at.as_picos());
    }
    prefix.fork(tail, offset + window)
}

/// The original single-threaded search: exponential bracket with early
/// exit, then bisection. Used when only one sweep thread is configured
/// (it probes strictly fewer points than the speculative variant).
fn max_throughput_sequential(
    prefix: &sweep::WarmStart,
    cfg: &MachineConfig,
    services: &[ServiceSpec],
    slo_mult: f64,
    seed: u64,
) -> f64 {
    let unloaded = unloaded_p99s(cfg, services, seed);
    let probe = |rps: f64| {
        meets_slo(
            &probe_report(prefix, cfg, services, rps, seed),
            &unloaded,
            slo_mult,
        )
    };
    let mut lo = SEARCH_FLOOR_RPS;
    if !probe(lo) {
        return lo;
    }
    let mut hi = lo;
    for _ in 0..BRACKET_STEPS {
        hi *= 2.0;
        if !probe(hi) {
            break;
        }
        lo = hi;
    }
    for _ in 0..BISECT_STEPS {
        let mid = (lo + hi) / 2.0;
        if probe(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Midpoints of the bisection decision tree rooted at `(lo, hi)`, down
/// to `depth` levels, generated with the same `(lo + hi) / 2.0` float
/// arithmetic the sequential walk uses so speculative probes land on
/// bit-identical loads.
fn bisection_candidates(lo: f64, hi: f64, depth: usize, out: &mut Vec<f64>) {
    if depth == 0 {
        return;
    }
    let mid = (lo + hi) / 2.0;
    out.push(mid);
    bisection_candidates(lo, mid, depth - 1, out);
    bisection_candidates(mid, hi, depth - 1, out);
}

/// The parallel search. Phase 1 evaluates the unloaded baseline plus
/// every bracket doubling concurrently (the bracket has no early exit —
/// failed speculation costs only redundant work, never correctness).
/// Phase 2 bisects, evaluating 2^d − 1 speculative midpoints per round,
/// with d sized to the thread budget.
fn max_throughput_speculative(
    prefix: &sweep::WarmStart,
    cfg: &MachineConfig,
    services: &[ServiceSpec],
    slo_mult: f64,
    seed: u64,
) -> f64 {
    enum Job {
        Unloaded,
        Probe(f64),
    }
    enum Out {
        Unloaded(Vec<SimDuration>),
        Report(Box<RunReport>),
    }

    // Phase 1: baseline + bracket, one fan-out.
    let mut bracket = vec![SEARCH_FLOOR_RPS];
    let mut v = SEARCH_FLOOR_RPS;
    for _ in 0..BRACKET_STEPS {
        v *= 2.0;
        bracket.push(v);
    }
    let jobs: Vec<Job> = std::iter::once(Job::Unloaded)
        .chain(bracket.iter().map(|&rps| Job::Probe(rps)))
        .collect();
    let outs = sweep::map(jobs, |job| match job {
        Job::Unloaded => Out::Unloaded(unloaded_p99s(cfg, services, seed)),
        Job::Probe(rps) => Out::Report(Box::new(probe_report(prefix, cfg, services, rps, seed))),
    });
    let mut outs = outs.into_iter();
    let unloaded = match outs.next() {
        Some(Out::Unloaded(u)) => u,
        _ => unreachable!("first sweep job is the unloaded baseline"),
    };
    let pass: Vec<bool> = outs
        .map(|o| match o {
            Out::Report(r) => meets_slo(&r, &unloaded, slo_mult),
            Out::Unloaded(_) => unreachable!("only one baseline job"),
        })
        .collect();

    // Replay the sequential bracket walk over the cached outcomes.
    if !pass[0] {
        return bracket[0];
    }
    let mut lo = bracket[0];
    let mut hi = lo;
    for &ok in &pass[1..] {
        hi *= 2.0;
        if !ok {
            break;
        }
        lo = hi;
    }

    // Phase 2: speculative bisection. Depth d costs 2^d − 1 probes per
    // round; match it to the thread budget so one round is one wave.
    let depth_per_round = if sweep::parallelism() >= 8 { 3 } else { 2 };
    let mut cache: std::collections::HashMap<u64, bool> = std::collections::HashMap::new();
    let mut remaining = BISECT_STEPS;
    while remaining > 0 {
        let d = depth_per_round.min(remaining);
        let mut mids = Vec::new();
        bisection_candidates(lo, hi, d, &mut mids);
        // Degenerate intervals repeat midpoints; probe each load once.
        let mut seen = std::collections::HashSet::new();
        mids.retain(|m| !cache.contains_key(&m.to_bits()) && seen.insert(m.to_bits()));
        let results = sweep::map(mids.clone(), |m| {
            meets_slo(
                &probe_report(prefix, cfg, services, m, seed),
                &unloaded,
                slo_mult,
            )
        });
        for (m, r) in mids.iter().zip(results) {
            cache.insert(m.to_bits(), r);
        }
        for _ in 0..d {
            let mid = (lo + hi) / 2.0;
            if cache[&mid.to_bits()] {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        remaining -= d;
    }
    lo
}

/// Average P99 across services, as a single figure of merit.
pub fn avg_p99(report: &RunReport) -> f64 {
    let xs: Vec<f64> = report
        .per_service
        .iter()
        .filter(|s| s.completed > 0)
        .map(|s| s.p99().as_micros_f64())
        .collect();
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Average mean latency across services.
pub fn avg_mean(report: &RunReport) -> f64 {
    let xs: Vec<f64> = report
        .per_service
        .iter()
        .filter(|s| s.completed > 0)
        .map(|s| s.mean().as_micros_f64())
        .collect();
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelflow_workloads::socialnetwork;

    #[test]
    fn unloaded_means_are_finite_and_ordered() {
        let services = vec![socialnetwork::uniq_id(), socialnetwork::compose_post()];
        let means = unloaded_means(Policy::AccelFlow, &services, 1);
        assert_eq!(means.len(), 2);
        assert!(means[0] > SimDuration::ZERO);
        // CPost is a far longer service than UniqId.
        assert!(means[1] > means[0] * 2);
    }

    #[test]
    fn slo_check_enforces_p99() {
        let services = vec![socialnetwork::uniq_id()];
        let unloaded = unloaded_means(Policy::AccelFlow, &services, 1);
        let light = run_poisson(Policy::AccelFlow, &services, 500.0, Scale::quick());
        assert!(
            meets_slo(&light, &unloaded, 5.0),
            "light load must meet SLO"
        );
    }

    #[test]
    fn throughput_search_orders_policies() {
        // A deliberately tiny machine (2 cores, 1 PE/accelerator) keeps
        // the search cheap while preserving the ordering.
        let services = vec![socialnetwork::uniq_id()];
        let mk = |policy| {
            let mut cfg = machine_config(policy, Scale::quick());
            cfg.arch.cores = 2;
            cfg.arch.pes_per_accelerator = 1;
            cfg
        };
        let af = max_throughput_with(&mk(Policy::AccelFlow), &services, 5.0, 3);
        let non = max_throughput_with(&mk(Policy::NonAcc), &services, 5.0, 3);
        assert!(af > non * 1.5, "AccelFlow {af} must beat Non-acc {non}");
    }

    #[test]
    fn speculative_search_matches_sequential() {
        // The speculative parallel search must land on exactly the
        // sequential result — same bracket, same bisection descent —
        // because probes are pure. Compare the two algorithms directly
        // (sweep::map degrades gracefully whatever the thread count).
        let services = vec![socialnetwork::uniq_id()];
        let mut cfg = machine_config(Policy::AccelFlow, Scale::quick());
        cfg.arch.cores = 2;
        cfg.arch.pes_per_accelerator = 1;
        let prefix = probe_prefix(&cfg, &services, 3, true);
        let seq = max_throughput_sequential(&prefix, &cfg, &services, 5.0, 3);
        let spec = max_throughput_speculative(&prefix, &cfg, &services, 5.0, 3);
        assert_eq!(seq, spec, "speculative search diverged from sequential");
    }

    #[test]
    fn scales_read_env() {
        let s = Scale::quick();
        assert!(s.duration > s.warmup);
        let d = Scale::from_env();
        assert!(d.rps > 0.0);
    }
}

#[cfg(test)]
mod slo_tests {
    use super::*;
    use accelflow_core::stats::{MachineTotals, ServiceStats};
    use accelflow_sim::time::SimTime;

    fn report_with(p99s_us: &[(u64, u64)]) -> RunReport {
        // (p99 in µs, completed count) per service.
        let per_service = p99s_us
            .iter()
            .enumerate()
            .map(|(i, &(p99, n))| {
                let mut s = ServiceStats::new(format!("s{i}"));
                for _ in 0..n {
                    s.latency.record_duration(SimDuration::from_micros(p99));
                }
                s.completed = n;
                s.offered = n;
                s
            })
            .collect();
        RunReport {
            per_service,
            totals: MachineTotals::default(),
            measured: SimDuration::from_millis(10),
            ended_at: SimTime::ZERO + SimDuration::from_millis(10),
            faults: accelflow_core::FaultStats::default(),
            control: accelflow_core::ControlStats::default(),
            audit: accelflow_core::audit::AuditReport::disabled(),
            telemetry: accelflow_sim::telemetry::TelemetryReport::disabled(),
        }
    }

    #[test]
    fn slo_passes_within_budget() {
        let unloaded = vec![SimDuration::from_micros(100)];
        let r = report_with(&[(400, 1000)]);
        assert!(meets_slo(&r, &unloaded, 5.0));
    }

    #[test]
    fn slo_fails_beyond_budget() {
        let unloaded = vec![SimDuration::from_micros(100)];
        let r = report_with(&[(600, 1000)]);
        assert!(!meets_slo(&r, &unloaded, 5.0));
    }

    #[test]
    fn slo_skips_thin_services() {
        // Too few samples to judge: pass.
        let unloaded = vec![SimDuration::from_micros(100)];
        let r = report_with(&[(900, 30)]);
        assert!(meets_slo(&r, &unloaded, 5.0));
    }

    #[test]
    fn slo_fails_on_incompletion() {
        let unloaded = vec![SimDuration::from_micros(100)];
        let mut r = report_with(&[(100, 1000)]);
        r.per_service[0].offered = 2000; // half the requests never finished
        assert!(!meets_slo(&r, &unloaded, 5.0));
    }

    #[test]
    fn one_bad_service_fails_the_whole_machine() {
        let unloaded = vec![SimDuration::from_micros(100), SimDuration::from_micros(100)];
        let r = report_with(&[(100, 1000), (5_000, 1000)]);
        assert!(!meets_slo(&r, &unloaded, 5.0));
    }

    #[test]
    fn averages_ignore_empty_services() {
        let r = report_with(&[(100, 1000), (0, 0)]);
        // avg_p99 must not divide by the empty service.
        let avg = avg_p99(&r);
        assert!((avg - 100.0).abs() / 100.0 < 0.05, "{avg}");
        let empty = RunReport {
            per_service: vec![],
            totals: MachineTotals::default(),
            measured: SimDuration::ZERO,
            ended_at: SimTime::ZERO,
            faults: accelflow_core::FaultStats::default(),
            control: accelflow_core::ControlStats::default(),
            audit: accelflow_core::audit::AuditReport::disabled(),
            telemetry: accelflow_sim::telemetry::TelemetryReport::disabled(),
        };
        assert_eq!(avg_p99(&empty), 0.0);
        assert_eq!(avg_mean(&empty), 0.0);
    }
}
