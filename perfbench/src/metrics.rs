//! Metric declarations, the step-percentile rule and the small
//! statistics the report needs.

use crate::layers::GROUPS;

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

/// Whether a metric is measured on the host or read from the simulated
/// model (simulated results are deterministic per seed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Host wall-clock time or host memory.
    Host,
    /// Simulated time, or a count from the modelled hardware.
    Sim,
}

/// One declared metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as printed and as declared in `BENCHMARK.json`.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// Host or simulated.
    pub clock: Clock,
}

fn m(name: &str, unit: &'static str, better: Better, clock: Clock) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        better,
        clock,
    }
}

/// The end-to-end metrics every untraced run reports, on every workload.
pub fn end_to_end() -> Vec<Metric> {
    use Better::*;
    use Clock::*;
    vec![
        m("sim_req_per_s", "1/s", Higher, Host),
        m("pass_s", "s", Lower, Host),
        m("step_p50_ms", "ms", Lower, Host),
        m("step_p99_ms", "ms", Lower, Host),
        m("setup_s", "s", Lower, Host),
        m("peak_rss_mb", "MB", Lower, Host),
    ]
}

/// Simulated results every workload prints beside the end-to-end
/// metrics. They repeat exactly per seed, so they are checked for
/// identity rather than bounded.
pub fn simulated() -> Vec<Metric> {
    use Better::*;
    use Clock::*;
    vec![
        m("sim_p99_us", "us", Lower, Sim),
        m("sim_goodput_rps", "1/s", Higher, Sim),
        m("failed_frac", "frac", Lower, Sim),
    ]
}

/// Results that exist on one workload only (printed there by name).
pub fn workload_specific(workload: &str) -> Vec<Metric> {
    use Better::*;
    use Clock::*;
    match workload {
        "slo_search" => vec![
            m("search_s", "s", Lower, Host),
            m("sim_max_rps", "1/s", Higher, Sim),
        ],
        "openloop_fleet" => vec![m("sim_slo_ok_frac", "frac", Higher, Sim)],
        _ => Vec::new(),
    }
}

/// Modelled-component counts read from the run reports: name, unit and
/// which way is better.
pub const MODEL_COUNTS: [(&str, &str, Better); 20] = [
    ("accel.jobs", "count", Better::Higher),
    ("accel.util_mean", "frac", Better::Higher),
    ("accel.enqueue_rejections", "count", Better::Lower),
    ("accel.overflows", "count", Better::Lower),
    ("arch.tlb_hit_ratio", "frac", Better::Higher),
    ("arch.dma_bytes", "B", Better::Lower),
    ("trace.atm_reads", "count", Better::Lower),
    ("trace.glue_instr_per_dispatch", "instr", Better::Lower),
    ("core.orchestration_frac", "frac", Better::Lower),
    ("core.fallback_frac", "frac", Better::Lower),
    ("core.tenant_throttled", "count", Better::Lower),
    ("core.manager_busy_frac", "frac", Better::Lower),
    ("faults.injected", "count", Better::Lower),
    ("faults.recovery_actions", "count", Better::Lower),
    ("cluster.relocations", "count", Better::Lower),
    ("cluster.suspensions", "count", Better::Lower),
    ("cluster.dispatch_imbalance", "ratio", Better::Lower),
    ("control.scale_ups", "count", Better::Lower),
    ("control.scale_downs", "count", Better::Lower),
    ("control.rejected", "count", Better::Lower),
];

/// The per-layer metrics every traced run reports, on every workload
/// (zero where a workload does not use the layer).
pub fn per_layer() -> Vec<Metric> {
    use Better::*;
    use Clock::*;
    let mut v = vec![
        m("workloads.gen_s", "s", Lower, Host),
        m("workloads.arrivals", "count", Higher, Sim),
        m("workloads.bytes_per_arrival", "B", Lower, Host),
        m("core.start_s", "s", Lower, Host),
        m("core.finish_s", "s", Lower, Host),
        m("sim.events", "count", Lower, Sim),
        m("sim.events_per_req", "count", Lower, Sim),
        m("sim.ns_per_event", "ns", Lower, Host),
        m("sim.kernel_self_s", "s", Lower, Host),
        m("sim.snapshot_bytes", "B", Lower, Sim),
    ];
    for g in GROUPS {
        v.push(m(&format!("{g}.events"), "count", Lower, Sim));
        v.push(m(&format!("{g}.self_s"), "s", Lower, Host));
    }
    for (name, unit, better) in MODEL_COUNTS {
        v.push(m(name, unit, better, Sim));
    }
    v.extend([
        m("bench.unloaded_s", "s", Lower, Host),
        m("bench.prefix_s", "s", Lower, Host),
        m("bench.fork_s", "s", Lower, Host),
        m("bench.overload_fork_s", "s", Lower, Host),
        m("tracing_overhead_frac", "frac", Lower, Host),
    ]);
    v
}

/// Whether a metric name is made of `[A-Za-z0-9_.-]` only, starts with
/// a letter or digit and is at most 64 characters long.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Samples a percentile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile of `samples`. Refused (`Err`)
/// unless at least [`MIN_BEYOND`] samples lie beyond the rank, so a
/// reported tail always rests on ten or more observations.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    if !(0.0..=100.0).contains(&p) {
        return Err(format!("percentile {p} outside [0, 100]"));
    }
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} samples has {beyond} beyond it (needs {MIN_BEYOND})"
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// The median (mean of the middle pair for even counts); NaN if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
