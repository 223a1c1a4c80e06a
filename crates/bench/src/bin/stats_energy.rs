//! §VII-B5: energy and performance-per-watt — a fixed request batch
//! run at each architecture's own near-peak sustainable rate (the
//! paper runs the services "for 400K requests": faster architectures
//! drain the batch sooner, so they also spend less static energy).

use accelflow_bench::harness::{self, RunVar, Scale};
use accelflow_bench::paper;
use accelflow_bench::table::{pct, ratio, Table};
use accelflow_core::machine::{Machine, MachineConfig};
use accelflow_core::policy::Policy;
use accelflow_sim::time::SimDuration;
use accelflow_workloads::socialnetwork;

fn main() {
    let services = socialnetwork::all();
    let seed = Scale::from_env().seed;
    // Batch size per service (scaled down from the paper's 400K total).
    let batch_per_service = RunVar {
        name: "ACCELFLOW_BATCH",
        want: "a positive integer",
        ok: |&n: &u64| n > 0,
    }
    .get()
    .unwrap_or(3_000);

    let mut rows = Vec::new();
    for p in [Policy::NonAcc, Policy::Relief, Policy::AccelFlow] {
        // Drive each architecture at 85% of its own sustainable peak.
        let peak = harness::max_throughput(p, &services, 5.0, seed);
        let rate = peak * 0.85;
        let duration = SimDuration::from_secs_f64(batch_per_service as f64 / rate);
        let mut cfg = MachineConfig::new(p);
        cfg.warmup = SimDuration::ZERO;
        let r = Machine::run_workload(&cfg, &services, rate, duration, seed);
        let e = r.totals.energy;
        let ppw = r.completed() as f64 / e.total_j;
        println!(
            "  {:<10} rate {:>6.1} kRPS/svc  batch drained at {:>7.3}s  energy {:>7.1} J",
            p.name(),
            rate / 1000.0,
            r.ended_at.as_secs_f64(),
            e.total_j
        );
        rows.push((p, e.total_j, e.avg_power_w, ppw));
    }
    let mut t = Table::new(
        "§VII-B5: energy for the batch at each architecture's peak",
        &["architecture", "energy (J)", "avg power (W)", "req/J"],
    );
    for (p, j, w, ppw) in &rows {
        t.row(&[
            p.name().to_string(),
            format!("{j:.1}"),
            format!("{w:.0}"),
            format!("{ppw:.0}"),
        ]);
    }
    t.print();

    let energy = |p: Policy| rows.iter().find(|(q, ..)| *q == p).unwrap().1;
    let ppw = |p: Policy| rows.iter().find(|(q, ..)| *q == p).unwrap().3;
    let mut t = Table::new("§VII-B5 ratios", &["comparison", "measured", "paper"]);
    t.row(&[
        "energy reduction vs Non-acc".into(),
        pct(1.0 - energy(Policy::AccelFlow) / energy(Policy::NonAcc)),
        pct(paper::ENERGY_REDUCTION_VS_NONACC),
    ]);
    t.row(&[
        "perf/W vs Non-acc".into(),
        ratio(ppw(Policy::AccelFlow) / ppw(Policy::NonAcc)),
        ratio(paper::PERF_PER_WATT_VS_NONACC),
    ]);
    t.row(&[
        "perf/W vs RELIEF".into(),
        ratio(ppw(Policy::AccelFlow) / ppw(Policy::Relief)),
        ratio(paper::PERF_PER_WATT_VS_RELIEF),
    ]);
    t.print();
}
