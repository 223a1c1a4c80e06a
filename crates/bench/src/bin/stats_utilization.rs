//! §VII-B4: accelerator utilization when operating at peak throughput
//! without violating SLOs.

use accelflow_bench::harness::{self, Scale};
use accelflow_bench::paper;
use accelflow_bench::table::{pct, Table};
use accelflow_core::policy::Policy;
use accelflow_trace::kind::AccelKind;
use accelflow_workloads::socialnetwork;

fn main() {
    let services = socialnetwork::all();
    let seed = Scale::from_env().seed;
    let peak = harness::max_throughput(Policy::AccelFlow, &services, 5.0, seed);
    println!("peak throughput: {:.1} kRPS/service\n", peak / 1000.0);
    let mut scale = Scale::from_env();
    scale.rps = peak;
    let r = harness::run_poisson(Policy::AccelFlow, &services, peak, scale);

    use AccelKind::*;
    let pair = |a: AccelKind, b: AccelKind| {
        (r.totals.accel_utilization[a.id() as usize] + r.totals.accel_utilization[b.id() as usize])
            / 2.0
    };
    let rows: Vec<(&str, f64)> = vec![
        ("TCP", r.totals.accel_utilization[Tcp.id() as usize]),
        ("(De)Encr", pair(Encr, Decr)),
        ("RPC", r.totals.accel_utilization[Rpc.id() as usize]),
        ("(De)Ser", pair(Ser, Dser)),
        ("(De)Cmp", pair(Cmp, Dcmp)),
        ("LdB", r.totals.accel_utilization[Ldb.id() as usize]),
    ];
    let mut t = Table::new(
        "§VII-B4: accelerator utilization at peak",
        &["accelerator", "measured", "paper"],
    );
    for ((name, util), (_, paper_util)) in rows.iter().zip(paper::UTILIZATION_AT_PEAK) {
        t.row(&[name.to_string(), pct(*util), pct(paper_util)]);
    }
    t.print();
}
