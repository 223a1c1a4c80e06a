//! The performance gate: in-process throughput ratios against std-only
//! references.
//!
//! Each case times a workload alternately with a reference built from
//! `std` alone, in the same process, and compares the median of the
//! per-pair throughput ratios with a committed floor. Both halves of a
//! pair run on the same host within milliseconds of each other, so a
//! ratio survives host speed and its drift where an absolute events/s
//! figure recorded elsewhere does not. The median of alternated pairs
//! ignores the odd pair a scheduler hiccup spoils.
//!
//! The cases run one after another inside a single `#[test]`, so no two
//! of them time each other. The floors are calibrated for optimised
//! builds; run the gate with
//! `cargo test --release -p accelflow-bench --test perf_gate`.
//! Debug builds skip it: their ratios measure the optimiser's absence.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

use accelflow_bench::harness::{self, Scale};
use accelflow_core::machine::{Machine, MachineConfig};
use accelflow_core::policy::Policy;
use accelflow_sim::engine::{EventQueue, Model, Simulation};
use accelflow_sim::telemetry::{CompId, Telemetry};
use accelflow_sim::time::{SimDuration, SimTime};
use accelflow_workloads::socialnetwork;

/// Alternated (workload, reference) pairs per case.
const PAIRS: usize = 9;
/// Deliveries per churn run.
const CHURN_OPS: u64 = 4_000_000;
/// Timers pending at once in the ring-churn case: enough that the
/// calendar's bucket ring, not its single-event front cache, does the
/// work.
const RING_PENDING: u32 = 256;
/// Events pre-filled into the schedule/pop queue.
const FILL: u64 = 400_000;

/// Self-rescheduling timer churn: every delivery schedules one
/// follow-on a few nanoseconds out, so the pending population stays at
/// its initial size. With one timer it is the shape that regressed by
/// more than 2× when the calendar queue first replaced the binary heap.
struct Churn {
    left: u64,
}

impl Model for Churn {
    type Event = u32;
    fn handle(&mut self, _now: SimTime, ev: u32, queue: &mut EventQueue<u32>) {
        if self.left > 0 {
            self.left -= 1;
            queue.schedule(churn_delay(ev), ev.wrapping_add(1));
        }
    }
}

fn churn_delay(ev: u32) -> SimDuration {
    SimDuration::from_nanos(u64::from(ev % 97) + 1)
}

/// [`Churn`] instrumented the way `Machine` is: an optional boxed sink
/// checked once per event, the record built inside the branch. With the
/// sink absent it must cost what bare churn costs.
struct ChurnTelemetry {
    left: u64,
    tel: Option<Box<Telemetry>>,
}

impl Model for ChurnTelemetry {
    type Event = u32;
    fn handle(&mut self, now: SimTime, ev: u32, queue: &mut EventQueue<u32>) {
        if let Some(t) = self.tel.as_mut() {
            t.span(
                now,
                CompId::accelerator((ev % 9) as u16),
                "pe",
                churn_delay(ev),
                Some(ev),
                0,
            );
        }
        if self.left > 0 {
            self.left -= 1;
            queue.schedule(churn_delay(ev), ev.wrapping_add(1));
        }
    }
}

/// Discards every event, so draining a pre-filled queue measures the
/// raw schedule and pop cost.
struct Drain;

impl Model for Drain {
    type Event = u32;
    fn handle(&mut self, _now: SimTime, _ev: u32, _queue: &mut EventQueue<u32>) {}
}

/// Items per second for `items` done since `t0`.
fn rate(items: u64, t0: Instant) -> f64 {
    items as f64 / t0.elapsed().as_secs_f64().max(1e-9)
}

/// Events/s of `model` through the engine's calendar-backed queue,
/// started with `pending` timers and delivering `ops` follow-ons.
fn engine_run<M: Model<Event = u32>>(model: M, pending: u32, ops: u64) -> f64 {
    let t0 = Instant::now();
    let mut sim = Simulation::new(model);
    for i in 0..pending {
        sim.queue_mut()
            .schedule(SimDuration::from_nanos(u64::from(i)), i + 1);
    }
    sim.run();
    let delivered = sim.queue_mut().delivered();
    assert_eq!(
        delivered,
        ops + u64::from(pending),
        "churn model lost events"
    );
    rate(delivered, t0)
}

/// Events/s of [`Churn`] with `pending` timers.
fn engine_churn(pending: u32, ops: u64) -> f64 {
    engine_run(Churn { left: ops }, pending, ops)
}

/// Events/s of [`ChurnTelemetry`] with its sink absent.
fn telemetry_off_churn() -> f64 {
    let model = ChurnTelemetry {
        left: CHURN_OPS,
        tel: black_box(None),
    };
    engine_run(model, 1, CHURN_OPS)
}

/// Events/s of the churn pattern through an inline `BinaryHeap` kernel:
/// a min-heap on `(time, seq)` with the same timers, delays, payloads
/// and delivery count.
fn heap_churn(pending: u32, ops: u64) -> f64 {
    let t0 = Instant::now();
    let mut heap: BinaryHeap<Reverse<(u64, u64, u32)>> = (0..pending)
        .map(|i| Reverse((u64::from(i) * 1_000, u64::from(i), i + 1)))
        .collect();
    let mut seq = u64::from(pending);
    let mut left = ops;
    let mut delivered = 0u64;
    while let Some(Reverse((now, _, ev))) = heap.pop() {
        delivered += 1;
        if left > 0 {
            left -= 1;
            let at = now + churn_delay(ev).as_picos();
            heap.push(Reverse((at, seq, ev.wrapping_add(1))));
            seq += 1;
        }
    }
    assert_eq!(
        delivered,
        ops + u64::from(pending),
        "heap reference lost events"
    );
    rate(delivered, t0)
}

/// Pseudo-random arrival instants (an LCG) with same-time bursts.
fn fill_times() -> impl Iterator<Item = u64> {
    let mut x = 0x2545_f491_4f6c_dd1du64;
    (0..FILL).map(move |_| {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (x >> 20) % 1_000_000_000
    })
}

/// Events/s scheduling [`FILL`] events into the engine, then draining.
fn engine_schedule_pop() -> f64 {
    let t0 = Instant::now();
    let mut sim = Simulation::new(Drain);
    let q = sim.queue_mut();
    for (i, at) in fill_times().enumerate() {
        q.schedule_at(SimTime::from_picos(at), i as u32);
    }
    sim.run();
    let delivered = sim.queue_mut().delivered();
    assert_eq!(delivered, FILL, "schedule/pop lost events");
    rate(delivered, t0)
}

/// [`engine_schedule_pop`] through a `BinaryHeap`.
fn heap_schedule_pop() -> f64 {
    let t0 = Instant::now();
    let mut heap: BinaryHeap<Reverse<(u64, u64, u32)>> = BinaryHeap::new();
    for (i, at) in fill_times().enumerate() {
        heap.push(Reverse((at, i as u64, i as u32)));
    }
    let mut delivered = 0u64;
    while let Some(Reverse(item)) = heap.pop() {
        black_box(item);
        delivered += 1;
    }
    assert_eq!(delivered, FILL, "heap reference lost events");
    rate(delivered, t0)
}

/// Events/s of an AccelFlow machine on the Fig 11 shape: all eight
/// SocialNetwork services at 13.4 kRPS each under Alibaba-like bursts,
/// with the auditor and telemetry off. Arrivals are generated once and
/// cloned outside the timed section.
fn machine_fig11() -> impl FnMut() -> f64 {
    let services = socialnetwork::all();
    let scale = Scale {
        duration: SimDuration::from_millis(40),
        warmup: SimDuration::from_millis(5),
        rps: 13_400.0,
        seed: 42,
    };
    let arrivals = harness::shared_arrivals(&services, scale);
    let mut cfg = MachineConfig::new(Policy::AccelFlow);
    cfg.warmup = scale.warmup;
    cfg.audit = false;
    cfg.telemetry = false;
    move || {
        let input = arrivals.clone();
        let mut events = 0u64;
        let t0 = Instant::now();
        let report = Machine::run_arrivals_observed(
            &cfg,
            &services,
            input,
            scale.duration,
            scale.seed,
            |_, _| events += 1,
        );
        let r = rate(events, t0);
        assert!(report.completed() > 0, "machine completed no requests");
        r
    }
}

/// One gated ratio: `workload` throughput over `reference` throughput.
struct Case {
    name: &'static str,
    floor: f64,
    workload: Box<dyn FnMut() -> f64>,
    reference: Box<dyn FnMut() -> f64>,
}

/// Runs one untimed warm-up pair, then [`PAIRS`] alternated pairs
/// (the workload first in even pairs, the reference first in odd ones)
/// and returns the sorted per-pair ratios.
fn ratios(case: &mut Case) -> Vec<f64> {
    (case.workload)();
    (case.reference)();
    let mut out: Vec<f64> = (0..PAIRS)
        .map(|pair| {
            let (w, r) = if pair % 2 == 0 {
                let w = (case.workload)();
                (w, (case.reference)())
            } else {
                let r = (case.reference)();
                ((case.workload)(), r)
            };
            w / r
        })
        .collect();
    out.sort_by(f64::total_cmp);
    out
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "floors are calibrated for release builds: run with --release"
)]
fn throughput_ratios_stay_above_their_floors() {
    // Floors sit between the medians measured on an unchanged tree and
    // those with a 2× slowdown injected (CHANGES.md has the evidence).
    let cases = [
        // Bimodal on a shared 2-vCPU host: ~1.3–2.5 when it is quiet,
        // ~1.05 in contended phases that slow the calendar's front cache
        // from ~8 to ~17 ns an event but the heap only from ~14 to ~18.
        // Too wide to gate a 2× slowdown; the floor catches the >2×
        // collapse it once suffered.
        Case {
            name: "calendar churn / heap churn",
            floor: 0.7,
            workload: Box::new(|| engine_churn(1, CHURN_OPS)),
            reference: Box::new(|| heap_churn(1, CHURN_OPS)),
        },
        // Steady within ±7% across host phases: the kernel's 2× gate.
        Case {
            name: "calendar ring churn / heap churn",
            floor: 0.38,
            workload: Box::new(|| engine_churn(RING_PENDING, CHURN_OPS / 4)),
            reference: Box::new(|| heap_churn(RING_PENDING, CHURN_OPS / 4)),
        },
        Case {
            name: "schedule+pop / heap",
            floor: 1.0,
            workload: Box::new(engine_schedule_pop),
            reference: Box::new(heap_schedule_pop),
        },
        Case {
            name: "fig11 machine / heap churn",
            floor: 0.065,
            workload: Box::new(machine_fig11()),
            reference: Box::new(|| heap_churn(1, CHURN_OPS)),
        },
        // The disabled path's branch per event costs about 2 ns: 10–25%
        // of a bare churn event, about 1% of a machine event. A sink
        // that recorded while disabled would halve the ratio.
        Case {
            name: "telemetry-off churn / bare churn",
            floor: 0.65,
            workload: Box::new(telemetry_off_churn),
            reference: Box::new(|| engine_churn(1, CHURN_OPS)),
        },
    ];
    let mut failures = Vec::new();
    for mut case in cases {
        let t0 = Instant::now();
        let r = ratios(&mut case);
        let median = r[r.len() / 2];
        println!(
            "{:<34} median {median:.3} (pairs {:.3}..{:.3}) floor {:.3}  {:.1} s",
            case.name,
            r[0],
            r[r.len() - 1],
            case.floor,
            t0.elapsed().as_secs_f64()
        );
        if median < case.floor {
            failures.push(format!(
                "{}: median ratio {median:.3} below floor {:.3} (pairs {r:.3?})",
                case.name, case.floor
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "throughput regressed:\n  {}",
        failures.join("\n  ")
    );
}
