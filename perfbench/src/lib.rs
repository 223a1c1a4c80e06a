//! The AccelFlow simulator's end-to-end benchmark: three workloads, an
//! untraced timed run that reports end-to-end metrics, and a traced run
//! that attributes host time and work to the simulator's layers. See
//! `README.md` in this directory for the metric glossary and the
//! layer-to-metric map.

pub mod child;
pub mod layers;
pub mod metrics;
mod search;
pub mod spans;
pub mod workloads;

/// The held-out seed: never used while a change is tuned, run once to
/// confirm a claim made on the tuning seeds.
pub const HELD_OUT_SEED: u64 = 7_919;

/// The input seed of pass `i` of a timed run started with `seed`. Pass
/// 0 runs the seed itself (its simulated results are the run's); later
/// passes run derived seeds, so a run's host-time medians average over
/// several inputs instead of repeating one.
pub fn pass_seed(seed: u64, i: u64) -> u64 {
    seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}
