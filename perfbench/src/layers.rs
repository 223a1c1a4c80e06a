//! Host-time attribution to the machine's handler groups.
//!
//! The simulator exposes one hook into its event loop: the observer
//! that [`MachineRun`](accelflow_core::machine::MachineRun) and
//! [`ClusterRun`](accelflow_core::cluster::ClusterRun) call before each
//! event is handled. A [`Probe`] sits on that hook. The untimed
//! [`Counter`] only counts events; the [`LayerClock`] of a traced run
//! also reads the clock at every callback and charges the interval since
//! the previous callback to the previous event's handler group (the
//! handler ran in that interval, followed by the kernel popping the next
//! event).

use std::time::Instant;

use accelflow_core::machine::Ev;

/// Handler groups, in report order. Each is a `core::machine` submodule
/// (or a pair of them) named after the events it handles.
pub const GROUPS: [&str; 6] = [
    "lifecycle",
    "dispatch",
    "throttle",
    "transfer",
    "resilience",
    "scaling",
];

/// The handler group of one machine event (an index into [`GROUPS`]).
pub fn group_of(ev: &Ev) -> usize {
    match ev {
        Ev::Arrive(_)
        | Ev::StartStep(_)
        | Ev::AppDone(_)
        | Ev::CallDone { .. }
        | Ev::Timeout { .. } => 0,
        Ev::HopArrive(_) | Ev::TryStart(_) | Ev::PeDone { .. } => 1,
        Ev::HopArriveRetry(_) => 2,
        Ev::ExternalArrive(_) | Ev::ExternalArriveCpu(_) => 3,
        Ev::FaultInject(_) | Ev::StallEnd(_) | Ev::FallbackDone(_) => 4,
        Ev::ScaleTick => 5,
    }
}

/// What a run's observer does with each event.
pub trait Probe {
    /// Called for every delivered event, before the machine handles it.
    fn event(&mut self, ev: &Ev);
    /// Called right before a `run_to`/`finish` call.
    fn open(&mut self) {}
    /// Called right after a `run_to`/`finish` call returns.
    fn close(&mut self) {}
    /// Events observed so far.
    fn events(&self) -> u64;
    /// `Arrive` events observed so far (each arrival is delivered once).
    fn arrivals(&self) -> u64;
    /// Per-group tally so far (zeros for probes that keep none).
    fn groups(&self) -> GroupStats {
        GroupStats::default()
    }
}

/// The untraced probe: event and arrival counts and nothing else.
#[derive(Debug, Default)]
pub struct Counter {
    events: u64,
    arrivals: u64,
}

impl Probe for Counter {
    fn event(&mut self, ev: &Ev) {
        self.events += 1;
        self.arrivals += u64::from(matches!(ev, Ev::Arrive(_)));
    }
    fn events(&self) -> u64 {
        self.events
    }
    fn arrivals(&self) -> u64 {
        self.arrivals
    }
}

/// Per-group event counts and host self time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GroupStats {
    /// Events delivered per group.
    pub events: [u64; GROUPS.len()],
    /// Host nanoseconds charged per group.
    pub self_ns: [u64; GROUPS.len()],
    /// Host nanoseconds inside `run_to` before the first callback of a
    /// call (kernel time that no handler can be charged for).
    pub kernel_ns: u64,
}

impl GroupStats {
    /// The tally accumulated since `earlier` was copied from this one.
    pub fn since(&self, earlier: &GroupStats) -> GroupStats {
        let mut d = GroupStats::default();
        for g in 0..GROUPS.len() {
            d.events[g] = self.events[g] - earlier.events[g];
            d.self_ns[g] = self.self_ns[g] - earlier.self_ns[g];
        }
        d.kernel_ns = self.kernel_ns - earlier.kernel_ns;
        d
    }

    /// All events counted.
    pub fn total_events(&self) -> u64 {
        self.events.iter().sum()
    }
}

/// The traced probe: charges host time between callbacks to groups.
#[derive(Debug, Default)]
pub struct LayerClock {
    /// The running tally.
    pub stats: GroupStats,
    arrivals: u64,
    last: Option<Instant>,
    current: Option<usize>,
}

impl LayerClock {
    fn charge(&mut self, now: Instant) {
        if let Some(last) = self.last {
            let ns = now.duration_since(last).as_nanos() as u64;
            match self.current {
                Some(g) => self.stats.self_ns[g] += ns,
                None => self.stats.kernel_ns += ns,
            }
        }
        self.last = Some(now);
    }
}

impl Probe for LayerClock {
    fn event(&mut self, ev: &Ev) {
        self.charge(Instant::now());
        let g = group_of(ev);
        self.stats.events[g] += 1;
        self.arrivals += u64::from(matches!(ev, Ev::Arrive(_)));
        self.current = Some(g);
    }
    fn open(&mut self) {
        self.last = Some(Instant::now());
        self.current = None;
    }
    fn close(&mut self) {
        self.charge(Instant::now());
        self.last = None;
        self.current = None;
    }
    fn events(&self) -> u64 {
        self.stats.total_events()
    }
    fn arrivals(&self) -> u64 {
        self.arrivals
    }
    fn groups(&self) -> GroupStats {
        self.stats.clone()
    }
}
