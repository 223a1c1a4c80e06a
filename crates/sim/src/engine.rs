//! The discrete-event loop.
//!
//! A simulation is a [`Model`] (all mutable state of the system under
//! study) plus an [`EventQueue`] of timestamped events of the model's
//! choosing. The engine pops the earliest event, hands it to the model,
//! and the model schedules follow-on events. Events with equal
//! timestamps are delivered in the order they were scheduled, which
//! makes every run bit-for-bit reproducible.
//!
//! A model that counts down, rescheduling itself until it hits zero:
//!
//! ```
//! use accelflow_sim::engine::{EventQueue, Model, Simulation};
//! use accelflow_sim::time::{SimDuration, SimTime};
//!
//! struct Countdown {
//!     remaining: u32,
//! }
//!
//! impl Model for Countdown {
//!     type Event = ();
//!     fn handle(&mut self, _now: SimTime, _ev: (), queue: &mut EventQueue<()>) {
//!         self.remaining -= 1;
//!         if self.remaining > 0 {
//!             queue.schedule(SimDuration::from_micros(1), ());
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(Countdown { remaining: 3 });
//! sim.queue_mut().schedule(SimDuration::ZERO, ());
//! // The deadline is exclusive: only the event at t=0 is delivered,
//! // the one sitting exactly at t=1µs stays queued.
//! sim.run_until(SimTime::ZERO + SimDuration::from_micros(1));
//! assert_eq!(sim.model().remaining, 2);
//! // Resume to completion; the last event lands at t=2µs.
//! sim.run_until(SimTime::ZERO + SimDuration::from_millis(1));
//! assert_eq!(sim.model().remaining, 0);
//! assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_micros(2));
//! ```

use std::collections::VecDeque;

use crate::calendar::CalendarQueue;
use crate::time::{SimDuration, SimTime};

/// A system being simulated.
///
/// Implementors own all mutable simulation state and define the event
/// vocabulary. See the crate-level example.
pub trait Model {
    /// The event type this model understands.
    type Event;

    /// Handles one event at simulated time `now`, scheduling any
    /// follow-on events on `queue`.
    fn handle(&mut self, now: SimTime, event: Self::Event, queue: &mut EventQueue<Self::Event>);
}

/// The pending-event set of a simulation.
///
/// Events are delivered in `(time, insertion order)` order. The queue
/// tracks the current simulated time; [`EventQueue::schedule`] is
/// relative to it.
///
/// Internally this is a calendar (bucket) queue — `O(1)` amortized
/// schedule and pop independent of the pending-event population — plus
/// a staging buffer that extracts the entire run of events sharing the
/// next timestamp in one queue operation, so same-instant bursts pay
/// the queue-maintenance cost once. Events a model schedules *at* the
/// current instant (including clamped past-time schedules) carry a
/// higher insertion sequence than everything already staged, so they
/// correctly fire after the drained batch; delivery order is identical
/// to the classic binary-heap implementation, bit for bit.
pub struct EventQueue<E> {
    calendar: CalendarQueue<E>,
    /// Events popped as one same-timestamp batch, awaiting delivery.
    ready: VecDeque<(u64, E)>,
    /// Shared timestamp of everything in `ready`.
    ready_at: SimTime,
    now: SimTime,
    seq: u64,
    delivered: u64,
    clamped: u64,
}

impl<E> EventQueue<E> {
    fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue sized for a steady-state population of about
    /// `capacity` pending events (the calendar ring starts at a
    /// matching bucket count instead of growing through rebuilds).
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            calendar: CalendarQueue::with_capacity(capacity),
            ready: VecDeque::new(),
            ready_at: SimTime::ZERO,
            now: SimTime::ZERO,
            seq: 0,
            delivered: 0,
            clamped: 0,
        }
    }

    /// Capacity hint, retained for API stability. The calendar sizes
    /// its ring from the *live* pending-event population through
    /// adaptive rebuilds — a caller's total-event estimate (e.g. an
    /// arrival backlog) routinely overshoots the steady-state population
    /// by orders of magnitude, and an oversized ring costs more in cache
    /// footprint than rebuilds ever do — so this is a no-op.
    pub fn reserve(&mut self, additional: usize) {
        let _ = additional;
    }

    /// The current simulated time (the timestamp of the event being
    /// handled, or the last one handled).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule(&mut self, delay: SimDuration, event: E) {
        let at = self.now + delay;
        self.schedule_at(at, event);
    }

    /// Schedules `event` at the absolute instant `at`.
    ///
    /// Scheduling in the past is clamped to the current time (the event
    /// still fires, immediately after already-queued same-time events).
    /// Each clamp increments the [`EventQueue::clamped`] counter — a
    /// past-time schedule usually means a model computed a timestamp
    /// from stale state, so the count makes such time-travel bugs
    /// visible instead of silently rewriting them.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        if at < self.now {
            self.clamped += 1;
        }
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        if at == self.now {
            // Same-instant fast lane. Event-driven models schedule a
            // large share of their events at zero delay (cascade events
            // within one logical instant); those never need to touch
            // the calendar at all. Appending to the staging buffer is
            // exactly delivery order: everything staged was scheduled
            // earlier (lower seq), the calendar never holds an event at
            // the current instant once the batch for `now` has been
            // extracted (ties share a bucket slot and drain together),
            // and all other pending events are strictly later.
            if self.ready.is_empty() {
                self.ready_at = at;
            }
            debug_assert_eq!(self.ready_at, at, "staged batch is not at now");
            self.ready.push_back((seq, event));
        } else {
            self.calendar.schedule(at.as_picos(), seq, event);
        }
    }

    /// Number of events not yet delivered.
    pub fn len(&self) -> usize {
        self.calendar.len() + self.ready.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// How many [`EventQueue::schedule_at`] calls targeted an instant
    /// before the current time and were clamped forward. Zero in a
    /// healthy model; a growing count points at a component scheduling
    /// from stale timestamps.
    pub fn clamped(&self) -> u64 {
        self.clamped
    }

    /// Advances the queue's clock without delivering an event.
    ///
    /// Adapter hook for *outer kernels* that drive a captive [`Model`]
    /// by hand (e.g. a multi-machine composition where one shared
    /// queue interleaves several models' events): the captive model's
    /// scratch queue must agree with the outer clock before each
    /// `handle` call, or relative [`EventQueue::schedule`] calls would
    /// resolve against a stale `now`. Time only moves forward; rewinds
    /// are a caller bug.
    pub fn sync_to(&mut self, now: SimTime) {
        debug_assert!(now >= self.now, "sync_to must not rewind the clock");
        self.now = now;
    }

    /// Removes every pending event in delivery order — `(time,
    /// insertion order)`, exactly as [`Model::handle`] would see them —
    /// handing each to `f`.
    ///
    /// The clock and the `delivered` counter are untouched: this is
    /// the second half of the outer-kernel adapter (see
    /// [`EventQueue::sync_to`]), where drained events are re-scheduled
    /// into the outer queue rather than delivered, so they must not
    /// count as deliveries or drag `now` to the drained timestamps.
    pub fn drain_pending(&mut self, mut f: impl FnMut(SimTime, E)) {
        loop {
            if let Some((_, event)) = self.ready.pop_front() {
                f(self.ready_at, event);
                continue;
            }
            match self.calendar.pop_batch(&mut self.ready) {
                Some((at, event)) => {
                    self.ready_at = SimTime::from_picos(at);
                    f(self.ready_at, event);
                }
                None => break,
            }
        }
        // The bulk pops above anchored the calendar's window on the
        // *drained* timestamps — arbitrarily far ahead of the clock.
        // Re-anchor the now-empty calendar on `now` so the model's next
        // handler call can schedule at the real current time again.
        self.calendar.reanchor(self.now.as_picos());
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        let (at, event) = match self.ready.pop_front() {
            Some((_, event)) => (self.ready_at, event),
            None => {
                // Batched delivery: one calendar operation hands back the
                // minimum event and stages the rest of its same-timestamp
                // run (the single-event common case stages nothing).
                let (at, event) = self.calendar.pop_batch(&mut self.ready)?;
                self.ready_at = SimTime::from_picos(at);
                (self.ready_at, event)
            }
        };
        debug_assert!(at >= self.now, "event queue went backwards in time");
        self.now = at;
        self.delivered += 1;
        Some((at, event))
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        if !self.ready.is_empty() {
            return Some(self.ready_at);
        }
        self.calendar.peek_at().map(SimTime::from_picos)
    }
}

impl<E: crate::snapshot::Snapshot> EventQueue<E> {
    /// Serializes the queue — clock, counters, and every pending event
    /// in delivery order — without disturbing it.
    ///
    /// Internally the pending set is drained (the only way to observe
    /// delivery order) and re-scheduled back in that same order; the
    /// re-scheduled events receive fresh insertion sequences, which
    /// preserves their relative order exactly, so a queue that has been
    /// saved delivers the same event stream as one that never was.
    pub fn save_snapshot(&mut self, w: &mut crate::snapshot::SnapWriter) {
        use crate::snapshot::Snapshot;
        self.now.save(w);
        w.u64(self.delivered);
        w.u64(self.clamped);
        let mut pending = Vec::with_capacity(self.len());
        self.drain_pending(|at, ev| pending.push((at, ev)));
        w.usize(pending.len());
        for (at, ev) in &pending {
            at.save(w);
            ev.save(w);
        }
        for (at, ev) in pending {
            self.schedule_at(at, ev);
        }
    }

    /// Rebuilds a queue from [`EventQueue::save_snapshot`] bytes.
    ///
    /// Order of operations matters: the clock is set and the calendar
    /// re-anchored on it *before* any event is scheduled, so restored
    /// events at exactly the snapshot instant take the same-instant
    /// staging lane — the same anchor hazard `CalendarQueue::reanchor`
    /// exists for (see [`EventQueue::drain_pending`]). A fresh calendar
    /// is anchored at time zero; scheduling an at-now event against it
    /// would misfile the event instead of staging it.
    pub fn load_snapshot(
        r: &mut crate::snapshot::SnapReader<'_>,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        use crate::snapshot::Snapshot;
        let now = SimTime::load(r)?;
        let delivered = r.u64()?;
        let clamped = r.u64()?;
        let n = r.seq_len()?;
        let mut q = EventQueue::with_capacity(n);
        q.now = now;
        q.calendar.reanchor(now.as_picos());
        let mut prev = now;
        for _ in 0..n {
            let at = SimTime::load(r)?;
            if at < prev {
                return Err(crate::snapshot::SnapshotError::Corrupt(
                    "pending events out of delivery order".into(),
                ));
            }
            prev = at;
            let ev = E::load(r)?;
            q.schedule_at(at, ev);
        }
        q.delivered = delivered;
        q.clamped = clamped;
        Ok(q)
    }
}

/// A model plus its event queue: the runnable simulation.
pub struct Simulation<M: Model> {
    model: M,
    queue: EventQueue<M::Event>,
}

impl<M: Model> Simulation<M> {
    /// Creates a simulation around `model` with an empty event queue at
    /// time zero. Seed initial events through [`Simulation::queue_mut`].
    pub fn new(model: M) -> Self {
        Simulation {
            model,
            queue: EventQueue::new(),
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Shared access to the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Exclusive access to the model.
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Exclusive access to the event queue (e.g. to seed initial
    /// events).
    pub fn queue_mut(&mut self) -> &mut EventQueue<M::Event> {
        &mut self.queue
    }

    /// Simultaneous exclusive access to both halves — for operations
    /// that read or mutate the model and the queue together, like
    /// taking a checkpoint (the model serializes itself, then the
    /// queue appends its pending events).
    pub fn parts_mut(&mut self) -> (&mut M, &mut EventQueue<M::Event>) {
        (&mut self.model, &mut self.queue)
    }

    /// Consumes the simulation, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Reassembles a simulation from a model and a (possibly restored)
    /// event queue — the checkpoint/restore entry point: load both
    /// halves from a snapshot, then resume with [`Simulation::run_until`].
    pub fn from_parts(model: M, queue: EventQueue<M::Event>) -> Self {
        Simulation { model, queue }
    }

    /// Delivers the next event, if any. Returns `false` when the queue
    /// is empty.
    pub fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some((at, ev)) => {
                self.model.handle(at, ev, &mut self.queue);
                true
            }
            None => false,
        }
    }

    /// Runs until the event queue is empty.
    ///
    /// Beware: a model that always schedules follow-on events never
    /// drains; use [`Simulation::run_until`] for open-loop workloads.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs until the queue is empty or the next event is at or after
    /// `deadline`. Events exactly at `deadline` are *not* delivered, so
    /// consecutive `run_until` calls partition time cleanly.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(t) = self.queue.peek_time() {
            if t >= deadline {
                break;
            }
            self.step();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Recorder {
        log: Vec<(u64, u32)>,
    }

    impl Model for Recorder {
        type Event = u32;
        fn handle(&mut self, now: SimTime, ev: u32, queue: &mut EventQueue<u32>) {
            self.log.push((now.as_picos(), ev));
            if ev == 1 {
                // Chain two events at the same future instant; they must
                // arrive in scheduling order.
                queue.schedule(SimDuration::from_picos(10), 2);
                queue.schedule(SimDuration::from_picos(10), 3);
            }
        }
    }

    #[test]
    fn events_fire_in_time_then_fifo_order() {
        let mut sim = Simulation::new(Recorder { log: vec![] });
        sim.queue_mut().schedule(SimDuration::from_picos(5), 1);
        sim.queue_mut().schedule(SimDuration::from_picos(1), 0);
        sim.run();
        assert_eq!(sim.model().log, vec![(1, 0), (5, 1), (15, 2), (15, 3)]);
    }

    #[test]
    fn run_until_excludes_deadline() {
        let mut sim = Simulation::new(Recorder { log: vec![] });
        for i in 0..5 {
            sim.queue_mut()
                .schedule(SimDuration::from_picos(i * 10), 100 + i as u32);
        }
        sim.run_until(SimTime::from_picos(20));
        assert_eq!(sim.model().log.len(), 2); // events at 0 and 10 only
        sim.run_until(SimTime::from_picos(100));
        assert_eq!(sim.model().log.len(), 5);
        assert_eq!(sim.queue_mut().delivered(), 5);
    }

    #[test]
    fn scheduling_in_past_clamps_to_now() {
        struct PastScheduler {
            fired: Vec<u64>,
        }
        impl Model for PastScheduler {
            type Event = bool;
            fn handle(&mut self, now: SimTime, ev: bool, queue: &mut EventQueue<bool>) {
                self.fired.push(now.as_picos());
                if ev {
                    queue.schedule_at(SimTime::from_picos(1), false); // in the past
                }
            }
        }
        let mut sim = Simulation::new(PastScheduler { fired: vec![] });
        sim.queue_mut().schedule(SimDuration::from_picos(50), true);
        sim.run();
        assert_eq!(sim.model().fired, vec![50, 50]);
        // The clamp is counted, not silent.
        assert_eq!(sim.queue_mut().clamped(), 1);
    }

    #[test]
    fn clamped_event_fires_after_queued_same_time_events() {
        // A past-time schedule is clamped to `now`, but it must not jump
        // ahead of events already queued for `now`: the FIFO tie-break
        // orders by scheduling sequence, and the clamped event was
        // scheduled last.
        struct Racer {
            log: Vec<(u64, u32)>,
        }
        impl Model for Racer {
            type Event = u32;
            fn handle(&mut self, now: SimTime, ev: u32, queue: &mut EventQueue<u32>) {
                self.log.push((now.as_picos(), ev));
                if ev == 1 {
                    queue.schedule(SimDuration::ZERO, 2); // same instant
                    queue.schedule(SimDuration::ZERO, 3); // same instant
                    queue.schedule_at(SimTime::from_picos(1), 4); // past → clamped
                    queue.schedule_at(now, 5); // exactly now: legal, not a clamp
                }
            }
        }
        let mut sim = Simulation::new(Racer { log: vec![] });
        sim.queue_mut().schedule(SimDuration::from_picos(50), 1);
        sim.run();
        assert_eq!(
            sim.model().log,
            vec![(50, 1), (50, 2), (50, 3), (50, 4), (50, 5)],
            "clamped event must run after already-queued same-time events"
        );
        assert_eq!(
            sim.queue_mut().clamped(),
            1,
            "only the past-time schedule clamps"
        );
    }

    #[test]
    fn at_now_schedule_mid_batch_fires_after_staged_events() {
        // Three events staged for t=50 drain as one batch. The first
        // handler schedules a fourth at exactly `now`: the same-instant
        // fast lane appends it to the staged batch, and it must fire
        // after the two events already staged (it has the higher seq),
        // never between or before them.
        struct MidBatch {
            log: Vec<u32>,
        }
        impl Model for MidBatch {
            type Event = u32;
            fn handle(&mut self, now: SimTime, ev: u32, queue: &mut EventQueue<u32>) {
                self.log.push(ev);
                if ev == 1 {
                    queue.schedule_at(now, 4);
                }
            }
        }
        let mut sim = Simulation::new(MidBatch { log: vec![] });
        for ev in 1..=3 {
            sim.queue_mut().schedule(SimDuration::from_picos(50), ev);
        }
        sim.run();
        assert_eq!(sim.model().log, vec![1, 2, 3, 4]);
        assert_eq!(sim.queue_mut().clamped(), 0, "at-now is not a clamp");
    }

    #[test]
    fn clamp_counter_matches_observed_clamps() {
        // Every past-time schedule — and nothing else — bumps the
        // counter, so it equals the number of clamps the model actually
        // performed.
        struct Mixed {
            past_schedules: u64,
            delivered: u64,
        }
        impl Model for Mixed {
            type Event = u32;
            fn handle(&mut self, now: SimTime, ev: u32, queue: &mut EventQueue<u32>) {
                self.delivered += 1;
                if ev < 3 {
                    // One stale (past) schedule and one healthy one per
                    // seed event.
                    queue.schedule_at(SimTime::from_picos(now.as_picos() / 2), 10 + ev);
                    self.past_schedules += 1;
                    queue.schedule(SimDuration::from_picos(7), 20 + ev);
                }
            }
        }
        let mut sim = Simulation::new(Mixed {
            past_schedules: 0,
            delivered: 0,
        });
        for i in 0..3u64 {
            sim.queue_mut()
                .schedule(SimDuration::from_picos(10 + i * 10), i as u32);
        }
        sim.run();
        let m = sim.model().past_schedules;
        assert_eq!(m, 3);
        assert_eq!(sim.queue_mut().clamped(), m, "counter == observed clamps");
        assert_eq!(sim.model().delivered, 9, "no clamped event was lost");
        assert_eq!(sim.queue_mut().delivered(), 9);
    }

    #[test]
    fn clamp_counter_starts_at_zero_and_ignores_future() {
        let mut q: EventQueue<u32> = EventQueue::with_capacity(16);
        assert_eq!(q.clamped(), 0);
        q.schedule_at(SimTime::from_picos(10), 1);
        q.schedule(SimDuration::from_picos(5), 2);
        assert_eq!(q.clamped(), 0, "future events are not clamps");
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn with_capacity_preallocates() {
        let mut q: EventQueue<u32> = EventQueue::with_capacity(1000);
        q.reserve(2000);
        for i in 0..1000 {
            q.schedule(SimDuration::from_picos(i), i as u32);
        }
        assert_eq!(q.len(), 1000);
    }

    #[test]
    fn drain_pending_yields_delivery_order_without_advancing_time() {
        let mut q: EventQueue<u32> = EventQueue::with_capacity(8);
        q.sync_to(SimTime::from_picos(100));
        q.schedule(SimDuration::from_picos(50), 2);
        q.schedule(SimDuration::ZERO, 0); // at-now fast lane
        q.schedule(SimDuration::from_picos(50), 3); // tie with 2: FIFO
        q.schedule(SimDuration::ZERO, 1);
        q.schedule(SimDuration::from_picos(10), 9);
        let mut drained = Vec::new();
        q.drain_pending(|at, ev| drained.push((at.as_picos(), ev)));
        assert_eq!(
            drained,
            vec![(100, 0), (100, 1), (110, 9), (150, 2), (150, 3)],
            "drain order must match delivery order"
        );
        assert!(q.is_empty());
        // The drain is bookkeeping, not delivery: clock and counters
        // are unchanged, so a subsequent sync_to cannot go backwards.
        assert_eq!(q.now(), SimTime::from_picos(100));
        assert_eq!(q.delivered(), 0);
        q.sync_to(SimTime::from_picos(101));
    }

    #[test]
    fn sync_to_resolves_relative_schedules() {
        let mut q: EventQueue<u32> = EventQueue::with_capacity(8);
        q.sync_to(SimTime::from_picos(40));
        q.schedule(SimDuration::from_picos(5), 7);
        let mut drained = Vec::new();
        q.drain_pending(|at, ev| drained.push((at.as_picos(), ev)));
        assert_eq!(drained, vec![(45, 7)]);
    }

    #[test]
    fn restore_reanchors_calendar_on_restored_clock() {
        use crate::snapshot::{SnapReader, SnapWriter};
        // Snapshot *mid-burst*: three events share an instant deep into
        // the run; the first has been delivered, two are still staged.
        let mut q: EventQueue<u32> = EventQueue::with_capacity(8);
        for ev in 1..=3 {
            q.schedule_at(SimTime::from_picos(1_000_000), ev);
        }
        q.schedule_at(SimTime::from_picos(2_000_000), 9);
        let (at, ev) = q.pop().unwrap();
        assert_eq!((at.as_picos(), ev), (1_000_000, 1));

        let mut w = SnapWriter::new();
        q.save_snapshot(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut restored = EventQueue::<u32>::load_snapshot(&mut r).unwrap();
        assert!(r.is_exhausted(), "queue snapshot left trailing bytes");
        assert_eq!(restored.now(), SimTime::from_picos(1_000_000));
        assert_eq!(restored.len(), 3);
        assert_eq!(restored.delivered(), 1);

        // The regression case: an at-now schedule straight after restore
        // must join the staging lane *behind* the restored burst. With
        // the calendar still anchored at time zero (the pre-reanchor
        // bug), the event would be misfiled instead of staged.
        restored.schedule_at(restored.now(), 4);
        assert_eq!(restored.clamped(), 0, "at-now after restore is not a clamp");
        let mut order = Vec::new();
        while let Some((at, ev)) = restored.pop() {
            order.push((at.as_picos(), ev));
        }
        assert_eq!(
            order,
            vec![
                (1_000_000, 2),
                (1_000_000, 3),
                (1_000_000, 4),
                (2_000_000, 9)
            ],
            "restored burst must keep delivery order, at-now event last in batch"
        );
        assert_eq!(restored.delivered(), 5);
    }

    #[test]
    fn save_snapshot_does_not_disturb_the_queue() {
        use crate::snapshot::SnapWriter;
        // Identical queues; one is saved mid-run, one never is. Both
        // must deliver the same stream afterwards.
        let build = || {
            let mut q: EventQueue<u32> = EventQueue::with_capacity(8);
            q.sync_to(SimTime::from_picos(100));
            q.schedule(SimDuration::from_picos(50), 2);
            q.schedule(SimDuration::ZERO, 0); // at-now staging lane
            q.schedule(SimDuration::from_picos(50), 3); // tie with 2: FIFO
            q.schedule(SimDuration::ZERO, 1);
            q
        };
        let mut saved = build();
        let mut w = SnapWriter::new();
        saved.save_snapshot(&mut w);
        let mut untouched = build();
        let drain = |q: &mut EventQueue<u32>| {
            let mut out = Vec::new();
            while let Some((at, ev)) = q.pop() {
                out.push((at.as_picos(), ev));
            }
            out
        };
        assert_eq!(drain(&mut saved), drain(&mut untouched));
        assert_eq!(saved.delivered(), untouched.delivered());
    }

    #[test]
    fn empty_queue_reports() {
        let mut sim: Simulation<Recorder> = Simulation::new(Recorder { log: vec![] });
        assert!(sim.queue_mut().is_empty());
        assert_eq!(sim.queue_mut().len(), 0);
        assert!(!sim.step());
    }
}
