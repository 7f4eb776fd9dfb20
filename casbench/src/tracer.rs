//! Tracing from outside the program: an [`EventQueue`] wrapper that times
//! every push and pop and remembers the kind of the last popped event,
//! plus the per-kind ledger the benchmark charges each timed
//! `Simulation::step` to.
//!
//! The wrapper delegates every operation to an unmodified
//! [`AdaptiveQueue`], so the event order — and therefore every simulated
//! outcome — is exactly the untraced one (the `records_digest` check and
//! the differential test below hold it to that).

use cas_middleware::GridEvent;
use cas_sim::{AdaptiveQueue, EventEntry, EventQueue, SimTime};
use std::cell::Cell;
use std::time::{Duration, Instant};

/// Event kinds the engine layer is split into. Crash, join, leave and
/// provision are one `churn` kind.
pub const KINDS: [&str; 8] = [
    "submit",
    "schedule",
    "phase_done",
    "client_link_done",
    "load_report",
    "noise_redraw",
    "admission_timeout",
    "churn",
];

/// Index into [`KINDS`] of `schedule` (decision latency samples).
pub const SCHEDULE: usize = 1;
/// Indices into [`KINDS`] of the housekeeping kinds.
pub const HOUSEKEEPING: [usize; 2] = [4, 5];

/// The [`KINDS`] index of a grid event. Aggregated shard reports count
/// as load reports.
pub fn kind_of(event: &GridEvent) -> usize {
    match event {
        GridEvent::Submit { .. } => 0,
        GridEvent::Schedule { .. } => 1,
        GridEvent::PhaseDone { .. } => 2,
        GridEvent::ClientLinkDone { .. } => 3,
        GridEvent::LoadReport { .. } | GridEvent::ShardLoadReport { .. } => 4,
        GridEvent::NoiseRedraw { .. } => 5,
        GridEvent::AdmissionTimeout { .. } => 6,
        GridEvent::ServerProvision { .. }
        | GridEvent::ServerJoin { .. }
        | GridEvent::ServerLeave { .. }
        | GridEvent::ServerCrash { .. } => 7,
    }
}

/// What one `Simulation::step` did inside the queue.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct StepParts {
    /// Kind of the popped event; `None` when the pop found nothing.
    pub kind: Option<usize>,
    /// Time in the pop.
    pub pop: Duration,
    /// Time in pushes made after the pop, by the event's handler.
    pub push: Duration,
    /// Time in pushes made before the pop: the world's `init`, which
    /// the simulation runs inside its first step.
    pub init_push: Duration,
}

/// An [`AdaptiveQueue`] that times its own pushes and pops.
///
/// `push_time`/`pop_time` accumulate over the queue's life;
/// [`TracedQueue::take_step`] hands the caller the part of them that fell
/// inside one step, together with the kind of the event that step
/// popped. The per-step part sits in `Cell`s because the simulation only
/// lends its queue out immutably.
pub struct TracedQueue<E> {
    inner: AdaptiveQueue<E>,
    classify: fn(&E) -> usize,
    pushes: u64,
    push_time: Duration,
    pop_time: Duration,
    step: Cell<StepParts>,
    popped: Cell<bool>,
}

impl<E> TracedQueue<E> {
    /// An empty traced queue over a default [`AdaptiveQueue`].
    pub fn new(classify: fn(&E) -> usize) -> Self {
        TracedQueue {
            inner: AdaptiveQueue::new(),
            classify,
            pushes: 0,
            push_time: Duration::ZERO,
            pop_time: Duration::ZERO,
            step: Cell::new(StepParts::default()),
            popped: Cell::new(false),
        }
    }

    /// Pushes so far.
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Total time inside `push`.
    pub fn push_time(&self) -> Duration {
        self.push_time
    }

    /// Total time inside `pop`.
    pub fn pop_time(&self) -> Duration {
        self.pop_time
    }

    /// Backend migrations of the wrapped queue.
    pub fn migrations(&self) -> u64 {
        self.inner.migrations()
    }

    /// What happened in the queue since the last call; resets the
    /// per-step accumulators.
    pub fn take_step(&self) -> StepParts {
        self.popped.set(false);
        self.step.take()
    }
}

impl<E> EventQueue<E> for TracedQueue<E> {
    fn push(&mut self, at: SimTime, event: E) -> u64 {
        let t0 = Instant::now();
        let seq = self.inner.push(at, event);
        let dt = t0.elapsed();
        self.pushes += 1;
        self.push_time += dt;
        let mut step = self.step.get();
        if self.popped.get() {
            step.push += dt;
        } else {
            step.init_push += dt;
        }
        self.step.set(step);
        seq
    }

    fn pop(&mut self) -> Option<EventEntry<E>> {
        let t0 = Instant::now();
        let entry = self.inner.pop();
        let dt = t0.elapsed();
        self.pop_time += dt;
        let mut step = self.step.get();
        step.pop += dt;
        if let Some(e) = &entry {
            step.kind = Some((self.classify)(&e.event));
        }
        self.step.set(step);
        self.popped.set(true);
        entry
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.inner.peek_time()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

/// Time and count charged to one event kind.
#[derive(Debug, Default, Clone, Copy)]
pub struct KindCost {
    /// Events of this kind handled.
    pub count: u64,
    /// Step time minus the pop and minus the pushes made in the handler.
    pub self_time: Duration,
    /// Time popping events of this kind.
    pub pop_time: Duration,
    /// Time in pushes made by handlers of this kind.
    pub push_time: Duration,
}

impl KindCost {
    /// Everything charged to the kind.
    pub fn total(&self) -> Duration {
        self.self_time + self.pop_time + self.push_time
    }
}

/// Per-kind accounting of timed steps.
#[derive(Debug, Clone)]
pub struct StepLedger {
    /// One entry per [`KINDS`] element.
    pub kinds: [KindCost; KINDS.len()],
    /// Sum of all timed steps, including the final empty one.
    pub steps_total: Duration,
    /// Time of steps that popped nothing (the final empty pop).
    pub idle: Duration,
    /// Pushes made by the world's `init` (every arrival and the first
    /// periodic events), which the simulation runs inside its first step.
    pub init: Duration,
    /// Wall time of each `schedule` step (decision latency samples).
    pub schedule_samples: Vec<Duration>,
}

impl Default for StepLedger {
    fn default() -> Self {
        StepLedger {
            kinds: [KindCost::default(); KINDS.len()],
            steps_total: Duration::ZERO,
            idle: Duration::ZERO,
            init: Duration::ZERO,
            schedule_samples: Vec::new(),
        }
    }
}

impl StepLedger {
    /// Charges one timed step of `step` wall time. The init pushes, the
    /// pop and the handler's pushes inside it are subtracted from the
    /// handler's self time, so each nanosecond of the step lands in
    /// exactly one bucket.
    pub fn charge(&mut self, step: Duration, parts: StepParts) {
        self.steps_total += step;
        self.init += parts.init_push;
        let step = step.saturating_sub(parts.init_push);
        let Some(k) = parts.kind else {
            self.idle += step;
            return;
        };
        let cost = &mut self.kinds[k];
        cost.count += 1;
        cost.pop_time += parts.pop;
        cost.push_time += parts.push;
        cost.self_time += step.saturating_sub(parts.pop + parts.push);
        if k == SCHEDULE {
            self.schedule_samples.push(step);
        }
    }

    /// Σ over kinds of self + pop + push, plus init and idle steps:
    /// equals `steps_total` unless a pop/push measurement overran its
    /// step.
    pub fn accounted(&self) -> Duration {
        self.kinds.iter().map(KindCost::total).sum::<Duration>() + self.idle + self.init
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cas_sim::{RngStream, StreamKind};
    use cas_sim::{Simulation, World};

    /// The same random push/pop script against the wrapper and a bare
    /// queue yields identical `(at, seq, event)` sequences.
    #[test]
    fn wrapper_is_order_transparent() {
        for seed in 0..8u64 {
            let mut rng = RngStream::derive(seed, StreamKind::Custom(7));
            let mut bare: AdaptiveQueue<u64> = AdaptiveQueue::new();
            let mut traced: TracedQueue<u64> = TracedQueue::new(|e| (*e % 8) as usize);
            let mut now = 0.0f64;
            let (mut a, mut b) = (Vec::new(), Vec::new());
            // Long enough to push the adaptive queue across its
            // heap → calendar threshold and back.
            for step in 0..40_000u64 {
                let burst = step < 20_000 || rng.uniform01() < 0.3;
                if burst {
                    let at = now + rng.uniform01() * 100.0;
                    // Coarse times force many exact ties.
                    let at = SimTime::from_secs((at * 4.0).floor() / 4.0);
                    let event = rng.below(1_000_000);
                    assert_eq!(bare.push(at, event), traced.push(at, event));
                } else {
                    let x = bare.pop();
                    let y = traced.pop();
                    if let Some(e) = &x {
                        now = e.at.as_secs();
                    }
                    a.push(x.map(|e| (e.at, e.seq, e.event)));
                    b.push(y.map(|e| (e.at, e.seq, e.event)));
                }
            }
            while let Some(e) = bare.pop() {
                a.push(Some((e.at, e.seq, e.event)));
            }
            while let Some(e) = traced.pop() {
                b.push(Some((e.at, e.seq, e.event)));
            }
            assert_eq!(a, b, "seed {seed}");
            assert!(traced.pushes() >= 20_000);
            assert_eq!(bare.len(), 0);
            assert_eq!(traced.len(), 0);
        }
    }

    /// A world whose handlers burn time and push follow-ups, so steps
    /// have real self, pop and push parts.
    struct Chain {
        left: u32,
    }

    impl World for Chain {
        type Event = u64;

        fn init(&mut self, sched: &mut cas_sim::Scheduler<'_, u64>) {
            for i in 0..64u64 {
                sched.at(SimTime::from_secs(i as f64), i);
            }
        }

        fn handle(&mut self, _now: SimTime, event: u64, sched: &mut cas_sim::Scheduler<'_, u64>) {
            let mut x = event;
            for _ in 0..200 {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
            }
            if self.left > 0 {
                self.left -= 1;
                sched.in_(SimTime::from_secs(1.0 + (x % 7) as f64), x % 1000);
                sched.in_(SimTime::from_secs(0.5), (x >> 7) % 1000);
            }
        }
    }

    /// Per-kind self + pop + push sums to the timed step total, with
    /// nothing counted twice, and the counts match the events handled.
    #[test]
    fn ledger_partitions_step_time() {
        let queue = TracedQueue::new(|e: &u64| (*e % KINDS.len() as u64) as usize);
        let mut sim = Simulation::with_queue(Chain { left: 5_000 }, queue);
        let mut ledger = StepLedger::default();
        loop {
            let t0 = Instant::now();
            let more = sim.step();
            let dt = t0.elapsed();
            ledger.charge(dt, sim.queue().take_step());
            if !more {
                break;
            }
        }
        let events: u64 = ledger.kinds.iter().map(|k| k.count).sum();
        assert_eq!(events, sim.processed());
        assert_eq!(events, 64 + 2 * 5_000);
        assert_eq!(ledger.accounted(), ledger.steps_total);
        let pushes: Duration = ledger.kinds.iter().map(|k| k.push_time).sum();
        let pops: Duration = ledger.kinds.iter().map(|k| k.pop_time).sum();
        // Init pushes plus handler pushes are every push; every pop
        // (the final empty one included) sits in some step.
        assert_eq!(pushes + ledger.init, sim.queue().push_time());
        assert!(ledger.init > Duration::ZERO);
        let pops_idle = sim.queue().pop_time() - pops;
        assert!(pops_idle <= ledger.idle);
        assert!(ledger.kinds.iter().all(|k| k.self_time > Duration::ZERO));
    }
}
