//! Lazy housekeeping: every server's periodic load reports and
//! speed-noise redraws, caught up when the server is touched or read
//! instead of firing one kernel event per server per period.
//!
//! Eagerly, each server carries a `LoadReport` event every
//! `load_report_period` seconds and a `NoiseRedraw` event every
//! `noise_redraw_period` seconds for as long as any task remains, so a
//! campaign costs servers × horizon kernel events however few tasks it
//! has. Neither event changes anything observable on a server nobody
//! looks at:
//!
//! * A **report** refreshes the agent's record of one server from the
//!   server's load monitor, whose only input — the run-queue length —
//!   is constant between touches. `LoadBook` keeps each server's next
//!   report instant and, before any monitor touch, load correction,
//!   reset or read, replays the instants it missed: one monitor
//!   observation and one refresh each, exactly what the events did. No
//!   report event is scheduled at all.
//! * A **noise redraw** draws from the server's own RNG streams and sets
//!   the capacities of resources. On an idle server those resources are
//!   empty, so only the last draw before the next task arrives matters.
//!   The engine keeps a server's redraw chain armed only while the
//!   server is busy; a touch after an idle stretch advances the streams
//!   past the skipped draws ([`cas_sim::dist::LogNormalNoise::skip`])
//!   and applies only the latest one (`NoiseChain`).
//!
//! Both are bit-identical to the eager events; the engine's tests keep
//! the eager path as the executable spec and compare whole campaigns.
//!
//! ## Exact ties
//!
//! A report instant can coincide with the event that touches the server
//! (integer trace arrivals and durations land on them). The eager kernel
//! pops same-instant events in push order, and the report's correction
//! counters and `reported_at` depend on which side of the touch it
//! lands. (The monitor and the noise state do not: at zero elapsed time
//! the monitor's decay is 1 and no resource makes progress.)
//!
//! Push order is recoverable without the events. The report due at
//! `T_k` was pushed while the report at `T_{k-1}` was handled; an event
//! due at `T_k` was pushed while its parent was handled. So the event
//! pops first exactly when its parent was handled before report
//! `T_{k-1}`: compare push times, and on equal push times recurse one
//! level up on both sides. Every event therefore carries an [`Origin`]:
//! its push time plus, only when it was pushed exactly one report
//! period ahead (the one case where the recursion can continue), its
//! parent's origin.

use cas_core::LoadSource;
use cas_platform::{LoadAverage, LoadReport, ServerId, ServerRuntime};
use cas_sim::{prof, SimTime};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::sync::Arc;

/// A point in the kernel's push order: one of the world's `init`
/// pushes, or the simulated time of the handler that pushed. Init
/// pushes sort before every handled moment, in push order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Moment(f64);

/// Init pushes map to `q - 2^53`: exact integers, all negative, below
/// every simulated time.
const INIT_BASE: f64 = (1u64 << 53) as f64;

impl Moment {
    /// The `q`-th push of the world's `init`.
    pub(crate) fn init(q: u64) -> Moment {
        Moment(q as f64 - INIT_BASE)
    }

    /// A push made by a handler running at `t`.
    pub(crate) fn at(t: SimTime) -> Moment {
        Moment(t.as_secs())
    }
}

impl Eq for Moment {}

impl PartialOrd for Moment {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Moment {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).expect("moments are finite")
    }
}

/// How an event came to be pushed, as far back as the eager kernel's
/// `(at, seq)` order can depend on it (see the module docs): the push
/// moment, and the pushing event's own origin when the event was pushed
/// exactly one report period ahead.
#[derive(Debug, Clone, PartialEq)]
pub struct Origin {
    pushed: Moment,
    parent: Option<Arc<Origin>>,
}

impl Origin {
    /// The `q`-th push of the world's `init`.
    pub(crate) fn init(q: u64) -> Origin {
        Origin::pushed_at(Moment::init(q))
    }

    /// A push at `pushed` whose parent cannot matter.
    pub(crate) fn pushed_at(pushed: Moment) -> Origin {
        Origin {
            pushed,
            parent: None,
        }
    }

    /// The origin of an event due at `at`, pushed at `now` by the
    /// handler of an event of origin `self`.
    pub(crate) fn child(&self, now: SimTime, at: SimTime, report_period: SimTime) -> Origin {
        Origin {
            pushed: Moment::at(now),
            parent: (at == now + report_period).then(|| Arc::new(self.clone())),
        }
    }

    /// Push order of two events due at the same instant. `Equal` when
    /// the recorded history cannot tell them apart.
    fn cmp_push(&self, other: &Origin) -> Ordering {
        match self.pushed.cmp(&other.pushed) {
            Ordering::Equal => match (&self.parent, &other.parent) {
                (Some(a), Some(b)) => a.cmp_push(b),
                _ => Ordering::Equal,
            },
            order => order,
        }
    }
}

impl Default for Origin {
    /// An event scheduled from outside the world before the run starts:
    /// it orders like the world's first `init` push.
    fn default() -> Self {
        Origin::init(0)
    }
}

/// One server's load monitor, the agent's record of it, and where its
/// report chain stands.
#[derive(Debug, Clone)]
struct ReportChain {
    monitor: LoadAverage,
    report: LoadReport,
    /// The next report instant not yet applied; `SimTime::MAX` when
    /// kernel events drive the reports instead.
    next: SimTime,
    /// Index of `next` in the chain.
    k: u64,
    /// The instant before `next` (unused while `k == 0`).
    prev: SimTime,
    /// The chain's first instant.
    first: SimTime,
    /// Origin of the first report: where the eager path pushed it.
    root: Origin,
    /// Report instants met at the touching event's own instant, by who
    /// went first: `[report, event]`.
    #[cfg(test)]
    ties: [u64; 2],
}

impl ReportChain {
    fn new(server: ServerId, tau: f64, first: SimTime, lazy: bool, root: Origin) -> Self {
        ReportChain {
            monitor: LoadAverage::new(tau),
            report: LoadReport::initial(server),
            next: if lazy { first } else { SimTime::MAX },
            k: 0,
            prev: SimTime::ZERO,
            first,
            root,
            #[cfg(test)]
            ties: [0; 2],
        }
    }

    /// Replays every report instant the event of origin `cur`, handled
    /// at `now`, comes after. `len` is the run-queue length, constant
    /// since the last touch.
    fn catch_up(&mut self, now: SimTime, cur: &Origin, len: usize, period: SimTime) {
        if self.next > now {
            return;
        }
        let _reports = prof::span(prof::Phase::Reports);
        while self.next <= now {
            if self.next == now {
                let event_first = self.event_first(cur, period);
                #[cfg(test)]
                {
                    self.ties[usize::from(event_first)] += 1;
                }
                if event_first {
                    break;
                }
            }
            let value = self.monitor.observe(self.next, len);
            self.report.refresh(self.next, value);
            self.prev = self.next;
            self.next += period;
            self.k += 1;
        }
    }

    /// The chain's `j`-th instant, `j < k`, by the same additions the
    /// eager events made.
    fn instant(&self, j: u64, period: SimTime) -> SimTime {
        if j + 1 == self.k {
            return self.prev;
        }
        (0..j).fold(self.first, |t, _| t + period)
    }

    /// Whether an event of origin `cur`, due at `next`, popped before
    /// the eager report due at `next`.
    fn event_first(&self, cur: &Origin, period: SimTime) -> bool {
        let (mut e, mut k) = (cur, self.k);
        while k > 0 {
            // Report k was pushed by report k-1's handler.
            match e.pushed.cmp(&Moment::at(self.instant(k - 1, period))) {
                Ordering::Less => return true,
                Ordering::Greater => return false,
                // Same push instant: whichever parent popped first.
                Ordering::Equal => match e.parent.as_deref() {
                    Some(up) => (e, k) = (up, k - 1),
                    None => return false,
                },
            }
        }
        e.cmp_push(&self.root) == Ordering::Less
    }
}

/// The agent's load picture: per-server monitors and reports, with the
/// lazy report chains of the module docs. Interior mutability lets a
/// decision catch a report up as it reads it (see [`ReportRead`]).
pub(crate) struct LoadBook {
    chains: RefCell<Vec<ReportChain>>,
    period: SimTime,
    tau: f64,
    lazy: bool,
}

impl LoadBook {
    /// Books for `n` servers whose first reports are staggered across
    /// one period, as the eager `init` staggered them. `lazy = false`
    /// leaves the reports to kernel events. Server `i`'s first report
    /// orders like `init` push `root + i`.
    pub(crate) fn new(n: usize, period: f64, tau: f64, lazy: bool, root: u64) -> Self {
        let chains = (0..n)
            .map(|i| {
                let first = SimTime::from_secs(period * (i + 1) as f64 / n as f64);
                let origin = Origin::init(root + i as u64);
                ReportChain::new(ServerId(i as u32), tau, first, lazy, origin)
            })
            .collect();
        LoadBook {
            chains: RefCell::new(chains),
            period: SimTime::from_secs(period),
            tau,
            lazy,
        }
    }

    /// The report period as a time step.
    pub(crate) fn period(&self) -> SimTime {
        self.period
    }

    /// Books a server provisioned at `now` by the event of origin
    /// `cur`: its first report is one period later.
    pub(crate) fn push_server(&mut self, now: SimTime, cur: &Origin) {
        let chains = self.chains.get_mut();
        let id = ServerId(chains.len() as u32);
        let first = now + self.period;
        let root = cur.child(now, first, self.period);
        chains.push(ReportChain::new(id, self.tau, first, self.lazy, root));
    }

    fn caught_up(&mut self, i: usize, now: SimTime, cur: &Origin, len: usize) -> &mut ReportChain {
        let chain = &mut self.chains.get_mut()[i];
        chain.catch_up(now, cur, len, self.period);
        chain
    }

    /// Integrates server `i`'s monitor up to `now`.
    pub(crate) fn observe(&mut self, i: usize, now: SimTime, cur: &Origin, len: usize) {
        self.caught_up(i, now, cur, len).monitor.observe(now, len);
    }

    /// Correction 1: the agent just mapped a task on server `i`.
    pub(crate) fn note_assignment(&mut self, i: usize, now: SimTime, cur: &Origin, len: usize) {
        self.caught_up(i, now, cur, len).report.note_assignment();
    }

    /// Correction 2: server `i` announced a finished computation.
    pub(crate) fn note_completion(&mut self, i: usize, now: SimTime, cur: &Origin, len: usize) {
        self.caught_up(i, now, cur, len).report.note_completion();
    }

    /// Server `i` rejoined: fresh monitor history and report.
    pub(crate) fn reset(&mut self, i: usize, now: SimTime, cur: &Origin, len: usize) {
        let tau = self.tau;
        let chain = self.caught_up(i, now, cur, len);
        chain.monitor = LoadAverage::new(tau);
        chain.report = LoadReport::initial(ServerId(i as u32));
    }

    /// A kernel report event: observe and refresh server `i` at `now`.
    pub(crate) fn refresh(&mut self, i: usize, now: SimTime, len: usize) {
        let chain = &mut self.chains.get_mut()[i];
        let value = chain.monitor.observe(now, len);
        chain.report.refresh(now, value);
    }

    /// Server `i`'s corrected load as the event of origin `cur`, handled
    /// at `now`, sees it.
    fn read(&self, i: usize, now: SimTime, cur: &Origin, len: usize) -> f64 {
        let chain = &mut self.chains.borrow_mut()[i];
        chain.catch_up(now, cur, len, self.period);
        chain.report.corrected_load()
    }

    /// Report-instant ties met so far, by who went first:
    /// `[report, event]`.
    #[cfg(test)]
    pub(crate) fn ties(&self) -> [u64; 2] {
        self.chains
            .borrow()
            .iter()
            .fold([0; 2], |acc, c| [acc[0] + c.ties[0], acc[1] + c.ties[1]])
    }
}

/// One decision's view of the [`LoadBook`]: reads catch each server up
/// to the decision instant, so the decision pays only for the reports
/// its heuristic reads.
pub(crate) struct ReportRead<'a> {
    pub(crate) book: &'a LoadBook,
    pub(crate) servers: &'a [ServerRuntime],
    pub(crate) now: SimTime,
    pub(crate) cur: &'a Origin,
}

impl LoadSource for ReportRead<'_> {
    fn corrected_load(&self, server: ServerId) -> f64 {
        let i = server.index();
        self.book
            .read(i, self.now, self.cur, self.servers[i].run_queue_len())
    }
}

/// Where one server's noise-redraw chain stands.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NoiseChain {
    /// The next redraw epoch: the pending event's time while armed, the
    /// first skipped epoch otherwise.
    pub(crate) next: SimTime,
    /// Where the eager path pushed the redraw due at `next`.
    pub(crate) pushed: Moment,
    /// Whether a `NoiseRedraw` event is pending for this server.
    pub(crate) armed: bool,
}

impl NoiseChain {
    /// Steps past the epoch at `next`.
    pub(crate) fn advance(&mut self, period: SimTime) {
        self.pushed = Moment::at(self.next);
        self.next += period;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn init_moments_sort_before_time_zero_in_push_order() {
        assert!(Moment::init(0) < Moment::init(1));
        assert!(Moment::init(1 << 40) < Moment::at(SimTime::ZERO));
        assert!(Moment::at(t(1.0)) < Moment::at(t(1.5)));
    }

    /// A parent is recorded only one report period ahead — the only
    /// push that can tie with a report on its push instant.
    #[test]
    fn origins_keep_parents_only_one_period_ahead() {
        let period = t(30.0);
        let root = Origin::init(3);
        let near = root.child(t(10.0), t(12.0), period);
        assert_eq!(near.parent, None);
        let ahead = root.child(t(10.0), t(40.0), period);
        assert_eq!(ahead.parent.as_deref(), Some(&root));
    }

    /// The tie rule against a chain at 15 + 30k (first report pushed
    /// at init push 100).
    #[test]
    fn event_first_follows_push_order() {
        let period = t(30.0);
        let mut chain = ReportChain::new(ServerId(0), 60.0, t(15.0), true, Origin::init(100));
        // At the first instant: init pushes before the report's pop first.
        assert!(chain.event_first(&Origin::init(5), period));
        assert!(!chain.event_first(&Origin::init(200), period));
        // Anything pushed by a handler runs after a report pushed at init.
        assert!(!chain.event_first(&Origin::pushed_at(Moment::at(t(0.0))), period));
        chain.catch_up(t(20.0), &Origin::default(), 0, period);
        assert_eq!((chain.k, chain.next), (1, t(45.0)));
        // Due at 45: pushed before 15 → first; after 15 → second.
        assert!(chain.event_first(&Origin::pushed_at(Moment::at(t(14.0))), period));
        assert!(!chain.event_first(&Origin::pushed_at(Moment::at(t(16.0))), period));
        // Pushed at 15 by a parent pushed at init before the first
        // report: the parent popped before it, so the event does too.
        let parent = Origin::init(7);
        assert!(chain.event_first(&parent.child(t(15.0), t(45.0), period), period));
        let late_parent = Origin::pushed_at(Moment::at(t(15.0)));
        assert!(!chain.event_first(&late_parent.child(t(15.0), t(45.0), period), period));
    }

    /// Replaying a long idle stretch lands on the same report as
    /// observing every instant in turn.
    #[test]
    fn catch_up_replays_every_missed_instant() {
        let period = t(30.0);
        let mut lazy = ReportChain::new(ServerId(0), 60.0, t(7.5), true, Origin::init(0));
        let mut eager = LoadAverage::new(60.0);
        let mut last = LoadReport::initial(ServerId(0));
        let mut at = t(7.5);
        while at <= t(1000.0) {
            let value = eager.observe(at, 2);
            last.refresh(at, value);
            at += period;
        }
        lazy.catch_up(t(1000.0), &Origin::default(), 2, period);
        assert_eq!(lazy.report, last);
        assert_eq!(lazy.monitor, eager);
        assert_eq!(lazy.next, at);
    }
}
