//! The grid world: clients, agent and servers in one discrete-event model.
//!
//! Event flow for one task (§2.1's protocol, compressed to what matters for
//! scheduling):
//!
//! ```text
//! Submit ──agent latency──► Schedule ──reserve memory──► input transfer
//!     (reject? retry/fail)      │
//!                               ▼
//!                     input done → compute (fair-shared CPU)
//!                               ▼
//!                    compute done → output transfer → task complete
//! ```
//!
//! Shared-resource completions use the generation-stamp pattern: every
//! membership or capacity change on a fair-share resource invalidates the
//! previously scheduled completion event, and a fresh one is scheduled from
//! the resource's new state.
//!
//! The world is written against the kernel's `EventQueue` trait (via the
//! backend-erased `Scheduler`), and [`run_experiment`] drives it on the
//! default [`AdaptiveQueue`](cas_sim::AdaptiveQueue) — small paper runs
//! stay on the binary heap, 1k-server campaigns migrate to the calendar
//! queue automatically. Per-task hot state avoids hashing entirely:
//! in-flight records live in a generational [`Arena`] reached through a
//! dense task-indexed key table, and each decision's prediction memo
//! reuses one run-wide [`DecisionMemo`].
//!
//! Scheduling decisions run the **two-stage pipeline** behind the shard
//! federation's [`AgentRouter`] (see [`crate::shard`]): stage 1, each
//! shard's configured `CandidateSelector` proposes a shortlist from its
//! incrementally maintained `StaticIndex` (kept current by the
//! commit/complete hooks in this file — no per-arrival platform rescan);
//! stage 2, the heuristic runs its batched HTM what-if queries on the
//! merged shortlist only, routed to the owning shards. The default
//! configuration is a single agent owning the whole farm (the paper's
//! model, and the executable spec the federation is differentially
//! tested against); `ExperimentConfig::shards` partitions the farm so
//! no decision structure scales with its size. The exhaustive selector
//! reproduces the paper's every-solver loop bit for bit in both modes.

use crate::config::{ExperimentConfig, FaultTolerance};
use crate::event::GridEvent;
use crate::housekeeping::{LoadBook, Moment, NoiseChain, Origin, ReportRead};
use crate::shard::{AgentRouter, DecisionInputs};
use cas_core::heuristics::Heuristic;
use cas_core::{Htm, Loads};
use cas_metrics::{DropReason, TaskOutcome, TaskRecord};
use cas_platform::{
    AdmitOutcome, Arena, ArenaKey, CostTable, Phase, PhaseCosts, ServerId, ServerRuntime,
    ServerSpec, TaskId, TaskInstance,
};
use cas_sim::dist::{LogNormalNoise, Sample};
use cas_sim::{prof, RngStream, Scheduler, SimTime, Simulation, StreamKind, World};
use cas_workload::ChurnProcess;
use std::collections::VecDeque;

/// Tolerance when matching a completion event's time against the
/// resource's recomputed completion time.
const COMPLETION_EPS: f64 = 1e-6;

/// Lifecycle counters of one run: how often the farm changed shape and
/// what the scheduler did about it. The cheap observability surface of
/// the fault-injection subsystem, next to
/// [`GridWorld::report_events`] and `Simulation::peak_pending`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ChurnStats {
    /// Servers that crashed (in-flight work lost).
    pub crashes: u64,
    /// Servers that came back after a crash.
    pub joins: u64,
    /// Servers that left gracefully (drained, no retraction).
    pub leaves: u64,
    /// In-flight placements undone by crashes: one HTM retract plus one
    /// index-ledger payback each.
    pub retractions: u64,
    /// Tasks re-entered into the decision pipeline — after a crash
    /// retraction, or after finding no live solver — with the
    /// re-dispatch backoff applied.
    pub redispatches: u64,
    /// Tasks dropped with a reason code (re-dispatch budget exhausted,
    /// or no live solver left).
    pub drops: u64,
    /// Federation re-partitions triggered by the live-count band.
    pub rebalances: u64,
    /// Brand-new servers admitted mid-campaign (provision schedule).
    pub provisions: u64,
}

/// Observability counters of the admission backpressure gate: how much
/// the bounded buffer absorbed and how much it shed. All-zero when the
/// gate is off (`ExperimentConfig::admission_capacity == 0`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Buffer entries: tasks that waited behind the gate at least once
    /// (a crash-retracted task re-entering counts again).
    pub buffered: u64,
    /// Buffer exits into the decision pipeline (fair dequeue).
    pub dequeued: u64,
    /// Tasks shed because their admission deadline expired in the
    /// buffer.
    pub shed_deadline: u64,
    /// Tasks shed on arrival (or re-entry) because the buffer itself
    /// was full.
    pub shed_overflow: u64,
    /// Crash-retracted tasks that re-entered through the buffer instead
    /// of the re-dispatch backoff.
    pub reentries: u64,
    /// High-water mark of the buffer occupancy.
    pub peak_buffered: usize,
    /// High-water mark of concurrently admitted tasks (≤ capacity).
    pub peak_admitted: usize,
}

/// One task waiting behind the admission gate. `attempt`/`excluded`
/// are the Schedule arguments to replay on dequeue, so a re-buffered
/// crash victim keeps its attempt count and exclusion.
#[derive(Debug, Clone)]
struct BufferedTask {
    idx: usize,
    attempt: u32,
    excluded: Box<[ServerId]>,
    enqueued: SimTime,
}

/// The bounded admission buffer: per-user-class FIFO queues drained
/// round-robin (so one flooding class cannot starve the others), a
/// concurrency gate of `capacity` tasks, and a per-task deadline after
/// which a buffered task is shed with
/// [`DropReason::AdmissionDeadline`]. Built at `init` when
/// `ExperimentConfig::admission_capacity > 0`; `None` otherwise, in
/// which case submissions take the exact pre-backpressure path.
struct AdmissionState {
    capacity: usize,
    buffer_cap: usize,
    in_admission: usize,
    buffered_total: usize,
    /// Per-class FIFO queues, sorted by class id so iteration order is
    /// deterministic in the workload alone.
    queues: Vec<(u32, VecDeque<BufferedTask>)>,
    /// Round-robin cursor of the fair dequeue: index into `queues` of
    /// the class to serve next.
    rr: usize,
    /// Whether task `idx` currently waits in the buffer.
    buffered: Vec<bool>,
    /// Admission generation per task, bumped on every buffer exit: a
    /// deadline event armed for an earlier stay cannot shed a task
    /// that was dequeued and re-buffered since.
    gen: Vec<u32>,
    /// Total buffered seconds per task (the SLO "buffered time").
    waits: Vec<f64>,
    stats: AdmissionStats,
}

impl AdmissionState {
    fn new(cfg: &ExperimentConfig, users: &[u32]) -> Self {
        let mut classes: Vec<u32> = users.to_vec();
        classes.sort_unstable();
        classes.dedup();
        AdmissionState {
            capacity: cfg.admission_capacity,
            buffer_cap: cfg.admission_buffer,
            in_admission: 0,
            buffered_total: 0,
            queues: classes.into_iter().map(|c| (c, VecDeque::new())).collect(),
            rr: 0,
            buffered: vec![false; users.len()],
            gen: vec![0; users.len()],
            waits: vec![0.0; users.len()],
            stats: AdmissionStats::default(),
        }
    }

    fn queue_of(&mut self, class: u32) -> &mut VecDeque<BufferedTask> {
        let i = self
            .queues
            .binary_search_by_key(&class, |(c, _)| *c)
            .expect("every task's class is registered");
        &mut self.queues[i].1
    }

    fn enqueue(&mut self, class: u32, entry: BufferedTask) {
        self.buffered[entry.idx] = true;
        self.buffered_total += 1;
        self.stats.buffered += 1;
        self.stats.peak_buffered = self.stats.peak_buffered.max(self.buffered_total);
        self.queue_of(class).push_back(entry);
    }

    /// Fair dequeue: the oldest waiting task of the next non-empty
    /// class, round-robin starting after the class served last.
    fn dequeue(&mut self, now: SimTime) -> Option<BufferedTask> {
        if self.buffered_total == 0 {
            return None;
        }
        let n = self.queues.len();
        for k in 0..n {
            let i = (self.rr + k) % n;
            if let Some(entry) = self.queues[i].1.pop_front() {
                self.rr = (i + 1) % n;
                self.buffered_total -= 1;
                self.buffered[entry.idx] = false;
                self.gen[entry.idx] += 1;
                self.waits[entry.idx] += now.as_secs() - entry.enqueued.as_secs();
                self.stats.dequeued += 1;
                return Some(entry);
            }
        }
        None
    }

    /// Removes a deadline-expired task from its class queue (the caller
    /// has already checked `buffered` and the generation stamp).
    fn expire(&mut self, class: u32, idx: usize, now: SimTime) {
        let q = self.queue_of(class);
        let pos = q
            .iter()
            .position(|e| e.idx == idx)
            .expect("buffered task is queued under its class");
        let entry = q.remove(pos).expect("position is in bounds");
        self.buffered_total -= 1;
        self.buffered[idx] = false;
        self.gen[idx] += 1;
        self.waits[idx] += now.as_secs() - entry.enqueued.as_secs();
        self.stats.shed_deadline += 1;
    }
}

/// A scheduled mid-campaign server admission: at `at`, a brand-new
/// server with `spec` joins the farm, solving each problem at the
/// pre-measured `column` costs (one entry per problem, `None` =
/// unsolvable there — exactly a column of the cost table). Declared
/// before the run ([`GridWorld::with_provisions`]) so the grown farm is
/// a deterministic function of the schedule, never of event timing.
#[derive(Debug, Clone)]
pub struct Provision {
    /// Admission time.
    pub at: SimTime,
    /// The joining server's machine description.
    pub spec: ServerSpec,
    /// Its cost-table column, one entry per problem.
    pub column: Vec<Option<PhaseCosts>>,
}

/// A task in flight on a server.
#[derive(Debug, Clone, Copy)]
struct Flight {
    server: ServerId,
    costs: PhaseCosts,
    /// Which phase the task is currently in (needed to interpret shared
    /// client-link completions, which carry no phase information).
    phase: Phase,
    /// Predicted seconds of work the commit added to the static index's
    /// remaining-work ledger; the completion hook must decrement exactly
    /// this amount.
    work: f64,
}

/// The complete simulated system.
pub struct GridWorld {
    cfg: ExperimentConfig,
    costs: CostTable,
    tasks: Vec<TaskInstance>,
    servers: Vec<ServerRuntime>,
    /// Per-server load monitors and the agent's reports of them, caught
    /// up lazily when touched or read (see [`crate::housekeeping`]).
    loads: LoadBook,
    /// The agent's entire decision stack: per-shard HTMs, static indices
    /// and stage-1 selectors behind the deterministic router (a single
    /// shard owning the whole farm by default — the paper's agent).
    agent: AgentRouter,
    heuristic: Box<dyn Heuristic>,
    /// Per-server admission limits (RAM + swap, MB), cached once at
    /// build: specs are immutable, and collecting this per decision put
    /// an O(n) scan on every arrival.
    server_mem: Vec<f64>,
    tie_rng: RngStream,
    cpu_noise: Vec<RngStream>,
    net_noise: Vec<RngStream>,
    noise_dist: LogNormalNoise,
    /// Per-server noise-redraw chains, armed only while the server is
    /// busy (see [`crate::housekeeping`]).
    noise: Vec<NoiseChain>,
    /// Origin of the event being handled: the parent of every event its
    /// handler pushes, and its side of any report-instant tie.
    cur: Origin,
    /// Fire every server's reports and redraws as kernel events — the
    /// executable spec the lazy path is proven against.
    #[cfg(test)]
    eager_housekeeping: bool,
    /// In-flight per-task state, arena-backed: records live contiguously,
    /// slots recycle as tasks complete, and the per-event lookup is a
    /// dense-index read (`flight_keys[task]` → arena slot) instead of a
    /// hash. Task ids are dense submission indices, so the key table is a
    /// plain `Vec` aligned with `records`.
    flights: Arena<Flight>,
    flight_keys: Vec<Option<ArenaKey<Flight>>>,
    /// The single client-side link all transfers share when
    /// `cfg.shared_client_link` is on; `None` in per-server-link mode.
    client_link: Option<cas_platform::FairShareResource<TaskId>>,
    records: Vec<TaskRecord>,
    /// Tasks not yet terminal (completed or failed); recurring events stop
    /// re-arming when this reaches zero so the simulation drains.
    remaining: usize,
    /// Servers the agent has learned are collapsed (a refusal response
    /// carries the flag).
    agent_known_dead: Vec<bool>,
    /// Liveness under churn: `false` while a server is crashed or has
    /// left. Dead servers are excluded from every decision's admit
    /// filter and dropped from the stage-1 rankings
    /// (`AgentRouter::set_available`); with churn disabled the vector
    /// stays all-true and the run is bit-identical to a frozen farm.
    live: Vec<bool>,
    /// Tasks currently in flight per server — the list a crash walks to
    /// retract the victim's placements. Maintained by the commit,
    /// completion and retraction paths.
    inflight: Vec<Vec<TaskId>>,
    /// Servers scheduled to join mid-campaign, in declaration order
    /// (admission events index into this).
    provisions: Vec<Provision>,
    /// The instantiated fault schedule (`None` when `cfg.mtbf` is
    /// infinite: no churn events, no churn RNG streams).
    churn: Option<ChurnProcess>,
    churn_stats: ChurnStats,
    /// Live-count band `(lo, hi)` per shard: drifting outside it
    /// triggers an online re-partition (federated router only).
    band: (usize, usize),
    /// Kernel events spent on load reports so far: none in the default
    /// mode (per-server reports are lazy), one per shard per period in
    /// aggregated mode.
    report_events: u64,
    /// Per-task user classes, aligned with `tasks` (all-zero unless a
    /// trace workload attached real ones via
    /// [`GridWorld::with_users`]). Feed the admission gate's fair
    /// dequeue and the per-class SLO report.
    users: Vec<u32>,
    /// The admission backpressure gate (`None` when
    /// `cfg.admission_capacity == 0`: submissions take the exact
    /// pre-backpressure path). Built once at `init`, after the
    /// builders have had their say on `users`.
    admission: Option<AdmissionState>,
}

impl GridWorld {
    /// Builds the world. `tasks` must be sorted by arrival (metatask
    /// generators produce them that way).
    ///
    /// # Panics
    /// Panics with the [`ConfigError`](crate::ConfigError) when
    /// [`ExperimentConfig::validate`] rejects `cfg`, before any event
    /// runs, instead of hanging or panicking mid-run.
    pub fn new(
        cfg: ExperimentConfig,
        costs: CostTable,
        server_specs: Vec<ServerSpec>,
        tasks: Vec<TaskInstance>,
    ) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid experiment config: {e}");
        }
        assert_eq!(
            costs.n_servers(),
            server_specs.len(),
            "cost table and server list must agree"
        );
        assert!(
            tasks.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "tasks must be sorted by arrival"
        );
        let n = server_specs.len();
        let churn = cfg.churn_model().process(n);
        let heuristic = cfg.heuristic.build();
        let mut agent = AgentRouter::new(
            &costs,
            cfg.shards.resolve(n),
            cfg.selector,
            cfg.index_scoring,
            cfg.sync,
        )
        .with_rankings(cfg.rankings)
        .with_skyline(cfg.skyline)
        .with_stage2(cfg.stage2)
        // The run binds one heuristic for its whole lifetime, so the
        // drain depth is a run-level property: a policy that never reads
        // perturbations lets fast-mode drains truncate at the probe's
        // completion.
        .with_completion_only(!heuristic.needs_perturbations())
        // History replay is what populates rebuilt blocks on a
        // rebalance, and only a churning federation ever rebalances.
        .with_history(churn.is_some() && cfg.shards.resolve(n).is_some());
        if let Some(group_size) = cfg.shards.group_size() {
            agent = agent.with_group_size(group_size);
        }
        // Per-shard live-count band from the initial shape: merge below
        // half the initial mean block, split above twice it.
        let mean_block = (n / agent.n_shards().max(1)).max(1);
        let band = ((mean_block / 2).max(1), (mean_block * 2).max(2));
        let records = tasks
            .iter()
            .map(|t| TaskRecord {
                task: t.id,
                problem: t.problem,
                arrival: t.arrival,
                server: None,
                unloaded_duration: 0.0,
                predicted_completion: None,
                commit_prediction: None,
                outcome: TaskOutcome::InFlight,
                attempts: 0,
            })
            .collect();
        GridWorld {
            remaining: tasks.len(),
            flight_keys: vec![None; tasks.len()],
            agent,
            heuristic,
            tie_rng: RngStream::derive(cfg.seed, StreamKind::TieBreak),
            cpu_noise: (0..n as u32)
                .map(|i| RngStream::derive(cfg.seed, StreamKind::CpuNoise(i)))
                .collect(),
            net_noise: (0..n as u32)
                .map(|i| RngStream::derive(cfg.seed, StreamKind::NetNoise(i)))
                .collect(),
            noise_dist: LogNormalNoise::new(cfg.noise_sigma),
            noise: (0..n)
                .map(|i| NoiseChain {
                    next: SimTime::from_secs(cfg.noise_redraw_period * (i + 1) as f64 / n as f64),
                    pushed: Moment::init((tasks.len() + i) as u64),
                    armed: false,
                })
                .collect(),
            cur: Origin::default(),
            #[cfg(test)]
            eager_housekeeping: false,
            server_mem: server_specs
                .iter()
                .map(|spec| spec.total_mem_mb())
                .collect(),
            servers: server_specs
                .into_iter()
                .map(|spec| ServerRuntime::new(spec, cfg.memory))
                .collect(),
            loads: LoadBook::new(
                n,
                cfg.load_report_period,
                cfg.load_tau,
                !cfg.aggregated_reports,
                tasks.len() as u64,
            ),
            flights: Arena::with_capacity(64),
            client_link: if cfg.shared_client_link {
                Some(cas_platform::FairShareResource::new(1.0))
            } else {
                None
            },
            records,
            agent_known_dead: vec![false; n],
            live: vec![true; n],
            inflight: vec![Vec::new(); n],
            provisions: Vec::new(),
            churn,
            churn_stats: ChurnStats::default(),
            band,
            report_events: 0,
            users: vec![0; tasks.len()],
            admission: None,
            cfg,
            costs,
            tasks,
        }
    }

    /// Declares servers that join the farm mid-campaign (sorted or not —
    /// each is scheduled at its own `at`). Every column must cover the
    /// cost table's problems; the asserts fire at admission time.
    pub fn with_provisions(mut self, provisions: Vec<Provision>) -> Self {
        self.provisions = provisions;
        self
    }

    /// Attaches per-task user classes (trace workloads): `users[i]` is
    /// the class of `tasks[i]`. The admission gate dequeues fairly
    /// across classes and the SLO report splits by them. Defaults to a
    /// single class (all zero).
    pub fn with_users(mut self, users: Vec<u32>) -> Self {
        assert_eq!(users.len(), self.tasks.len(), "one user class per task");
        self.users = users;
        self
    }

    /// The agent's HTM (inspection, Gantt extraction). Under a shard
    /// federation this is shard 0's HTM — the whole farm in the default
    /// single-agent configuration; see [`GridWorld::agent`] otherwise.
    pub fn htm(&self) -> &Htm {
        self.agent.htm()
    }

    /// Mutable HTM access (to enable Gantt recording before a run).
    pub fn htm_mut(&mut self) -> &mut Htm {
        self.agent.htm_mut()
    }

    /// The federated agent: the full decision stack.
    pub fn agent(&self) -> &AgentRouter {
        &self.agent
    }

    /// Mutable agent access (tests switch the agent to the batch stage-2
    /// spec through it).
    pub fn agent_mut(&mut self) -> &mut AgentRouter {
        &mut self.agent
    }

    /// The per-task records accumulated so far.
    pub fn records(&self) -> &[TaskRecord] {
        &self.records
    }

    /// Consumes the world, returning the per-task records without a
    /// copy (for benches that keep whole-campaign records around, e.g.
    /// the skyline-on/off equality arms at 10⁶ tasks).
    pub fn into_records(self) -> Vec<TaskRecord> {
        self.records
    }

    /// One server's runtime state.
    pub fn server(&self, id: ServerId) -> &ServerRuntime {
        &self.servers[id.index()]
    }

    /// Number of tasks not yet terminal.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Kernel events spent on periodic load reports so far: none in the
    /// default mode, where per-server reports are lazy and cost no
    /// kernel event (see [`crate::housekeeping`]), and one per **shard**
    /// per period with `ExperimentConfig::aggregated_reports` on.
    pub fn report_events(&self) -> u64 {
        self.report_events
    }

    /// Lifecycle counters: crashes, joins, leaves, retractions,
    /// re-dispatches, drops and rebalances so far.
    pub fn churn_stats(&self) -> ChurnStats {
        self.churn_stats
    }

    /// Number of currently live servers.
    pub fn live_servers(&self) -> usize {
        self.live.iter().filter(|&&up| up).count()
    }

    /// Per-task user classes (all-zero unless a trace attached real
    /// ones).
    pub fn users(&self) -> &[u32] {
        &self.users
    }

    /// Admission backpressure counters (all-zero when the gate is off).
    pub fn admission_stats(&self) -> AdmissionStats {
        self.admission.as_ref().map(|a| a.stats).unwrap_or_default()
    }

    /// Per-task total buffered seconds behind the admission gate —
    /// empty when the gate is off (`cas_metrics::per_class_slo` reads
    /// an empty slice as all-zero waits).
    pub fn admission_waits(&self) -> &[f64] {
        self.admission.as_ref().map_or(&[], |a| a.waits.as_slice())
    }

    /// Push order of provision `idx` within `init`: after every arrival
    /// and after the first report and redraw of each initial server
    /// (where the eager path pushed them).
    fn provision_push(&self, idx: usize) -> u64 {
        let initial_servers = self.servers.len() - self.churn_stats.provisions as usize;
        (self.tasks.len() + initial_servers + idx) as u64
    }

    /// Switches the world to the eager housekeeping spec: every server
    /// reports and redraws on its own kernel events for as long as any
    /// task remains.
    #[cfg(test)]
    pub(crate) fn with_eager_housekeeping(mut self) -> Self {
        let n = self.servers.len();
        self.eager_housekeeping = true;
        self.loads = LoadBook::new(
            n,
            self.cfg.load_report_period,
            self.cfg.load_tau,
            false,
            self.tasks.len() as u64,
        );
        for chain in &mut self.noise {
            chain.armed = self.cfg.noise_sigma > 0.0;
        }
        self
    }

    /// The eager spec's `init` pushes: one report (unless aggregated)
    /// and one redraw per server, staggered across one period.
    #[cfg(test)]
    fn init_eager_housekeeping(&mut self, sched: &mut Scheduler<'_, GridEvent>) {
        let n = self.servers.len().max(1);
        for i in 0..self.servers.len() {
            if !self.cfg.aggregated_reports {
                let phase = self.cfg.load_report_period * (i + 1) as f64 / n as f64;
                sched.at(
                    SimTime::from_secs(phase),
                    GridEvent::LoadReport {
                        server: ServerId(i as u32),
                    },
                );
            }
            if self.cfg.noise_sigma > 0.0 {
                sched.at(
                    self.noise[i].next,
                    GridEvent::NoiseRedraw {
                        server: ServerId(i as u32),
                    },
                );
            }
        }
    }

    fn resource(&self, server: ServerId, phase: Phase) -> &cas_platform::FairShareResource<TaskId> {
        let s = &self.servers[server.index()];
        match phase {
            Phase::Input => &s.link_in,
            Phase::Compute => &s.cpu,
            Phase::Output => &s.link_out,
        }
    }

    fn resource_mut(
        &mut self,
        server: ServerId,
        phase: Phase,
    ) -> &mut cas_platform::FairShareResource<TaskId> {
        let s = &mut self.servers[server.index()];
        match phase {
            Phase::Input => &mut s.link_in,
            Phase::Compute => &mut s.cpu,
            Phase::Output => &mut s.link_out,
        }
    }

    /// The origin of an event due at `at` that the current handler
    /// pushes at `now`.
    fn origin(&self, now: SimTime, at: SimTime) -> Origin {
        self.cur.child(now, at, self.loads.period())
    }

    /// (Re)schedules the completion event for a server resource from its
    /// current state.
    fn resched(&mut self, server: ServerId, phase: Phase, sched: &mut Scheduler<'_, GridEvent>) {
        let now = sched.now();
        let res = self.resource(server, phase);
        if let Some((_, when)) = res.next_completion(now) {
            let (gen, at) = (res.generation(), when.max(now));
            let from = self.origin(now, at);
            sched.at(
                at,
                GridEvent::PhaseDone {
                    server,
                    phase,
                    gen,
                    from,
                },
            );
        }
    }

    /// (Re)schedules the completion event for the shared client link.
    fn resched_client_link(&mut self, sched: &mut Scheduler<'_, GridEvent>) {
        let now = sched.now();
        let link = self.client_link.as_ref().expect("shared link enabled");
        if let Some((_, when)) = link.next_completion(now) {
            let (gen, at) = (link.generation(), when.max(now));
            let from = self.origin(now, at);
            sched.at(at, GridEvent::ClientLinkDone { gen, from });
        }
    }

    /// Whether any of server `i`'s resources has members — or, for
    /// server 0 in shared-link mode, the client link its noise stream
    /// drives.
    fn busy(&self, i: usize) -> bool {
        let s = &self.servers[i];
        !(s.link_in.is_empty() && s.cpu.is_empty() && s.link_out.is_empty())
            || (i == 0 && self.client_link.as_ref().is_some_and(|l| !l.is_empty()))
    }

    /// Draws server `i`'s next noise factors and applies them at `now`.
    /// In shared-link mode, server 0's net stream doubles as the client
    /// link's noise source (one extra draw per period).
    fn redraw(&mut self, i: usize, now: SimTime) {
        let cpu_factor = self.noise_dist.sample(&mut self.cpu_noise[i]);
        let net_factor = self.noise_dist.sample(&mut self.net_noise[i]);
        self.servers[i].set_noise(now, cpu_factor);
        self.servers[i].link_in.set_capacity(now, net_factor);
        self.servers[i].link_out.set_capacity(now, net_factor);
        if i == 0 {
            if let Some(link) = &mut self.client_link {
                link.set_capacity(now, self.noise_dist.sample(&mut self.net_noise[0]));
            }
        }
    }

    /// Catches `server`'s noise up to `now` before it is touched, and
    /// arms its redraw chain. A disarmed chain means the server has been
    /// idle since its last redraw, so nothing observed the epochs in
    /// between: their draws are skipped on the streams and only the
    /// latest epoch at or before `now` is applied — at `now`, which is
    /// the same thing on resources that are still empty. No-op while
    /// armed: a server with work in flight keeps its chain armed, so
    /// only a touch that may add work (reservation, release, a transfer
    /// or computation starting) needs to call this.
    fn wake(&mut self, server: ServerId, now: SimTime, sched: &mut Scheduler<'_, GridEvent>) {
        let i = server.index();
        if self.noise[i].armed || self.cfg.noise_sigma == 0.0 || self.remaining == 0 {
            return;
        }
        let period = SimTime::from_secs(self.cfg.noise_redraw_period);
        if self.noise[i].next <= now {
            let shared = i == 0 && self.client_link.is_some();
            while self.noise[i].next + period <= now {
                self.noise_dist.skip(&mut self.cpu_noise[i]);
                self.noise_dist.skip(&mut self.net_noise[i]);
                if shared {
                    self.noise_dist.skip(&mut self.net_noise[0]);
                }
                self.noise[i].advance(period);
            }
            self.redraw(i, now);
            self.noise[i].advance(period);
        }
        self.noise[i].armed = true;
        sched.at(self.noise[i].next, GridEvent::NoiseRedraw { server });
    }

    /// The in-flight record of `task` (task ids are dense, so this is an
    /// indexed read through the arena key table).
    fn flight(&self, task: TaskId) -> &Flight {
        let key = self.flight_keys[task.index()].expect("flight exists");
        self.flights.get(key).expect("flight key is live")
    }

    fn flight_mut(&mut self, task: TaskId) -> &mut Flight {
        let key = self.flight_keys[task.index()].expect("flight exists");
        self.flights.get_mut(key).expect("flight key is live")
    }

    /// A task finished its input transfer: move it onto the CPU.
    fn input_arrived(&mut self, now: SimTime, task: TaskId, sched: &mut Scheduler<'_, GridEvent>) {
        let flight = self.flight_mut(task);
        debug_assert_eq!(flight.phase, Phase::Input);
        flight.phase = Phase::Compute;
        let (server, compute) = (flight.server, flight.costs.compute);
        self.wake(server, now, sched);
        self.touch_monitor(server, now);
        self.servers[server.index()].begin_compute(now, task, compute);
        self.resched(server, Phase::Compute, sched);
    }

    /// A task finished its output transfer: it is complete. The
    /// completion routes to the owning shard only — index decrement, HTM
    /// sync and the selector's stretch feedback all stay O(shard).
    ///
    /// The stretch signal compares **flows** (durations since arrival),
    /// not absolute completion dates: a relative tolerance on absolute
    /// sim dates would decay to nothing as the campaign clock grows, and
    /// a task late by 10 s must register the same at t = 100 as at
    /// t = 10,000.
    fn output_arrived(&mut self, now: SimTime, task: TaskId, sched: &mut Scheduler<'_, GridEvent>) {
        if let Some(key) = self.flight_keys[task.index()].take() {
            let flight = self.flights.remove(key).expect("flight key is live");
            self.forget_inflight(flight.server, task);
            let rec = &self.records[task.index()];
            let arrival = rec.arrival.as_secs();
            let predicted_flow = rec
                .commit_prediction
                .map_or(0.0, |p| (p.as_secs() - arrival).max(0.0));
            let observed_flow = now.as_secs() - arrival;
            let _hooks = prof::span(prof::Phase::CommitHooks);
            self.agent.on_complete(
                now,
                flight.server,
                task,
                flight.work,
                observed_flow,
                predicted_flow,
            );
        }
        let rec = self.record_mut(task);
        rec.outcome = TaskOutcome::Completed { finished: now };
        self.remaining -= 1;
        self.release_admission(now, sched);
    }

    /// Integrates the load monitor up to `now` with the run-queue length
    /// that held since the last touch. Must be called *before* changing the
    /// CPU membership.
    fn touch_monitor(&mut self, server: ServerId, now: SimTime) {
        let i = server.index();
        let len = self.servers[i].run_queue_len();
        self.loads.observe(i, now, &self.cur, len);
    }

    fn record_mut(&mut self, task: TaskId) -> &mut TaskRecord {
        // Task ids are dense indices into the metatask.
        &mut self.records[task.index()]
    }

    /// Drops `task` from `server`'s in-flight list (order-preserving, so
    /// a crash retracts oldest placements first).
    fn forget_inflight(&mut self, server: ServerId, task: TaskId) {
        let list = &mut self.inflight[server.index()];
        if let Some(pos) = list.iter().position(|&t| t == task) {
            list.remove(pos);
        }
    }

    fn fail_task(
        &mut self,
        idx: usize,
        attempts: u32,
        last_server: Option<ServerId>,
        now: SimTime,
        sched: &mut Scheduler<'_, GridEvent>,
    ) {
        let task = self.tasks[idx];
        let rec = self.record_mut(task.id);
        rec.outcome = TaskOutcome::Failed;
        rec.attempts = attempts;
        rec.server = last_server;
        self.remaining -= 1;
        self.release_admission(now, sched);
    }

    /// A submission reaches the agent: straight into the decision
    /// pipeline when the admission gate is off (bit-identical to the
    /// pre-backpressure build), through the bounded gate otherwise.
    fn handle_submit(&mut self, now: SimTime, idx: usize, sched: &mut Scheduler<'_, GridEvent>) {
        let at = now + SimTime::from_secs(self.cfg.agent_latency);
        let schedule = GridEvent::Schedule {
            idx,
            attempt: 1,
            excluded: Box::default(),
            from: self.origin(now, at),
        };
        if self.admission.is_none() {
            sched.at(at, schedule);
            return;
        }
        let adm = self.admission.as_mut().expect("gate is on");
        if adm.in_admission < adm.capacity {
            adm.in_admission += 1;
            adm.stats.peak_admitted = adm.stats.peak_admitted.max(adm.in_admission);
            sched.at(at, schedule);
        } else {
            self.buffer_or_shed(now, idx, 1, Box::default(), sched);
        }
    }

    /// Buffers a task behind the full gate — arming its admission
    /// deadline — or sheds it immediately when the buffer itself is
    /// full.
    fn buffer_or_shed(
        &mut self,
        now: SimTime,
        idx: usize,
        attempt: u32,
        excluded: Box<[ServerId]>,
        sched: &mut Scheduler<'_, GridEvent>,
    ) {
        let adm = self.admission.as_mut().expect("gate is on");
        if adm.buffered_total >= adm.buffer_cap {
            adm.stats.shed_overflow += 1;
            self.shed_task(idx);
            return;
        }
        let class = self.users[idx];
        let gen = adm.gen[idx];
        adm.enqueue(
            class,
            BufferedTask {
                idx,
                attempt,
                excluded,
                enqueued: now,
            },
        );
        if self.cfg.admission_deadline.is_finite() {
            sched.in_(
                SimTime::from_secs(self.cfg.admission_deadline),
                GridEvent::AdmissionTimeout { idx, gen },
            );
        }
    }

    /// Terminal admission shed: the task never (re)reached a server.
    /// `attempts` and `server` keep whatever earlier dispatch attempts
    /// recorded.
    fn shed_task(&mut self, idx: usize) {
        let task = self.tasks[idx];
        let rec = self.record_mut(task.id);
        rec.outcome = TaskOutcome::Dropped {
            reason: DropReason::AdmissionDeadline,
        };
        self.remaining -= 1;
    }

    /// An admitted task left the pipeline (terminal, or re-buffered
    /// after a crash retraction): free its slot and pull waiting tasks
    /// through the gate, round-robin across user classes. No-op when
    /// the gate is off.
    fn release_admission(&mut self, now: SimTime, sched: &mut Scheduler<'_, GridEvent>) {
        let Some(adm) = &mut self.admission else {
            return;
        };
        debug_assert!(adm.in_admission > 0, "release without a held slot");
        adm.in_admission -= 1;
        let at = now + SimTime::from_secs(self.cfg.agent_latency);
        let from = self.cur.child(now, at, self.loads.period());
        while adm.in_admission < adm.capacity {
            let Some(entry) = adm.dequeue(now) else { break };
            adm.in_admission += 1;
            adm.stats.peak_admitted = adm.stats.peak_admitted.max(adm.in_admission);
            sched.at(
                at,
                GridEvent::Schedule {
                    idx: entry.idx,
                    attempt: entry.attempt,
                    excluded: entry.excluded,
                    from: from.clone(),
                },
            );
        }
    }

    /// A buffered task's admission deadline fired: shed it unless the
    /// event is stale (the task was dequeued — and possibly re-buffered
    /// — since the deadline was armed).
    fn handle_admission_timeout(&mut self, now: SimTime, idx: usize, gen: u32) {
        let Some(adm) = &mut self.admission else {
            return;
        };
        if !adm.buffered[idx] || adm.gen[idx] != gen {
            return;
        }
        let class = self.users[idx];
        adm.expire(class, idx, now);
        self.shed_task(idx);
    }

    fn handle_schedule(
        &mut self,
        now: SimTime,
        idx: usize,
        attempt: u32,
        excluded: Box<[ServerId]>,
        sched: &mut Scheduler<'_, GridEvent>,
    ) {
        let task = self.tasks[idx];
        // The full two-stage decision runs inside the router: stage 1 on
        // every shard's static index (no HTM drain yet; an exhaustive
        // selector reproduces the old solvers-minus-dead candidate list
        // exactly), stage 2 batched over the merged shortlist on the
        // owning shards. Regret feedback reaches the picked server's
        // shard selector inside `decide`.
        let pick = {
            let dead = &self.agent_known_dead;
            let live = &self.live;
            let excluded = &excluded;
            let admit =
                move |s: ServerId| !excluded.contains(&s) && !dead[s.index()] && live[s.index()];
            let reports = ReportRead {
                book: &self.loads,
                servers: &self.servers,
                now,
                cur: &self.cur,
            };
            self.agent.decide(
                DecisionInputs {
                    now,
                    task,
                    costs: &self.costs,
                    reports: Loads::Source(&reports),
                    server_mem: &self.server_mem,
                    admit: &admit,
                },
                self.heuristic.as_mut(),
                &mut self.tie_rng,
            )
        };
        let Some(server) = pick else {
            if self.churn.is_some() {
                // Under churn "nobody can take it" is usually transient
                // — the solvers are down, not gone. Re-enter the
                // pipeline after the backoff (with a clean exclusion
                // set: a rejoined server is a fresh candidate) until the
                // dispatch budget runs out, then drop with a reason
                // code so the campaign accounting stays exact.
                if attempt < self.cfg.redispatch_budget {
                    self.churn_stats.redispatches += 1;
                    let at = now + SimTime::from_secs(self.cfg.redispatch_backoff);
                    let from = self.origin(now, at);
                    sched.at(
                        at,
                        GridEvent::Schedule {
                            idx,
                            attempt: attempt + 1,
                            excluded: Box::default(),
                            from,
                        },
                    );
                } else {
                    self.churn_stats.drops += 1;
                    let rec = self.record_mut(task.id);
                    rec.outcome = TaskOutcome::Dropped {
                        reason: DropReason::NoLiveSolver,
                    };
                    rec.attempts = attempt;
                    self.remaining -= 1;
                    self.release_admission(now, sched);
                }
                return;
            }
            self.fail_task(idx, attempt, excluded.last().copied(), now, sched);
            return;
        };
        let phase_costs = self
            .costs
            .costs(task.problem, server)
            .expect("heuristic picked a solver");
        let mem = self.costs.problem(task.problem).mem_mb;

        self.wake(server, now, sched);
        match self.servers[server.index()].reserve(now, task.id, mem) {
            AdmitOutcome::Admitted => {
                // Reservation can push the server into thrashing, which
                // changes the CPU capacity — keep the CPU event fresh.
                self.resched(server, Phase::Compute, sched);
                let commit_span = prof::span(prof::Phase::CommitHooks);
                let predicted = self.agent.predict_completion(now, server, &task);
                let i = server.index();
                let len = self.servers[i].run_queue_len();
                self.loads.note_assignment(i, now, &self.cur, len);
                // The index's remaining-work ledger grows by the task's
                // *service demand* (unloaded total), not by its predicted
                // residence time: `predicted − now` includes queueing
                // delay, so summing it over a backlog multiply-counts the
                // queue (three queued tasks of duration d would ledger
                // d + 2d + 3d). Service demands sum to exactly the
                // serial drain time of the backlog — the quantity the
                // `d + remaining` stage-1 proxy wants. The completion
                // hook pays back the same amount.
                let work = phase_costs.total();
                self.agent.on_commit(now, server, &task, work);
                drop(commit_span);
                {
                    let rec = self.record_mut(task.id);
                    rec.server = Some(server);
                    rec.unloaded_duration = phase_costs.total();
                    rec.commit_prediction = predicted;
                    rec.attempts = attempt;
                }
                let key = self.flights.insert(Flight {
                    server,
                    costs: phase_costs,
                    phase: Phase::Input,
                    work,
                });
                self.flight_keys[task.id.index()] = Some(key);
                self.inflight[server.index()].push(task.id);
                if self.client_link.is_some() {
                    self.wake(ServerId(0), now, sched);
                    let link = self.client_link.as_mut().expect("shared link enabled");
                    link.add(now, task.id, phase_costs.input);
                    self.resched_client_link(sched);
                } else {
                    self.servers[server.index()].start_input(now, task.id, phase_costs.input);
                    self.resched(server, Phase::Input, sched);
                }
            }
            outcome @ (AdmitOutcome::Rejected | AdmitOutcome::Collapsed) => {
                if outcome == AdmitOutcome::Collapsed || self.servers[server.index()].is_collapsed()
                {
                    // The refusal response tells the agent the server is
                    // gone for good.
                    self.agent_known_dead[server.index()] = true;
                }
                let retry = match self.cfg.fault_tolerance {
                    FaultTolerance::RankedRetry { max_attempts } => attempt < max_attempts,
                    FaultTolerance::None => false,
                };
                if retry {
                    let mut excluded = excluded.into_vec();
                    excluded.push(server);
                    let from = self.origin(now, now);
                    sched.immediately(GridEvent::Schedule {
                        idx,
                        attempt: attempt + 1,
                        excluded: excluded.into_boxed_slice(),
                        from,
                    });
                } else {
                    self.fail_task(idx, attempt, Some(server), now, sched);
                }
            }
        }
    }

    fn handle_phase_done(
        &mut self,
        now: SimTime,
        server: ServerId,
        phase: Phase,
        gen: cas_sim::Generation,
        sched: &mut Scheduler<'_, GridEvent>,
    ) {
        {
            let res = self.resource(server, phase);
            if !res.generation().is_current(gen) {
                return; // stale: membership/capacity changed since scheduling
            }
        }
        let next = self.resource(server, phase).next_completion(now);
        let Some((task, when)) = next else {
            return;
        };
        if when.as_secs() > now.as_secs() + COMPLETION_EPS {
            // Not actually done yet (same generation but queried earlier in
            // the same instant); re-arm at the true time.
            let from = self.origin(now, when);
            sched.at(
                when,
                GridEvent::PhaseDone {
                    server,
                    phase,
                    gen,
                    from,
                },
            );
            return;
        }
        let flight = *self.flight(task);
        debug_assert_eq!(flight.server, server);
        match phase {
            Phase::Input => {
                self.resource_mut(server, Phase::Input).remove(now, task);
                self.resched(server, Phase::Input, sched);
                self.input_arrived(now, task, sched);
            }
            Phase::Compute => {
                self.touch_monitor(server, now);
                self.servers[server.index()].finish_compute(now, task);
                // Correction 2: the server notifies the agent of the
                // completed computation.
                let i = server.index();
                let len = self.servers[i].run_queue_len();
                self.loads.note_completion(i, now, &self.cur, len);
                self.flight_mut(task).phase = Phase::Output;
                if self.client_link.is_some() {
                    self.wake(ServerId(0), now, sched);
                    let link = self.client_link.as_mut().expect("shared link enabled");
                    link.add(now, task, flight.costs.output);
                    self.resched(server, Phase::Compute, sched);
                    self.resched_client_link(sched);
                } else {
                    self.servers[server.index()].start_output(now, task, flight.costs.output);
                    self.resched(server, Phase::Compute, sched);
                    self.resched(server, Phase::Output, sched);
                }
            }
            Phase::Output => {
                self.resource_mut(server, Phase::Output).remove(now, task);
                self.resched(server, Phase::Output, sched);
                self.output_arrived(now, task, sched);
            }
        }
    }

    /// Shared-link transfer completion: dispatch on the task's phase.
    fn handle_client_link_done(
        &mut self,
        now: SimTime,
        gen: cas_sim::Generation,
        sched: &mut Scheduler<'_, GridEvent>,
    ) {
        {
            let link = self.client_link.as_ref().expect("shared link enabled");
            if !link.generation().is_current(gen) {
                return;
            }
        }
        let next = self
            .client_link
            .as_ref()
            .expect("shared link enabled")
            .next_completion(now);
        let Some((task, when)) = next else { return };
        if when.as_secs() > now.as_secs() + COMPLETION_EPS {
            let from = self.origin(now, when);
            sched.at(when, GridEvent::ClientLinkDone { gen, from });
            return;
        }
        self.client_link
            .as_mut()
            .expect("shared link enabled")
            .remove(now, task);
        let phase = self.flight(task).phase;
        self.resched_client_link(sched);
        match phase {
            Phase::Input => self.input_arrived(now, task, sched),
            Phase::Output => self.output_arrived(now, task, sched),
            Phase::Compute => unreachable!("compute never runs on the client link"),
        }
    }

    /// Eager per-server report (the executable spec only: the lazy
    /// path never schedules one).
    #[cfg(test)]
    fn handle_load_report(
        &mut self,
        now: SimTime,
        server: ServerId,
        sched: &mut Scheduler<'_, GridEvent>,
    ) {
        self.report_events += 1;
        let i = server.index();
        let len = self.servers[i].run_queue_len();
        self.loads.refresh(i, now, len);
        if self.remaining > 0 {
            sched.in_(
                SimTime::from_secs(self.cfg.load_report_period),
                GridEvent::LoadReport { server },
            );
        }
    }

    /// Aggregated report: one kernel event refreshes the whole shard
    /// block, one monitor observation and one report refresh per
    /// member — O(n_shards) pending report events (the default lazy
    /// per-server reports hold none).
    fn handle_shard_load_report(
        &mut self,
        now: SimTime,
        shard: usize,
        sched: &mut Scheduler<'_, GridEvent>,
    ) {
        if shard >= self.agent.map().n_shards() {
            // A rebalance shrank the federation after this report was
            // scheduled; the stale event dies here and the surviving
            // shards' own report chains cover every server.
            return;
        }
        self.report_events += 1;
        let members = self.agent.map().members(shard);
        for s in members {
            let i = s as usize;
            let len = self.servers[i].run_queue_len();
            self.loads.refresh(i, now, len);
        }
        if self.remaining > 0 {
            sched.in_(
                SimTime::from_secs(self.cfg.load_report_period),
                GridEvent::ShardLoadReport { shard },
            );
        }
    }

    /// A redraw epoch on an armed chain: applied as it always was. The
    /// chain re-arms only while the server is busy; an idle server
    /// records its next epoch instead and catches up on its next touch
    /// ([`GridWorld::wake`]).
    fn handle_noise_redraw(
        &mut self,
        now: SimTime,
        server: ServerId,
        sched: &mut Scheduler<'_, GridEvent>,
    ) {
        let i = server.index();
        debug_assert_eq!(self.noise[i].next, now, "redraw off its chain");
        if self.cfg.noise_sigma > 0.0 {
            self.redraw(i, now);
            self.resched(server, Phase::Input, sched);
            self.resched(server, Phase::Compute, sched);
            self.resched(server, Phase::Output, sched);
            if i == 0 && self.client_link.is_some() {
                self.resched_client_link(sched);
            }
        }
        let busy = self.busy(i);
        #[cfg(test)]
        let busy = busy || self.eager_housekeeping;
        let rearm = self.remaining > 0 && busy;
        let chain = &mut self.noise[i];
        chain.advance(SimTime::from_secs(self.cfg.noise_redraw_period));
        chain.armed = rearm;
        if rearm {
            sched.at(chain.next, GridEvent::NoiseRedraw { server });
        }
    }

    /// Undoes one in-flight placement on a crashed server: the task is
    /// pulled out of whatever resource it occupies (its memory
    /// reservation released), the agent's model retracts it through the
    /// HTM/index hooks, and the task re-enters the decision pipeline
    /// after the re-dispatch backoff — or is dropped with a reason code
    /// once its dispatch budget is spent.
    fn retract_flight(
        &mut self,
        now: SimTime,
        server: ServerId,
        task: TaskId,
        sched: &mut Scheduler<'_, GridEvent>,
    ) {
        let Some(key) = self.flight_keys[task.index()].take() else {
            return;
        };
        let flight = self.flights.remove(key).expect("flight key is live");
        debug_assert_eq!(flight.server, server);
        match flight.phase {
            Phase::Input => {
                if let Some(link) = &mut self.client_link {
                    link.remove(now, task);
                    self.resched_client_link(sched);
                } else {
                    self.resource_mut(server, Phase::Input).remove(now, task);
                    self.resched(server, Phase::Input, sched);
                }
                // The commit-time memory reservation is still held;
                // releasing it can ease thrashing, which changes the CPU
                // capacity — keep the CPU event fresh.
                self.wake(server, now, sched);
                self.servers[server.index()].release(now, task);
                self.resched(server, Phase::Compute, sched);
            }
            Phase::Compute => {
                self.touch_monitor(server, now);
                self.servers[server.index()].finish_compute(now, task);
                self.resched(server, Phase::Compute, sched);
            }
            Phase::Output => {
                if let Some(link) = &mut self.client_link {
                    link.remove(now, task);
                    self.resched_client_link(sched);
                } else {
                    self.resource_mut(server, Phase::Output).remove(now, task);
                    self.resched(server, Phase::Output, sched);
                }
            }
        }
        self.agent.on_retract(now, server, task, flight.work);
        self.churn_stats.retractions += 1;
        let attempts = self.records[task.index()].attempts;
        if attempts < self.cfg.redispatch_budget {
            self.churn_stats.redispatches += 1;
            if let Some(adm) = &mut self.admission {
                // Under backpressure the bounded buffer replaces the
                // re-dispatch backoff: the victim re-enters the queue
                // (that one `redispatches` increment above is its only
                // count — the dequeue does not count it again), its
                // held slot is released below, and the fair dequeue
                // decides when it reaches the pipeline again.
                adm.stats.reentries += 1;
                self.buffer_or_shed(now, task.index(), attempts + 1, Box::new([server]), sched);
                self.release_admission(now, sched);
            } else {
                let at = now + SimTime::from_secs(self.cfg.redispatch_backoff);
                let from = self.origin(now, at);
                sched.at(
                    at,
                    GridEvent::Schedule {
                        idx: task.index(),
                        attempt: attempts + 1,
                        excluded: Box::new([server]),
                        from,
                    },
                );
            }
        } else {
            self.churn_stats.drops += 1;
            let rec = self.record_mut(task);
            rec.outcome = TaskOutcome::Dropped {
                reason: DropReason::RedispatchBudget,
            };
            self.remaining -= 1;
            self.release_admission(now, sched);
        }
    }

    /// Re-partitions the federation when the live-server count has
    /// drifted past the size band (no-op for the single-agent path, or
    /// while the boundaries still fit). Growth of the shard count under
    /// aggregated reports seeds report events for the new shards;
    /// shrink leaves the stale events to die on the bounds check in
    /// [`GridWorld::handle_shard_load_report`].
    fn maybe_rebalance(&mut self, sched: &mut Scheduler<'_, GridEvent>) {
        if !self.agent.is_federated() {
            return;
        }
        let (lo, hi) = self.band;
        let Some(new_map) = self.agent.map().rebalanced(&self.live, lo, hi) else {
            return;
        };
        let old_shards = self.agent.n_shards();
        self.agent.rebalance(&self.costs, new_map);
        self.churn_stats.rebalances += 1;
        let new_shards = self.agent.n_shards();
        if self.cfg.aggregated_reports && new_shards > old_shards && self.remaining > 0 {
            for k in old_shards..new_shards {
                let phase = self.cfg.load_report_period * (k + 1) as f64 / new_shards as f64;
                sched.in_(
                    SimTime::from_secs(phase),
                    GridEvent::ShardLoadReport { shard: k },
                );
            }
        }
    }

    /// A server crashes: every placement in flight on it is retracted
    /// and re-dispatched (or dropped), the server leaves the rankings
    /// and the admit filter, and a rejoin is scheduled after the
    /// repair-time draw.
    fn handle_server_crash(
        &mut self,
        now: SimTime,
        server: ServerId,
        sched: &mut Scheduler<'_, GridEvent>,
    ) {
        if !self.live[server.index()] {
            return;
        }
        self.churn_stats.crashes += 1;
        self.live[server.index()] = false;
        self.agent.set_available(server, false);
        let victims = std::mem::take(&mut self.inflight[server.index()]);
        for task in victims {
            self.retract_flight(now, server, task, sched);
        }
        self.maybe_rebalance(sched);
        if self.remaining > 0 {
            let downtime = self
                .churn
                .as_mut()
                .expect("crash events exist only under churn")
                .next_downtime(server);
            let at = now + SimTime::from_secs(downtime);
            let from = self.origin(now, at);
            sched.at(at, GridEvent::ServerJoin { server, from });
        }
    }

    /// A crashed server comes back: it rejoins the rankings at its
    /// believed load (its ledger kept draining while it was away), its
    /// monitor history and report restart fresh, and the next crash is
    /// scheduled from the uptime draw.
    fn handle_server_join(
        &mut self,
        now: SimTime,
        server: ServerId,
        sched: &mut Scheduler<'_, GridEvent>,
    ) {
        if self.live[server.index()] {
            return;
        }
        self.churn_stats.joins += 1;
        self.live[server.index()] = true;
        self.agent.set_available(server, true);
        // Rejoin resets the agent's collapse knowledge; a server whose
        // runtime really did collapse will refuse its next reservation
        // and be re-marked.
        self.agent_known_dead[server.index()] = false;
        let i = server.index();
        let len = self.servers[i].run_queue_len();
        self.loads.reset(i, now, &self.cur, len);
        self.maybe_rebalance(sched);
        if self.remaining > 0 {
            let uptime = self
                .churn
                .as_mut()
                .expect("join events exist only under churn")
                .next_uptime(server);
            let at = now + SimTime::from_secs(uptime);
            let from = self.origin(now, at);
            sched.at(at, GridEvent::ServerCrash { server, from });
        }
    }

    /// A server leaves gracefully: no new placements (rankings and admit
    /// exclude it immediately) but work already in flight drains to
    /// completion — the index ledger and HTM hooks on a down server stay
    /// consistent by design.
    fn handle_server_leave(
        &mut self,
        _now: SimTime,
        server: ServerId,
        sched: &mut Scheduler<'_, GridEvent>,
    ) {
        if !self.live[server.index()] {
            return;
        }
        self.churn_stats.leaves += 1;
        self.live[server.index()] = false;
        self.agent.set_available(server, false);
        self.maybe_rebalance(sched);
    }

    /// A brand-new server is admitted mid-campaign: every per-server
    /// vector of the world grows by one, the farm-wide cost table gains
    /// the declared column, and the agent joins it into the owning (last)
    /// shard through the proven incremental pushes — no engine rebuild,
    /// no other shard touched. The newcomer is live, idle and eligible
    /// from its very next decision; its report and noise chains start
    /// one period from now, both lazy (in aggregated-report mode the
    /// owning shard's existing report chain covers it for free, since
    /// shard reports walk the *current* block). The fault schedule
    /// deliberately does not extend to provisioned servers: churn streams
    /// are drawn per initial server at init so the schedule stays a
    /// function of the churn seed alone.
    fn handle_server_provision(
        &mut self,
        now: SimTime,
        idx: usize,
        sched: &mut Scheduler<'_, GridEvent>,
    ) {
        let spec = self.provisions[idx].spec.clone();
        let column = self.provisions[idx].column.clone();
        assert_eq!(
            column.len(),
            self.costs.n_problems(),
            "provision column must cover every problem"
        );
        let id = ServerId(self.servers.len() as u32);
        self.costs.push_server(column.clone());
        let agent_id = self.agent.push_server(column);
        assert_eq!(agent_id, id, "world and router must agree on the new id");
        self.server_mem.push(spec.total_mem_mb());
        self.servers.push(ServerRuntime::new(spec, self.cfg.memory));
        self.loads.push_server(now, &self.cur);
        self.noise.push(NoiseChain {
            next: now + SimTime::from_secs(self.cfg.noise_redraw_period),
            pushed: Moment::at(now),
            armed: false,
        });
        self.cpu_noise
            .push(RngStream::derive(self.cfg.seed, StreamKind::CpuNoise(id.0)));
        self.net_noise
            .push(RngStream::derive(self.cfg.seed, StreamKind::NetNoise(id.0)));
        self.agent_known_dead.push(false);
        self.live.push(true);
        self.inflight.push(Vec::new());
        self.churn_stats.provisions += 1;
        #[cfg(test)]
        if self.eager_housekeeping && self.remaining > 0 {
            if !self.cfg.aggregated_reports {
                sched.in_(
                    SimTime::from_secs(self.cfg.load_report_period),
                    GridEvent::LoadReport { server: id },
                );
            }
            if self.cfg.noise_sigma > 0.0 {
                self.noise[id.index()].armed = true;
                sched.in_(
                    SimTime::from_secs(self.cfg.noise_redraw_period),
                    GridEvent::NoiseRedraw { server: id },
                );
            }
        }
        // Growth can push the last shard past the live-count band; the
        // rebalance machinery needs op history, which only a churning
        // federation records.
        if self.churn.is_some() {
            self.maybe_rebalance(sched);
        }
    }
}

impl World for GridWorld {
    type Event = GridEvent;

    fn init(&mut self, sched: &mut Scheduler<'_, GridEvent>) {
        if self.cfg.admission_enabled() {
            self.admission = Some(AdmissionState::new(&self.cfg, &self.users));
        }
        for (idx, task) in self.tasks.iter().enumerate() {
            sched.at(task.arrival, GridEvent::Submit { idx });
        }
        if self.cfg.aggregated_reports {
            // One report event per shard, staggered across shards the
            // same way per-server reports stagger across servers.
            let n_shards = self.agent.map().n_shards().max(1);
            for k in 0..self.agent.map().n_shards() {
                let phase = self.cfg.load_report_period * (k + 1) as f64 / n_shards as f64;
                sched.at(
                    SimTime::from_secs(phase),
                    GridEvent::ShardLoadReport { shard: k },
                );
            }
        }
        // Per-server reports and redraws need no event here: their
        // chains (staggered across one period so reports don't all land
        // on the same instant) start in the world's books.
        #[cfg(test)]
        if self.eager_housekeeping {
            self.init_eager_housekeeping(sched);
        }
        for (idx, p) in self.provisions.iter().enumerate() {
            sched.at(p.at, GridEvent::ServerProvision { idx });
        }
        let crash_push = self.provision_push(self.provisions.len());
        if let Some(churn) = &mut self.churn {
            // Each server's first failure comes from its own uptime
            // stream, so the fault schedule is a function of the churn
            // seed alone — independent of workload or heuristic.
            for i in 0..self.servers.len() {
                let server = ServerId(i as u32);
                let uptime = churn.next_uptime(server);
                sched.at(
                    SimTime::from_secs(uptime),
                    GridEvent::ServerCrash {
                        server,
                        from: Origin::init(crash_push + i as u64),
                    },
                );
            }
        }
    }

    fn handle(&mut self, now: SimTime, event: GridEvent, sched: &mut Scheduler<'_, GridEvent>) {
        match event {
            GridEvent::Submit { idx } => {
                self.cur = Origin::init(idx as u64);
                self.handle_submit(now, idx, sched)
            }
            GridEvent::AdmissionTimeout { idx, gen } => {
                self.handle_admission_timeout(now, idx, gen)
            }
            GridEvent::Schedule {
                idx,
                attempt,
                excluded,
                from,
            } => {
                self.cur = from;
                self.handle_schedule(now, idx, attempt, excluded, sched)
            }
            GridEvent::PhaseDone {
                server,
                phase,
                gen,
                from,
            } => {
                self.cur = from;
                self.handle_phase_done(now, server, phase, gen, sched)
            }
            GridEvent::ClientLinkDone { gen, from } => {
                self.cur = from;
                self.handle_client_link_done(now, gen, sched)
            }
            #[cfg(test)]
            GridEvent::LoadReport { server } => {
                let _reports = prof::span(prof::Phase::Reports);
                self.handle_load_report(now, server, sched)
            }
            // Per-server reports are lazy: the world never schedules one.
            #[cfg(not(test))]
            GridEvent::LoadReport { .. } => {}
            GridEvent::ShardLoadReport { shard } => {
                let _reports = prof::span(prof::Phase::Reports);
                self.handle_shard_load_report(now, shard, sched)
            }
            GridEvent::NoiseRedraw { server } => {
                // Noise-driven completions land at continuous times, so
                // only the push instant can matter for their ties.
                self.cur = Origin::pushed_at(self.noise[server.index()].pushed);
                self.handle_noise_redraw(now, server, sched)
            }
            GridEvent::ServerCrash { server, from } => {
                let _churn = prof::span(prof::Phase::Churn);
                self.cur = from;
                self.handle_server_crash(now, server, sched)
            }
            GridEvent::ServerProvision { idx } => {
                let _churn = prof::span(prof::Phase::Churn);
                self.cur = Origin::init(self.provision_push(idx));
                self.handle_server_provision(now, idx, sched)
            }
            GridEvent::ServerJoin { server, from } => {
                let _churn = prof::span(prof::Phase::Churn);
                self.cur = from;
                self.handle_server_join(now, server, sched)
            }
            GridEvent::ServerLeave { server } => {
                let _churn = prof::span(prof::Phase::Churn);
                self.handle_server_leave(now, server, sched)
            }
        }
    }
}

/// Drives a built world to completion and back-fills the HTM's final
/// simulated completion dates (Table 1's "simulated completion date"
/// column), merged across shards.
fn run_world(world: GridWorld) -> GridWorld {
    let mut sim = Simulation::new(world);
    let outcome = sim.run_to_completion();
    debug_assert_eq!(outcome, cas_sim::engine::RunOutcome::Exhausted);
    let mut world = sim.into_world();
    debug_assert_eq!(
        world.remaining(),
        0,
        "all tasks must reach a terminal state"
    );
    let simulated = world.agent.simulated_completions();
    for rec in &mut world.records {
        rec.predicted_completion = simulated.get(&rec.task).copied();
    }
    world
}

/// Runs one experiment to completion and returns the per-task records.
///
/// # Panics
/// Panics when `cfg` fails [`ExperimentConfig::validate`] (see
/// [`GridWorld::new`]).
pub fn run_experiment(
    cfg: ExperimentConfig,
    costs: CostTable,
    servers: Vec<ServerSpec>,
    tasks: Vec<TaskInstance>,
) -> Vec<TaskRecord> {
    run_world(GridWorld::new(cfg, costs, servers, tasks)).records
}

/// Runs one experiment with per-task user classes (trace workloads) and
/// returns the records plus the admission observability surface: the
/// gate's counters and the per-task buffered seconds
/// (`cas_metrics::per_class_slo` consumes records + users + waits).
/// Panics like [`run_experiment`] on an invalid `cfg`.
pub fn run_experiment_with_users(
    cfg: ExperimentConfig,
    costs: CostTable,
    servers: Vec<ServerSpec>,
    tasks: Vec<TaskInstance>,
    users: Vec<u32>,
) -> (Vec<TaskRecord>, AdmissionStats, Vec<f64>) {
    let world = run_world(GridWorld::new(cfg, costs, servers, tasks).with_users(users));
    let stats = world.admission_stats();
    let waits = world.admission_waits().to_vec();
    (world.records, stats, waits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Sharding;
    use cas_core::heuristics::HeuristicKind;
    use cas_platform::Problem;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// Six heterogeneous servers, two problems (P1 solvable on half the
    /// farm), small transfers — wide enough that a shard federation has
    /// real blocks to own.
    fn six_setup() -> (CostTable, Vec<ServerSpec>) {
        let mut costs = CostTable::new(6);
        costs.add_problem(
            Problem::new("p0", 1.0, 0.5, 0.0),
            (0..6)
                .map(|s| Some(PhaseCosts::new(0.5, 8.0 + 4.0 * s as f64, 0.5)))
                .collect(),
        );
        costs.add_problem(
            Problem::new("p1", 1.0, 0.5, 0.0),
            (0..6)
                .map(|s| (s % 2 == 0).then(|| PhaseCosts::new(0.3, 20.0 - 2.0 * s as f64, 0.3)))
                .collect(),
        );
        let servers = (0..6)
            .map(|s| ServerSpec::new(format!("s{s}"), 1000.0 - 100.0 * s as f64, 1024.0, 1024.0))
            .collect();
        (costs, servers)
    }

    fn six_tasks(n: usize) -> Vec<TaskInstance> {
        (0..n)
            .map(|i| {
                TaskInstance::new(
                    TaskId(i as u64),
                    cas_platform::ProblemId((i % 2) as u32),
                    t(i as f64 * 0.7),
                )
            })
            .collect()
    }

    /// Two servers: fast (10 s compute) and slow (30 s), 1 s transfers
    /// each way, no memory pressure.
    fn mini_setup() -> (CostTable, Vec<ServerSpec>) {
        let mut costs = CostTable::new(2);
        costs.add_problem(
            Problem::new("p", 1.0, 0.5, 0.0),
            vec![
                Some(PhaseCosts::new(1.0, 10.0, 1.0)),
                Some(PhaseCosts::new(1.0, 30.0, 1.0)),
            ],
        );
        let servers = vec![
            ServerSpec::new("fast", 1000.0, 1024.0, 1024.0),
            ServerSpec::new("slow", 500.0, 1024.0, 1024.0),
        ];
        (costs, servers)
    }

    fn mini_tasks(arrivals: &[f64]) -> Vec<TaskInstance> {
        arrivals
            .iter()
            .enumerate()
            .map(|(i, &a)| TaskInstance::new(TaskId(i as u64), cas_platform::ProblemId(0), t(a)))
            .collect()
    }

    #[test]
    fn single_task_completes_at_unloaded_duration() {
        let (costs, servers) = mini_setup();
        let cfg = ExperimentConfig::ideal(HeuristicKind::Hmct, 1);
        let recs = run_experiment(cfg, costs, servers, mini_tasks(&[5.0]));
        assert_eq!(recs.len(), 1);
        let r = &recs[0];
        assert!(r.is_completed());
        assert_eq!(r.server, Some(ServerId(0)), "picks the fast server");
        // 5.0 arrival + 1 + 10 + 1 = 17.0, no noise, no latency.
        assert!(r.finished().unwrap().approx_eq(t(17.0), 1e-9));
        assert_eq!(r.unloaded_duration, 12.0);
        assert_eq!(r.attempts, 1);
    }

    #[test]
    fn htm_prediction_is_exact_in_ideal_mode() {
        let (costs, servers) = mini_setup();
        let cfg = ExperimentConfig::ideal(HeuristicKind::Msf, 3);
        let recs = run_experiment(cfg, costs, servers, mini_tasks(&[0.0, 2.0, 4.0, 6.0, 8.0]));
        for r in &recs {
            let pred = r.predicted_completion.expect("HTM committed");
            let actual = r.finished().expect("completed");
            assert!(
                pred.approx_eq(actual, 1e-6),
                "task {}: predicted {pred:?}, actual {actual:?}",
                r.task
            );
        }
    }

    #[test]
    fn noise_makes_predictions_imperfect_but_close() {
        let (costs, servers) = mini_setup();
        let mut cfg = ExperimentConfig::paper(HeuristicKind::Hmct, 7);
        cfg.memory = cas_platform::MemoryModel::disabled();
        let recs = run_experiment(cfg, costs, servers, mini_tasks(&[0.0, 3.0, 6.0, 9.0, 12.0]));
        let errors: Vec<f64> = recs
            .iter()
            .filter_map(|r| r.prediction_error_pct())
            .collect();
        assert_eq!(errors.len(), 5);
        assert!(errors.iter().any(|&e| e > 0.0), "noise must show up");
        let mean = errors.iter().sum::<f64>() / errors.len() as f64;
        assert!(mean < 15.0, "errors should stay moderate, got {mean}");
    }

    #[test]
    fn contention_stretches_flows() {
        let (costs, servers) = mini_setup();
        let cfg = ExperimentConfig::ideal(HeuristicKind::Hmct, 1);
        // Twenty tasks arriving almost at once: heavy sharing.
        let arrivals: Vec<f64> = (0..20).map(|i| i as f64 * 0.1).collect();
        let recs = run_experiment(cfg, costs, servers, mini_tasks(&arrivals));
        assert!(recs.iter().all(|r| r.is_completed()));
        let max_stretch = recs.iter().filter_map(|r| r.stretch()).fold(0.0, f64::max);
        assert!(
            max_stretch > 1.5,
            "sharing must slow tasks, got {max_stretch}"
        );
    }

    #[test]
    fn memory_exhaustion_fails_tasks_without_retry() {
        // One tiny server (RAM+swap = 150 MB), tasks need 100 MB each: the
        // second concurrent task must be refused.
        let mut costs = CostTable::new(1);
        costs.add_problem(
            Problem::new("big", 1.0, 1.0, 100.0),
            vec![Some(PhaseCosts::new(1.0, 50.0, 1.0))],
        );
        let servers = vec![ServerSpec::new("tiny", 300.0, 100.0, 50.0)];
        let mut cfg = ExperimentConfig::ideal(HeuristicKind::Hmct, 1);
        cfg.memory = cas_platform::MemoryModel::default();
        cfg.fault_tolerance = FaultTolerance::None;
        let recs = run_experiment(cfg, costs, servers, mini_tasks(&[0.0, 1.0]));
        assert!(recs[0].is_completed());
        assert!(!recs[1].is_completed());
        assert_eq!(recs[1].attempts, 1);
    }

    #[test]
    fn ranked_retry_rescues_rejected_tasks() {
        // Two servers; the fast one is memory-tiny, the slow one is big.
        let mut costs = CostTable::new(2);
        costs.add_problem(
            Problem::new("big", 1.0, 1.0, 100.0),
            vec![
                Some(PhaseCosts::new(1.0, 10.0, 1.0)),
                Some(PhaseCosts::new(1.0, 40.0, 1.0)),
            ],
        );
        let servers = vec![
            ServerSpec::new("fast-tiny", 1000.0, 100.0, 20.0),
            ServerSpec::new("slow-big", 500.0, 2048.0, 1024.0),
        ];
        let mut cfg = ExperimentConfig::ideal(HeuristicKind::Hmct, 1);
        cfg.memory = cas_platform::MemoryModel::default();
        cfg.fault_tolerance = FaultTolerance::RankedRetry { max_attempts: 4 };
        let recs = run_experiment(cfg, costs, servers, mini_tasks(&[0.0, 0.5]));
        assert!(recs.iter().all(|r| r.is_completed()), "{recs:?}");
        // The second task was bounced off the fast server to the slow one.
        let rescued = recs.iter().find(|r| r.attempts > 1).expect("one retry");
        assert_eq!(rescued.server, Some(ServerId(1)));
    }

    #[test]
    fn deterministic_across_runs() {
        let (costs, servers) = mini_setup();
        let cfg = ExperimentConfig::paper(HeuristicKind::Msf, 42);
        let arrivals: Vec<f64> = (0..30).map(|i| i as f64 * 2.0).collect();
        let a = run_experiment(cfg, costs.clone(), servers.clone(), mini_tasks(&arrivals));
        let b = run_experiment(cfg, costs, servers, mini_tasks(&arrivals));
        assert_eq!(a, b);
    }

    #[test]
    fn all_heuristics_run_end_to_end() {
        let (costs, servers) = mini_setup();
        let arrivals: Vec<f64> = (0..15).map(|i| i as f64 * 1.5).collect();
        for kind in HeuristicKind::ALL {
            let cfg = ExperimentConfig::paper(kind, 5);
            let recs = run_experiment(cfg, costs.clone(), servers.clone(), mini_tasks(&arrivals));
            assert_eq!(recs.len(), 15, "{kind:?}");
            assert!(
                recs.iter().all(|r| r.is_completed()),
                "{kind:?} left tasks unfinished"
            );
        }
    }

    #[test]
    fn shared_client_link_serialises_transfers() {
        // Two tasks on two different servers with long input transfers: in
        // per-server mode their inputs run in parallel (each 10 s); on a
        // shared client link they halve each other's bandwidth.
        let mut costs = CostTable::new(2);
        costs.add_problem(
            cas_platform::Problem::new("p", 1.0, 0.0, 0.0),
            vec![
                Some(PhaseCosts::new(10.0, 1.0, 0.0)),
                Some(PhaseCosts::new(10.0, 1.0, 0.0)),
            ],
        );
        let servers = vec![
            ServerSpec::new("a", 1000.0, 512.0, 512.0),
            ServerSpec::new("b", 1000.0, 512.0, 512.0),
        ];
        // MP maps the second task to the idle server, so the two inputs
        // overlap fully in time.
        let mut cfg = ExperimentConfig::ideal(cas_core::heuristics::HeuristicKind::Mp, 1);
        let tasks = mini_tasks(&[0.0, 0.0]);
        let per_server = run_experiment(cfg, costs.clone(), servers.clone(), tasks.clone());
        cfg.shared_client_link = true;
        let shared = run_experiment(cfg, costs, servers, tasks);
        let end = |recs: &[cas_metrics::TaskRecord]| {
            recs.iter()
                .map(|r| r.finished().unwrap().as_secs())
                .fold(0.0, f64::max)
        };
        // Per-server: both inputs 0..10, compute 10..11 → last done at 11.
        assert!((end(&per_server) - 11.0).abs() < 1e-6, "{per_server:?}");
        // Shared: both transfers at half rate finish at t=20 → done at 21.
        assert!((end(&shared) - 21.0).abs() < 1e-6, "{shared:?}");
    }

    #[test]
    fn shared_client_link_full_workload_completes() {
        let (costs, servers) = mini_setup();
        let arrivals: Vec<f64> = (0..25).map(|i| i as f64 * 1.0).collect();
        for kind in [
            cas_core::heuristics::HeuristicKind::Mct,
            cas_core::heuristics::HeuristicKind::Msf,
        ] {
            let mut cfg = ExperimentConfig::paper(kind, 3);
            cfg.shared_client_link = true;
            let recs = run_experiment(cfg, costs.clone(), servers.clone(), mini_tasks(&arrivals));
            assert!(recs.iter().all(|r| r.is_completed()), "{kind:?}");
        }
    }

    /// The end-to-end acceptance property of the two-stage pipeline: a
    /// `TopK` selector wide enough to never prune is **bit-identical** to
    /// the exhaustive selector across whole experiments — same servers,
    /// same attempts, same completion dates — for every shipped
    /// heuristic, including the retry/memory/noise machinery.
    #[test]
    fn topk_full_width_matches_exhaustive_end_to_end() {
        let (costs, servers) = mini_setup();
        let arrivals: Vec<f64> = (0..25).map(|i| i as f64 * 0.8).collect();
        for kind in HeuristicKind::ALL {
            let cfg = ExperimentConfig::paper(kind, 21);
            let base = run_experiment(cfg, costs.clone(), servers.clone(), mini_tasks(&arrivals));
            let wide = cfg.with_selector(cas_core::SelectorKind::TopK { k: 64 });
            let pruned =
                run_experiment(wide, costs.clone(), servers.clone(), mini_tasks(&arrivals));
            assert_eq!(base, pruned, "{kind:?} diverged under TopK(k >= n)");
        }
    }

    /// Aggressive pruning (k = 1, and a tight adaptive band) must still
    /// complete every task — the shortlist never goes empty while an
    /// admissible server exists.
    #[test]
    fn pruned_selectors_complete_all_tasks() {
        let (costs, servers) = mini_setup();
        let arrivals: Vec<f64> = (0..20).map(|i| i as f64 * 1.2).collect();
        for selector in [
            cas_core::SelectorKind::TopK { k: 1 },
            cas_core::SelectorKind::Adaptive { k_min: 1, k_max: 2 },
        ] {
            for kind in [HeuristicKind::Hmct, HeuristicKind::Msf, HeuristicKind::Mct] {
                let cfg = ExperimentConfig::paper(kind, 13).with_selector(selector);
                let recs =
                    run_experiment(cfg, costs.clone(), servers.clone(), mini_tasks(&arrivals));
                assert!(
                    recs.iter().all(|r| r.is_completed()),
                    "{kind:?}/{selector:?} left tasks unfinished"
                );
            }
        }
    }

    /// Retry exclusions must stay honoured through the selector: after a
    /// refusal the excluded server cannot reappear in the shortlist, even
    /// when it is the static ranking's best.
    #[test]
    fn pruned_retry_respects_exclusions() {
        // Fast-but-tiny vs slow-but-roomy, tasks need 100 MB (as in
        // `ranked_retry_rescues_rejected_tasks`) — under TopK(1) the
        // first pick is the fast server; the retry must reach the slow
        // one rather than re-proposing the refuser.
        let mut costs = CostTable::new(2);
        costs.add_problem(
            cas_platform::Problem::new("big", 1.0, 1.0, 100.0),
            vec![
                Some(PhaseCosts::new(1.0, 10.0, 1.0)),
                Some(PhaseCosts::new(1.0, 40.0, 1.0)),
            ],
        );
        let servers = vec![
            ServerSpec::new("fast-tiny", 1000.0, 100.0, 20.0),
            ServerSpec::new("slow-big", 500.0, 2048.0, 1024.0),
        ];
        let mut cfg = ExperimentConfig::ideal(HeuristicKind::Hmct, 1)
            .with_selector(cas_core::SelectorKind::TopK { k: 1 });
        cfg.memory = cas_platform::MemoryModel::default();
        cfg.fault_tolerance = FaultTolerance::RankedRetry { max_attempts: 4 };
        let recs = run_experiment(cfg, costs, servers, mini_tasks(&[0.0, 0.5]));
        assert!(recs.iter().all(|r| r.is_completed()), "{recs:?}");
        let rescued = recs.iter().find(|r| r.attempts > 1).expect("one retry");
        assert_eq!(rescued.server, Some(ServerId(1)));
    }

    /// The federation's acceptance property: `--shards 1` (the full
    /// router machinery over one shard) is **bit-identical** to the
    /// unsharded single-agent engine across whole experiments — same
    /// servers, same attempts, same completion dates — for every shipped
    /// heuristic × every selector backend, including the
    /// retry/memory/noise machinery.
    #[test]
    fn federated_single_shard_bitwise_matches_unsharded_end_to_end() {
        let (costs, servers) = six_setup();
        let tasks = six_tasks(24);
        for kind in HeuristicKind::ALL {
            for selector in [
                cas_core::SelectorKind::Exhaustive,
                cas_core::SelectorKind::TopK { k: 1 },
                cas_core::SelectorKind::TopK { k: 64 },
                cas_core::SelectorKind::Adaptive { k_min: 1, k_max: 3 },
            ] {
                let cfg = ExperimentConfig::paper(kind, 33).with_selector(selector);
                let single = run_experiment(cfg, costs.clone(), servers.clone(), tasks.clone());
                let routed = run_experiment(
                    cfg.with_shards(Sharding::Federated { shards: 1 }),
                    costs.clone(),
                    servers.clone(),
                    tasks.clone(),
                );
                assert_eq!(
                    single, routed,
                    "{kind:?}/{selector:?} diverged under --shards 1"
                );
            }
        }
    }

    /// Under the exhaustive selector the scatter–merge–gather router is
    /// bit-identical to the single agent at any shard count: the union
    /// of per-shard every-solver loops is the every-solver loop, and
    /// every hook routes to the same model state.
    #[test]
    fn federated_exhaustive_matches_unsharded_for_any_shard_count() {
        let (costs, servers) = six_setup();
        let tasks = six_tasks(30);
        for kind in HeuristicKind::ALL {
            let cfg = ExperimentConfig::paper(kind, 9);
            let single = run_experiment(cfg, costs.clone(), servers.clone(), tasks.clone());
            for shards in [2, 3, 6] {
                let routed = run_experiment(
                    cfg.with_shards(Sharding::Federated { shards }),
                    costs.clone(),
                    servers.clone(),
                    tasks.clone(),
                );
                assert_eq!(single, routed, "{kind:?} diverged at {shards} shards");
            }
        }
    }

    /// Pruning selectors across a real federation (each shard adapting
    /// its own width) must still complete every task, under both index
    /// scoring proxies and auto sharding.
    #[test]
    fn sharded_pruned_campaigns_complete() {
        let (costs, servers) = six_setup();
        let tasks = six_tasks(30);
        for selector in [
            cas_core::SelectorKind::TopK { k: 1 },
            cas_core::SelectorKind::Adaptive { k_min: 1, k_max: 2 },
        ] {
            for shards in [Sharding::AUTO, Sharding::Federated { shards: 3 }] {
                for scoring in [
                    cas_platform::IndexScoring::RemainingWork,
                    cas_platform::IndexScoring::ActiveCount,
                ] {
                    let cfg = ExperimentConfig::paper(HeuristicKind::Hmct, 17)
                        .with_selector(selector)
                        .with_shards(shards)
                        .with_index_scoring(scoring);
                    let recs = run_experiment(cfg, costs.clone(), servers.clone(), tasks.clone());
                    assert!(
                        recs.iter().all(|r| r.is_completed()),
                        "{selector:?}/{shards:?}/{scoring:?} left tasks unfinished"
                    );
                }
            }
        }
    }

    /// The skyline acceptance property, end to end: whole-campaign
    /// record equality, skyline-on versus skyline-off, for **every**
    /// heuristic × selector backend at S = 4 — same servers, same
    /// attempts, same completion dates, bit for bit, including the
    /// retry/memory/noise machinery. The lazy merge may only prune
    /// walks, never decisions.
    #[test]
    fn skyline_campaigns_bitwise_match_eager_end_to_end() {
        let (costs, servers) = six_setup();
        let tasks = six_tasks(24);
        for kind in HeuristicKind::ALL {
            for selector in [
                cas_core::SelectorKind::Exhaustive,
                cas_core::SelectorKind::TopK { k: 1 },
                cas_core::SelectorKind::TopK { k: 64 },
                cas_core::SelectorKind::Adaptive { k_min: 1, k_max: 3 },
            ] {
                let cfg = ExperimentConfig::paper(kind, 27)
                    .with_selector(selector)
                    .with_shards(Sharding::Federated { shards: 4 });
                assert!(cfg.skyline, "lazy merge is the default");
                let lazy = run_experiment(cfg, costs.clone(), servers.clone(), tasks.clone());
                let eager = run_experiment(
                    cfg.with_skyline(false),
                    costs.clone(),
                    servers.clone(),
                    tasks.clone(),
                );
                assert_eq!(
                    lazy, eager,
                    "{kind:?}/{selector:?} diverged between skyline on and off"
                );
            }
        }
    }

    /// The flat-rankings acceptance property, end to end: whole-campaign
    /// record equality, flat ladder versus the BTree spec, for **every**
    /// heuristic × selector backend, unsharded and at S = 4 — same
    /// servers, same attempts, same completion dates, bit for bit. The
    /// ranking storage is pure representation; it may never change a
    /// decision.
    #[test]
    fn flat_rankings_campaigns_bitwise_match_btree_end_to_end() {
        let (costs, servers) = six_setup();
        let tasks = six_tasks(24);
        for kind in HeuristicKind::ALL {
            for selector in [
                cas_core::SelectorKind::Exhaustive,
                cas_core::SelectorKind::TopK { k: 1 },
                cas_core::SelectorKind::TopK { k: 64 },
                cas_core::SelectorKind::Adaptive { k_min: 1, k_max: 3 },
            ] {
                for shards in [Sharding::Single, Sharding::Federated { shards: 4 }] {
                    let cfg = ExperimentConfig::paper(kind, 41)
                        .with_selector(selector)
                        .with_shards(shards);
                    assert_eq!(
                        cfg.rankings,
                        cas_platform::RankingsBackend::Flat,
                        "flat ladder is the default"
                    );
                    let flat = run_experiment(cfg, costs.clone(), servers.clone(), tasks.clone());
                    let btree = run_experiment(
                        cfg.with_rankings(cas_platform::RankingsBackend::Btree),
                        costs.clone(),
                        servers.clone(),
                        tasks.clone(),
                    );
                    assert_eq!(
                        flat, btree,
                        "{kind:?}/{selector:?}/{shards:?} diverged between rankings backends"
                    );
                }
            }
        }
    }

    /// The stage-2 acceptance property, end to end: whole-campaign
    /// record equality, fast drain engine (the default: truncated
    /// prefix-sharing drains) versus the full pre-optimisation engine,
    /// for **every** heuristic × selector backend, unsharded and at
    /// S = 4 — same servers, same attempts, same completion dates, bit
    /// for bit. Covers both drain depths: completion-only heuristics
    /// (HMCT, MCT, …) truncate, perturbation readers (MP, MSF, MNI)
    /// drain full-length through the shared prefix.
    #[test]
    fn stage2_fast_campaigns_bitwise_match_full_end_to_end() {
        let (costs, servers) = six_setup();
        let tasks = six_tasks(24);
        for kind in HeuristicKind::ALL {
            for selector in [
                cas_core::SelectorKind::Exhaustive,
                cas_core::SelectorKind::TopK { k: 1 },
                cas_core::SelectorKind::TopK { k: 64 },
                cas_core::SelectorKind::Adaptive { k_min: 1, k_max: 3 },
            ] {
                for shards in [Sharding::Single, Sharding::Federated { shards: 4 }] {
                    let cfg = ExperimentConfig::paper(kind, 53)
                        .with_selector(selector)
                        .with_shards(shards);
                    assert_eq!(
                        cfg.stage2,
                        cas_core::Stage2Mode::Fast,
                        "fast drain engine is the default"
                    );
                    let fast = run_experiment(cfg, costs.clone(), servers.clone(), tasks.clone());
                    let full = run_experiment(
                        cfg.with_stage2(cas_core::Stage2Mode::Full),
                        costs.clone(),
                        servers.clone(),
                        tasks.clone(),
                    );
                    assert_eq!(
                        fast, full,
                        "{kind:?}/{selector:?}/{shards:?} diverged between stage-2 engines"
                    );
                }
            }
        }
    }

    /// The two stage-2 engines stay bit-identical through churn and the
    /// rebalances it triggers, and the rebuilt blocks keep the configured
    /// engine: under `Full` the fast-path counters must stay zero even
    /// after blocks were rebuilt mid-campaign, while the default fast run
    /// of the same completion-only campaign truncates drains.
    #[test]
    fn stage2_engines_survive_churn_and_rebalance_bitwise() {
        let (costs, servers) = six_setup();
        let tasks = six_tasks(30);
        let cfg = ExperimentConfig::paper(HeuristicKind::Hmct, 29)
            .with_shards(Sharding::Federated { shards: 3 })
            .with_churn(120.0, 30.0)
            .with_churn_seed(7);
        let run = |cfg: ExperimentConfig| {
            let world = GridWorld::new(cfg, costs.clone(), servers.clone(), tasks.clone());
            let mut sim = cas_sim::Simulation::new(world);
            sim.run_to_completion();
            let world = sim.into_world();
            let stats = world.agent().stage2_stats();
            (world.records().to_vec(), stats)
        };
        let (fast, fast_stats) = run(cfg);
        let (full, full_stats) = run(cfg.with_stage2(cas_core::Stage2Mode::Full));
        assert_eq!(fast, full, "stage-2 engines diverged under churn");
        // A rebalance rebuilds blocks with fresh HTMs (counters restart at
        // the replay), so only mode retention is asserted here: the full
        // engine never touches the prefix cursor, rebuilt blocks included.
        assert!(fast_stats.drains > 0, "{fast_stats:?}");
        assert_eq!(
            full_stats.prefix_hits, 0,
            "a rebuilt block fell back to the fast engine: {full_stats:?}"
        );
        assert_eq!(full_stats.truncated, 0, "full mode never truncates");
    }

    /// The fast engine's counters are live through the whole stack: a
    /// completion-only campaign (HMCT) truncates drains and resumes the
    /// shared prefix; a perturbation-reading campaign (MSF) never
    /// truncates but still shares the prefix.
    #[test]
    fn stage2_counters_are_live_end_to_end() {
        let (costs, servers) = six_setup();
        let tasks = six_tasks(24);
        let run = |kind: HeuristicKind| {
            let cfg = ExperimentConfig::paper(kind, 59);
            let world = GridWorld::new(cfg, costs.clone(), servers.clone(), tasks.clone());
            let mut sim = cas_sim::Simulation::new(world);
            sim.run_to_completion();
            sim.into_world().agent().stage2_stats()
        };
        let hmct = run(HeuristicKind::Hmct);
        assert!(hmct.drains > 0, "{hmct:?}");
        assert!(
            hmct.truncated > 0,
            "HMCT is completion-only; drains must truncate: {hmct:?}"
        );
        assert!(
            hmct.prefix_hits > 0,
            "repeat queries must resume the prefix: {hmct:?}"
        );
        let msf = run(HeuristicKind::Msf);
        assert_eq!(
            msf.truncated, 0,
            "MSF reads perturbations; no drain may truncate: {msf:?}"
        );
        assert!(msf.prefix_hits > 0, "{msf:?}");
    }

    /// A configuration that cannot mean anything stops the run at build
    /// time with the typed error's message, naming the field: a zero,
    /// negative or non-finite housekeeping period (it used to hang or
    /// panic mid-run), a zero, negative or NaN `mtbf` or
    /// `admission_deadline`, or a zero, negative, NaN or infinite `mttr`
    /// under churn. Those used to turn churn off silently, make a NaN
    /// deadline wait forever, or time a buffered task out at or before
    /// its arrival.
    #[test]
    fn invalid_configs_are_refused_before_the_run() {
        let (costs, servers) = mini_setup();
        let base = ExperimentConfig::paper(HeuristicKind::Msf, 3);
        let mut cases = Vec::new();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut cfg = base;
            cfg.load_report_period = bad;
            cases.push(("load_report_period", cfg));
            let mut cfg = base;
            cfg.noise_redraw_period = bad;
            cases.push(("noise_redraw_period", cfg));
            cases.push(("mttr", base.with_churn(400.0, bad)));
            if bad != f64::INFINITY {
                cases.push(("mtbf", base.with_churn(bad, 60.0)));
                cases.push(("admission_deadline", base.with_admission(1, 4, bad)));
            }
        }
        for (field, cfg) in cases {
            let (costs, servers) = (costs.clone(), servers.clone());
            let err = std::panic::catch_unwind(move || {
                run_experiment(cfg, costs, servers, mini_tasks(&[0.0, 5.0]))
            })
            .expect_err("an invalid config must not run");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains(field), "{field}: {msg:?}");
        }
    }

    /// Every shortlist, however wide, takes the direct per-candidate
    /// `predict_into` stage 2. Past 16 candidates it used to batch
    /// through `predict_all` (pool-scattered on multi-core hosts), so
    /// this pins the wide direct path against that batch spec: whole
    /// campaigns with 40- and 24-wide shortlists are record-equal to the
    /// same campaigns forced through `predict_all`, for every HTM-based
    /// heuristic, on the single agent and on a 4-shard federation. CI
    /// runs it by name.
    #[test]
    fn wide_shortlist_direct_stage2_matches_batch_spec() {
        let (costs, servers) = farm_setup(40);
        assert!(costs.solvers(cas_platform::ProblemId(0)).len() > 16);
        let tasks = six_tasks(40);
        let run = |cfg: ExperimentConfig, batch: bool| {
            let mut world = GridWorld::new(cfg, costs.clone(), servers.clone(), tasks.clone());
            world.agent_mut().set_batch_predict(batch);
            run_world(world).records
        };
        let arms = [
            (cas_core::SelectorKind::Exhaustive, Sharding::Single),
            (
                cas_core::SelectorKind::Exhaustive,
                Sharding::Federated { shards: 4 },
            ),
            (cas_core::SelectorKind::TopK { k: 24 }, Sharding::Single),
        ];
        for kind in [
            HeuristicKind::Hmct,
            HeuristicKind::Mp,
            HeuristicKind::Msf,
            HeuristicKind::Mni,
        ] {
            for (selector, shards) in arms {
                let cfg = ExperimentConfig::paper(kind, 17)
                    .with_selector(selector)
                    .with_shards(shards);
                let direct = run(cfg, false);
                assert!(direct.iter().any(|r| r.is_completed()), "{kind:?}");
                assert_eq!(
                    direct,
                    run(cfg, true),
                    "{kind:?} / {selector:?} / {shards:?}: direct stage 2 diverged from the batch spec"
                );
            }
        }
    }

    /// The bounded stage 2 under exact ties: on a farm of identical
    /// servers with integer costs and arrivals, many candidates' drained
    /// objectives are equal to the bit, and their bounds differ only in
    /// rounding. The pruned argmin must still pick the lowest tied id,
    /// so every campaign is record-equal to the batch spec's full scan —
    /// HMCT, MSF and their memory-aware wrappers (which veto servers the
    /// model believes full), single agent and 4 shards, exhaustive and
    /// `TopK{k:12}` lists. CI runs it by name.
    #[test]
    fn tied_farm_bounded_stage2_matches_batch_spec() {
        let n = 24;
        let mut costs = CostTable::new(n);
        costs.add_problem(
            Problem::new("p0", 1.0, 0.5, 200.0),
            (0..n)
                .map(|_| Some(PhaseCosts::new(1.0, 8.0, 1.0)))
                .collect(),
        );
        costs.add_problem(
            Problem::new("p1", 1.0, 0.5, 100.0),
            (0..n)
                .map(|s| (s % 2 == 0).then(|| PhaseCosts::new(0.0, 20.0, 2.0)))
                .collect(),
        );
        // RAM + swap fits two p0 tasks: the memory veto engages.
        let servers: Vec<ServerSpec> = (0..n)
            .map(|s| ServerSpec::new(format!("s{s}"), 500.0, 256.0, 256.0))
            .collect();
        // Three arrivals per whole second: same-instant probes and
        // equal-remaining-work residents make exact ties common.
        let tasks: Vec<TaskInstance> = (0..150u64)
            .map(|i| {
                TaskInstance::new(
                    TaskId(i),
                    cas_platform::ProblemId((i % 3 == 2) as u32),
                    t((i / 3) as f64),
                )
            })
            .collect();
        let run = |cfg: ExperimentConfig, batch: bool| {
            let mut world = GridWorld::new(cfg, costs.clone(), servers.clone(), tasks.clone());
            world.agent_mut().set_batch_predict(batch);
            run_world(world).records
        };
        let arms = [
            (cas_core::SelectorKind::Exhaustive, Sharding::Single),
            (
                cas_core::SelectorKind::Exhaustive,
                Sharding::Federated { shards: 4 },
            ),
            (cas_core::SelectorKind::TopK { k: 12 }, Sharding::Single),
        ];
        for kind in [
            HeuristicKind::Hmct,
            HeuristicKind::Msf,
            HeuristicKind::MemHmct,
            HeuristicKind::MemMsf,
        ] {
            for (selector, shards) in arms {
                let cfg = ExperimentConfig::paper(kind, 29)
                    .with_selector(selector)
                    .with_shards(shards);
                let bounded = run(cfg, false);
                assert!(bounded.iter().any(|r| r.is_completed()), "{kind:?}");
                assert_eq!(
                    bounded,
                    run(cfg, true),
                    "{kind:?} / {selector:?} / {shards:?}: bounded stage 2 diverged from the batch spec"
                );
            }
        }
    }

    /// Tripwire for the quality of the stage-2 completion lower bound.
    /// Picks are identical whatever the bound, so a looser bound passes
    /// every record-equality test and only shows up as extra drains. On a
    /// small heterogeneous farm under bursty arrivals whose crests pass
    /// capacity (the `dense_burst` shape), HMCT and MSF must stay under a
    /// drains-per-decision ceiling that the CPU-lane-only bound, blind to
    /// the jobs still in a server's input lane, exceeds. Every task is
    /// decided once (no churn, no admission gate), so decisions = tasks.
    /// CI runs it by name.
    #[test]
    fn bursty_farm_bounded_stage2_drains_stay_under_ceiling() {
        let platform = cas_workload::synthetic::SyntheticPlatform {
            n_servers: 64,
            heterogeneity: 4.0,
            n_problems: 3,
            ..cas_workload::synthetic::SyntheticPlatform::default()
        };
        let (costs, servers) = (platform.cost_table(0x5CA1E), platform.servers(0x5CA1E));
        let service_rate: f64 = (0..costs.n_servers())
            .map(|s| {
                let mean = (0..costs.n_problems())
                    .map(|p| {
                        costs
                            .costs(cas_platform::ProblemId(p as u32), ServerId(s as u32))
                            .expect("synthetic tables are fully solvable")
                            .total()
                    })
                    .sum::<f64>()
                    / costs.n_problems() as f64;
                1.0 / mean
            })
            .sum();
        // Mean utilisation 0.85, crest 4× the trough.
        let base_rate = 2.0 * 0.85 * service_rate / 5.0;
        let n_tasks = 1_500;
        let tasks = cas_workload::synthetic::BurstArrivals {
            n_tasks,
            base_rate,
            peak_rate: 4.0 * base_rate,
            period: 600.0,
            n_problems: costs.n_problems(),
        }
        .generate(1);
        // Measured: HMCT 8.63 and MSF 30.94 drains per decision; the
        // CPU-lane-only bound gives 40.38 and 46.51.
        for (kind, ceiling) in [(HeuristicKind::Hmct, 15.0), (HeuristicKind::Msf, 38.0)] {
            let cfg = ExperimentConfig::ideal(kind, 1)
                .with_selector(cas_core::SelectorKind::parse("adaptive:8:64").unwrap());
            let world = GridWorld::new(cfg, costs.clone(), servers.clone(), tasks.clone());
            let mut sim = cas_sim::Simulation::new(world);
            sim.run_to_completion();
            let world = sim.into_world();
            assert!(world.records().iter().all(|r| r.is_completed()), "{kind:?}");
            let stats = world.agent().stage2_stats();
            let per_decision = stats.drains as f64 / n_tasks as f64;
            assert!(
                per_decision <= ceiling,
                "{kind:?}: {per_decision:.2} drains per decision, ceiling {ceiling}: {stats:?}"
            );
        }
    }

    /// Flat and BTree rankings stay bit-identical through the full
    /// lifecycle machinery: churn (crashes, repairs, retraction replay)
    /// plus the rebalances it triggers — the rebuilt blocks must keep
    /// the configured backend.
    #[test]
    fn flat_rankings_survive_churn_and_rebalance_bitwise() {
        let (costs, servers) = six_setup();
        let tasks = six_tasks(30);
        let cfg = ExperimentConfig::paper(HeuristicKind::Hmct, 23)
            .with_shards(Sharding::Federated { shards: 3 })
            .with_churn(120.0, 30.0)
            .with_churn_seed(7);
        let flat = run_experiment(cfg, costs.clone(), servers.clone(), tasks.clone());
        let btree = run_experiment(
            cfg.with_rankings(cas_platform::RankingsBackend::Btree),
            costs,
            servers,
            tasks,
        );
        assert_eq!(flat, btree, "rankings backends diverged under churn");
    }

    /// Per-server load reports are lazy and cost no kernel event at all;
    /// aggregated reports still fire one kernel event per shard per
    /// period — and, for a heuristic that never reads the reports,
    /// change nothing else about the run.
    #[test]
    fn aggregated_reports_fire_per_shard_not_per_server() {
        let (costs, servers) = six_setup();
        let tasks = six_tasks(24);
        let cfg = ExperimentConfig::paper(HeuristicKind::Hmct, 11)
            .with_shards(Sharding::Federated { shards: 3 });
        let run = |cfg: ExperimentConfig| {
            let world = GridWorld::new(cfg, costs.clone(), servers.clone(), tasks.clone());
            let mut sim = cas_sim::Simulation::new(world);
            let _ = sim.run_to_completion();
            let world = sim.into_world();
            (world.records().to_vec(), world.report_events())
        };
        let (per_server_recs, per_server_events) = run(cfg);
        let (per_shard_recs, per_shard_events) = run(cfg.with_aggregated_reports(true));
        // HMCT never reads the load reports, so the whole run is
        // bit-identical — the only difference is kernel pressure.
        assert_eq!(per_server_recs, per_shard_recs);
        assert_eq!(per_server_events, 0, "per-server reports are lazy");
        assert!(per_shard_events > 0, "aggregated reports must fire");
        // A report-reading heuristic still completes every task on the
        // aggregated schedule (its decisions may legitimately differ).
        let mct = ExperimentConfig::paper(HeuristicKind::Mct, 11)
            .with_shards(Sharding::Federated { shards: 3 })
            .with_aggregated_reports(true);
        let (recs, _) = run(mct);
        assert!(recs.iter().all(|r| r.is_completed()));
    }

    /// Retry exclusions must stay honoured through the federation: after
    /// a refusal the excluded server cannot reappear in any shard's
    /// shortlist, even when it is its shard's best.
    #[test]
    fn sharded_retry_respects_exclusions() {
        let mut costs = CostTable::new(2);
        costs.add_problem(
            cas_platform::Problem::new("big", 1.0, 1.0, 100.0),
            vec![
                Some(PhaseCosts::new(1.0, 10.0, 1.0)),
                Some(PhaseCosts::new(1.0, 40.0, 1.0)),
            ],
        );
        let servers = vec![
            ServerSpec::new("fast-tiny", 1000.0, 100.0, 20.0),
            ServerSpec::new("slow-big", 500.0, 2048.0, 1024.0),
        ];
        let mut cfg = ExperimentConfig::ideal(HeuristicKind::Hmct, 1)
            .with_selector(cas_core::SelectorKind::TopK { k: 1 })
            .with_shards(Sharding::Federated { shards: 2 });
        cfg.memory = cas_platform::MemoryModel::default();
        cfg.fault_tolerance = FaultTolerance::RankedRetry { max_attempts: 4 };
        let recs = run_experiment(cfg, costs, servers, mini_tasks(&[0.0, 0.5]));
        assert!(recs.iter().all(|r| r.is_completed()), "{recs:?}");
        let rescued = recs.iter().find(|r| r.attempts > 1).expect("one retry");
        assert_eq!(rescued.server, Some(ServerId(1)));
    }

    #[test]
    fn load_reports_influence_mct() {
        // With long report periods and no corrections the MCT would dogpile
        // the fast server; the assignment correction spreads tasks.
        let (costs, servers) = mini_setup();
        let mut cfg = ExperimentConfig::ideal(HeuristicKind::Mct, 2);
        cfg.load_report_period = 1e5; // reports effectively never arrive
        let arrivals: Vec<f64> = (0..8).map(|i| i as f64 * 0.5).collect();
        let recs = run_experiment(cfg, costs, servers, mini_tasks(&arrivals));
        let on_slow = recs
            .iter()
            .filter(|r| r.server == Some(ServerId(1)))
            .count();
        assert!(
            on_slow > 0,
            "assignment-bump correction must steer some tasks to the slow server"
        );
    }

    /// Switching the churn machinery on with an infinite MTBF must be
    /// invisible: no fault process derives from the model, so every
    /// selector backend — sharded or not — produces records
    /// bit-identical to the frozen farm.
    #[test]
    fn infinite_mtbf_is_bitwise_identical_to_frozen_farm() {
        let (costs, servers) = six_setup();
        let tasks = six_tasks(24);
        for selector in [
            cas_core::SelectorKind::Exhaustive,
            cas_core::SelectorKind::TopK { k: 1 },
            cas_core::SelectorKind::TopK { k: 64 },
            cas_core::SelectorKind::Adaptive { k_min: 1, k_max: 3 },
        ] {
            for shards in [Sharding::Single, Sharding::Federated { shards: 3 }] {
                let cfg = ExperimentConfig::paper(HeuristicKind::Hmct, 41)
                    .with_selector(selector)
                    .with_shards(shards);
                let frozen = run_experiment(cfg, costs.clone(), servers.clone(), tasks.clone());
                let churned = run_experiment(
                    cfg.with_churn(f64::INFINITY, 60.0).with_churn_seed(99),
                    costs.clone(),
                    servers.clone(),
                    tasks.clone(),
                );
                assert_eq!(
                    frozen, churned,
                    "{selector:?}/{shards:?} diverged under mtbf = inf"
                );
            }
        }
    }

    /// Crash-retraction equivalence end to end: under the exhaustive
    /// selector, a sharded federation subjected to a fault schedule
    /// produces records bit-identical to the single-agent engine under
    /// the *same* schedule — retraction, backoff re-dispatch, budget
    /// drops and online rebalancing included. The fault schedule is a
    /// function of the churn seed alone, so both runs see the same one.
    #[test]
    fn churned_federation_matches_single_agent_under_same_faults() {
        let (costs, servers) = six_setup();
        let tasks = six_tasks(30);
        let base = ExperimentConfig::paper(HeuristicKind::Hmct, 9)
            .with_churn(60.0, 15.0)
            .with_churn_seed(3);
        let single = run_experiment(base, costs.clone(), servers.clone(), tasks.clone());
        for shards in [2, 3, 6] {
            let routed = run_experiment(
                base.with_shards(Sharding::Federated { shards }),
                costs.clone(),
                servers.clone(),
                tasks.clone(),
            );
            assert_eq!(single, routed, "diverged at {shards} shards under churn");
        }
    }

    /// A harsh fault schedule must leave no task unaccounted: every
    /// record ends terminal, the completed/dropped/failed partition
    /// sums to the campaign size, and the lifecycle counters agree
    /// with the records.
    #[test]
    fn churn_campaign_accounts_for_every_task() {
        let (costs, servers) = six_setup();
        let tasks = six_tasks(40);
        let n_tasks = tasks.len() as u64;
        let cfg = ExperimentConfig::paper(HeuristicKind::Hmct, 23)
            .with_shards(Sharding::Federated { shards: 3 })
            .with_churn(40.0, 20.0)
            .with_churn_seed(7);
        let world = GridWorld::new(cfg, costs, servers, tasks);
        let mut sim = cas_sim::Simulation::new(world);
        let _ = sim.run_to_completion();
        let world = sim.into_world();
        let stats = world.churn_stats();
        assert!(stats.crashes > 0, "schedule must crash servers: {stats:?}");
        let (mut completed, mut dropped, mut failed) = (0u64, 0u64, 0u64);
        for r in world.records() {
            match r.outcome {
                TaskOutcome::Completed { .. } => completed += 1,
                TaskOutcome::Dropped { .. } => dropped += 1,
                TaskOutcome::Failed => failed += 1,
                TaskOutcome::InFlight => panic!("task {:?} left in flight", r.task),
            }
        }
        assert_eq!(completed + dropped + failed, n_tasks);
        assert_eq!(dropped, stats.drops, "every drop carries a reason code");
        // Every retraction either re-dispatched or consumed the budget;
        // the requeue path may add re-dispatches of its own on top.
        assert!(
            stats.redispatches + stats.drops >= stats.retractions,
            "unaccounted retraction: {stats:?}"
        );
    }

    /// When repairs lag far behind failures, whole blocks go dark and
    /// the live-server count leaves the size band: the router must
    /// re-partition online — and the campaign must still account for
    /// every task afterwards.
    #[test]
    fn churn_triggers_online_rebalance() {
        let (costs, servers) = six_setup();
        let tasks = six_tasks(40);
        let n_tasks = tasks.len() as u64;
        let cfg = ExperimentConfig::paper(HeuristicKind::Hmct, 5)
            .with_shards(Sharding::Federated { shards: 3 })
            .with_churn(30.0, 90.0)
            .with_churn_seed(11);
        let world = GridWorld::new(cfg, costs, servers, tasks);
        let mut sim = cas_sim::Simulation::new(world);
        let _ = sim.run_to_completion();
        let world = sim.into_world();
        let stats = world.churn_stats();
        assert!(
            stats.rebalances > 0,
            "long repairs must empty a block and trigger a merge: {stats:?}"
        );
        let terminal = world
            .records()
            .iter()
            .filter(|r| !matches!(r.outcome, TaskOutcome::InFlight))
            .count() as u64;
        assert_eq!(terminal, n_tasks);
    }

    /// `run_experiment` with a provision schedule attached (the public
    /// helper takes none, to keep the common call sites lean).
    fn run_with_provisions(
        cfg: ExperimentConfig,
        costs: CostTable,
        servers: Vec<ServerSpec>,
        tasks: Vec<TaskInstance>,
        provisions: Vec<Provision>,
    ) -> GridWorld {
        let world = GridWorld::new(cfg, costs, servers, tasks).with_provisions(provisions);
        let mut sim = cas_sim::Simulation::new(world);
        let outcome = sim.run_to_completion();
        assert_eq!(outcome, cas_sim::engine::RunOutcome::Exhausted);
        let mut world = sim.into_world();
        assert_eq!(
            world.remaining(),
            0,
            "all tasks must reach a terminal state"
        );
        let simulated = world.agent.simulated_completions();
        for rec in &mut world.records {
            rec.predicted_completion = simulated.get(&rec.task).copied();
        }
        world
    }

    /// A server provisioned mid-campaign becomes eligible immediately:
    /// it wins decisions made after its admission (it is the cheapest
    /// machine on the farm) and never appears in decisions made before.
    #[test]
    fn provisioned_server_joins_mid_campaign_and_takes_work() {
        let (costs, servers) = mini_setup();
        let tasks = mini_tasks(&[0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0]);
        let cfg = ExperimentConfig::ideal(HeuristicKind::Hmct, 1);
        let world = run_with_provisions(
            cfg,
            costs,
            servers,
            tasks,
            vec![Provision {
                at: t(5.0),
                spec: ServerSpec::new("joiner", 1000.0, 1024.0, 1024.0),
                column: vec![Some(PhaseCosts::new(1.0, 5.0, 1.0))],
            }],
        );
        assert_eq!(world.churn_stats().provisions, 1);
        assert_eq!(world.live_servers(), 3);
        let joiner = ServerId(2);
        let on_joiner: Vec<_> = world
            .records()
            .iter()
            .filter(|r| r.server == Some(joiner))
            .collect();
        assert!(
            !on_joiner.is_empty(),
            "the cheapest machine must win post-admission decisions"
        );
        assert!(
            on_joiner.iter().all(|r| r.arrival >= t(5.0)),
            "no task decided before admission may land on the newcomer"
        );
        assert!(world.records().iter().all(|r| r.is_completed()));
    }

    /// Provision-equivalence end to end: under the exhaustive selector a
    /// sharded federation given a provision schedule produces records
    /// bit-identical to the single-agent engine given the same schedule —
    /// the incremental shard join must be invisible to the decisions.
    #[test]
    fn provisioned_campaign_sharded_matches_single_agent() {
        let (costs, servers) = six_setup();
        let tasks = six_tasks(30);
        let provisions = vec![Provision {
            at: t(3.0),
            spec: ServerSpec::new("joiner", 1000.0, 1024.0, 1024.0),
            column: vec![
                Some(PhaseCosts::new(0.4, 6.0, 0.4)),
                Some(PhaseCosts::new(0.2, 8.0, 0.2)),
            ],
        }];
        let base = ExperimentConfig::paper(HeuristicKind::Hmct, 13);
        let single = run_with_provisions(
            base,
            costs.clone(),
            servers.clone(),
            tasks.clone(),
            provisions.clone(),
        );
        assert_eq!(single.churn_stats().provisions, 1);
        assert!(
            single
                .records()
                .iter()
                .any(|r| r.server == Some(ServerId(6))),
            "the provisioned server must actually receive work"
        );
        for shards in [2, 3, 6] {
            let routed = run_with_provisions(
                base.with_shards(Sharding::Federated { shards }),
                costs.clone(),
                servers.clone(),
                tasks.clone(),
                provisions.clone(),
            );
            assert_eq!(
                single.records(),
                routed.records(),
                "provision diverged at {shards} shards"
            );
        }
    }

    /// A farm big enough for `--shards auto` to produce a real federation
    /// (1300 servers → 3 shards under the 640-servers-per-shard target).
    fn farm_setup(n: usize) -> (CostTable, Vec<ServerSpec>) {
        let mut costs = CostTable::new(n);
        costs.add_problem(
            Problem::new("p0", 1.0, 0.5, 0.0),
            (0..n)
                .map(|s| Some(PhaseCosts::new(0.5, 6.0 + (s % 37) as f64, 0.5)))
                .collect(),
        );
        costs.add_problem(
            Problem::new("p1", 1.0, 0.5, 0.0),
            (0..n)
                .map(|s| (s % 3 == 0).then(|| PhaseCosts::new(0.3, 15.0 + (s % 23) as f64, 0.3)))
                .collect(),
        );
        let servers = (0..n)
            .map(|s| {
                ServerSpec::new(
                    format!("s{s}"),
                    400.0 + (s % 100) as f64 * 10.0,
                    1024.0,
                    1024.0,
                )
            })
            .collect();
        (costs, servers)
    }

    /// The group-walk acceptance property end to end: on a farm where
    /// `auto` resolves to a real federation, campaigns run with the
    /// two-level tree active (`auto:1`, `auto:2`) are record-identical
    /// to the flat lazy walk (default fan-out puts all 3 shards in one
    /// group) — the tree may only prune group visits, never decisions.
    #[test]
    fn grouped_auto_campaigns_bitwise_match_flat_walk() {
        let (costs, servers) = farm_setup(1300);
        let tasks = six_tasks(40);
        for selector in [
            cas_core::SelectorKind::TopK { k: 2 },
            cas_core::SelectorKind::Adaptive { k_min: 1, k_max: 3 },
        ] {
            let base = ExperimentConfig::paper(HeuristicKind::Hmct, 31).with_selector(selector);
            let flat = run_experiment(
                base.with_shards(Sharding::AUTO),
                costs.clone(),
                servers.clone(),
                tasks.clone(),
            );
            for group_size in [1, 2] {
                let grouped = run_experiment(
                    base.with_shards(Sharding::Auto {
                        group_size: Some(group_size),
                    }),
                    costs.clone(),
                    servers.clone(),
                    tasks.clone(),
                );
                assert_eq!(
                    flat, grouped,
                    "{selector:?} diverged between flat walk and auto:{group_size}"
                );
            }
        }
    }

    /// The `auto:GROUPSIZE` override reaches the router: fan-out 1 on a
    /// 3-shard farm yields 3 singleton groups, the campaign's decisions
    /// drive the group-level walk (both counters live), and the per-level
    /// accounting invariant holds.
    #[test]
    fn auto_group_size_override_drives_group_walk() {
        let (costs, servers) = farm_setup(1300);
        let tasks = six_tasks(40);
        let cfg = ExperimentConfig::paper(HeuristicKind::Hmct, 31)
            .with_selector(cas_core::SelectorKind::TopK { k: 2 })
            .with_shards(Sharding::Auto {
                group_size: Some(1),
            });
        let world = GridWorld::new(cfg, costs, servers, tasks);
        assert_eq!(world.agent().tree().n_groups(), 3);
        let mut sim = cas_sim::Simulation::new(world);
        let _ = sim.run_to_completion();
        let world = sim.into_world();
        let stats = world.agent().skyline_stats();
        assert!(stats.decisions > 0);
        assert!(stats.group_visits > 0, "group walk never ran: {stats:?}");
        assert_eq!(
            stats.group_visits + stats.group_skips,
            stats.decisions * 3,
            "every decision must account for every group: {stats:?}"
        );
        assert!(world.records().iter().all(|r| r.is_completed()));
    }

    /// Runs a world with user classes attached and returns it.
    fn run_with_users(
        cfg: ExperimentConfig,
        costs: CostTable,
        servers: Vec<ServerSpec>,
        tasks: Vec<TaskInstance>,
        users: Vec<u32>,
    ) -> GridWorld {
        let world = GridWorld::new(cfg, costs, servers, tasks).with_users(users);
        let mut sim = cas_sim::Simulation::new(world);
        let outcome = sim.run_to_completion();
        assert_eq!(outcome, cas_sim::engine::RunOutcome::Exhausted);
        let world = sim.into_world();
        assert_eq!(world.remaining(), 0, "every task must end terminal");
        world
    }

    /// An uncontended admission gate (capacity ≥ campaign size) must be
    /// bitwise invisible: every submission admits instantly, so the
    /// event sequence — and therefore every record — matches the
    /// disabled gate across selectors and sharding modes.
    #[test]
    fn uncontended_admission_is_bitwise_invisible() {
        let (costs, servers) = six_setup();
        let tasks = six_tasks(24);
        for selector in [
            cas_core::SelectorKind::Exhaustive,
            cas_core::SelectorKind::TopK { k: 2 },
        ] {
            for shards in [Sharding::Single, Sharding::Federated { shards: 3 }] {
                let cfg = ExperimentConfig::paper(HeuristicKind::Hmct, 41)
                    .with_selector(selector)
                    .with_shards(shards);
                let off = run_experiment(cfg, costs.clone(), servers.clone(), tasks.clone());
                let on = run_experiment(
                    cfg.with_admission(10_000, 16, 60.0),
                    costs.clone(),
                    servers.clone(),
                    tasks.clone(),
                );
                assert_eq!(
                    off, on,
                    "{selector:?}/{shards:?} diverged under an idle gate"
                );
            }
        }
    }

    /// Crest overload against a tight gate: a burst far beyond capacity
    /// must shed — every shed carries `AdmissionDeadline` — while the
    /// terminal accounting stays exact and the counters balance
    /// (entries = exits, peaks bounded by the knobs).
    #[test]
    fn admission_crest_overload_sheds_and_accounts() {
        let (costs, servers) = mini_setup();
        let arrivals: Vec<f64> = (0..16).map(|i| i as f64 * 0.5).collect();
        let tasks = mini_tasks(&arrivals);
        let n = tasks.len();
        let cfg = ExperimentConfig::ideal(HeuristicKind::Hmct, 1).with_admission(1, 2, 5.0);
        let world = run_with_users(cfg, costs, servers, tasks, vec![0; n]);
        let adm = world.admission_stats();
        let (mut completed, mut shed) = (0usize, 0usize);
        for r in world.records() {
            match r.outcome {
                TaskOutcome::Completed { .. } => completed += 1,
                TaskOutcome::Dropped {
                    reason: DropReason::AdmissionDeadline,
                } => shed += 1,
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert_eq!(completed + shed, n);
        assert!(shed > 0, "a 0.5 s burst must overwhelm capacity 1");
        assert_eq!(shed as u64, adm.shed_deadline + adm.shed_overflow);
        assert!(adm.shed_deadline > 0, "5 s deadlines must expire");
        assert!(adm.shed_overflow > 0, "a 2-slot buffer must overflow");
        assert_eq!(adm.buffered, adm.dequeued + adm.shed_deadline);
        assert_eq!(adm.peak_admitted, 1);
        assert!(adm.peak_buffered <= 2);
        // The SLO surface is live: one class, a real drop rate, real
        // buffered time, and stretch percentiles from the completions.
        let slo =
            cas_metrics::per_class_slo(world.records(), world.users(), world.admission_waits());
        assert_eq!(slo.len(), 1);
        assert_eq!(slo[0].tasks, n);
        assert!(slo[0].drop_rate_pct > 0.0);
        assert!(slo[0].mean_buffered_s > 0.0);
        assert!(slo[0].p50_stretch.is_some() && slo[0].p99_stretch.is_some());
    }

    /// The fair dequeue is round-robin across user classes: a class
    /// that floods the buffer cannot starve a later, smaller class —
    /// the small class's tasks overtake the flood's tail.
    #[test]
    fn admission_fair_dequeue_serves_classes_round_robin() {
        let (costs, servers) = mini_setup();
        // Class 0 floods four tasks at t = 0; class 1 submits two just
        // after. Capacity 1 serialises everything through the buffer.
        let tasks = mini_tasks(&[0.0, 0.0, 0.0, 0.0, 0.01, 0.01]);
        let users = vec![0, 0, 0, 0, 1, 1];
        let cfg =
            ExperimentConfig::ideal(HeuristicKind::Hmct, 1).with_admission(1, 8, f64::INFINITY);
        let world = run_with_users(cfg, costs, servers, tasks, users);
        assert!(world.records().iter().all(|r| r.is_completed()));
        let finished = |i: usize| world.records()[i].finished().expect("completed");
        // Round-robin: class 1's last task beats class 0's last; a
        // global FIFO would drain the flood first.
        assert!(
            finished(5) < finished(3),
            "class 1 starved: {:?} vs {:?}",
            finished(5),
            finished(3)
        );
        let adm = world.admission_stats();
        assert_eq!(adm.buffered, adm.dequeued);
        assert_eq!(adm.shed_deadline + adm.shed_overflow, 0);
    }

    /// The gate sits above the shard router, so backpressure must not
    /// perturb the federation equivalence: same records, sharded or
    /// not, under a contended gate.
    #[test]
    fn admission_sharded_matches_single() {
        let (costs, servers) = six_setup();
        let tasks = six_tasks(30);
        let base = ExperimentConfig::paper(HeuristicKind::Hmct, 9).with_admission(2, 4, 8.0);
        let single = run_experiment(base, costs.clone(), servers.clone(), tasks.clone());
        assert!(
            single.iter().any(|r| matches!(
                r.outcome,
                TaskOutcome::Dropped {
                    reason: DropReason::AdmissionDeadline
                }
            )),
            "the gate must actually bind for this to test anything"
        );
        for shards in [2, 3, 6] {
            let routed = run_experiment(
                base.with_shards(Sharding::Federated { shards }),
                costs.clone(),
                servers.clone(),
                tasks.clone(),
            );
            assert_eq!(single, routed, "diverged at {shards} shards under the gate");
        }
    }

    /// Churn × backpressure: crash-retracted tasks re-enter through the
    /// bounded buffer — each retraction counted exactly once in
    /// `ChurnStats::redispatches` (the dequeue adds nothing) — and the
    /// terminal accounting of a saturated gate under a harsh fault
    /// schedule stays exact, with churn drops and admission sheds
    /// partitioning the dropped records by reason.
    #[test]
    fn churn_with_backpressure_accounts_and_reenters_once() {
        let (costs, servers) = six_setup();
        let tasks = six_tasks(40);
        let n_tasks = tasks.len() as u64;
        let cfg = ExperimentConfig::paper(HeuristicKind::Hmct, 23)
            .with_shards(Sharding::Federated { shards: 3 })
            .with_churn(40.0, 20.0)
            .with_churn_seed(7)
            .with_admission(3, 4, 30.0);
        let world = run_with_users(cfg, costs, servers, tasks, vec![0; 40]);
        let stats = world.churn_stats();
        let adm = world.admission_stats();
        assert!(stats.crashes > 0, "schedule must crash servers: {stats:?}");
        assert!(
            stats.retractions > 0,
            "crashes must retract work: {stats:?}"
        );
        assert!(adm.buffered > 0, "the gate must saturate: {adm:?}");
        let (mut completed, mut churn_drops, mut admission_sheds, mut budget_drops, mut failed) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        for r in world.records() {
            match r.outcome {
                TaskOutcome::Completed { .. } => completed += 1,
                TaskOutcome::Dropped {
                    reason: DropReason::AdmissionDeadline,
                } => admission_sheds += 1,
                TaskOutcome::Dropped {
                    reason: DropReason::RedispatchBudget,
                } => {
                    churn_drops += 1;
                    budget_drops += 1;
                }
                TaskOutcome::Dropped { .. } => churn_drops += 1,
                TaskOutcome::Failed => failed += 1,
                TaskOutcome::InFlight => panic!("task {:?} left in flight", r.task),
            }
        }
        assert_eq!(completed + churn_drops + admission_sheds + failed, n_tasks);
        assert_eq!(churn_drops, stats.drops, "churn drops carry churn reasons");
        assert_eq!(admission_sheds, adm.shed_deadline + adm.shed_overflow);
        // Every retraction re-entered the buffer exactly once or spent
        // its budget — nothing double-counted, nothing lost.
        assert_eq!(
            adm.reentries + budget_drops,
            stats.retractions,
            "retraction↔re-entry bijection broke: {stats:?} {adm:?}"
        );
        assert!(
            stats.redispatches >= adm.reentries,
            "each re-entry was counted once as a redispatch"
        );
        assert_eq!(adm.buffered, adm.dequeued + adm.shed_deadline);
    }
}

/// The lazy-housekeeping equivalence suite: whole campaigns with lazy
/// reports and redraws against the eager spec (every server reporting
/// and redrawing on its own kernel events), record for record.
#[cfg(test)]
mod lazy_housekeeping {
    use super::*;
    use crate::config::Sharding;
    use cas_core::heuristics::HeuristicKind;
    use cas_core::SelectorKind;
    use cas_platform::{MemoryModel, Problem, ProblemId};
    use cas_sim::engine::RunOutcome;
    use proptest::prelude::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// What a finished campaign leaves behind.
    #[derive(Debug)]
    struct Outcome {
        records: Vec<TaskRecord>,
        churn: ChurnStats,
        admission: AdmissionStats,
        waits: Vec<f64>,
        processed: u64,
        report_events: u64,
        ties: [u64; 2],
    }

    /// Runs `world` to completion, with graceful leaves `(at, server)`
    /// scheduled from outside.
    fn run(world: GridWorld, leaves: &[(f64, u32)]) -> Outcome {
        let mut sim = Simulation::new(world);
        for &(at, server) in leaves {
            sim.schedule(
                t(at),
                GridEvent::ServerLeave {
                    server: ServerId(server),
                },
            );
        }
        assert_eq!(sim.run_to_completion(), RunOutcome::Exhausted);
        let processed = sim.processed();
        let world = sim.into_world();
        assert_eq!(world.remaining(), 0, "every task must end terminal");
        let simulated = world.agent().simulated_completions();
        let mut records = world.records().to_vec();
        for rec in &mut records {
            rec.predicted_completion = simulated.get(&rec.task).copied();
        }
        Outcome {
            records,
            churn: world.churn_stats(),
            admission: world.admission_stats(),
            waits: world.admission_waits().to_vec(),
            processed,
            report_events: world.report_events(),
            ties: world.loads.ties(),
        }
    }

    /// Runs the campaign `build` describes lazily and eagerly and
    /// asserts the two are the same campaign.
    fn assert_lazy_matches_eager(
        build: impl Fn() -> GridWorld,
        leaves: &[(f64, u32)],
    ) -> (Outcome, Outcome) {
        let lazy = run(build(), leaves);
        let eager = run(build().with_eager_housekeeping(), leaves);
        assert_eq!(lazy.records, eager.records, "records diverged");
        assert_eq!(lazy.churn, eager.churn, "churn counters diverged");
        assert_eq!(lazy.admission, eager.admission, "admission diverged");
        assert_eq!(lazy.waits, eager.waits, "admission waits diverged");
        (lazy, eager)
    }

    /// A small random farm: `n` servers, two problems (server 0 solves
    /// both, the rest of problem 1 is patchy), costs on an integer grid
    /// (so completions and arrivals land on report instants) or
    /// continuous.
    fn farm(
        rng: &mut RngStream,
        n: usize,
        grid: bool,
        mem_mb: f64,
    ) -> (CostTable, Vec<ServerSpec>) {
        let mut draw = |lo: u64, hi: u64| {
            if grid {
                (lo + rng.below(hi - lo)) as f64
            } else {
                rng.uniform(lo as f64, hi as f64)
            }
        };
        let mut costs = CostTable::new(n);
        for p in 0..2 {
            let column = (0..n)
                .map(|s| {
                    let solvable = p == 0 || s == 0 || draw(0, 3) >= 1.0;
                    let c = PhaseCosts::new(draw(0, 3), draw(4, 45), draw(0, 3));
                    solvable.then_some(c)
                })
                .collect();
            costs.add_problem(Problem::new(format!("p{p}"), 1.0, 0.5, mem_mb), column);
        }
        let servers = (0..n)
            .map(|s| ServerSpec::new(format!("s{s}"), 500.0, 600.0, 200.0 + draw(0, 400)))
            .collect();
        (costs, servers)
    }

    fn tasks(rng: &mut RngStream, n: usize, grid: bool) -> Vec<TaskInstance> {
        let mut at = 0.0;
        (0..n)
            .map(|i| {
                at += if grid {
                    rng.below(16) as f64
                } else {
                    rng.uniform(0.0, 12.0)
                };
                let problem = ProblemId(rng.below(2) as u32);
                TaskInstance::new(TaskId(i as u64), problem, t(at))
            })
            .collect()
    }

    const HEURISTICS: [HeuristicKind; 4] = [
        HeuristicKind::Mct,
        HeuristicKind::MinLoad,
        HeuristicKind::Hmct,
        HeuristicKind::Msf,
    ];

    proptest! {
        /// Lazy ≡ eager over the whole configuration space the
        /// housekeeping interacts with: noise, memory, the shared client
        /// link, crash/join churn and graceful leaves, mid-campaign
        /// provisions, admission backpressure, report readers (MCT,
        /// MinLoad) and non-readers (HMCT, MSF), exhaustive and adaptive
        /// selection, the single agent and a federation (with per-server
        /// or aggregated shard reports), report periods that do and do
        /// not divide the grid.
        #[test]
        fn lazy_housekeeping_matches_eager_campaigns(
            seed in 0u64..1_000_000,
            shape in (2usize..8, 8usize..40, 0usize..4, 0usize..3),
            switches in (proptest::bool::ANY, proptest::bool::ANY, proptest::bool::ANY, proptest::bool::ANY),
            lifecycle in (proptest::bool::ANY, 0usize..3, proptest::bool::ANY, proptest::bool::ANY),
            adaptive in proptest::bool::ANY,
            federation in 0usize..3,
        ) {
            let (n, n_tasks, pick, period_pick) = shape;
            let (grid, noise, memory, shared) = switches;
            let (churn, provisions, admission, leave) = lifecycle;
            let mut rng = RngStream::from_seed_key(seed, 0x1a2e);
            let (costs, servers) = farm(&mut rng, n, grid, if memory { 150.0 } else { 0.0 });
            let tasks = tasks(&mut rng, n_tasks, grid);
            let kind = HEURISTICS[pick];
            let mut cfg = if noise {
                ExperimentConfig::paper(kind, seed)
            } else {
                ExperimentConfig::ideal(kind, seed)
            };
            cfg.load_report_period = [5.0, 30.0, 7.5][period_pick];
            cfg.noise_redraw_period = if period_pick == 2 { 3.0 } else { 20.0 };
            cfg.memory = if memory { MemoryModel::thrashing(2.0, 6) } else { MemoryModel::disabled() };
            cfg.fault_tolerance = FaultTolerance::RankedRetry { max_attempts: 3 };
            cfg.shared_client_link = shared;
            if adaptive {
                cfg = cfg.with_selector(SelectorKind::Adaptive { k_min: 1, k_max: 3 });
            }
            if federation > 0 {
                cfg = cfg
                    .with_shards(Sharding::Federated { shards: 2 })
                    .with_aggregated_reports(federation == 2);
            }
            if churn {
                cfg = cfg.with_churn(40.0 + rng.below(120) as f64, 5.0 + rng.below(30) as f64)
                    .with_churn_seed(seed ^ 0x5eed);
            }
            if admission {
                cfg = cfg.with_admission(1 + rng.below(4) as usize, 4, 25.0);
            }
            let joins: Vec<Provision> = (0..provisions)
                .map(|_| Provision {
                    at: t(rng.below(120) as f64),
                    spec: ServerSpec::new("joiner", 700.0, 600.0, 400.0),
                    column: vec![
                        Some(PhaseCosts::new(1.0, 6.0 + rng.below(20) as f64, 1.0)),
                        Some(PhaseCosts::new(0.0, 9.0 + rng.below(20) as f64, 2.0)),
                    ],
                })
                .collect();
            // A federation re-partitions on a leave, which needs the op
            // history only churning runs record.
            let leaves: Vec<(f64, u32)> = if leave && (churn || federation == 0) {
                vec![(rng.below(90) as f64, 1 + rng.below(n as u64 - 1) as u32)]
            } else {
                Vec::new()
            };
            let users: Vec<u32> = (0..n_tasks as u32).map(|i| i % 3).collect();
            let build = || {
                GridWorld::new(cfg, costs.clone(), servers.clone(), tasks.clone())
                    .with_users(users.clone())
                    .with_provisions(joins.clone())
            };
            let (lazy, eager) = assert_lazy_matches_eager(build, &leaves);
            if federation < 2 {
                prop_assert_eq!(lazy.report_events, 0);
            }
            prop_assert!(lazy.processed <= eager.processed);
        }
    }

    /// Report instants tied with the touching event, resolved both ways:
    /// 32 ideal servers report every 30 s at 30·(i+1)/32 + 30k — exact
    /// binary fractions, so servers 15 and 31 report on integer
    /// seconds — while integer arrivals and integer phase costs land
    /// decisions, assignments and completions on those same seconds,
    /// and MCT reads every candidate's report at every decision.
    #[test]
    fn lazy_housekeeping_resolves_exact_report_ties() {
        let n = 32;
        let mut costs = CostTable::new(n);
        for p in 0..2u32 {
            costs.add_problem(
                Problem::new(format!("p{p}"), 1.0, 0.5, 0.0),
                (0..n)
                    .map(|s| {
                        // Servers 15 and 31 are the fast ones, so most work
                        // (and most report touches) lands on them.
                        // 45 s computations span a whole report period,
                        // so completions land on instants pushed before
                        // the previous report. Problem 1 chains two
                        // steps: a 45 s input from a slot boundary ends
                        // on an instant, and the 30 s computation it
                        // starts ends on the next one — pushed exactly
                        // one period ahead, so only the parents' push
                        // order breaks the tie.
                        let compute = if s % 16 == 15 {
                            45 - 15 * p
                        } else {
                            50 + (s % 7) as u32
                        };
                        Some(PhaseCosts::new(
                            f64::from(p * 45),
                            f64::from(compute),
                            f64::from(p),
                        ))
                    })
                    .collect(),
            );
        }
        let servers: Vec<ServerSpec> = (0..n)
            .map(|s| ServerSpec::new(format!("s{s}"), 1000.0, 1024.0, 1024.0))
            .collect();
        let mut rng = RngStream::from_seed_key(12, 0x71e5);
        // About one arrival per 30 s, mostly on the 15 s grid servers 15
        // and 31 report on, sometimes off it.
        let mut arrivals: Vec<u64> = (0..160u64)
            .map(|i| {
                let jitter = if rng.below(4) == 0 { rng.below(15) } else { 0 };
                30 * i + 15 * rng.below(2) + jitter
            })
            .collect();
        arrivals.sort_unstable();
        let tasks: Vec<TaskInstance> = arrivals
            .iter()
            .enumerate()
            .map(|(i, &at)| {
                let problem = ProblemId(rng.below(2) as u32);
                TaskInstance::new(TaskId(i as u64), problem, t(at as f64))
            })
            .collect();
        let mut cfg = ExperimentConfig::ideal(HeuristicKind::Mct, 12);
        cfg.load_report_period = 30.0;
        cfg.load_tau = 60.0;
        let build = || GridWorld::new(cfg, costs.clone(), servers.clone(), tasks.clone());
        let (lazy, eager) = assert_lazy_matches_eager(build, &[]);
        let [report_first, event_first] = lazy.ties;
        assert!(
            report_first > 0 && event_first > 0,
            "the campaign must tie reports with events both ways: {:?}",
            lazy.ties
        );
        assert_eq!(lazy.report_events, 0);
        assert!(eager.report_events > 0);
    }

    /// The O(tasks) gate: on the paper configuration (HMCT, 3 % noise
    /// redrawn every 20 s, 30 s reports), kernel events per task stay
    /// under a constant whatever the farm size and the arrival gap —
    /// eagerly they grow as servers × horizon (~1 700 per task at 1k
    /// servers and a 20 s gap).
    #[test]
    fn lazy_housekeeping_events_per_task_bounded() {
        const MAX_EVENTS_PER_TASK: f64 = 16.0;
        let n_tasks = 1000;
        for n_servers in [100, 1000] {
            let platform = cas_workload::synthetic::SyntheticPlatform {
                n_servers,
                heterogeneity: 4.0,
                n_problems: 3,
                ..cas_workload::synthetic::SyntheticPlatform::default()
            };
            let (costs, servers) = (platform.cost_table(7), platform.servers(7));
            for gap in [20.0, 200.0] {
                let tasks = cas_workload::MetataskSpec {
                    n_tasks,
                    ..cas_workload::MetataskSpec::paper(gap)
                }
                .generate(1);
                let cfg = ExperimentConfig::paper(HeuristicKind::Hmct, 1);
                let world = GridWorld::new(cfg, costs.clone(), servers.clone(), tasks);
                let outcome = run(world, &[]);
                let per_task = outcome.processed as f64 / n_tasks as f64;
                assert!(
                    per_task <= MAX_EVENTS_PER_TASK,
                    "{n_servers} servers, gap {gap} s: {per_task:.1} events per task"
                );
            }
        }
    }
}
