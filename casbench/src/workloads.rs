//! The four named workloads, built from a seed through the library's
//! public API, and the two ways of running a built campaign: plain
//! (production queue) and traced (the [`TracedQueue`] wrapper with every
//! step timed).

use crate::tracer::{kind_of, StepLedger, TracedQueue};
use cas_core::heuristics::HeuristicKind;
use cas_core::{MemoStats, SelectorKind};
use cas_metrics::TaskRecord;
use cas_middleware::{
    run_heuristic_matrix, AdmissionStats, ChurnStats, ExperimentConfig, GridWorld,
};
use cas_platform::{CostTable, ProblemId, ServerId, ServerSpec, TaskInstance};
use cas_sim::{EventQueue, Simulation};
use cas_workload::metatask::MetataskSpec;
use cas_workload::synthetic::{BurstArrivals, SyntheticPlatform};
use cas_workload::trace::{AppProfile, CsvTrace, FittedTraceSpec, Trace, TraceWorkload};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Tables 6 and 8 as one heuristic × replication matrix.
    PaperMatrix,
    /// 1k servers under bursty arrivals whose crests pass capacity.
    DenseBurst,
    /// 1k servers at the CLI's default 20 s gap: housekeeping-bound.
    SparsePaper,
    /// A fitted three-class trace through CSV ingest, admission and churn.
    TraceChurn,
}

/// Replications per paper table.
const MATRIX_REPS: usize = 150;
/// Paper-matrix arrival gap, seconds (the paper's high rate).
const MATRIX_GAP_S: f64 = 15.0;
/// Servers in the synthetic farm of `dense_burst` and `sparse_paper`.
const FARM_SERVERS: usize = 1000;
/// Seed of the synthetic and trace farms. A farm is part of a workload's
/// definition, like the paper's testbeds: the run seed drives arrivals,
/// durations, noise and churn, not the hardware.
const FARM_SEED: u64 = 0x5CA1E;
/// Tasks in `dense_burst`.
const DENSE_TASKS: usize = 60_000;
/// Mean utilisation of `dense_burst`'s arrival process.
const DENSE_UTILISATION: f64 = 0.85;
/// Crest-to-trough ratio of `dense_burst`'s arrival process.
const DENSE_BURSTINESS: f64 = 4.0;
/// Burst period of `dense_burst`, seconds.
const DENSE_PERIOD_S: f64 = 1800.0;
/// Tasks in `sparse_paper`.
const SPARSE_TASKS: usize = 4_000;
/// Mean inter-arrival gap of `sparse_paper`, seconds (the CLI default).
const SPARSE_GAP_S: f64 = 20.0;
/// Task-count multiplier over scale_smoke's trace-gate class mix.
const TRACE_SCALE: usize = 80;
/// Servers in `trace_churn`'s compiled farm.
const TRACE_SERVERS: usize = 32;
/// `trace_churn` admission gate: capacity, buffer, deadline (s).
const TRACE_ADMISSION: (usize, usize, f64) = (32, 128, 60.0);
/// `trace_churn` churn: mean time between failures and to repair (s).
const TRACE_CHURN: (f64, f64) = (2000.0, 120.0);

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperMatrix,
        Workload::DenseBurst,
        Workload::SparsePaper,
        Workload::TraceChurn,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMatrix => "paper_matrix",
            Workload::DenseBurst => "dense_burst",
            Workload::SparsePaper => "sparse_paper",
            Workload::TraceChurn => "trace_churn",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's fixed parameters, for the provenance line.
    pub fn params(self) -> Vec<(&'static str, String)> {
        let s = |v: &dyn std::fmt::Display| v.to_string();
        match self {
            Workload::PaperMatrix => vec![
                ("tables", s(&"table6:matmul/set1,table8:wastecpu/set2")),
                ("heuristics", s(&"MCT,HMCT,MP,MSF")),
                ("replications_per_table", s(&MATRIX_REPS)),
                (
                    "tasks_per_metatask",
                    s(&MetataskSpec::paper(MATRIX_GAP_S).n_tasks),
                ),
                ("mean_gap_s", s(&MATRIX_GAP_S)),
                ("config", s(&"paper")),
                ("selector", s(&"exhaustive")),
            ],
            Workload::DenseBurst => vec![
                ("servers", s(&FARM_SERVERS)),
                ("tasks", s(&DENSE_TASKS)),
                ("utilisation", s(&DENSE_UTILISATION)),
                ("burstiness", s(&DENSE_BURSTINESS)),
                ("period_s", s(&DENSE_PERIOD_S)),
                ("heuristic", s(&"HMCT")),
                ("selector", s(&"adaptive:8:64")),
                ("config", s(&"ideal, load_report_period 30")),
            ],
            Workload::SparsePaper => vec![
                ("servers", s(&FARM_SERVERS)),
                ("tasks", s(&SPARSE_TASKS)),
                ("mean_gap_s", s(&SPARSE_GAP_S)),
                ("heuristic", s(&"HMCT")),
                ("selector", s(&"adaptive:8:64")),
                ("config", s(&"paper")),
            ],
            Workload::TraceChurn => vec![
                (
                    "tasks",
                    s(&trace_spec().apps.iter().map(|a| a.n_tasks).sum::<usize>()),
                ),
                ("class_scale", s(&TRACE_SCALE)),
                ("servers", s(&TRACE_SERVERS)),
                ("heuristic", s(&"MSF")),
                ("selector", s(&"exhaustive")),
                ("config", s(&"paper")),
                (
                    "admission",
                    format!(
                        "{}:{}:{}",
                        TRACE_ADMISSION.0, TRACE_ADMISSION.1, TRACE_ADMISSION.2
                    ),
                ),
                (
                    "churn_mtbf_mttr_s",
                    format!("{}:{}", TRACE_CHURN.0, TRACE_CHURN.1),
                ),
            ],
        }
    }
}

/// Where set-up time went.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    /// Farm, cost table and arrival generation (for `trace_churn`: the
    /// fitted trace and its CSV rendering).
    pub generate: Duration,
    /// `CsvTrace::parse`.
    pub csv_parse: Duration,
    /// `TraceWorkload::compile`.
    pub compile: Duration,
    /// `GridWorld::new` (and `with_users`).
    pub build: Duration,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total(&self) -> Duration {
        self.generate + self.csv_parse + self.compile + self.build
    }
}

/// One paper table: a farm, a base configuration and the replications'
/// metatasks.
pub struct MatrixTable {
    /// Base configuration (heuristic and seed are overridden per run).
    pub cfg: ExperimentConfig,
    /// The table's cost table.
    pub costs: CostTable,
    /// The table's testbed.
    pub servers: Vec<ServerSpec>,
    /// One metatask per replication.
    pub workloads: Vec<Vec<TaskInstance>>,
}

/// A built workload, ready to run.
pub enum Built {
    /// Replication matrices, run through `run_heuristic_matrix`.
    Matrix(Vec<MatrixTable>),
    /// One campaign on a built world.
    Campaign(Box<GridWorld>),
}

/// The heuristics of the paper's tables, in column order.
pub const PAPER_HEURISTICS: [HeuristicKind; 4] = [
    HeuristicKind::Mct,
    HeuristicKind::Hmct,
    HeuristicKind::Mp,
    HeuristicKind::Msf,
];

fn adaptive() -> SelectorKind {
    SelectorKind::parse("adaptive:8:64").expect("a valid selector spec")
}

fn synthetic_farm() -> (CostTable, Vec<ServerSpec>) {
    let platform = SyntheticPlatform {
        n_servers: FARM_SERVERS,
        heterogeneity: 4.0,
        n_problems: 3,
        ..SyntheticPlatform::default()
    };
    (platform.cost_table(FARM_SEED), platform.servers(FARM_SEED))
}

/// Aggregate service rate of a farm: one task at a time per server at
/// its mean unloaded duration over the problems.
fn service_rate(costs: &CostTable) -> f64 {
    (0..costs.n_servers())
        .map(|s| {
            let mean: f64 = (0..costs.n_problems())
                .map(|p| {
                    costs
                        .costs(ProblemId(p as u32), ServerId(s as u32))
                        .expect("synthetic tables are fully solvable")
                        .total()
                })
                .sum::<f64>()
                / costs.n_problems() as f64;
            1.0 / mean
        })
        .sum()
}

/// scale_smoke's trace-gate class mix (steady background, a crest class
/// faster than the gate drains, sparse long jobs), `TRACE_SCALE`× the
/// tasks at the same rates.
fn trace_spec() -> FittedTraceSpec {
    let app = |user, n_tasks, mean_gap_s, mean_duration_s| AppProfile {
        user,
        n_tasks: n_tasks * TRACE_SCALE,
        mean_gap_s,
        mean_duration_s,
    };
    FittedTraceSpec {
        apps: vec![
            app(0, 300, 8.0, 10.0),
            app(1, 600, 0.8, 10.0),
            app(2, 50, 50.0, 30.0),
        ],
    }
}

/// Renders a trace as `arrival_s,user,duration_s` CSV text. Rust's float
/// formatting round-trips, so parsing the text back is exact.
pub fn render_csv(trace: &mut dyn Trace) -> String {
    let mut text = String::from("arrival_s,user,duration_s\n");
    while let Some(e) = trace.next_entry() {
        writeln!(text, "{},{},{}", e.arrival_s, e.user, e.duration_s)
            .expect("writing to a String cannot fail");
    }
    text
}

/// Builds `workload` from `seed`, timing each set-up stage.
pub fn build(workload: Workload, seed: u64) -> (Built, SetupTimes) {
    let mut times = SetupTimes::default();
    let t0 = Instant::now();
    let built = match workload {
        Workload::PaperMatrix => {
            let spec = MetataskSpec::paper(MATRIX_GAP_S);
            let workloads: Vec<Vec<TaskInstance>> = (0..MATRIX_REPS)
                .map(|i| spec.generate(seed.wrapping_add(i as u64)))
                .collect();
            let cfg = ExperimentConfig::paper(HeuristicKind::Mct, seed);
            let tables = vec![
                MatrixTable {
                    cfg,
                    costs: cas_workload::matmul::cost_table(),
                    servers: cas_workload::testbed::set1_servers(),
                    workloads: workloads.clone(),
                },
                MatrixTable {
                    cfg,
                    costs: cas_workload::wastecpu::cost_table(),
                    servers: cas_workload::testbed::set2_servers(),
                    workloads,
                },
            ];
            times.generate = t0.elapsed();
            Built::Matrix(tables)
        }
        Workload::DenseBurst => {
            let (costs, servers) = synthetic_farm();
            let mean_rate = DENSE_UTILISATION * service_rate(&costs);
            let base_rate = 2.0 * mean_rate / (1.0 + DENSE_BURSTINESS);
            let tasks = BurstArrivals {
                n_tasks: DENSE_TASKS,
                base_rate,
                peak_rate: DENSE_BURSTINESS * base_rate,
                period: DENSE_PERIOD_S,
                n_problems: costs.n_problems(),
            }
            .generate(seed);
            let mut cfg =
                ExperimentConfig::ideal(HeuristicKind::Hmct, seed).with_selector(adaptive());
            cfg.load_report_period = 30.0;
            times.generate = t0.elapsed();
            let t1 = Instant::now();
            let world = GridWorld::new(cfg, costs, servers, tasks);
            times.build = t1.elapsed();
            Built::Campaign(Box::new(world))
        }
        Workload::SparsePaper => {
            let (costs, servers) = synthetic_farm();
            let tasks = MetataskSpec {
                n_tasks: SPARSE_TASKS,
                ..MetataskSpec::paper(SPARSE_GAP_S)
            }
            .generate(seed);
            let cfg = ExperimentConfig::paper(HeuristicKind::Hmct, seed).with_selector(adaptive());
            times.generate = t0.elapsed();
            let t1 = Instant::now();
            let world = GridWorld::new(cfg, costs, servers, tasks);
            times.build = t1.elapsed();
            Built::Campaign(Box::new(world))
        }
        Workload::TraceChurn => {
            let text = render_csv(&mut trace_spec().generate(seed));
            times.generate = t0.elapsed();
            let t1 = Instant::now();
            let mut csv = CsvTrace::parse(&text).expect("rendered trace parses");
            times.csv_parse = t1.elapsed();
            let t2 = Instant::now();
            let compiled = TraceWorkload {
                n_servers: TRACE_SERVERS,
                ..TraceWorkload::default()
            }
            .compile(&mut csv, FARM_SEED)
            .expect("rendered trace is non-empty");
            times.compile = t2.elapsed();
            let (cap, buf, deadline) = TRACE_ADMISSION;
            let cfg = ExperimentConfig::paper(HeuristicKind::Msf, seed)
                .with_admission(cap, buf, deadline)
                .with_churn(TRACE_CHURN.0, TRACE_CHURN.1)
                .with_churn_seed(seed);
            let t3 = Instant::now();
            let world = GridWorld::new(cfg, compiled.costs, compiled.servers, compiled.tasks)
                .with_users(compiled.users);
            times.build = t3.elapsed();
            Built::Campaign(Box::new(world))
        }
    };
    (built, times)
}

/// Everything one simulated campaign (one replication) left behind.
pub struct RunRecord {
    /// Per-task records, `predicted_completion` back-filled.
    pub records: Vec<TaskRecord>,
    /// Per-task user classes.
    pub users: Vec<u32>,
    /// Per-task seconds buffered behind the admission gate (empty when
    /// the gate is off).
    pub waits: Vec<f64>,
    /// Admission gate counters.
    pub admission: AdmissionStats,
    /// Farm-lifecycle counters.
    pub churn: ChurnStats,
    /// Stage-2 drain-engine counters.
    pub stage2: MemoStats,
    /// Kernel events handled.
    pub events: u64,
    /// Kernel pending-event high-water mark.
    pub peak_pending: usize,
}

impl RunRecord {
    /// A run known only by its records (a `run_heuristic_matrix` cell):
    /// one user class, no admission gate, no engine counters.
    pub fn from_records(records: Vec<TaskRecord>) -> RunRecord {
        RunRecord {
            users: vec![0; records.len()],
            records,
            waits: Vec::new(),
            admission: AdmissionStats::default(),
            churn: ChurnStats::default(),
            stage2: MemoStats::default(),
            events: 0,
            peak_pending: 0,
        }
    }
}

/// Drains a finished simulation into a [`RunRecord`], back-filling each
/// record's final HTM-simulated completion date (what the library's
/// private `run_world` does after `run_to_completion`).
fn finish<Q: EventQueue<cas_middleware::GridEvent>>(sim: Simulation<GridWorld, Q>) -> RunRecord {
    let events = sim.processed();
    let peak_pending = sim.peak_pending();
    let world = sim.into_world();
    let simulated = world.agent().simulated_completions();
    let users = world.users().to_vec();
    let waits = world.admission_waits().to_vec();
    let admission = world.admission_stats();
    let churn = world.churn_stats();
    let stage2 = world.agent().stage2_stats();
    let mut records = world.into_records();
    for rec in &mut records {
        rec.predicted_completion = simulated.get(&rec.task).copied();
    }
    RunRecord {
        records,
        users,
        waits,
        admission,
        churn,
        stage2,
        events,
        peak_pending,
    }
}

/// Runs one built world on the production queue.
pub fn run_world(world: GridWorld) -> RunRecord {
    let mut sim = Simulation::new(world);
    sim.run_to_completion();
    finish(sim)
}

/// Kernel-queue figures of a traced campaign.
#[derive(Debug, Default, Clone, Copy)]
pub struct QueueStats {
    /// Pushes.
    pub pushes: u64,
    /// Time in pushes.
    pub push_time: Duration,
    /// Time in pops.
    pub pop_time: Duration,
    /// Adaptive-queue backend migrations.
    pub migrations: u64,
}

/// Runs one built world on the traced queue, timing every step and
/// charging it to the popped event's kind in `ledger`.
pub fn run_world_traced(world: GridWorld, ledger: &mut StepLedger) -> (RunRecord, QueueStats) {
    let mut sim = Simulation::with_queue(world, TracedQueue::new(kind_of));
    loop {
        let t0 = Instant::now();
        let more = sim.step();
        let dt = t0.elapsed();
        ledger.charge(dt, sim.queue().take_step());
        if !more {
            break;
        }
    }
    let q = sim.queue();
    let stats = QueueStats {
        pushes: q.pushes(),
        push_time: q.push_time(),
        pop_time: q.pop_time(),
        migrations: q.migrations(),
    };
    (finish(sim), stats)
}

/// Runs every table of a matrix through `run_heuristic_matrix` on the
/// process pool; records come back table by table, heuristic by
/// heuristic, replication by replication.
pub fn run_matrix(tables: &[MatrixTable]) -> Vec<Vec<TaskRecord>> {
    let mut runs = Vec::new();
    for t in tables {
        for result in
            run_heuristic_matrix(t.cfg, &PAPER_HEURISTICS, &t.costs, &t.servers, &t.workloads)
        {
            runs.extend(result.runs);
        }
    }
    runs
}

/// The world of one matrix cell, built exactly as `run_heuristic_matrix`
/// builds it (heuristic with its paper fault tolerance, seed + i).
pub fn matrix_cell(table: &MatrixTable, kind: HeuristicKind, rep: usize) -> GridWorld {
    let cfg = table.cfg.with_heuristic(kind);
    let cfg = cfg.with_seed(cfg.seed.wrapping_add(rep as u64));
    GridWorld::new(
        cfg,
        table.costs.clone(),
        table.servers.clone(),
        table.workloads[rep].clone(),
    )
}

/// Number of tasks a built workload submits (every cell, for a matrix).
pub fn task_count(built: &Built) -> usize {
    match built {
        Built::Matrix(tables) => tables
            .iter()
            .map(|t| PAPER_HEURISTICS.len() * t.workloads.iter().map(Vec::len).sum::<usize>())
            .sum(),
        Built::Campaign(world) => world.records().len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(built: &Built) -> Vec<String> {
        match built {
            Built::Matrix(tables) => tables
                .iter()
                .flat_map(|t| {
                    let head = format!("{:?} {}", t.cfg.seed, t.servers.len());
                    std::iter::once(head).chain(t.workloads.iter().map(|w| format!("{w:?}")))
                })
                .collect(),
            Built::Campaign(world) => vec![
                format!("{:?}", world.records()),
                format!("{:?}", world.users()),
                format!("{}", world.live_servers()),
            ],
        }
    }

    /// Every workload is a pure function of its seed, and the seed
    /// matters.
    #[test]
    fn workloads_are_deterministic_in_seed() {
        for w in Workload::ALL {
            let a = fingerprint(&build(w, 11).0);
            let b = fingerprint(&build(w, 11).0);
            let c = fingerprint(&build(w, 12).0);
            assert_eq!(a, b, "{} not deterministic", w.name());
            assert_ne!(a, c, "{} ignores its seed", w.name());
        }
    }

    /// The CSV rendering of a fitted trace parses back to the same rows.
    #[test]
    fn csv_round_trip_is_exact() {
        let mut fitted = trace_spec().generate(5);
        let mut again = trace_spec().generate(5);
        let mut parsed = CsvTrace::parse(&render_csv(&mut fitted)).expect("parses");
        let mut n = 0;
        while let Some(e) = again.next_entry() {
            assert_eq!(parsed.next_entry(), Some(e));
            n += 1;
        }
        assert_eq!(parsed.next_entry(), None);
        assert_eq!(
            n,
            trace_spec().apps.iter().map(|a| a.n_tasks).sum::<usize>()
        );
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
