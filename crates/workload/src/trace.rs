//! Trace-driven production workloads (ROADMAP open item 2).
//!
//! Every other workload in this crate is synthetic; this module replays
//! *request traces* — per-user arrival streams with measured service
//! demands — through the unchanged decision pipeline. The shape follows
//! dslab-faas's trace layer: an object-safe [`Trace`] trait yielding
//! `(arrival, demand, user/app id)` tuples, with two sources:
//!
//! * [`CsvTrace`] — an ingester for Azure-functions-style CSV files
//!   (`arrival_s,user,duration_s` rows), with typed [`TraceError`]s so
//!   malformed or empty files fail loudly instead of poisoning a campaign;
//! * [`FittedTraceSpec`] — a generator that draws per-app inter-arrival
//!   and duration distributions deterministically from a seed (dedicated
//!   RNG stream pair per app), for trace-shaped load at any scale.
//!
//! [`TraceWorkload::compile`] turns any trace into the engine's native
//! inputs — a demand-ladder cost table over a synthetic-style farm, the
//! arrival-sorted [`TaskInstance`] list, and the per-task user classes the
//! SLO layer reports on. When the trace holds at most
//! [`TraceWorkload::max_problems`] distinct durations the ladder is
//! *exact*: a CSV written from a [`MetataskSpec`](crate::MetataskSpec)
//! run compiles back to bit-identical task instances, which is what lets
//! the equivalence tests pin the trace path against the generator path.

use cas_platform::{CostTable, PhaseCosts, Problem, ProblemId, ServerSpec, TaskId, TaskInstance};
use cas_sim::dist::{Exponential, Sample};
use cas_sim::{RngStream, SimTime, StreamKind};
use std::collections::VecDeque;

/// The latest arrival a [`CsvTrace`] accepts, seconds (about 31.7
/// years). Simulated time advances by adding periods to the clock; far
/// past this cap an addition can round back to the same instant
/// (`t + period == t` beyond ~2^53 periods) and a periodic chain would
/// stop advancing, so a pathological row could make a run unbounded.
pub const MAX_ARRIVAL_S: f64 = 1e9;

/// One trace row: a request from `user` arriving at `arrival_s` demanding
/// `duration_s` seconds of service on the reference (fastest) server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEntry {
    /// Arrival time, seconds from campaign start (≥ 0; at most
    /// [`MAX_ARRIVAL_S`] when ingested from CSV).
    pub arrival_s: f64,
    /// User/app class id.
    pub user: u32,
    /// Service demand on the reference server, seconds (> 0, finite).
    pub duration_s: f64,
}

/// An object-safe stream of trace rows. Sources need not be sorted;
/// [`TraceWorkload::compile`] orders by arrival (stable on ties).
pub trait Trace {
    /// The next row, or `None` when the trace is exhausted.
    fn next_entry(&mut self) -> Option<TraceEntry>;

    /// Number of remaining rows, when known (sizing hint only).
    fn len_hint(&self) -> Option<usize> {
        None
    }
}

/// Why a trace could not be ingested or compiled.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// The trace held no rows — a zero-task campaign is not well-defined
    /// (there is nothing to schedule and every per-task aggregate would
    /// divide by zero), so ingestion reports it as a typed error instead.
    Empty,
    /// A row failed to parse or held a non-finite / out-of-range field.
    Parse {
        /// 1-based line number in the source file.
        line: usize,
        /// What was wrong.
        what: String,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Empty => write!(f, "trace holds no rows"),
            TraceError::Parse { line, what } => write!(f, "trace line {line}: {what}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// A CSV-ingested trace: `arrival_s,user,duration_s` per row. Blank lines
/// and `#` comments are skipped, as is an optional header row (a first
/// data line whose first field is not a number). Arrivals must lie in
/// `[0, MAX_ARRIVAL_S]`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsvTrace {
    entries: VecDeque<TraceEntry>,
}

impl CsvTrace {
    /// Parses CSV text. Returns `Ok` even for zero data rows — emptiness
    /// is reported by [`TraceWorkload::compile`] (typed, [`TraceError::Empty`])
    /// so callers that only want to inspect a file can still do so.
    pub fn parse(text: &str) -> Result<CsvTrace, TraceError> {
        let mut entries = VecDeque::new();
        let mut saw_data_line = false;
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split(',').map(str::trim).collect();
            if !saw_data_line && fields[0].parse::<f64>().is_err() {
                // Header row ("arrival_s,user,duration_s").
                saw_data_line = true;
                continue;
            }
            saw_data_line = true;
            if fields.len() != 3 {
                return Err(TraceError::Parse {
                    line: i + 1,
                    what: format!(
                        "expected 3 fields (arrival_s,user,duration_s), got {}",
                        fields.len()
                    ),
                });
            }
            let field = |j: usize, name: &str| -> Result<f64, TraceError> {
                fields[j].parse::<f64>().map_err(|_| TraceError::Parse {
                    line: i + 1,
                    what: format!("{name} `{}` is not a number", fields[j]),
                })
            };
            let arrival_s = field(0, "arrival")?;
            let user = fields[1].parse::<u32>().map_err(|_| TraceError::Parse {
                line: i + 1,
                what: format!("user `{}` is not a u32", fields[1]),
            })?;
            let duration_s = field(2, "duration")?;
            if !arrival_s.is_finite() || arrival_s < 0.0 {
                return Err(TraceError::Parse {
                    line: i + 1,
                    what: format!("arrival {arrival_s} must be finite and >= 0"),
                });
            }
            if arrival_s > MAX_ARRIVAL_S {
                return Err(TraceError::Parse {
                    line: i + 1,
                    what: format!("arrival {arrival_s} is past the {MAX_ARRIVAL_S} s horizon cap"),
                });
            }
            if !duration_s.is_finite() || duration_s <= 0.0 {
                return Err(TraceError::Parse {
                    line: i + 1,
                    what: format!("duration {duration_s} must be finite and > 0"),
                });
            }
            entries.push_back(TraceEntry {
                arrival_s,
                user,
                duration_s,
            });
        }
        Ok(CsvTrace { entries })
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the trace holds no rows.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl Trace for CsvTrace {
    fn next_entry(&mut self) -> Option<TraceEntry> {
        self.entries.pop_front()
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.entries.len())
    }
}

/// One application's fitted load profile: how often it submits and how
/// much service it demands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppProfile {
    /// User/app class id carried into the per-class SLOs.
    pub user: u32,
    /// Number of requests this app emits.
    pub n_tasks: usize,
    /// Mean inter-arrival gap, seconds (exponential).
    pub mean_gap_s: f64,
    /// Mean service demand on the reference server, seconds (exponential).
    pub mean_duration_s: f64,
}

/// A fitted multi-app trace generator. Each app draws its inter-arrival
/// gaps and durations from its *own* pair of RNG streams derived from the
/// seed and the app's position, so the whole trace is a pure function of
/// `(spec, seed)` and adding an app never perturbs the others' draws.
#[derive(Debug, Clone, PartialEq)]
pub struct FittedTraceSpec {
    /// Per-app profiles; order fixes the RNG stream assignment.
    pub apps: Vec<AppProfile>,
}

/// RNG stream tag base for fitted traces (two streams per app).
const FITTED_STREAM_BASE: u32 = 0xB000_0000;

impl FittedTraceSpec {
    /// Generates the merged trace deterministically from `seed`: per-app
    /// arrival sequences, merged by arrival (stable: earlier apps first on
    /// exact ties).
    pub fn generate(&self, seed: u64) -> FittedTrace {
        let mut entries: Vec<TraceEntry> = Vec::new();
        for (a, app) in self.apps.iter().enumerate() {
            assert!(app.mean_gap_s > 0.0, "need a positive mean gap");
            assert!(app.mean_duration_s > 0.0, "need a positive mean duration");
            let tag = FITTED_STREAM_BASE + 2 * a as u32;
            let mut gap_rng = RngStream::derive(seed, StreamKind::Custom(tag));
            let mut dur_rng = RngStream::derive(seed, StreamKind::Custom(tag + 1));
            let gap_dist = Exponential::new(app.mean_gap_s);
            let dur_dist = Exponential::new(app.mean_duration_s);
            let mut clock = 0.0f64;
            for _ in 0..app.n_tasks {
                clock += gap_dist.sample(&mut gap_rng);
                // Floor tiny draws: durations must be positive for stretch.
                let duration_s = dur_dist.sample(&mut dur_rng).max(1e-6);
                entries.push(TraceEntry {
                    arrival_s: clock,
                    user: app.user,
                    duration_s,
                });
            }
        }
        entries.sort_by(|x, y| {
            x.arrival_s
                .partial_cmp(&y.arrival_s)
                .expect("fitted arrivals are finite")
        });
        FittedTrace {
            entries: entries.into(),
        }
    }
}

/// A generated fitted trace (see [`FittedTraceSpec`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FittedTrace {
    entries: VecDeque<TraceEntry>,
}

impl Trace for FittedTrace {
    fn next_entry(&mut self) -> Option<TraceEntry> {
        self.entries.pop_front()
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.entries.len())
    }
}

/// Knobs for compiling a trace into engine inputs: the farm shape and the
/// demand-ladder resolution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceWorkload {
    /// Number of servers in the compiled farm.
    pub n_servers: usize,
    /// Speed of the fastest server relative to the slowest
    /// (matches [`SyntheticPlatform`](crate::synthetic::SyntheticPlatform)).
    pub heterogeneity: f64,
    /// Transfer cost as a fraction of compute cost.
    pub comm_fraction: f64,
    /// Memory need per task as a fraction of the smallest server's RAM.
    pub mem_fraction: f64,
    /// Demand-ladder cap: at most this many distinct problem types. Traces
    /// with more distinct durations are quantile-bucketed; traces with at
    /// most this many keep every duration *exactly* (the ladder-exact case
    /// the equivalence tests rely on).
    pub max_problems: usize,
}

impl Default for TraceWorkload {
    fn default() -> Self {
        TraceWorkload {
            n_servers: 4,
            heterogeneity: 5.0,
            comm_fraction: 0.02,
            mem_fraction: 0.0,
            max_problems: 8,
        }
    }
}

/// Engine-ready output of [`TraceWorkload::compile`].
#[derive(Debug, Clone)]
pub struct CompiledTrace {
    /// The demand-ladder cost table.
    pub costs: CostTable,
    /// The compiled farm.
    pub servers: Vec<ServerSpec>,
    /// Arrival-sorted task instances (ids reassigned 0..n in that order).
    pub tasks: Vec<TaskInstance>,
    /// `users[i]` is the user class of `tasks[i]`.
    pub users: Vec<u32>,
    /// The ladder: problem `p`'s service demand on the fastest server.
    pub ladder: Vec<f64>,
}

impl TraceWorkload {
    /// Builds the farm and the cost table for a given demand ladder:
    /// ladder value `p` becomes problem `p`'s compute cost on the fastest
    /// server, scaled by each server's relative slowness — the exact
    /// arithmetic of
    /// [`SyntheticPlatform::cost_table`](crate::synthetic::SyntheticPlatform::cost_table)
    /// with the ladder standing in for the geometric cost spread.
    pub fn farm(&self, ladder: &[f64], seed: u64) -> (Vec<ServerSpec>, CostTable) {
        let servers = crate::synthetic::SyntheticPlatform {
            n_servers: self.n_servers,
            heterogeneity: self.heterogeneity,
            ..Default::default()
        }
        .servers(seed);
        let fastest = servers.iter().map(|s| s.cpu_mhz).fold(f64::MIN, f64::max);
        let min_ram = servers.iter().map(|s| s.ram_mb).fold(f64::MAX, f64::min);
        let mut table = CostTable::new(servers.len());
        for (p, &fast_cost) in ladder.iter().enumerate() {
            let frac = if ladder.len() == 1 {
                0.0
            } else {
                p as f64 / (ladder.len() - 1) as f64
            };
            let mem = self.mem_fraction * min_ram * (1.0 + frac);
            let data_mb = fast_cost * self.comm_fraction * 10.0;
            let problem = Problem::new(format!("trace-p{p}"), data_mb, data_mb / 2.0, mem);
            let row = servers
                .iter()
                .map(|s| {
                    let slowdown = fastest / s.cpu_mhz;
                    let compute = fast_cost * slowdown;
                    let comm = fast_cost * self.comm_fraction;
                    Some(PhaseCosts::new(comm, compute, comm / 2.0))
                })
                .collect();
            table.add_problem(problem, row);
        }
        (servers, table)
    }

    /// Compiles a trace into engine inputs. Returns
    /// [`TraceError::Empty`] for a zero-row trace.
    pub fn compile(&self, trace: &mut dyn Trace, seed: u64) -> Result<CompiledTrace, TraceError> {
        assert!(self.max_problems >= 1, "need at least one ladder rung");
        let mut entries = Vec::with_capacity(trace.len_hint().unwrap_or(0));
        while let Some(e) = trace.next_entry() {
            entries.push(e);
        }
        if entries.is_empty() {
            return Err(TraceError::Empty);
        }
        // Stable by arrival: exact ties keep source order.
        entries.sort_by(|x, y| {
            x.arrival_s
                .partial_cmp(&y.arrival_s)
                .expect("trace arrivals are finite")
        });

        let (ladder, edges) = build_ladder(&entries, self.max_problems);
        let (servers, costs) = self.farm(&ladder, seed);

        let mut tasks = Vec::with_capacity(entries.len());
        let mut users = Vec::with_capacity(entries.len());
        for (i, e) in entries.iter().enumerate() {
            let p = edges
                .iter()
                .position(|&edge| e.duration_s <= edge)
                .expect("every duration falls under the top ladder edge");
            tasks.push(TaskInstance::new(
                TaskId(i as u64),
                ProblemId(p as u32),
                SimTime::from_secs(e.arrival_s),
            ));
            users.push(e.user);
        }
        Ok(CompiledTrace {
            costs,
            servers,
            tasks,
            users,
            ladder,
        })
    }
}

/// Builds the demand ladder: `(rung costs ascending, upper edges)`. A
/// duration maps to the first rung whose edge is ≥ it. With at most
/// `max_problems` distinct durations the ladder is those durations exactly;
/// otherwise the sorted multiset is cut into `max_problems` near-equal
/// quantile chunks, each rung costing the chunk mean.
fn build_ladder(entries: &[TraceEntry], max_problems: usize) -> (Vec<f64>, Vec<f64>) {
    let mut sorted: Vec<f64> = entries.iter().map(|e| e.duration_s).collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("trace durations are finite"));
    let mut distinct = sorted.clone();
    distinct.dedup();
    if distinct.len() <= max_problems {
        return (distinct.clone(), distinct);
    }
    let n = sorted.len();
    let mut ladder = Vec::with_capacity(max_problems);
    let mut edges = Vec::with_capacity(max_problems);
    for k in 0..max_problems {
        let lo = k * n / max_problems;
        let hi = (k + 1) * n / max_problems;
        let chunk = &sorted[lo..hi];
        ladder.push(chunk.iter().sum::<f64>() / chunk.len() as f64);
        edges.push(chunk[chunk.len() - 1]);
    }
    // The top edge must cover the maximum exactly.
    *edges.last_mut().expect("max_problems >= 1") = sorted[n - 1];
    (ladder, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metatask::MetataskSpec;
    use std::fmt::Write as _;

    fn spec() -> FittedTraceSpec {
        FittedTraceSpec {
            apps: vec![
                AppProfile {
                    user: 0,
                    n_tasks: 40,
                    mean_gap_s: 25.0,
                    mean_duration_s: 20.0,
                },
                AppProfile {
                    user: 3,
                    n_tasks: 25,
                    mean_gap_s: 40.0,
                    mean_duration_s: 60.0,
                },
            ],
        }
    }

    #[test]
    fn csv_parses_header_comments_and_rows() {
        let text = "# golden trace\narrival_s,user,duration_s\n0.5, 1, 10.0\n\n2.25,0,3.5\n";
        let trace = CsvTrace::parse(text).unwrap();
        assert_eq!(trace.len(), 2);
        let mut t = trace;
        assert_eq!(
            t.next_entry(),
            Some(TraceEntry {
                arrival_s: 0.5,
                user: 1,
                duration_s: 10.0
            })
        );
        assert_eq!(
            t.next_entry(),
            Some(TraceEntry {
                arrival_s: 2.25,
                user: 0,
                duration_s: 3.5
            })
        );
        assert_eq!(t.next_entry(), None);
    }

    #[test]
    fn csv_errors_carry_line_numbers() {
        let err = CsvTrace::parse("0.0,1,5.0\n1.0,oops,5.0\n").unwrap_err();
        assert_eq!(
            err,
            TraceError::Parse {
                line: 2,
                what: "user `oops` is not a u32".into()
            }
        );
        let err = CsvTrace::parse("0.0,1\n").unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 1, .. }));
        let err = CsvTrace::parse("3.0,1,-2.0\n").unwrap_err();
        assert!(err.to_string().contains("duration"));
        let err = CsvTrace::parse("-1.0,1,2.0\n").unwrap_err();
        assert!(err.to_string().contains("arrival"));
    }

    /// A row past the horizon cap is a typed parse error, not a run
    /// whose periodic clock additions stop advancing (`1e300 + 30 ==
    /// 1e300`); the cap itself is still accepted.
    #[test]
    fn csv_rejects_arrivals_past_the_horizon_cap() {
        let err = CsvTrace::parse("0.0,1,5.0\n1e300,0,2.0\n").unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 2, .. }), "{err}");
        assert!(err.to_string().contains("horizon cap"), "{err}");
        let at_cap = format!("{MAX_ARRIVAL_S},0,2.0\n");
        assert_eq!(CsvTrace::parse(&at_cap).unwrap().len(), 1);
    }

    #[test]
    fn empty_trace_is_a_typed_error_at_compile() {
        let parsed = CsvTrace::parse("# nothing here\n").unwrap();
        assert!(parsed.is_empty());
        let mut t = parsed;
        let err = TraceWorkload::default().compile(&mut t, 1).unwrap_err();
        assert_eq!(err, TraceError::Empty);
        assert_eq!(err.to_string(), "trace holds no rows");
    }

    #[test]
    fn fitted_trace_is_deterministic_and_sorted() {
        let a = spec().generate(11);
        let b = spec().generate(11);
        assert_eq!(a, b);
        assert_ne!(a, spec().generate(12));
        let mut t = a;
        let mut prev = 0.0;
        let mut by_user = [0usize; 4];
        while let Some(e) = t.next_entry() {
            assert!(e.arrival_s >= prev, "arrivals must be sorted");
            assert!(e.duration_s > 0.0);
            prev = e.arrival_s;
            by_user[e.user as usize] += 1;
        }
        assert_eq!(by_user[0], 40);
        assert_eq!(by_user[3], 25);
    }

    #[test]
    fn adding_an_app_never_perturbs_earlier_apps() {
        let base = spec().generate(5);
        let mut wider = spec();
        wider.apps.push(AppProfile {
            user: 9,
            n_tasks: 10,
            mean_gap_s: 10.0,
            mean_duration_s: 5.0,
        });
        let mut wide = wider.generate(5);
        let mut base_entries = Vec::new();
        let mut b = base;
        while let Some(e) = b.next_entry() {
            base_entries.push(e);
        }
        let mut wide_entries = Vec::new();
        while let Some(e) = wide.next_entry() {
            if e.user != 9 {
                wide_entries.push(e);
            }
        }
        assert_eq!(base_entries, wide_entries);
    }

    #[test]
    fn compile_is_deterministic_and_aligned() {
        let mut t1 = spec().generate(7);
        let mut t2 = spec().generate(7);
        let tw = TraceWorkload::default();
        let a = tw.compile(&mut t1, 7).unwrap();
        let b = tw.compile(&mut t2, 7).unwrap();
        assert_eq!(a.tasks, b.tasks);
        assert_eq!(a.users, b.users);
        assert_eq!(a.ladder, b.ladder);
        assert_eq!(a.tasks.len(), 65);
        assert_eq!(a.users.len(), a.tasks.len());
        for (i, w) in a.tasks.windows(2).enumerate() {
            assert!(w[1].arrival >= w[0].arrival, "disorder at {i}");
            assert_eq!(w[1].id.0, w[0].id.0 + 1);
        }
        assert_eq!(a.servers.len(), 4);
        assert_eq!(a.costs.n_servers(), 4);
        assert_eq!(a.costs.n_problems(), a.ladder.len());
    }

    #[test]
    fn wide_duration_spread_buckets_to_max_problems() {
        let mut t = spec().generate(3);
        let tw = TraceWorkload {
            max_problems: 4,
            ..Default::default()
        };
        let c = tw.compile(&mut t, 3).unwrap();
        assert_eq!(c.ladder.len(), 4);
        for w in c.ladder.windows(2) {
            assert!(w[1] > w[0], "ladder must ascend: {:?}", c.ladder);
        }
        // Every problem id in range; cheap tasks land on low rungs.
        assert!(c.tasks.iter().all(|t| t.problem.index() < 4));
    }

    #[test]
    fn ladder_exact_when_few_distinct_durations() {
        let text = "0.0,0,20.0\n5.0,1,10.0\n9.0,0,30.0\n12.0,1,10.0\n";
        let mut t = CsvTrace::parse(text).unwrap();
        let c = TraceWorkload::default().compile(&mut t, 1).unwrap();
        assert_eq!(c.ladder, vec![10.0, 20.0, 30.0]);
        let problems: Vec<u32> = c.tasks.iter().map(|t| t.problem.0).collect();
        assert_eq!(problems, vec![1, 0, 2, 0]);
        assert_eq!(c.users, vec![0, 1, 0, 1]);
    }

    /// The acceptance round-trip: a CSV written from a metatask compiles
    /// back to bit-identical task instances over the same ladder.
    #[test]
    fn metatask_csv_roundtrip_is_bit_identical() {
        let seed = 42;
        let ms = MetataskSpec {
            n_tasks: 60,
            mean_gap: 25.0,
            gaps: crate::GapDistribution::Exponential,
            n_problems: 3,
        };
        let tasks = ms.generate(seed);
        let ladder = [15.0, 26.0, 45.0];
        let mut csv = String::from("arrival_s,user,duration_s\n");
        for t in &tasks {
            writeln!(
                csv,
                "{:?},0,{:?}",
                t.arrival.as_secs(),
                ladder[t.problem.index()]
            )
            .unwrap();
        }
        let mut trace = CsvTrace::parse(&csv).unwrap();
        let c = TraceWorkload::default().compile(&mut trace, seed).unwrap();
        assert_eq!(c.ladder.to_vec(), ladder.to_vec());
        assert_eq!(c.tasks, tasks);
        assert!(c.users.iter().all(|&u| u == 0));
    }

    #[test]
    fn trace_trait_is_object_safe() {
        let mut boxed: Box<dyn Trace> = Box::new(spec().generate(1));
        assert!(boxed.len_hint().unwrap() > 0);
        assert!(boxed.next_entry().is_some());
    }
}
