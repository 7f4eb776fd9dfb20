//! Decision-cost smoke benchmark, JSON output.
//!
//! Measures the cost of one full scheduling decision — a what-if query per
//! candidate across a 64-server platform — through the two prediction
//! paths:
//!
//! * `clone_baseline` — [`Htm::predict_reference`], the original
//!   clone-and-drain implementation;
//! * `cached_batched` — [`Htm::predict_all`], the generation-cached,
//!   zero-clone, batch engine.
//!
//! Two workload modes bracket reality: `steady` issues decisions with no
//! commits in between (every server's baseline cache stays warm) and
//! `churn` commits the chosen task after every decision (one server's
//! cache invalidated per round, as in a live scheduler).
//!
//! A second section measures the **commit path**: the cost of absorbing a
//! placement into the model, from the commit call to the next baseline
//! consumer (`resident_estimate`, the memory-aware veto's per-decision
//! read). Each round replays the engine's exact order — predict the
//! chosen server, commit, read the baseline — and times only the
//! commit-and-read portion:
//!
//! * `commit_full_redrain` — PR-1 behaviour ([`RepairPolicy::FullRedrain`]):
//!   the commit invalidates the baseline and the read pays a full
//!   re-drain of the server's trace;
//! * `commit_incremental` — [`RepairPolicy::Incremental`] (the default):
//!   the commit adopts the memoised speculative after-schedule, so the
//!   read is a cache hit.
//!
//! A third section measures the **prediction memo**: the speculative
//! after-drain is keyed on (problem costs, instant, trace generation) —
//! not the probe id — so same-instant probes of the same problem share
//! one drain. The section times a second same-problem batch against the
//! first and reports the memo's hit-rate counters
//! ([`cas_core::MemoStats`]).
//!
//! Writes `BENCH_decision_cost.json` (path overridable as argv[1]) with
//! per-configuration timings and speedups; CI runs this as the perf gate
//! (decision gate ≥ 3x vs clone, commit-path gate ≥ 2x vs full re-drain).

use cas_core::{Htm, MemoStats, RepairPolicy, SyncPolicy};
use cas_platform::{CostTable, PhaseCosts, Problem, ProblemId, ServerId, TaskId, TaskInstance};
use cas_sim::SimTime;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

const N_SERVERS: u32 = 64;

fn table64() -> CostTable {
    let mut t = CostTable::new(N_SERVERS as usize);
    for p in 0..3 {
        let base = 15.0 * (p + 1) as f64;
        t.add_problem(
            Problem::new(format!("p{p}"), 1.0, 0.5, 0.0),
            (0..N_SERVERS)
                .map(|s| {
                    Some(PhaseCosts::new(
                        0.2,
                        base * (1.0 + (s % 7) as f64 * 0.3),
                        0.1,
                    ))
                })
                .collect(),
        );
    }
    t
}

fn loaded_htm(per_server: usize) -> Htm {
    let mut htm = Htm::new(table64(), SyncPolicy::None);
    let mut id = 1000u64;
    for s in 0..N_SERVERS {
        for k in 0..per_server {
            let t = TaskInstance::new(
                TaskId(id),
                ProblemId((k % 3) as u32),
                SimTime::from_secs(k as f64),
            );
            htm.commit(t.arrival, ServerId(s), &t);
            id += 1;
        }
    }
    htm
}

#[derive(Clone, Copy, PartialEq)]
enum Path {
    CloneBaseline,
    CachedBatched,
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Decisions only; no trace mutation between rounds.
    Steady,
    /// Commit the picked task after every decision (cache churn).
    Churn,
}

/// Runs `rounds` decisions and returns the mean microseconds per decision.
fn run(path: Path, mode: Mode, per_server: usize, rounds: usize) -> f64 {
    let mut htm = loaded_htm(per_server);
    let candidates: Vec<ServerId> = (0..N_SERVERS).map(ServerId).collect();
    let mut next_id = 500_000u64;
    let mut now = 500.0f64;
    // Warm-up (fills caches, faults in scratch buffers).
    for _ in 0..3 {
        let probe = TaskInstance::new(TaskId(next_id), ProblemId(0), SimTime::from_secs(now));
        next_id += 1;
        match path {
            Path::CloneBaseline => {
                for &s in &candidates {
                    black_box(htm.predict_reference(probe.arrival, s, &probe));
                }
            }
            Path::CachedBatched => {
                black_box(htm.predict_all(probe.arrival, &probe, &candidates));
            }
        }
    }
    let start = Instant::now();
    for round in 0..rounds {
        now += 0.01;
        let probe = TaskInstance::new(
            TaskId(next_id),
            ProblemId((round % 3) as u32),
            SimTime::from_secs(now),
        );
        next_id += 1;
        let pick = match path {
            Path::CloneBaseline => {
                let mut best: Option<(ServerId, f64)> = None;
                for &s in &candidates {
                    if let Some(p) = htm.predict_reference(probe.arrival, s, &probe) {
                        let v = p.completion.as_secs();
                        if best.is_none_or(|(_, bv)| v < bv) {
                            best = Some((s, v));
                        }
                    }
                }
                best.map(|(s, _)| s)
            }
            Path::CachedBatched => {
                let preds = htm.predict_all(probe.arrival, &probe, &candidates);
                candidates
                    .iter()
                    .zip(&preds)
                    .filter_map(|(&s, p)| p.as_ref().map(|p| (s, p.completion.as_secs())))
                    .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite completion"))
                    .map(|(s, _)| s)
            }
        };
        if mode == Mode::Churn {
            let server = pick.expect("some server solves every problem");
            htm.commit(probe.arrival, server, &probe);
        } else {
            black_box(pick);
        }
    }
    start.elapsed().as_secs_f64() * 1e6 / rounds as f64
}

/// Times the commit path (commit + first baseline read) under `policy`,
/// returning mean microseconds per commit. The surrounding predict matches
/// the engine's decision order and is excluded from the measurement — it
/// costs the same under both policies.
fn run_commit_path(policy: RepairPolicy, per_server: usize, rounds: usize) -> f64 {
    let mut htm = loaded_htm(per_server);
    htm.set_repair_policy(policy);
    let mut next_id = 900_000u64;
    let mut now = 500.0f64;
    // Warm-up: fault in every server's baseline cache and scratch.
    for s in 0..N_SERVERS {
        black_box(htm.resident_estimate(SimTime::from_secs(now), ServerId(s)));
    }
    let mut in_commit = std::time::Duration::ZERO;
    for round in 0..rounds {
        now += 0.01;
        let server = ServerId((round % N_SERVERS as usize) as u32);
        let task = TaskInstance::new(
            TaskId(next_id),
            ProblemId((round % 3) as u32),
            SimTime::from_secs(now),
        );
        next_id += 1;
        // The decision the engine makes before every commit (untimed).
        black_box(htm.predict(task.arrival, server, &task));
        let start = Instant::now();
        htm.commit(task.arrival, server, &task);
        black_box(htm.resident_estimate(task.arrival, server));
        in_commit += start.elapsed();
    }
    in_commit.as_secs_f64() * 1e6 / rounds as f64
}

/// Times same-instant same-problem probe batches: the first batch drains,
/// the second must be answered from the problem-keyed memo. Returns
/// (first µs/batch, repeat µs/batch, final memo stats).
fn run_memo_probe(per_server: usize, rounds: usize) -> (f64, f64, MemoStats) {
    let mut htm = loaded_htm(per_server);
    let candidates: Vec<ServerId> = (0..N_SERVERS).map(ServerId).collect();
    let mut next_id = 700_000u64;
    let mut now = 500.0f64;
    // Warm-up.
    let probe = TaskInstance::new(TaskId(next_id), ProblemId(0), SimTime::from_secs(now));
    next_id += 1;
    black_box(htm.predict_all(probe.arrival, &probe, &candidates));
    let (mut in_first, mut in_repeat) = (std::time::Duration::ZERO, std::time::Duration::ZERO);
    for round in 0..rounds {
        now += 0.01;
        let when = SimTime::from_secs(now);
        let problem = ProblemId((round % 3) as u32);
        let first = TaskInstance::new(TaskId(next_id), problem, when);
        let repeat = TaskInstance::new(TaskId(next_id + 1), problem, when);
        next_id += 2;
        let start = Instant::now();
        black_box(htm.predict_all(when, &first, &candidates));
        in_first += start.elapsed();
        let start = Instant::now();
        black_box(htm.predict_all(when, &repeat, &candidates));
        in_repeat += start.elapsed();
    }
    (
        in_first.as_secs_f64() * 1e6 / rounds as f64,
        in_repeat.as_secs_f64() * 1e6 / rounds as f64,
        htm.memo_stats(),
    )
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_decision_cost.json".to_string());
    // The acceptance target is 3x (what this repo's dev runs record); a
    // noisy shared CI runner can override the *exit* gate downward without
    // changing the recorded target.
    let gate: f64 = std::env::var("DECISION_COST_GATE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3.0);
    let commit_gate: f64 = std::env::var("COMMIT_PATH_GATE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2.0);
    let mut results = String::new();
    let mut min_speedup = f64::INFINITY;
    let mut first = true;
    for &per_server in &[8usize, 32, 128] {
        for (mode, mode_name) in [(Mode::Steady, "steady"), (Mode::Churn, "churn")] {
            // Keep the clone-path round count bounded: it is the slow side.
            let rounds = match per_server {
                128 => 40,
                32 => 120,
                _ => 400,
            };
            let baseline_us = run(Path::CloneBaseline, mode, per_server, rounds);
            let cached_us = run(Path::CachedBatched, mode, per_server, rounds);
            let speedup = baseline_us / cached_us;
            min_speedup = min_speedup.min(speedup);
            eprintln!(
                "64 servers × {per_server:>3} tasks, {mode_name:<6}: \
                 clone {baseline_us:>10.1} µs/decision, cached {cached_us:>8.1} µs/decision, \
                 speedup {speedup:>6.1}x"
            );
            if !first {
                results.push_str(",\n");
            }
            first = false;
            let _ = write!(
                results,
                "    {{\"servers\": {N_SERVERS}, \"per_server_tasks\": {per_server}, \
                 \"mode\": \"{mode_name}\", \"rounds\": {rounds}, \
                 \"clone_baseline_us_per_decision\": {baseline_us:.2}, \
                 \"cached_batched_us_per_decision\": {cached_us:.2}, \
                 \"speedup\": {speedup:.2}}}"
            );
        }
    }
    // Commit-path section: full re-drain (PR 1) vs incremental splice.
    let mut commit_results = String::new();
    let mut commit_min_speedup = f64::INFINITY;
    let mut commit_first = true;
    for &per_server in &[8usize, 32, 128] {
        let rounds = match per_server {
            128 => 192,
            32 => 640,
            _ => 1920,
        };
        let full_us = run_commit_path(RepairPolicy::FullRedrain, per_server, rounds);
        let inc_us = run_commit_path(RepairPolicy::Incremental, per_server, rounds);
        let speedup = full_us / inc_us;
        commit_min_speedup = commit_min_speedup.min(speedup);
        eprintln!(
            "64 servers × {per_server:>3} tasks, commit : \
             full redrain {full_us:>10.2} µs/commit, incremental {inc_us:>8.2} µs/commit, \
             speedup {speedup:>6.1}x"
        );
        if !commit_first {
            commit_results.push_str(",\n");
        }
        commit_first = false;
        let _ = write!(
            commit_results,
            "    {{\"servers\": {N_SERVERS}, \"per_server_tasks\": {per_server}, \
             \"rounds\": {rounds}, \
             \"full_redrain_us_per_commit\": {full_us:.2}, \
             \"incremental_us_per_commit\": {inc_us:.2}, \
             \"speedup\": {speedup:.2}}}"
        );
    }
    // Prediction-memo section: same-instant, same-problem probes must be
    // answered from the problem-keyed memo instead of re-draining.
    let (first_us, repeat_us, memo) = run_memo_probe(32, 200);
    let memo_speedup = first_us / repeat_us;
    eprintln!(
        "64 servers ×  32 tasks, memo  : first probe {first_us:>10.1} µs/batch, same-problem \
         repeat {repeat_us:>8.1} µs/batch, speedup {memo_speedup:>6.1}x \
         (hit rate {:.3}, {} cross-task hits)",
        memo.hit_rate(),
        memo.cross_task_hits
    );
    let json = format!(
        "{{\n  \"bench\": \"decision_cost\",\n  \"unit\": \"microseconds per scheduling decision \
         (one what-if query per candidate server)\",\n  \"baseline\": \"Htm::predict_reference \
         (clone-and-drain per query)\",\n  \"candidate\": \"Htm::predict_all (generation-cached \
         baseline + zero-clone scratch drain, serial per candidate)\",\n  \"results\": [\n{results}\n  ],\n\
  \"commit_path\": {{\n    \"unit\": \"microseconds per commit (commit + first baseline read, \
         predict excluded)\",\n    \"baseline\": \"RepairPolicy::FullRedrain (PR 1: invalidate, \
         re-drain on next read)\",\n    \"candidate\": \"RepairPolicy::Incremental (splice: adopt \
         the memoised after-schedule)\",\n    \"results\": [\n{commit_results}\n    ],\n\
    \"acceptance\": {{\"required_min_speedup\": 2.0, \"observed_min_speedup\": \
         {commit_min_speedup:.2}, \"pass\": {}}}\n  }},\n\
  \"prediction_memo\": {{\n    \"unit\": \"microseconds per 64-candidate batch (same instant, \
         same problem, different task id)\",\n    \"first_probe_us_per_batch\": {first_us:.2},\n    \
    \"same_problem_repeat_us_per_batch\": {repeat_us:.2},\n    \"speedup\": {memo_speedup:.2},\n    \
    \"drains\": {},\n    \"hits\": {},\n    \"cross_task_hits\": {},\n    \
    \"hit_rate\": {:.4},\n    \"acceptance\": {{\"cross_task_hits_nonzero\": {}}}\n  }},\n\
  \"acceptance\": {{\"required_min_speedup\": 3.0, \"observed_min_speedup\": {min_speedup:.2}, \
         \"pass\": {}}}\n}}\n",
        commit_min_speedup >= 2.0,
        memo.drains,
        memo.hits,
        memo.cross_task_hits,
        memo.hit_rate(),
        memo.cross_task_hits > 0,
        min_speedup >= 3.0
    );
    std::fs::write(&out_path, &json).expect("write bench json");
    eprintln!(
        "wrote {out_path}; min decision speedup {min_speedup:.2}x (exit gate: >= {gate}x), \
         min commit-path speedup {commit_min_speedup:.2}x (exit gate: >= {commit_gate}x)"
    );
    if min_speedup < gate || commit_min_speedup < commit_gate {
        std::process::exit(1);
    }
}
