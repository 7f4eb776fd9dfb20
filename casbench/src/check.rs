//! Output checks and the simulated-outcome metrics: terminal accounting,
//! the admission balance, an order-independent digest of the records,
//! and the schedule-quality figures computed from them.

use crate::workloads::RunRecord;
use cas_metrics::{percentile, TaskOutcome, TaskRecord};

/// Terminal outcome counts of one run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Records.
    pub tasks: u64,
    /// Completed.
    pub completed: u64,
    /// Dropped with a reason code.
    pub dropped: u64,
    /// Dropped by the admission gate (subset of `dropped`).
    pub admission_drops: u64,
    /// Refused by every candidate.
    pub failed: u64,
    /// Still in flight (must be 0).
    pub in_flight: u64,
}

/// Counts the outcomes of one run's records.
pub fn tally(records: &[TaskRecord]) -> Tally {
    let mut t = Tally {
        tasks: records.len() as u64,
        ..Tally::default()
    };
    for r in records {
        match r.outcome {
            TaskOutcome::Completed { .. } => t.completed += 1,
            TaskOutcome::Failed => t.failed += 1,
            TaskOutcome::InFlight => t.in_flight += 1,
            TaskOutcome::Dropped { reason } => {
                t.dropped += 1;
                if reason.code() == "admission_deadline" {
                    t.admission_drops += 1;
                }
            }
        }
    }
    t
}

/// Every task ended terminal: completed + dropped + failed = tasks.
pub fn terminal_ok(t: &Tally) -> bool {
    t.in_flight == 0 && t.completed + t.dropped + t.failed == t.tasks
}

/// The run's counters agree with its records: the admission gate's sheds
/// are exactly the records dropped for `admission_deadline`, every buffer
/// entry left it (dequeued or shed at its deadline), and the churn
/// layer's reason-coded drops are the remaining drops.
pub fn counters_ok(run: &RunRecord, t: &Tally) -> bool {
    let a = run.admission;
    a.shed_deadline + a.shed_overflow == t.admission_drops
        && a.buffered == a.dequeued + a.shed_deadline
        && run.churn.drops == t.dropped - t.admission_drops
}

fn mix(mut x: u64) -> u64 {
    // splitmix64 finaliser.
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn record_hash(run: u64, r: &TaskRecord) -> u64 {
    let time = |t: Option<cas_sim::SimTime>| t.map_or(u64::MAX, |t| t.as_secs().to_bits());
    let outcome = match r.outcome {
        TaskOutcome::Completed { finished } => finished.as_secs().to_bits(),
        TaskOutcome::Failed => 1,
        TaskOutcome::InFlight => 2,
        TaskOutcome::Dropped { reason } => 3 + reason.code().len() as u64,
    };
    [
        r.task.0,
        r.problem.0 as u64,
        r.arrival.as_secs().to_bits(),
        r.server.map_or(u64::MAX, |s| s.0 as u64),
        r.unloaded_duration.to_bits(),
        time(r.predicted_completion),
        time(r.commit_prediction),
        outcome,
        r.attempts as u64,
    ]
    .into_iter()
    .fold(mix(run), |h, v| mix(h ^ v))
}

/// An order-independent digest of a set of runs' records: a wrapping sum
/// of per-record hashes keyed by run index, so it does not depend on the
/// order records are visited in but does on which run produced each.
pub fn records_digest<'a>(runs: impl IntoIterator<Item = &'a [TaskRecord]>) -> u64 {
    runs.into_iter()
        .enumerate()
        .flat_map(|(i, recs)| recs.iter().map(move |r| record_hash(i as u64, r)))
        .fold(0u64, u64::wrapping_add)
}

/// Simulated outcome of a set of runs, pooled over every task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// Tasks submitted.
    pub tasks: u64,
    /// Completed / submitted.
    pub completed_frac: f64,
    /// (Failed + dropped) / submitted.
    pub failed_frac: f64,
    /// Mean stretch over completed tasks.
    pub mean_stretch: f64,
    /// p99 stretch over completed tasks.
    pub p99_stretch: f64,
    /// Median |HTM-simulated − observed completion| / flow, in %.
    pub pred_err_p50_pct: f64,
    /// p99 of the same.
    pub pred_err_p99_pct: f64,
    /// Share of predicted completions within 1 % of the flow time.
    pub pred_within_1pct_frac: f64,
    /// Share within 10 %.
    pub pred_within_10pct_frac: f64,
}

/// Computes the simulated outcome of a set of runs.
pub fn quality<'a>(runs: impl IntoIterator<Item = &'a [TaskRecord]>) -> Quality {
    let (mut tasks, mut completed) = (0u64, 0u64);
    let mut stretches = Vec::new();
    let mut errors = Vec::new();
    for recs in runs {
        tasks += recs.len() as u64;
        for r in recs {
            if r.is_completed() {
                completed += 1;
            }
            stretches.extend(r.stretch());
            errors.extend(r.prediction_error_pct());
        }
    }
    let frac = |n: usize, d: usize| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    let within = |pct: f64| frac(errors.iter().filter(|&&e| e <= pct).count(), errors.len());
    Quality {
        tasks,
        completed_frac: frac(completed as usize, tasks as usize),
        failed_frac: frac((tasks - completed) as usize, tasks as usize),
        mean_stretch: stretches.iter().sum::<f64>() / stretches.len().max(1) as f64,
        p99_stretch: percentile(&stretches, 0.99).unwrap_or(0.0),
        pred_err_p50_pct: percentile(&errors, 0.5).unwrap_or(0.0),
        pred_err_p99_pct: percentile(&errors, 0.99).unwrap_or(0.0),
        pred_within_1pct_frac: within(1.0),
        pred_within_10pct_frac: within(10.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cas_metrics::DropReason;
    use cas_platform::{ProblemId, ServerId, TaskId};
    use cas_sim::SimTime;

    fn rec(task: u64, outcome: TaskOutcome) -> TaskRecord {
        TaskRecord {
            task: TaskId(task),
            problem: ProblemId(0),
            arrival: SimTime::from_secs(task as f64),
            server: Some(ServerId(0)),
            unloaded_duration: 2.0,
            predicted_completion: Some(SimTime::from_secs(task as f64 + 4.04)),
            commit_prediction: None,
            outcome,
            attempts: 1,
        }
    }

    fn done(task: u64) -> TaskRecord {
        rec(
            task,
            TaskOutcome::Completed {
                finished: SimTime::from_secs(task as f64 + 4.0),
            },
        )
    }

    #[test]
    fn digest_ignores_order_but_not_content() {
        let a = vec![done(0), done(1), done(2)];
        let b = [done(2), done(0), done(1)];
        assert_eq!(records_digest([&a[..]]), records_digest([&b[..]]));
        let mut c = a.clone();
        c[1].attempts = 2;
        assert_ne!(records_digest([&a[..]]), records_digest([&c[..]]));
        // Which run a record came from matters.
        assert_ne!(
            records_digest([&a[..1], &a[1..]]),
            records_digest([&a[..2], &a[2..]])
        );
    }

    #[test]
    fn tally_and_quality() {
        let recs = vec![
            done(0),
            done(1),
            rec(
                2,
                TaskOutcome::Dropped {
                    reason: DropReason::AdmissionDeadline,
                },
            ),
            rec(3, TaskOutcome::Failed),
        ];
        let t = tally(&recs);
        assert!(terminal_ok(&t));
        assert_eq!(
            (t.completed, t.dropped, t.admission_drops, t.failed),
            (2, 1, 1, 1)
        );
        let q = quality([&recs[..]]);
        assert_eq!(q.completed_frac, 0.5);
        assert_eq!(q.failed_frac, 0.5);
        assert_eq!(q.mean_stretch, 2.0);
        // |4.04 − 4| / 4 = 1 %.
        assert!((q.pred_err_p50_pct - 1.0).abs() < 1e-9);
        assert_eq!(q.pred_within_10pct_frac, 1.0);
        let mut stuck = recs.clone();
        stuck[3].outcome = TaskOutcome::InFlight;
        assert!(!terminal_ok(&tally(&stuck)));
    }
}
