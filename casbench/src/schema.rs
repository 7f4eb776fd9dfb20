//! The benchmark's metric schema: every metric it reports, with its
//! unit, its better direction and — for per-layer metrics — the
//! end-to-end metric and workload it should move. `BENCHMARK.json` at
//! the repository root and `casbench/schema.json` are rendered from these
//! tables; a test keeps the committed files in step with them.

/// Version of the result and schema format.
pub const SCHEMA_VERSION: u32 = 1;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

#[cfg_attr(not(test), allow(dead_code))]
impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric. The binary reads names and units; the rest feeds the
/// rendered `BENCHMARK.json` and `schema.json` (see the tests).
#[derive(Debug, Clone, Copy)]
#[cfg_attr(not(test), allow(dead_code))]
pub struct Metric {
    /// Name in results and `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Better direction.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
    /// Per-layer only: `(end-to-end metric, workload)` pairs it should
    /// move.
    pub moves: &'static [(&'static str, &'static str)],
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        moves: &[],
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static [(&'static str, &'static str)],
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        moves,
    }
}

use Better::{Higher, Lower};

/// A workload's name and why it exists.
#[cfg_attr(not(test), allow(dead_code))]
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "paper_matrix",
        "paper Tables 6+8 as one MCT/HMCT/MP/MSF replication matrix on the pool: memory model and full drains",
    ),
    (
        "dense_burst",
        "1k servers, noise-free, bursty arrivals past capacity: the decision pipeline and truncated drains do the work",
    ),
    (
        "sparse_paper",
        "1k servers at the 20 s default gap, paper config: noise redraws, load reports and kernel pops do the work",
    ),
    (
        "trace_churn",
        "fitted 3-class trace via CSV ingest on 32 servers with admission and churn: retractions, sheds, memo hits",
    ),
];

const TPS_SPARSE: (&str, &str) = ("tasks_per_s", "sparse_paper");
const TPS_DENSE: (&str, &str) = ("tasks_per_s", "dense_burst");
const TPS_TRACE: (&str, &str) = ("tasks_per_s", "trace_churn");
const TPS_MATRIX: (&str, &str) = ("tasks_per_s", "paper_matrix");
const RSS_DENSE: (&str, &str) = ("peak_rss_mb", "dense_burst");
const RSS_MATRIX: (&str, &str) = ("peak_rss_mb", "paper_matrix");
const DONE_TRACE: (&str, &str) = ("completed_frac", "trace_churn");
const P99_TRACE: (&str, &str) = ("p99_stretch", "trace_churn");
const SETUP_ALL: [(&str, &str); 4] = [
    ("setup_s", "paper_matrix"),
    ("setup_s", "dense_burst"),
    ("setup_s", "sparse_paper"),
    ("setup_s", "trace_churn"),
];
const SETUP_TRACE: (&str, &str) = ("setup_s", "trace_churn");
const DECISIONS: [(&str, &str); 2] = [TPS_DENSE, TPS_TRACE];
const HOUSEKEEPING: [(&str, &str); 1] = [TPS_SPARSE];

/// End-to-end metrics, reported by every workload with tracing off.
///
/// The host timings carry noise allowances. The five simulated metrics
/// repeat exactly for a seed, so their bounds are not noise allowances:
/// each sits just above the 99th percentile of its ten-seed spread
/// (interquartile range over median, worst workload) over draws from
/// seeds 1–30, the smallest bound a ten-seed acceptance run still meets.
pub const END_TO_END: [Metric; 8] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("tasks_per_s", "tasks/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.2),
    e2e("completed_frac", "fraction", Higher, 0.015),
    e2e("mean_stretch", "ratio", Lower, 0.05),
    e2e("p99_stretch", "ratio", Lower, 0.05),
    e2e("pred_within_1pct_frac", "fraction", Higher, 0.05),
    e2e("pred_within_10pct_frac", "fraction", Higher, 0.015),
];

/// Per-layer metrics, reported by every workload with tracing on (0
/// where the layer does no work on that workload).
pub const PER_LAYER: [Metric; 70] = [
    // sim: the kernel queue.
    layer("sim.events", "count", Lower, &HOUSEKEEPING),
    layer("sim.events_per_task", "count", Lower, &HOUSEKEEPING),
    layer("sim.pushes", "count", Lower, &HOUSEKEEPING),
    layer(
        "sim.pop_ns_per_event",
        "ns",
        Lower,
        &[TPS_SPARSE, TPS_DENSE],
    ),
    layer(
        "sim.push_ns_per_event",
        "ns",
        Lower,
        &[TPS_SPARSE, TPS_DENSE],
    ),
    layer("sim.peak_pending", "count", Lower, &[RSS_DENSE, TPS_DENSE]),
    layer("sim.queue_migrations", "count", Lower, &[TPS_DENSE]),
    // engine: cas-middleware's handlers, admission, churn and runner.
    layer("engine.init_s", "s", Lower, &[TPS_DENSE, TPS_TRACE]),
    layer("engine.submit.count", "count", Lower, &[]),
    layer("engine.submit.self_s", "s", Lower, &[TPS_TRACE]),
    layer("engine.schedule.count", "count", Lower, &DECISIONS),
    layer("engine.schedule.self_s", "s", Lower, &DECISIONS),
    layer("engine.phase_done.count", "count", Lower, &[]),
    layer(
        "engine.phase_done.self_s",
        "s",
        Lower,
        &[TPS_DENSE, TPS_MATRIX],
    ),
    layer("engine.client_link_done.count", "count", Lower, &[]),
    layer("engine.client_link_done.self_s", "s", Lower, &[]),
    layer("engine.load_report.count", "count", Lower, &HOUSEKEEPING),
    layer("engine.load_report.self_s", "s", Lower, &HOUSEKEEPING),
    layer("engine.noise_redraw.count", "count", Lower, &HOUSEKEEPING),
    layer("engine.noise_redraw.self_s", "s", Lower, &HOUSEKEEPING),
    layer("engine.admission_timeout.count", "count", Lower, &[]),
    layer("engine.admission_timeout.self_s", "s", Lower, &[TPS_TRACE]),
    layer("engine.churn.count", "count", Lower, &[]),
    layer("engine.churn.self_s", "s", Lower, &[TPS_TRACE]),
    layer("engine.schedule.p50_us", "us", Lower, &DECISIONS),
    layer("engine.schedule.p99_us", "us", Lower, &DECISIONS),
    layer("engine.schedule_share", "fraction", Lower, &DECISIONS),
    layer(
        "engine.housekeeping_share",
        "fraction",
        Lower,
        &HOUSEKEEPING,
    ),
    layer("engine.build_s", "s", Lower, &SETUP_ALL),
    // htm: cas-core's drain engine, read from stage2_stats().
    layer("htm.drains", "count", Lower, &DECISIONS),
    layer("htm.drains_per_decision", "count", Lower, &DECISIONS),
    layer("htm.truncation_rate", "fraction", Higher, &[TPS_DENSE]),
    layer("htm.prefix_reuse_rate", "fraction", Higher, &DECISIONS),
    layer("htm.memo_hit_rate", "fraction", Higher, &DECISIONS),
    layer("htm.cross_task_hits", "count", Higher, &[TPS_TRACE]),
    // prof: the library's always-on phase profiler.
    layer("prof.stage1_walk_s", "s", Lower, &DECISIONS),
    layer("prof.stage2_predict_s", "s", Lower, &DECISIONS),
    layer("prof.commit_hooks_s", "s", Lower, &DECISIONS),
    layer("prof.kernel_pop_s", "s", Lower, &[TPS_SPARSE, TPS_DENSE]),
    layer("prof.churn_s", "s", Lower, &[TPS_TRACE]),
    layer("prof.reports_s", "s", Lower, &HOUSEKEEPING),
    layer("prof.unattributed_share", "fraction", Lower, &[]),
    // admission, churn and per-class SLOs (trace_churn).
    layer(
        "admission.buffered",
        "count",
        Lower,
        &[DONE_TRACE, P99_TRACE],
    ),
    layer("admission.shed_deadline", "count", Lower, &[DONE_TRACE]),
    layer("admission.shed_overflow", "count", Lower, &[DONE_TRACE]),
    layer("admission.reentries", "count", Lower, &[DONE_TRACE]),
    layer("admission.peak_buffered", "count", Lower, &[P99_TRACE]),
    layer("admission.wait_p99_s", "s", Lower, &[P99_TRACE]),
    layer("churn.crashes", "count", Lower, &[DONE_TRACE]),
    layer(
        "churn.retractions",
        "count",
        Lower,
        &[DONE_TRACE, P99_TRACE],
    ),
    layer(
        "churn.redispatches",
        "count",
        Lower,
        &[DONE_TRACE, P99_TRACE],
    ),
    layer("slo.user0.p99_stretch", "ratio", Lower, &[P99_TRACE]),
    layer("slo.user0.drop_rate", "fraction", Lower, &[DONE_TRACE]),
    layer("slo.user1.p99_stretch", "ratio", Lower, &[P99_TRACE]),
    layer("slo.user1.drop_rate", "fraction", Lower, &[DONE_TRACE]),
    layer("slo.user2.p99_stretch", "ratio", Lower, &[P99_TRACE]),
    layer("slo.user2.drop_rate", "fraction", Lower, &[DONE_TRACE]),
    // runner: the replication pool (paper_matrix).
    layer("runner.replications", "count", Higher, &[]),
    layer("runner.rep_run_s_p50", "s", Lower, &[TPS_MATRIX]),
    layer("runner.rep_run_s_max", "s", Lower, &[TPS_MATRIX]),
    layer(
        "runner.pool_speedup",
        "ratio",
        Higher,
        &[TPS_MATRIX, RSS_MATRIX],
    ),
    // workload: generation and trace ingest.
    layer("workload.generate_s", "s", Lower, &SETUP_ALL),
    layer("workload.csv_parse_s", "s", Lower, &[SETUP_TRACE]),
    layer("workload.compile_s", "s", Lower, &[SETUP_TRACE]),
    // metrics: report building and the simulated outcomes it computes.
    layer("metrics.report_s", "s", Lower, &[]),
    layer("metrics.failed_frac", "fraction", Lower, &[]),
    layer("metrics.pred_err_p50_pct", "%", Lower, &[]),
    layer("metrics.pred_err_p99_pct", "%", Lower, &[]),
    // trace: the cost of tracing itself.
    layer("trace.overhead_frac", "fraction", Lower, &[]),
    layer("trace.run_s", "s", Lower, &[]),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// The seed used while building and tuning.
    const DEFAULT_SEED: u64 = 1;
    /// Held out: used only to confirm a later performance claim.
    const HELD_OUT_SEED: u64 = 20031;
    /// Seconds one run measures.
    const RUN_SECONDS: u64 = 25;

    fn quoted(items: impl Iterator<Item = String>, indent: &str) -> String {
        items
            .map(|s| format!("{indent}{s}"))
            .collect::<Vec<_>>()
            .join(",\n")
    }

    /// The repository's `BENCHMARK.json`.
    fn benchmark_json() -> String {
        let workloads = quoted(
            WORKLOADS
                .iter()
                .map(|(n, why)| format!("{{\"name\": \"{n}\", \"why\": \"{why}\"}}")),
            "    ",
        );
        let e2e = quoted(
            END_TO_END.iter().map(|m| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    m.better.as_str(),
                    m.bound
                )
            }),
            "    ",
        );
        let per_layer = quoted(
            PER_LAYER.iter().map(|m| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    m.better.as_str()
                )
            }),
            "    ",
        );
        format!(
            "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
             \"--manifest-path\", \"casbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"casbench\"],\n  \
             \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{workloads}\n  ],\n  \
             \"end_to_end\": [\n{e2e}\n  ],\n  \"per_layer\": [\n{per_layer}\n  ]\n}}\n"
        )
    }

    /// `casbench/schema.json`: seeds, schema version and, for every
    /// per-layer metric, what it should move. Bounds live only in
    /// `BENCHMARK.json`.
    fn schema_json() -> String {
        let moves = |m: &Metric| {
            m.moves
                .iter()
                .map(|(metric, workload)| {
                    format!("{{\"metric\": \"{metric}\", \"workload\": \"{workload}\"}}")
                })
                .collect::<Vec<_>>()
                .join(", ")
        };
        let per_layer = quoted(
            PER_LAYER.iter().map(|m| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"moves\": [{}]}}",
                    m.name,
                    m.unit,
                    m.better.as_str(),
                    moves(m)
                )
            }),
            "    ",
        );
        format!(
            "{{\n  \"schema_version\": {SCHEMA_VERSION},\n  \"default_seed\": {DEFAULT_SEED},\n  \
             \"held_out_seed\": {HELD_OUT_SEED},\n  \"per_layer\": [\n{per_layer}\n  ]\n}}\n"
        )
    }

    /// The committed files match the tables. With `CASBENCH_BLESS=1` the
    /// test rewrites them instead.
    #[test]
    fn committed_files_match_tables() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
        for (path, text) in [
            (format!("{root}/BENCHMARK.json"), benchmark_json()),
            (format!("{root}/casbench/schema.json"), schema_json()),
        ] {
            if std::env::var_os("CASBENCH_BLESS").is_some() {
                std::fs::write(&path, &text).expect("write blessed file");
            }
            let committed = std::fs::read_to_string(&path).expect("committed file exists");
            assert_eq!(
                committed, text,
                "{path} is stale; rerun with CASBENCH_BLESS=1"
            );
        }
    }

    #[test]
    fn names_are_unique_and_bounded() {
        let mut seen = HashSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let workloads: HashSet<_> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        let e2e: HashSet<_> = END_TO_END.iter().map(|m| m.name).collect();
        for m in &PER_LAYER {
            for (metric, workload) in m.moves {
                assert!(e2e.contains(metric), "{} moves unknown {metric}", m.name);
                assert!(
                    workloads.contains(workload),
                    "{} on unknown {workload}",
                    m.name
                );
            }
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200);
        }
    }
}
