//! The casgrid benchmark.
//!
//! ```text
//! casbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it builds the workload from the seed, runs it on the
//! production queue again and again for `--seconds`, checks every run and
//! reports the end-to-end metrics (medians over the runs for host
//! timings). With `--trace 1` it runs the workload once plain and once
//! through the traced queue, checks that both produce the same records,
//! and reports the per-layer metrics. The first stdout line is the
//! provenance of the result; the last is the result itself. See
//! `casbench/README.md`.

mod check;
mod schema;
mod tracer;
mod workloads;

use cas_metrics::{finish_sooner_count, per_class_slo, percentile, MetricSet, TaskRecord};
use cas_sim::prof;
use check::{counters_ok, quality, records_digest, tally, terminal_ok, Quality};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use tracer::{StepLedger, HOUSEKEEPING, KINDS, SCHEDULE};
use workloads::{Built, RunRecord, SetupTimes, Workload, PAPER_HEURISTICS};

/// Plain runs per invocation, at least, however short `--seconds` is.
const MIN_ITERS: usize = 3;
/// Before each plain run the workload is built back to back for at least
/// this long. `setup_s` is the median over every build, so a short set-up
/// gets many samples and a preempted build drops out.
const SETUP_BATCH: Duration = Duration::from_millis(100);
/// Set-ups in a traced invocation, for the per-stage medians.
const TRACED_SETUPS: usize = 5;
/// Stop starting new runs after this long, whatever `--seconds` says.
const HARD_CAP: Duration = Duration::from_secs(120);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if flags.insert(flag.as_str(), value.as_str()).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let get = |name: &str| {
        flags
            .get(name)
            .copied()
            .ok_or_else(|| format!("missing {name}"))
    };
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let workload = Workload::parse(get("--workload")?)
        .ok_or_else(|| format!("--workload must be one of {}", names.join("|")))?;
    let num = |name: &str| -> Result<u64, String> {
        get(name)?
            .parse()
            .map_err(|_| format!("{name} must be a whole number"))
    };
    let seed = num("--seed")?;
    let seconds = num("--seconds")?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    if let Some(extra) = flags
        .keys()
        .find(|k| !["--workload", "--seed", "--seconds", "--trace"].contains(k))
    {
        return Err(format!("unknown flag {extra}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The commit the checkout was taken from, when it is a git work tree.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(name) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{name}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// What an invocation prints as its last line.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

/// Runs a built workload on the production path. Matrix runs come back
/// without engine counters (the runner does not expose them).
fn run_plain(built: Built) -> Vec<RunRecord> {
    match built {
        Built::Matrix(tables) => workloads::run_matrix(&tables)
            .into_iter()
            .map(RunRecord::from_records)
            .collect(),
        Built::Campaign(world) => vec![workloads::run_world(*world)],
    }
}

/// Checks every run: terminal accounting, and for single campaigns the
/// engine counters against the records. Returns the number of runs that
/// failed.
fn failed_runs(runs: &[RunRecord], campaign: bool) -> u64 {
    runs.iter()
        .filter(|r| {
            let t = tally(&r.records);
            !(terminal_ok(&t) && (!campaign || counters_ok(r, &t)))
        })
        .count() as u64
}

fn digest_of(runs: &[RunRecord]) -> u64 {
    records_digest(runs.iter().map(|r| r.records.as_slice()))
}

fn quality_of(runs: &[RunRecord]) -> Quality {
    quality(runs.iter().map(|r| r.records.as_slice()))
}

/// Builds the workload back to back for at least [`SETUP_BATCH`], adds
/// each build's set-up time (s) to `setups` and returns the last build.
fn batched_build(w: Workload, seed: u64, setups: &mut Vec<f64>) -> Built {
    let start = Instant::now();
    loop {
        let (built, times) = workloads::build(w, seed);
        setups.push(secs(times.total()));
        if start.elapsed() >= SETUP_BATCH {
            return built;
        }
    }
}

/// `dense_burst` is noise-free and memory-free, so its HTM must predict
/// every completion exactly. Other workloads pass.
fn exact_htm_ok(w: Workload, q: &Quality) -> bool {
    if w == Workload::DenseBurst && q.pred_err_p99_pct > 1e-6 {
        eprintln!(
            "dense_burst prediction error {} % is not ~0",
            q.pred_err_p99_pct
        );
        return false;
    }
    true
}

/// `--trace 0`: repeated plain runs, end-to-end metrics.
fn untraced(args: &Args) -> Outcome {
    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.seconds);
    let (mut setups, mut rates) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut correct = true;
    let mut reference: Option<(u64, Quality)> = None;
    let campaign = args.workload != Workload::PaperMatrix;
    loop {
        let built = batched_build(args.workload, args.seed, &mut setups);
        let tasks = workloads::task_count(&built);
        let t0 = Instant::now();
        let runs = std::hint::black_box(run_plain(built));
        rates.push(tasks as f64 / secs(t0.elapsed()));
        attempted += runs.len() as u64;
        failed += failed_runs(&runs, campaign);
        let digest = digest_of(&runs);
        match &reference {
            None => {
                let q = quality_of(&runs);
                eprintln!(
                    "{}: {tasks} tasks, records_digest {digest:016x}, {q:?}",
                    args.workload.name()
                );
                reference = Some((digest, q));
            }
            Some((d, _)) if *d != digest => {
                eprintln!(
                    "run {} diverged: digest {digest:016x} != {d:016x}",
                    rates.len()
                );
                correct = false;
            }
            Some(_) => {}
        }
        let now = Instant::now();
        if (rates.len() >= MIN_ITERS && now >= deadline) || now >= start + HARD_CAP {
            break;
        }
    }
    let (_, q) = reference.expect("at least one run");
    let rss = peak_rss_mb();
    correct &= rss.is_some() && failed == 0 && exact_htm_ok(args.workload, &q);
    eprintln!(
        "{} plain runs; tasks/s {:?}; {} builds",
        rates.len(),
        rates.iter().map(|r| r.round()).collect::<Vec<_>>(),
        setups.len()
    );
    Outcome {
        correct,
        attempted,
        failed,
        metrics: named(&[
            ("setup_s", median(&setups)),
            ("tasks_per_s", median(&rates)),
            ("peak_rss_mb", rss.unwrap_or(0.0)),
            ("completed_frac", q.completed_frac),
            ("mean_stretch", q.mean_stretch),
            ("p99_stretch", q.p99_stretch),
            ("pred_within_1pct_frac", q.pred_within_1pct_frac),
            ("pred_within_10pct_frac", q.pred_within_10pct_frac),
        ]),
    }
}

/// Per-stage medians over several set-ups.
fn setup_medians(w: Workload, seed: u64) -> SetupTimes {
    let runs: Vec<SetupTimes> = (0..TRACED_SETUPS)
        .map(|_| workloads::build(w, seed).1)
        .collect();
    let med = |f: fn(&SetupTimes) -> Duration| {
        Duration::from_secs_f64(median(&runs.iter().map(|t| secs(f(t))).collect::<Vec<_>>()))
    };
    SetupTimes {
        generate: med(|t| t.generate),
        csv_parse: med(|t| t.csv_parse),
        compile: med(|t| t.compile),
        build: med(|t| t.build),
    }
}

/// Everything the traced pass measured.
#[derive(Default)]
struct TracedPass {
    runs: Vec<RunRecord>,
    ledger: StepLedger,
    queue: workloads::QueueStats,
    prof: prof::PhaseTotals,
    run: Duration,
    /// Matrix only: plain single-replication run times.
    single: Vec<f64>,
}

impl TracedPass {
    fn traced(&mut self, world: cas_middleware::GridWorld) {
        let before = prof::snapshot();
        let t0 = Instant::now();
        let (run, q) = workloads::run_world_traced(world, &mut self.ledger);
        self.run += t0.elapsed();
        let d = prof::snapshot().since(&before);
        for i in 0..prof::N_PHASES {
            self.prof.nanos[i] += d.nanos[i];
            self.prof.counts[i] += d.counts[i];
        }
        self.queue.pushes += q.pushes;
        self.queue.push_time += q.push_time;
        self.queue.pop_time += q.pop_time;
        self.queue.migrations += q.migrations;
        self.runs.push(run);
    }
}

/// `--trace 1`: one plain run for reference, one traced pass, per-layer
/// metrics.
fn traced(args: &Args) -> Outcome {
    let w = args.workload;
    let setup = setup_medians(w, args.seed);
    let campaign = w != Workload::PaperMatrix;

    let (built, _) = workloads::build(w, args.seed);
    let tasks = workloads::task_count(&built) as f64;
    let t0 = Instant::now();
    let plain = run_plain(built);
    let plain_s = secs(t0.elapsed());

    let mut pass = TracedPass::default();
    let mut reps = 1;
    match workloads::build(w, args.seed).0 {
        Built::Matrix(tables) => {
            reps = tables[0].workloads.len();
            for table in &tables {
                for kind in PAPER_HEURISTICS {
                    for rep in 0..table.workloads.len() {
                        let t1 = Instant::now();
                        std::hint::black_box(workloads::run_world(workloads::matrix_cell(
                            table, kind, rep,
                        )));
                        pass.single.push(secs(t1.elapsed()));
                        pass.traced(workloads::matrix_cell(table, kind, rep));
                    }
                }
            }
        }
        Built::Campaign(world) => pass.traced(*world),
    }
    let traced_s = secs(pass.run);

    let mut correct = true;
    let (du, dt) = (digest_of(&plain), digest_of(&pass.runs));
    eprintln!("records_digest plain {du:016x} traced {dt:016x}");
    if du != dt {
        eprintln!("traced records differ from plain records");
        correct = false;
    }
    let failed = failed_runs(&plain, campaign) + failed_runs(&pass.runs, campaign);
    let attempted = (plain.len() + pass.runs.len()) as u64;
    correct &= failed == 0 && pass.ledger.accounted() == pass.ledger.steps_total;

    // The report layer: what building the paper's and the SLO reports
    // from the records costs.
    let t2 = Instant::now();
    let q = quality_of(&pass.runs);
    let metric_sets: Vec<MetricSet> = pass
        .runs
        .iter()
        .map(|r| MetricSet::compute(&r.records))
        .collect();
    std::hint::black_box(&metric_sets);
    let all: Vec<TaskRecord> = pass
        .runs
        .iter()
        .flat_map(|r| r.records.iter().copied())
        .collect();
    let users: Vec<u32> = pass
        .runs
        .iter()
        .flat_map(|r| r.users.iter().copied())
        .collect();
    let waits: Vec<f64> = if campaign {
        pass.runs[0].waits.clone()
    } else {
        Vec::new()
    };
    let slo = per_class_slo(&all, &users, &waits);
    if !campaign {
        // Runs are table × heuristic × replication, every table with the
        // same replications; MCT is heuristic 0, the paper's baseline.
        let cols = PAPER_HEURISTICS.len();
        let mut sooner = 0;
        for (i, run) in pass.runs.iter().enumerate() {
            let (table, col, rep) = (i / (reps * cols), (i / reps) % cols, i % reps);
            if col > 0 {
                let base = &pass.runs[table * reps * cols + rep].records;
                sooner += finish_sooner_count(&run.records, base);
            }
        }
        std::hint::black_box(sooner);
    }
    let report_s = secs(t2.elapsed());

    let l = &pass.ledger;
    let events: u64 = pass.runs.iter().map(|r| r.events).sum();
    let stage2 = pass
        .runs
        .iter()
        .fold(cas_core::MemoStats::default(), |a, r| a.merge(r.stage2));
    let admission = pass
        .runs
        .iter()
        .fold(cas_middleware::AdmissionStats::default(), |a, r| {
            cas_middleware::AdmissionStats {
                buffered: a.buffered + r.admission.buffered,
                shed_deadline: a.shed_deadline + r.admission.shed_deadline,
                shed_overflow: a.shed_overflow + r.admission.shed_overflow,
                reentries: a.reentries + r.admission.reentries,
                peak_buffered: a.peak_buffered.max(r.admission.peak_buffered),
                ..a
            }
        });
    let churn = pass.runs.iter().fold((0, 0, 0), |a, r| {
        (
            a.0 + r.churn.crashes,
            a.1 + r.churn.retractions,
            a.2 + r.churn.redispatches,
        )
    });
    let buffered_waits: Vec<f64> = waits.iter().copied().filter(|&w| w > 0.0).collect();
    let sched: Vec<f64> = l.schedule_samples.iter().map(|d| secs(*d) * 1e6).collect();
    let decisions = l.kinds[SCHEDULE].count;
    let per_event = |d: Duration| {
        if events == 0 {
            0.0
        } else {
            d.as_nanos() as f64 / events as f64
        }
    };
    let share = |d: Duration| secs(d) / traced_s;
    let prof_s = |p: prof::Phase| pass.prof.nanos_of(p) as f64 * 1e-9;
    let prof_total = pass.prof.total_nanos() as f64 * 1e-9;
    let (rep_p50, rep_max, speedup) = if campaign {
        (plain_s, plain_s, 1.0)
    } else {
        let sum: f64 = pass.single.iter().sum();
        (
            median(&pass.single),
            pass.single.iter().cloned().fold(0.0, f64::max),
            sum / plain_s,
        )
    };

    let mut m = named(&[
        ("sim.events", events as f64),
        ("sim.events_per_task", events as f64 / tasks),
        ("sim.pushes", pass.queue.pushes as f64),
        ("sim.pop_ns_per_event", per_event(pass.queue.pop_time)),
        ("sim.push_ns_per_event", per_event(pass.queue.push_time)),
        (
            "sim.peak_pending",
            pass.runs.iter().map(|r| r.peak_pending).max().unwrap_or(0) as f64,
        ),
        ("sim.queue_migrations", pass.queue.migrations as f64),
        ("engine.init_s", secs(l.init)),
    ]);
    for (k, name) in KINDS.iter().enumerate() {
        m.push((format!("engine.{name}.count"), l.kinds[k].count as f64));
        m.push((format!("engine.{name}.self_s"), secs(l.kinds[k].self_time)));
    }
    let housekeeping: Duration = HOUSEKEEPING.iter().map(|&k| l.kinds[k].total()).sum();
    m.extend(named(&[
        (
            "engine.schedule.p50_us",
            percentile(&sched, 0.5).unwrap_or(0.0),
        ),
        (
            "engine.schedule.p99_us",
            percentile(&sched, 0.99).unwrap_or(0.0),
        ),
        ("engine.schedule_share", share(l.kinds[SCHEDULE].total())),
        ("engine.housekeeping_share", share(housekeeping)),
        ("engine.build_s", secs(setup.build)),
        ("htm.drains", stage2.drains as f64),
        (
            "htm.drains_per_decision",
            stage2.drains as f64 / decisions.max(1) as f64,
        ),
        ("htm.truncation_rate", stage2.truncation_rate()),
        ("htm.prefix_reuse_rate", stage2.prefix_reuse_rate()),
        ("htm.memo_hit_rate", stage2.hit_rate()),
        ("htm.cross_task_hits", stage2.cross_task_hits as f64),
        ("prof.stage1_walk_s", prof_s(prof::Phase::Stage1Walk)),
        ("prof.stage2_predict_s", prof_s(prof::Phase::Stage2Predict)),
        ("prof.commit_hooks_s", prof_s(prof::Phase::CommitHooks)),
        ("prof.kernel_pop_s", prof_s(prof::Phase::KernelPop)),
        ("prof.churn_s", prof_s(prof::Phase::Churn)),
        ("prof.reports_s", prof_s(prof::Phase::Reports)),
        (
            "prof.unattributed_share",
            (traced_s - prof_total) / traced_s,
        ),
        ("admission.buffered", admission.buffered as f64),
        ("admission.shed_deadline", admission.shed_deadline as f64),
        ("admission.shed_overflow", admission.shed_overflow as f64),
        ("admission.reentries", admission.reentries as f64),
        ("admission.peak_buffered", admission.peak_buffered as f64),
        (
            "admission.wait_p99_s",
            percentile(&buffered_waits, 0.99).unwrap_or(0.0),
        ),
        ("churn.crashes", churn.0 as f64),
        ("churn.retractions", churn.1 as f64),
        ("churn.redispatches", churn.2 as f64),
    ]));
    for user in 0..3u32 {
        let class = slo.iter().find(|c| c.user == user);
        m.push((
            format!("slo.user{user}.p99_stretch"),
            class.and_then(|c| c.p99_stretch).unwrap_or(0.0),
        ));
        m.push((
            format!("slo.user{user}.drop_rate"),
            class.map_or(0.0, |c| c.drop_rate_pct / 100.0),
        ));
    }
    m.extend(named(&[
        ("runner.replications", pass.runs.len() as f64),
        ("runner.rep_run_s_p50", rep_p50),
        ("runner.rep_run_s_max", rep_max),
        ("runner.pool_speedup", speedup),
        ("workload.generate_s", secs(setup.generate)),
        ("workload.csv_parse_s", secs(setup.csv_parse)),
        ("workload.compile_s", secs(setup.compile)),
        ("metrics.report_s", report_s),
        ("metrics.failed_frac", q.failed_frac),
        ("metrics.pred_err_p50_pct", q.pred_err_p50_pct),
        ("metrics.pred_err_p99_pct", q.pred_err_p99_pct),
        (
            "trace.overhead_frac",
            traced_s
                / if campaign {
                    plain_s
                } else {
                    pass.single.iter().sum()
                }
                - 1.0,
        ),
        ("trace.run_s", traced_s),
    ]));
    correct &= exact_htm_ok(w, &q);
    Outcome {
        correct,
        attempted,
        failed,
        metrics: m,
    }
}

fn named(metrics: &[(&str, f64)]) -> Vec<(String, f64)> {
    metrics.iter().map(|&(n, v)| (n.to_string(), v)).collect()
}

/// Renders the result line. The metric set must be exactly the schema's
/// for the mode, and every value finite; otherwise the result is marked
/// incorrect.
fn render(out: &Outcome, trace: bool) -> String {
    let expected = if trace {
        &schema::PER_LAYER[..]
    } else {
        &schema::END_TO_END[..]
    };
    let mut correct = out.correct && out.metrics.len() == expected.len();
    let mut body = Vec::new();
    for m in expected {
        let value = out
            .metrics
            .iter()
            .find(|(n, _)| *n == m.name)
            .map(|(_, v)| *v);
        let value = match value {
            Some(v) if v.is_finite() => v,
            other => {
                eprintln!("metric {} is {other:?}", m.name);
                correct = false;
                0.0
            }
        };
        body.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "casbench: {e}\nusage: casbench --workload <name> --seed <n> --seconds <s> \
                 --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let params: Vec<String> = args
        .workload
        .params()
        .into_iter()
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .collect();
    println!(
        "{{\"provenance\": {{\"schema_version\": {}, \"git_rev\": \"{}\", \"nproc\": {}, \
         \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"params\": {{{}}}}}}}",
        schema::SCHEMA_VERSION,
        git_rev(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        params.join(", ")
    );
    let out = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    let line = render(&out, args.trace);
    println!("{line}");
    if line.starts_with("{\"correct\": true") {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
