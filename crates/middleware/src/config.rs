//! Experiment configuration.

use cas_core::heuristics::HeuristicKind;
use cas_core::{SelectorKind, Stage2Mode, SyncPolicy};
use cas_platform::{IndexScoring, MemoryModel, RankingsBackend, ShardMap};

/// How the agent's decision state is partitioned across the farm.
///
/// `Single` is the paper's one-agent configuration and the executable
/// spec. The federated variants split the farm into shards behind
/// `cas_middleware`'s deterministic router; `Federated { shards: 1 }`
/// runs the full router machinery over one shard and is proven
/// bit-identical to `Single` by the differential tests (so `--shards 1`
/// is a safe way to exercise the router).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Sharding {
    /// One engine owns the whole farm (the unsharded path).
    #[default]
    Single,
    /// Shard count picked from the platform size
    /// ([`ShardMap::auto_shards`]): deterministic in the farm alone,
    /// never in the host.
    Auto {
        /// Shards-per-group fan-out of the two-level skyline tree
        /// (`--shards auto:GROUPSIZE`); `None` takes the router default
        /// ([`cas_platform::ShardTree::DEFAULT_GROUP_SHARDS`]).
        group_size: Option<usize>,
    },
    /// Explicit shard count (clamped to the farm size).
    Federated {
        /// Number of shards (≥ 1).
        shards: usize,
    },
}

impl Sharding {
    /// The auto mode with the default group fan-out (what bare
    /// `--shards auto` means).
    pub const AUTO: Sharding = Sharding::Auto { group_size: None };

    /// Parses `auto`, `auto:GROUPSIZE` (group fan-out ≥ 1) or a shard
    /// count ≥ 1 (the `--shards` grammar).
    pub fn parse(s: &str) -> Option<Sharding> {
        if s.eq_ignore_ascii_case("auto") {
            return Some(Sharding::AUTO);
        }
        if let Some(gs) = s
            .get(..5)
            .filter(|p| p.eq_ignore_ascii_case("auto:"))
            .map(|_| &s[5..])
        {
            return gs
                .parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .map(|n| Sharding::Auto {
                    group_size: Some(n),
                });
        }
        s.parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .map(|shards| Sharding::Federated { shards })
    }

    /// The shard count to run an `n_servers` farm with, or `None` for the
    /// single-agent path.
    pub fn resolve(self, n_servers: usize) -> Option<usize> {
        match self {
            Sharding::Single => None,
            Sharding::Auto { .. } => Some(ShardMap::auto_shards(n_servers)),
            Sharding::Federated { shards } => Some(shards.clamp(1, n_servers.max(1))),
        }
    }

    /// The group fan-out override carried by `auto:GROUPSIZE`, if any.
    pub fn group_size(self) -> Option<usize> {
        match self {
            Sharding::Auto { group_size } => group_size,
            _ => None,
        }
    }
}

/// What happens when a server refuses a task (memory exhaustion).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTolerance {
    /// The client gives up: the task fails. This matches the paper's
    /// HTM-heuristic implementations at the high rate (Table 6: HMCT
    /// completes only 358/500).
    None,
    /// The client retries through the agent with the refusing server
    /// excluded, up to `max_attempts` total tries — "the NetSolve MCT has
    /// fault tolerance mechanisms that permit to schedule almost all
    /// tasks" (§5.1).
    RankedRetry {
        /// Total placement attempts allowed per task.
        max_attempts: u32,
    },
}

impl FaultTolerance {
    /// The paper's configuration for a given heuristic: NetSolve's MCT path
    /// retries; the prototype HTM heuristics did not.
    pub fn paper_default(kind: HeuristicKind) -> FaultTolerance {
        match kind {
            HeuristicKind::Mct => FaultTolerance::RankedRetry { max_attempts: 8 },
            _ => FaultTolerance::None,
        }
    }
}

/// Why an [`ExperimentConfig`] cannot run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// A duration that must be finite and positive (`field`) is zero,
    /// negative or not finite: a housekeeping period, the load-average
    /// time constant `load_tau`, or `mttr` while churn is on. A period
    /// that does not advance simulated time would make the lazy load book
    /// replay report instants forever, and a NaN or infinite one panics
    /// when converted to a simulated instant.
    BadPeriod {
        /// The offending [`ExperimentConfig`] field.
        field: &'static str,
        /// Its value.
        value: f64,
    },
    /// A duration whose infinity means "never" (`field`) is zero,
    /// negative or NaN: `mtbf` (∞ turns churn off), or
    /// `admission_deadline` while admission is on (∞ waits forever).
    BadDuration {
        /// The offending [`ExperimentConfig`] field.
        field: &'static str,
        /// Its value.
        value: f64,
    },
    /// A magnitude that must be finite and `≥ 0` (`field`) is negative
    /// or not finite: `noise_sigma`, `agent_latency`, or
    /// `redispatch_backoff` while churn is on. A negative or infinite
    /// latency would schedule an event before `now` or never, and the
    /// noise distribution panics on a negative or non-finite σ.
    BadNonNegative {
        /// The offending [`ExperimentConfig`] field.
        field: &'static str,
        /// Its value.
        value: f64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::BadPeriod { field, value } => write!(
                f,
                "{field} must be a finite number of seconds > 0, got {value}"
            ),
            ConfigError::BadDuration { field, value } => write!(
                f,
                "{field} must be a number of seconds > 0 or inf, got {value}"
            ),
            ConfigError::BadNonNegative { field, value } => {
                write!(f, "{field} must be a finite number >= 0, got {value}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// All knobs of one experiment run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// The scheduling policy under test.
    pub heuristic: HeuristicKind,
    /// Stage-1 candidate selection: which servers even get an HTM what-if
    /// query. [`SelectorKind::Exhaustive`] (the default) reproduces the
    /// paper's every-solver loop; `TopK`/`Adaptive` prune the candidate
    /// set from the incrementally maintained static index first.
    pub selector: SelectorKind,
    /// How the agent's decision state is partitioned across the farm:
    /// the single-agent path (default) or a shard federation behind the
    /// deterministic router.
    pub shards: Sharding,
    /// Which static proxy orders the stage-1 index: predicted remaining
    /// work (default) or the count-based baseline.
    pub index_scoring: IndexScoring,
    /// Which data structure stores the stage-1 rankings
    /// (`--rankings flat|btree`, default flat): the cache-friendly flat
    /// ladder, or the original per-problem `BTreeSet` — the executable
    /// spec the flat backend is differentially proven bit-identical to.
    pub rankings: RankingsBackend,
    /// Which stage-2 drain engine answers what-if queries
    /// (`--stage2 full|fast`, default fast): truncated prefix-sharing
    /// drains, or the pre-optimisation engine kept as the executable
    /// spec the fast path is differentially proven bit-identical to.
    pub stage2: Stage2Mode,
    /// Lazy federation merge (`--skyline on|off`, default on): the router
    /// visits shards in skyline order and skips shards whose best stage-1
    /// score provably cannot reach the merged shortlist. A pure pruning
    /// of the merge — decisions are bit-identical either way (proven by
    /// the differential harness) — so `false` exists only as the
    /// executable-spec arm of those differential runs. Ignored by the
    /// single-agent path and by exhaustive selectors (which always take
    /// the full union).
    pub skyline: bool,
    /// Refresh load reports with one aggregated kernel event per shard
    /// and period (default off) instead of the default lazy per-server
    /// reports, which cost no kernel event at all (see
    /// [`crate::housekeeping`]). Changes *when* reports refresh (a
    /// shard's servers report together at the shard's phase instead of
    /// staggered per-server), so it is a config knob rather than a
    /// sharding side-effect — the S = 1 ≡ Single invariant is stated at
    /// equal report modes.
    pub aggregated_reports: bool,
    /// HTM ↔ reality synchronisation policy.
    pub sync: SyncPolicy,
    /// Root seed: drives ground-truth noise and tie-breaking. The workload
    /// itself is generated separately (its own seed) so the same metatask
    /// can be replayed under many heuristics.
    pub seed: u64,
    /// Server load-report period, seconds (NetSolve monitors report
    /// periodically; the agent's picture is stale in between).
    pub load_report_period: f64,
    /// Load-average damping time constant, seconds (UNIX 1-min: 60).
    pub load_tau: f64,
    /// σ of the multiplicative log-normal CPU/link speed noise
    /// (ground-truth realism; 0 disables noise). The paper's validation
    /// observed ≈3 % deviation between model and reality.
    pub noise_sigma: f64,
    /// How often ground-truth speed factors are redrawn, seconds.
    pub noise_redraw_period: f64,
    /// Agent processing latency per request, seconds (measured < 0.01 s in
    /// the paper).
    pub agent_latency: f64,
    /// Memory model for the servers.
    pub memory: MemoryModel,
    /// Behaviour on server refusal.
    pub fault_tolerance: FaultTolerance,
    /// When `true`, all input/output transfers of *all* servers share one
    /// client-side link, so any transfer interferes with any other — the
    /// paper's §6 communication model ("we assume that all tasks can create
    /// communication bandwidth interference for any other task"). When
    /// `false` (default), each server has its own independent link pair, as
    /// the HTM models. The gap between the two is an ablation
    /// (`ablation_htm`): the HTM stays per-server either way, so enabling
    /// this measures the cost of that modelling simplification.
    pub shared_client_link: bool,
    /// Mean time between failures per server, seconds
    /// (`f64::INFINITY`, the default, freezes the farm: no churn events
    /// are scheduled and no churn RNG stream is derived, so the run is
    /// bit-identical to a pre-lifecycle build).
    pub mtbf: f64,
    /// Mean time to repair after a crash, seconds.
    pub mttr: f64,
    /// Seed of the fault schedule, independent of `seed` so the same
    /// world can be replayed under different fault schedules.
    pub churn_seed: u64,
    /// Delay before a crash-retracted task re-enters the decision
    /// pipeline, seconds (a client would not observe the failure and
    /// resubmit instantaneously).
    pub redispatch_backoff: f64,
    /// Total dispatch attempts allowed per task across crash
    /// re-dispatches; beyond it the task is dropped with a reason code.
    pub redispatch_budget: u32,
    /// Backpressure: maximum tasks concurrently admitted past the
    /// agent's admission gate. `0` (the default) disables admission
    /// control entirely — submissions go straight to the decision
    /// pipeline and the run is bit-identical to a pre-backpressure
    /// build.
    pub admission_capacity: usize,
    /// Bounded admission-buffer size: tasks arriving while the gate is
    /// full wait here; arrivals beyond this bound are shed immediately
    /// with `DropReason::AdmissionDeadline`.
    pub admission_buffer: usize,
    /// Seconds a task may wait in the admission buffer before being
    /// shed with `DropReason::AdmissionDeadline`
    /// (`f64::INFINITY` = wait forever).
    pub admission_deadline: f64,
}

impl ExperimentConfig {
    /// Baseline configuration used by the paper-table experiments: noise at
    /// 3 %, 30 s load reports, 60 s load damping, memory model on, paper
    /// fault-tolerance defaults for the heuristic.
    pub fn paper(heuristic: HeuristicKind, seed: u64) -> Self {
        ExperimentConfig {
            heuristic,
            selector: SelectorKind::Exhaustive,
            shards: Sharding::Single,
            index_scoring: IndexScoring::RemainingWork,
            rankings: RankingsBackend::Flat,
            stage2: Stage2Mode::Fast,
            skyline: true,
            aggregated_reports: false,
            sync: SyncPolicy::None,
            seed,
            load_report_period: 30.0,
            load_tau: 60.0,
            noise_sigma: 0.03,
            noise_redraw_period: 20.0,
            agent_latency: 0.005,
            memory: MemoryModel::default(),
            fault_tolerance: FaultTolerance::paper_default(heuristic),
            shared_client_link: false,
            mtbf: f64::INFINITY,
            mttr: 60.0,
            churn_seed: 0,
            redispatch_backoff: 1.0,
            redispatch_budget: 8,
            admission_capacity: 0,
            admission_buffer: 0,
            admission_deadline: f64::INFINITY,
        }
    }

    /// Noise-free, memory-free, instant-information variant: the idealised
    /// environment where the HTM should be *exact* (used by unit tests and
    /// the validation harness's control arm).
    pub fn ideal(heuristic: HeuristicKind, seed: u64) -> Self {
        ExperimentConfig {
            heuristic,
            selector: SelectorKind::Exhaustive,
            shards: Sharding::Single,
            index_scoring: IndexScoring::RemainingWork,
            rankings: RankingsBackend::Flat,
            stage2: Stage2Mode::Fast,
            skyline: true,
            aggregated_reports: false,
            sync: SyncPolicy::None,
            seed,
            load_report_period: 5.0,
            load_tau: 10.0,
            noise_sigma: 0.0,
            noise_redraw_period: 1e6,
            agent_latency: 0.0,
            memory: MemoryModel::disabled(),
            fault_tolerance: FaultTolerance::None,
            shared_client_link: false,
            mtbf: f64::INFINITY,
            mttr: 60.0,
            churn_seed: 0,
            redispatch_backoff: 1.0,
            redispatch_budget: 8,
            admission_capacity: 0,
            admission_buffer: 0,
            admission_deadline: f64::INFINITY,
        }
    }

    /// Returns a copy with a different heuristic (and that heuristic's
    /// paper fault-tolerance default).
    pub fn with_heuristic(mut self, heuristic: HeuristicKind) -> Self {
        self.heuristic = heuristic;
        self.fault_tolerance = FaultTolerance::paper_default(heuristic);
        self
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with a different stage-1 candidate selector.
    pub fn with_selector(mut self, selector: SelectorKind) -> Self {
        self.selector = selector;
        self
    }

    /// Returns a copy with a different sharding mode.
    pub fn with_shards(mut self, shards: Sharding) -> Self {
        self.shards = shards;
        self
    }

    /// Returns a copy with a different stage-1 index scoring proxy.
    pub fn with_index_scoring(mut self, scoring: IndexScoring) -> Self {
        self.index_scoring = scoring;
        self
    }

    /// Returns a copy with a different stage-1 ranking storage backend.
    pub fn with_rankings(mut self, rankings: RankingsBackend) -> Self {
        self.rankings = rankings;
        self
    }

    /// Returns a copy with a different stage-2 drain engine (differential
    /// runs pin `Full` to replay the pre-optimisation engine).
    pub fn with_stage2(mut self, stage2: Stage2Mode) -> Self {
        self.stage2 = stage2;
        self
    }

    /// Returns a copy with the skyline lazy merge toggled (differential
    /// runs pin it off to replay the eager full-scatter router).
    pub fn with_skyline(mut self, skyline: bool) -> Self {
        self.skyline = skyline;
        self
    }

    /// Returns a copy with aggregated per-shard load reports toggled.
    pub fn with_aggregated_reports(mut self, aggregated: bool) -> Self {
        self.aggregated_reports = aggregated;
        self
    }

    /// Returns a copy with fault injection enabled: mean time between
    /// failures and mean time to repair, seconds. `mtbf = f64::INFINITY`
    /// keeps the farm frozen.
    pub fn with_churn(mut self, mtbf: f64, mttr: f64) -> Self {
        self.mtbf = mtbf;
        self.mttr = mttr;
        self
    }

    /// Returns a copy with a different fault-schedule seed.
    pub fn with_churn_seed(mut self, churn_seed: u64) -> Self {
        self.churn_seed = churn_seed;
        self
    }

    /// Returns a copy with admission backpressure enabled: at most
    /// `capacity` tasks concurrently past the gate, at most `buffer`
    /// waiting behind it, each for at most `deadline` seconds before
    /// being shed with `DropReason::AdmissionDeadline`.
    pub fn with_admission(mut self, capacity: usize, buffer: usize, deadline: f64) -> Self {
        self.admission_capacity = capacity;
        self.admission_buffer = buffer;
        self.admission_deadline = deadline;
        self
    }

    /// Whether admission backpressure is on (`admission_capacity > 0`).
    pub fn admission_enabled(&self) -> bool {
        self.admission_capacity > 0
    }

    /// Checks that the configuration can run. Both housekeeping periods
    /// (`load_report_period`, `noise_redraw_period`) and `load_tau` must
    /// be finite and positive; `noise_sigma` and `agent_latency` finite
    /// and `≥ 0`. `mtbf` must be positive (∞ turns churn off), and while
    /// churn is on `mttr` must be finite and positive and
    /// `redispatch_backoff` finite and `≥ 0`. While admission is on,
    /// `admission_deadline` must be positive (∞ waits forever). NaN is
    /// never valid. The CLI reports the error; the `run_*` entry
    /// points and [`GridWorld::new`](crate::GridWorld::new) refuse to
    /// build a world that would hang, panic or silently drop a setting.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let churn = self.mtbf.is_finite();
        for (field, value, applies) in [
            ("load_report_period", self.load_report_period, true),
            ("noise_redraw_period", self.noise_redraw_period, true),
            ("load_tau", self.load_tau, true),
            ("mttr", self.mttr, churn),
        ] {
            if applies && !(value.is_finite() && value > 0.0) {
                return Err(ConfigError::BadPeriod { field, value });
            }
        }
        for (field, value, applies) in [
            ("noise_sigma", self.noise_sigma, true),
            ("agent_latency", self.agent_latency, true),
            ("redispatch_backoff", self.redispatch_backoff, churn),
        ] {
            if applies && !(value.is_finite() && value >= 0.0) {
                return Err(ConfigError::BadNonNegative { field, value });
            }
        }
        for (field, value, applies) in [
            ("mtbf", self.mtbf, true),
            (
                "admission_deadline",
                self.admission_deadline,
                self.admission_enabled(),
            ),
        ] {
            if applies && (value.is_nan() || value <= 0.0) {
                return Err(ConfigError::BadDuration { field, value });
            }
        }
        Ok(())
    }

    /// The churn model this configuration describes (disabled when
    /// `mtbf` is infinite).
    pub fn churn_model(&self) -> cas_workload::ChurnModel {
        cas_workload::ChurnModel {
            mtbf: self.mtbf,
            mttr: self.mttr,
            seed: self.churn_seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = ExperimentConfig::paper(HeuristicKind::Mct, 1);
        assert_eq!(
            c.fault_tolerance,
            FaultTolerance::RankedRetry { max_attempts: 8 }
        );
        assert!(c.memory.enabled);
        let c = ExperimentConfig::paper(HeuristicKind::Hmct, 1);
        assert_eq!(c.fault_tolerance, FaultTolerance::None);
    }

    #[test]
    fn ideal_is_noise_free() {
        let c = ExperimentConfig::ideal(HeuristicKind::Msf, 1);
        assert_eq!(c.noise_sigma, 0.0);
        assert!(!c.memory.enabled);
        assert_eq!(c.agent_latency, 0.0);
    }

    #[test]
    fn sharding_parse_and_resolve() {
        assert_eq!(Sharding::parse("auto"), Some(Sharding::AUTO));
        assert_eq!(Sharding::parse("AUTO"), Some(Sharding::AUTO));
        assert_eq!(
            Sharding::parse("auto:4"),
            Some(Sharding::Auto {
                group_size: Some(4)
            })
        );
        assert_eq!(
            Sharding::parse("AUTO:2"),
            Some(Sharding::Auto {
                group_size: Some(2)
            })
        );
        assert_eq!(Sharding::parse("auto:0"), None);
        assert_eq!(Sharding::parse("auto:"), None);
        assert_eq!(Sharding::parse("auto:x"), None);
        assert_eq!(
            Sharding::parse("4"),
            Some(Sharding::Federated { shards: 4 })
        );
        assert_eq!(Sharding::parse("0"), None);
        assert_eq!(Sharding::parse("-1"), None);
        assert_eq!(Sharding::parse("many"), None);
        assert_eq!(Sharding::Single.resolve(10_000), None);
        assert_eq!(Sharding::AUTO.resolve(10_000), Some(16));
        assert_eq!(Sharding::AUTO.resolve(100), Some(1));
        assert_eq!(Sharding::AUTO.group_size(), None);
        assert_eq!(Sharding::parse("auto:4").unwrap().group_size(), Some(4));
        assert_eq!(Sharding::parse("auto:4").unwrap().resolve(10_000), Some(16));
        assert_eq!(Sharding::Federated { shards: 4 }.group_size(), None);
        assert_eq!(
            Sharding::Federated { shards: 64 }.resolve(8),
            Some(8),
            "clamped so no shard is empty"
        );
        let c = ExperimentConfig::paper(HeuristicKind::Hmct, 1);
        assert_eq!(c.shards, Sharding::Single);
        assert_eq!(c.index_scoring, IndexScoring::RemainingWork);
        assert_eq!(c.with_shards(Sharding::AUTO).shards, Sharding::AUTO);
        assert_eq!(
            c.with_index_scoring(IndexScoring::ActiveCount)
                .index_scoring,
            IndexScoring::ActiveCount
        );
    }

    #[test]
    fn churn_defaults_to_frozen_farm() {
        let c = ExperimentConfig::paper(HeuristicKind::Hmct, 1);
        assert!(c.mtbf.is_infinite());
        assert!(!c.churn_model().enabled());
        let c = c.with_churn(400.0, 60.0).with_churn_seed(9);
        assert_eq!(c.mtbf, 400.0);
        assert_eq!(c.mttr, 60.0);
        assert_eq!(c.churn_seed, 9);
        assert!(c.churn_model().enabled());
        assert_eq!(c.redispatch_budget, 8);
        assert_eq!(c.redispatch_backoff, 1.0);
    }

    #[test]
    fn admission_defaults_off_and_builder_arms_it() {
        let c = ExperimentConfig::paper(HeuristicKind::Hmct, 1);
        assert!(!c.admission_enabled());
        assert_eq!(c.admission_capacity, 0);
        assert_eq!(c.admission_buffer, 0);
        assert!(c.admission_deadline.is_infinite());
        assert!(!ExperimentConfig::ideal(HeuristicKind::Mct, 1).admission_enabled());
        let c = c.with_admission(4, 32, 120.0);
        assert!(c.admission_enabled());
        assert_eq!(c.admission_capacity, 4);
        assert_eq!(c.admission_buffer, 32);
        assert_eq!(c.admission_deadline, 120.0);
    }

    /// Zero, negative and non-finite housekeeping periods are typed
    /// errors naming the field, never a hang or a mid-run panic.
    #[test]
    fn validate_rejects_bad_housekeeping_periods() {
        assert_eq!(
            ExperimentConfig::paper(HeuristicKind::Msf, 1).validate(),
            Ok(())
        );
        assert_eq!(
            ExperimentConfig::ideal(HeuristicKind::Msf, 1).validate(),
            Ok(())
        );
        for bad in [0.0, -0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut c = ExperimentConfig::paper(HeuristicKind::Hmct, 1);
            c.load_report_period = bad;
            let err = c.validate().unwrap_err();
            assert!(
                matches!(err, ConfigError::BadPeriod { field: "load_report_period", value }
                    if value.to_bits() == bad.to_bits()),
                "{bad}: {err:?}"
            );
            assert!(err.to_string().contains("load_report_period"), "{err}");
            let mut c = ExperimentConfig::paper(HeuristicKind::Hmct, 1);
            c.noise_redraw_period = bad;
            let err = c.validate().unwrap_err();
            assert!(
                matches!(
                    err,
                    ConfigError::BadPeriod {
                        field: "noise_redraw_period",
                        ..
                    }
                ),
                "{bad}: {err:?}"
            );
            assert!(err.to_string().contains("noise_redraw_period"), "{err}");
        }
    }

    /// Churn and admission durations: 0, -1 and NaN are typed errors
    /// naming the field; ∞ is valid where it means "never" (`mtbf`,
    /// `admission_deadline`) and an error where it does not (`mttr` with
    /// churn on). Fields of a switched-off feature are not checked.
    #[test]
    fn validate_rejects_bad_churn_and_admission_durations() {
        let base = ExperimentConfig::paper(HeuristicKind::Hmct, 1);
        let churn = base.with_churn(400.0, 60.0);
        let admission = base.with_admission(4, 16, 30.0);
        assert_eq!(churn.validate(), Ok(()));
        assert_eq!(admission.validate(), Ok(()));
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let is_bad = |err: ConfigError, field: &str, infinity_ok: bool| match err {
                ConfigError::BadPeriod { field: f, value } => {
                    !infinity_ok && f == field && value.to_bits() == bad.to_bits()
                }
                ConfigError::BadDuration { field: f, value } => {
                    infinity_ok && f == field && value.to_bits() == bad.to_bits()
                }
                ConfigError::BadNonNegative { .. } => false,
            };
            // mtbf: ∞ is the frozen farm.
            let c = base.with_churn(bad, 60.0);
            if bad == f64::INFINITY {
                assert_eq!(c.validate(), Ok(()));
            } else {
                let err = c.validate().unwrap_err();
                assert!(is_bad(err, "mtbf", true), "mtbf = {bad}: {err:?}");
                assert!(err.to_string().contains("mtbf"), "{err}");
            }
            // mttr: checked only while churn is on, and ∞ is invalid.
            let err = churn.with_churn(400.0, bad).validate().unwrap_err();
            assert!(is_bad(err, "mttr", false), "mttr = {bad}: {err:?}");
            assert!(err.to_string().contains("mttr"), "{err}");
            let mut off = base;
            off.mttr = bad;
            assert_eq!(off.validate(), Ok(()), "mttr = {bad} with churn off");
            // admission_deadline: ∞ waits forever; checked only while
            // admission is on.
            let c = base.with_admission(4, 16, bad);
            if bad == f64::INFINITY {
                assert_eq!(c.validate(), Ok(()));
            } else {
                let err = c.validate().unwrap_err();
                assert!(
                    is_bad(err, "admission_deadline", true),
                    "admission_deadline = {bad}: {err:?}"
                );
                assert!(err.to_string().contains("admission_deadline"), "{err}");
            }
            let mut off = base;
            off.admission_deadline = bad;
            assert_eq!(
                off.validate(),
                Ok(()),
                "deadline = {bad} with admission off"
            );
        }
    }

    /// Noise σ, agent latency and re-dispatch backoff: negative and
    /// non-finite values are typed errors naming the field, zero is
    /// valid (no noise, no latency, immediate re-dispatch), and the
    /// backoff is checked only while churn is on. `load_tau` is a time
    /// constant: zero is an error too.
    #[test]
    fn validate_rejects_bad_noise_latency_tau_and_backoff() {
        let base = ExperimentConfig::paper(HeuristicKind::Hmct, 1);
        let churn = base.with_churn(400.0, 60.0);
        for bad in [-1.0, -0.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let bad_magnitude = |c: ExperimentConfig, field: &str| {
                let err = c.validate().unwrap_err();
                assert!(
                    matches!(err, ConfigError::BadNonNegative { field: f, value }
                        if f == field && value.to_bits() == bad.to_bits()),
                    "{field} = {bad}: {err:?}"
                );
                assert!(err.to_string().contains(field), "{err}");
            };
            let mut c = base;
            c.noise_sigma = bad;
            bad_magnitude(c, "noise_sigma");
            let mut c = base;
            c.agent_latency = bad;
            bad_magnitude(c, "agent_latency");
            let mut c = churn;
            c.redispatch_backoff = bad;
            bad_magnitude(c, "redispatch_backoff");
            let mut off = base;
            off.redispatch_backoff = bad;
            assert_eq!(off.validate(), Ok(()), "backoff = {bad} with churn off");
            let mut c = base;
            c.load_tau = bad;
            assert!(
                matches!(
                    c.validate(),
                    Err(ConfigError::BadPeriod {
                        field: "load_tau",
                        ..
                    })
                ),
                "load_tau = {bad}"
            );
        }
        let mut zero = churn;
        zero.noise_sigma = 0.0;
        zero.agent_latency = 0.0;
        zero.redispatch_backoff = 0.0;
        assert_eq!(zero.validate(), Ok(()));
        zero.load_tau = 0.0;
        assert!(matches!(
            zero.validate(),
            Err(ConfigError::BadPeriod {
                field: "load_tau",
                ..
            })
        ));
    }

    #[test]
    fn with_heuristic_updates_fault_tolerance() {
        let c = ExperimentConfig::paper(HeuristicKind::Hmct, 1).with_heuristic(HeuristicKind::Mct);
        assert!(matches!(
            c.fault_tolerance,
            FaultTolerance::RankedRetry { .. }
        ));
        assert_eq!(c.with_seed(9).seed, 9);
    }
}
