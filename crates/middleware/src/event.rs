//! The event vocabulary of the grid world.
//!
//! Events that can touch a server's load report, or push one that can,
//! carry an [`Origin`]: where they were pushed, which is what the lazy
//! load reports need to replay a report instant on the right side of an
//! event due at the same instant (see [`crate::housekeeping`]).

use crate::housekeeping::Origin;
use cas_platform::{Phase, ServerId};
use cas_sim::Generation;

/// Events driving the client-agent-server simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum GridEvent {
    /// A client submits task `idx` (index into the metatask) to the agent.
    Submit {
        /// Index into the experiment's task list.
        idx: usize,
    },
    /// The agent runs the heuristic for task `idx`.
    Schedule {
        /// Index into the experiment's task list.
        idx: usize,
        /// Placement attempt number (1 = first try).
        attempt: u32,
        /// Servers that already refused this task (excluded from the
        /// candidate list on retries).
        excluded: Box<[ServerId]>,
        /// Where the event was pushed.
        from: Origin,
    },
    /// A phase-completion check on one server resource. Stale events
    /// (generation mismatch) are discarded: membership changed since this
    /// was scheduled.
    PhaseDone {
        /// The server whose resource fired.
        server: ServerId,
        /// Which of the three stage resources.
        phase: Phase,
        /// Generation of the resource when the event was scheduled.
        gen: Generation,
        /// Where the event was pushed.
        from: Origin,
    },
    /// A transfer-completion check on the shared client link (only used
    /// when `ExperimentConfig::shared_client_link` is on).
    ClientLinkDone {
        /// Generation of the client link when the event was scheduled.
        gen: Generation,
        /// Where the event was pushed.
        from: Origin,
    },
    /// Periodic monitor report from a server to the agent. Per-server
    /// reports are lazy (see [`crate::housekeeping`]): only the eager
    /// executable spec schedules this event.
    LoadReport {
        /// The reporting server.
        server: ServerId,
    },
    /// Periodic **aggregated** monitor report: one kernel event refreshes
    /// every server in one shard's block (only used when
    /// `ExperimentConfig::aggregated_reports` is on). At 10k servers this
    /// turns O(n_servers) report events per period into O(n_shards).
    ShardLoadReport {
        /// The reporting shard (index into the router's `ShardMap`).
        shard: usize,
    },
    /// Periodic redraw of a server's ground-truth speed noise, scheduled
    /// only while the server is busy (see [`crate::housekeeping`]).
    NoiseRedraw {
        /// The affected server.
        server: ServerId,
    },
    /// A **brand-new** server is admitted to the running campaign: the
    /// world grows every per-server vector, the farm-wide cost table
    /// gains the pre-registered column, and the agent's owning shard
    /// engine joins it through the proven incremental pushes
    /// ([`cas_platform::CostTable::push_server`],
    /// [`cas_platform::StaticIndex::push_server`]). The column index
    /// points into the provision schedule declared before the run.
    ServerProvision {
        /// Index into the experiment's provision schedule.
        idx: usize,
    },
    /// A provisioned server (re)joins the farm: it becomes eligible for
    /// placement again and its runtime state starts fresh.
    ServerJoin {
        /// The joining server.
        server: ServerId,
        /// Where the event was pushed.
        from: Origin,
    },
    /// A server leaves gracefully: it stops taking new work but its
    /// in-flight tasks drain to completion.
    ServerLeave {
        /// The departing server.
        server: ServerId,
    },
    /// A server crashes: its in-flight tasks are lost, retracted from the
    /// agent's model and re-dispatched through the normal decision
    /// pipeline (bounded retry budget, re-dispatch backoff).
    ServerCrash {
        /// The crashed server.
        server: ServerId,
        /// Where the event was pushed.
        from: Origin,
    },
    /// A buffered task's admission deadline fired. If the task is still
    /// waiting in the admission buffer *and* its buffering generation
    /// matches (it was not dequeued and re-buffered since), it is shed
    /// with `DropReason::AdmissionDeadline`; otherwise the event is
    /// stale and ignored.
    AdmissionTimeout {
        /// Index into the experiment's task list.
        idx: usize,
        /// Admission generation of the task when the deadline was armed.
        gen: u32,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_comparable() {
        let a = GridEvent::Submit { idx: 1 };
        let b = GridEvent::Submit { idx: 1 };
        assert_eq!(a, b);
        let c = GridEvent::LoadReport {
            server: ServerId(0),
        };
        assert_ne!(a, c);
    }
}
