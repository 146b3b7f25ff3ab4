//! Pull-based, locality-aware work stealing — the fourth per-node
//! plane, after the batched control plane (PR 2), the chunked transfer
//! plane (PR 3), and the demand-driven replication plane (PR 4).
//!
//! Spillover (the paper's §3.2.2 mechanism) is **push**-based and
//! decided once, at ingest: a burst submitted to one node under a lax
//! spill rule drains serially while every other core idles. Stealing
//! inverts the flow: an **idle** local scheduler (empty ready queue,
//! spare resources) reads the load reports every node already
//! publishes to the kv store — by key, for the nodes the transfer
//! directory lists, never by scanning the control plane — picks a
//! victim whose backlog exceeds [`StealConfig::min_backlog`], and sends
//! a single
//! [`crate::wire::SchedWire::StealRequest`] over the fabric. The victim
//! answers with one [`crate::wire::SchedWire::StealGrant`] batch of
//! not-yet-dispatched ready tasks — never one message per task — after
//! group-committing the ownership transfer to the task table
//! (`record_many` with `Queued(thief)`), so a thief crash after the
//! grant is recovered by the same lineage replay that covers any other
//! lost queue.
//!
//! Idle is not enough: a scheduler whose tasks *waiting on inbound
//! data* (an object it has requested and that has not arrived yet)
//! already cover its idle workers sends no request. That work starts the
//! moment its input lands; stealing more would move tasks, and another
//! copy of their inputs, to a node that cannot run them any sooner.
//!
//! Locality: the victim scores its ready candidates by the bytes of
//! their dependencies already resident on the thief (one batched
//! `ObjectTable::get_many` sweep over the candidates' distinct
//! dependencies plus the thief's shipped residency hint — never a
//! per-object probe), and grants the best-scoring tasks first. Victim
//! *selection* on the thief side is power-of-two-choices with a
//! shared-working-set locality tiebreak ([`crate::policy::choose_victim`]).

use std::time::Duration;

use rtml_common::metrics::{Counter, Histogram};
use rtml_common::resources::Resources;

/// When (and how hard) an idle local scheduler steals.
#[derive(Clone, Debug)]
pub struct StealConfig {
    /// Master switch. Off: no steal requests are sent and incoming
    /// requests are answered with empty grants.
    pub enabled: bool,
    /// A peer is a candidate victim only while its kv-published ready
    /// backlog exceeds this. Mirrors the spill threshold's role: small
    /// queues drain faster locally than a steal round trip.
    pub min_backlog: u32,
    /// Maximum tasks per grant. The victim also never gives away more
    /// than half its ready queue per request, so repeated steals
    /// converge instead of ping-ponging the whole backlog.
    pub max_tasks: usize,
    /// Minimum delay between steal attempts from one scheduler (the
    /// idle-poll cadence).
    pub interval: Duration,
    /// How long the thief waits for a grant before declaring the
    /// request lost (victim died mid-request) and re-arming its steal
    /// loop.
    pub timeout: Duration,
    /// Cap on the resident-object ids shipped in the request as the
    /// thief's locality hint.
    pub hint_objects: usize,
    /// Retry discipline for the steal loop: consecutive fruitless
    /// attempts (timeouts, empty grants) back the re-arm pause off
    /// exponentially from `interval` toward `retry.cap`, instead of
    /// hammering a flat cadence into a partition.
    pub retry: rtml_common::retry::RetryPolicy,
}

impl Default for StealConfig {
    fn default() -> Self {
        StealConfig {
            enabled: true,
            min_backlog: 4,
            max_tasks: 16,
            interval: Duration::from_millis(1),
            timeout: Duration::from_millis(25),
            hint_objects: 64,
            retry: rtml_common::retry::RetryPolicy::default(),
        }
    }
}

impl StealConfig {
    /// Disabled config (for ablations and stealing-off baselines).
    pub fn disabled() -> Self {
        StealConfig {
            enabled: false,
            ..StealConfig::default()
        }
    }
}

/// Live counters for one scheduler's steal plane (thief and victim
/// sides share the struct; a node is usually both over its lifetime).
#[derive(Debug, Default)]
pub struct StealStats {
    /// Steal requests sent (thief side).
    pub attempts: Counter,
    /// Non-empty grants received (thief side).
    pub grants: Counter,
    /// Empty grants received — the stale-victim answer: the victim's
    /// queue drained between the load report and the request.
    pub empty_grants: Counter,
    /// Requests that timed out without any grant (victim died).
    pub timeouts: Counter,
    /// Tasks received via grants (thief side).
    pub tasks_stolen: Counter,
    /// Stolen tasks that arrived with at least one dependency already
    /// resident in the thief's store — the locality scoring working.
    pub locality_hits: Counter,
    /// Tasks handed out via grants (victim side).
    pub tasks_granted: Counter,
    /// Grant-arrival → worker-dispatch latency per stolen task.
    pub steal_to_run: Histogram,
}

/// Plans one steal grant over the victim's ready queue.
///
/// `candidates[i]` is `(resources, thief_local_bytes)` for the ready
/// task at queue position `i` (front first). Returns the positions to
/// grant, in preference order. The rules, in order:
///
/// - never grant more than **half** the ready queue (the victim keeps
///   work for its own cores; repeated steals converge geometrically),
///   and never more than `max_tasks`;
/// - prefer tasks with more dependency bytes already resident on the
///   thief (locality), tie-broken toward the **back** of the queue —
///   the head is closest to dispatch and its dependencies are already
///   pinned locally;
/// - every granted task must **individually** fit the thief's spare
///   `capacity` (a feasibility filter — never grant a GPU task to a
///   CPU thief), but the batch is *not* capped at the capacity sum:
///   the thief queues beyond its instantaneous headroom so its workers
///   stay fed between steal round trips, and peers re-steal any
///   surplus. Capping at the sum degenerates every grant to
///   one-task-per-idle-worker — exactly the per-task messaging this
///   plane exists to avoid.
///
/// Pure function — the proptest suite drives it directly to show a
/// grant never drops or duplicates a task.
pub fn plan_steal_grant(
    candidates: &[(Resources, u64)],
    capacity: &Resources,
    max_tasks: usize,
) -> Vec<usize> {
    let quota = (candidates.len() / 2).min(max_tasks);
    if quota == 0 {
        return Vec::new();
    }
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    order.sort_by(|&a, &b| candidates[b].1.cmp(&candidates[a].1).then(b.cmp(&a)));
    let mut picks = Vec::with_capacity(quota);
    for idx in order {
        if picks.len() == quota {
            break;
        }
        if capacity.fits(&candidates[idx].0) {
            picks.push(idx);
        }
    }
    picks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu(n: f64) -> Resources {
        Resources::cpu(n)
    }

    #[test]
    fn grants_at_most_half_the_queue() {
        let candidates: Vec<(Resources, u64)> = (0..8).map(|_| (cpu(1.0), 0)).collect();
        let picks = plan_steal_grant(&candidates, &cpu(100.0), 100);
        assert_eq!(picks.len(), 4);
        // A queue of one is never robbed of its only task.
        assert!(plan_steal_grant(&candidates[..1], &cpu(100.0), 100).is_empty());
        assert!(plan_steal_grant(&[], &cpu(100.0), 100).is_empty());
    }

    #[test]
    fn max_tasks_caps_the_grant() {
        let candidates: Vec<(Resources, u64)> = (0..20).map(|_| (cpu(1.0), 0)).collect();
        assert_eq!(plan_steal_grant(&candidates, &cpu(100.0), 3).len(), 3);
        assert!(plan_steal_grant(&candidates, &cpu(100.0), 0).is_empty());
    }

    #[test]
    fn prefers_thief_local_bytes_then_the_back_of_the_queue() {
        let candidates = vec![
            (cpu(1.0), 0),   // head: no local bytes
            (cpu(1.0), 500), // most thief-local bytes: granted first
            (cpu(1.0), 0),   // back: preferred over the head on ties
            (cpu(1.0), 0),
        ];
        let picks = plan_steal_grant(&candidates, &cpu(100.0), 2);
        assert_eq!(picks, vec![1, 3]);
    }

    #[test]
    fn capacity_filters_infeasible_tasks_without_capping_the_batch() {
        let candidates = vec![
            (cpu(4.0), 900), // best locality but can never run on the thief
            (cpu(1.0), 10),
            (cpu(1.0), 5),
            (cpu(1.0), 0),
            (cpu(1.0), 0),
            (cpu(1.0), 0),
        ];
        // 2 spare cpus: the 4-cpu task is skipped, but the grant is NOT
        // capped at 2 tasks — the thief queues ahead of its workers.
        let picks = plan_steal_grant(&candidates, &cpu(2.0), 8);
        assert_eq!(picks, vec![1, 2, 5]);
    }
}
