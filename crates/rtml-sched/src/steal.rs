//! Pull-based, locality-aware work stealing — the third per-node
//! plane, after the batched control plane (PR 2) and the chunked
//! transfer plane (PR 3).
//!
//! Spillover (the paper's §3.2.2 mechanism) is **push**-based and
//! decided once, at ingest: a burst submitted to one node under a lax
//! spill rule drains serially while every other core idles. Stealing
//! inverts the flow: an **idle** local scheduler (empty run queue,
//! workers parked on it) reads the load reports every node already
//! publishes to the kv store — by key, for the nodes the transfer
//! directory lists, never by scanning the control plane — picks a
//! victim whose backlog exceeds [`StealConfig::min_backlog`], and sends
//! a single
//! [`crate::wire::SchedWire::StealRequest`] over the fabric. The victim
//! answers with one [`crate::wire::SchedWire::StealGrant`] batch of
//! tasks no worker has taken — whichever of its picks are *still queued*
//! when it has scored them; its workers keep draining the queue
//! meanwhile — never one message per task, after
//! group-committing the ownership transfer to the task table
//! (`record_many` with `Queued(thief)`), so a thief crash after the
//! grant is recovered by the same lineage replay that covers any other
//! lost queue.
//!
//! Cadence is fixed, not configured: a thief tries at most once per
//! [`STEAL_INTERVAL`], backs off by `RetryPolicy::default()` after
//! fruitless tries, and skips any report older than
//! [`REPORT_STALE_AFTER`] — the bound the health tracker uses too.
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

use std::sync::atomic::Ordering::Relaxed;
use std::time::{Duration, Instant};

use rtml_common::codec::{decode_from_slice, encode_to_bytes};
use rtml_common::collections::{FastMap, FastSet};
use rtml_common::event::{Component, Event, EventKind};
use rtml_common::ids::{NodeId, ObjectId, TaskId};
use rtml_common::metrics::{Counter, Histogram};
use rtml_common::resources::Resources;
use rtml_common::retry::RetryPolicy;
use rtml_common::task::{TaskSpec, TaskState};
use rtml_net::NetAddress;

use crate::health::REPORT_STALE_AFTER;
use crate::local::Core;
use crate::msg::{load_key, LoadReport};
use crate::policy::choose_victim;
use crate::wire::SchedWire;

/// Minimum delay between steal attempts from one scheduler (the
/// idle-poll cadence). Consecutive fruitless attempts (timeouts, empty
/// grants) back the re-arm pause off from here toward the cap of
/// `RetryPolicy::default()`, instead of hammering a flat cadence into a
/// partition.
pub const STEAL_INTERVAL: Duration = Duration::from_millis(1);

/// Cap on the resident-object ids shipped in a steal request as the
/// thief's locality hint.
pub const STEAL_HINT_OBJECTS: usize = 64;

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
    /// How long the thief waits for a grant before declaring the
    /// request lost (victim died mid-request) and re-arming its steal
    /// loop.
    pub timeout: Duration,
}

impl Default for StealConfig {
    fn default() -> Self {
        StealConfig {
            enabled: true,
            min_backlog: 4,
            max_tasks: 16,
            timeout: Duration::from_millis(25),
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
    /// Grant-arrival → taken-by-a-worker latency per stolen task.
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

/// The thief's outstanding steal request (see `Core::steal_inflight`).
pub(crate) struct StealInflight {
    pub(crate) victim: NodeId,
    pub(crate) deadline: Instant,
    /// When the request frame left, for the round-trip span.
    pub(crate) sent_at: Instant,
    pub(crate) seq: u64,
}

/// The scheduler half of the steal plane: the thief's request loop and
/// the victim's answer.
impl Core {
    /// Thief side of the steal plane, run once per scheduler-loop turn:
    /// when the ready queue has drained while workers sit idle, sample
    /// a victim from the kv-published load reports and ask it for a
    /// batch. At most one request is in flight; [`StealConfig::timeout`]
    /// re-arms the loop when a victim dies mid-request.
    pub(crate) fn maybe_steal(&mut self) {
        let cfg = &self.config.stealing;
        if !cfg.enabled {
            return;
        }
        // Idle means workers parked on an empty queue (the gauge is the
        // queue's own depth, and spares a busy node the lock).
        if self.stats.ready_depth.load(Relaxed) > 0 {
            return;
        }
        let load = self.queue.load();
        if load.idle == 0 {
            return;
        }
        // Work is already here, short only of inputs that are on the
        // wire: tasks waiting on a requested object will take the idle
        // workers when it lands. Asking for more now would only move
        // tasks (and a second copy of their inputs) to a node that
        // cannot start them any sooner.
        let about_to_run: usize = self
            .resolver
            .in_flight()
            .filter_map(|(object, _)| self.watchers.get(&object))
            .map(Vec::len)
            .sum();
        if about_to_run >= load.idle {
            return;
        }
        if let Some(inflight) = &self.steal_inflight {
            if Instant::now() < inflight.deadline {
                return;
            }
            // Victim never answered (died, or the request was lost —
            // a partition can swallow the request or the grant):
            // declare the request dead and try someone else.
            self.steal_inflight = None;
            self.stats.steal.timeouts.inc();
            self.steal_failures = self.steal_failures.saturating_add(1);
        }
        // Consecutive fruitless attempts back the re-arm pause off
        // exponentially (seeded per node, so the schedule is
        // reproducible); any non-empty grant snaps it back to the flat
        // interval.
        let pause = if self.steal_failures == 0 {
            STEAL_INTERVAL
        } else {
            let attempt = (self.steal_failures - 1).min(16);
            let seed = u64::from(self.config.node.0);
            STEAL_INTERVAL.max(RetryPolicy::default().backoff(attempt, seed))
        };
        if self.last_steal.elapsed() < pause {
            return;
        }
        self.last_steal = Instant::now();
        let me = self.config.node;
        // The load reports every scheduler already mirrors into the kv
        // store, read by key for the nodes the transfer directory lists
        // (every live node has a transfer service): one batched point
        // read, whose cost does not grow with what else the control
        // plane holds.
        // Reports past the staleness bound are ghosts: the publisher is
        // dead, partitioned, or wedged, and a steal request at it would
        // only burn a timeout.
        let stale_nanos = REPORT_STALE_AFTER.as_nanos() as u64;
        let now_nanos = rtml_common::time::now_nanos();
        let peers: Vec<bytes::Bytes> = self
            .services
            .directory
            .nodes()
            .into_iter()
            .filter(|node| *node != me)
            .map(load_key)
            .collect();
        if peers.is_empty() {
            return;
        }
        let candidates: Vec<LoadReport> = self
            .services
            .kv
            .get_many(&peers)
            .into_iter()
            .flatten()
            .filter_map(|bytes| decode_from_slice::<LoadReport>(&bytes).ok())
            .filter(|report| {
                report.node != me
                    && report.ready > cfg.min_backlog
                    && now_nanos.saturating_sub(report.at_nanos) <= stale_nanos
            })
            .collect();
        if candidates.is_empty() {
            return;
        }
        // Residency hint: a bounded, deterministic sample of what is
        // already local here, for the victim's locality scoring (and
        // our own tiebreak below). Enumerating the store is O(n), so
        // the hint is rebuilt on a TTL — several times the attempt
        // interval — rather than per attempt, and partial selection
        // keeps the rebuild at O(n + cap·log cap), not a full sort.
        if self.steal_hint_at.elapsed() >= STEAL_INTERVAL.saturating_mul(16) {
            let mut hint = self.services.store.list();
            let cap = STEAL_HINT_OBJECTS;
            if hint.len() > cap {
                hint.select_nth_unstable(cap);
            }
            hint.truncate(cap);
            hint.sort_unstable();
            self.steal_hint = hint;
            self.steal_hint_at = Instant::now();
        }
        let hint = self.steal_hint.clone();
        let Some(victim) = choose_victim(
            &candidates,
            &hint,
            &self.services.objects,
            &mut self.steal_rng,
        ) else {
            return;
        };
        let request = SchedWire::StealRequest {
            thief: me,
            reply_address: self.address.as_u64(),
            capacity: load.available,
            max_tasks: cfg.max_tasks as u32,
            local_objects_hint: hint,
        };
        self.stats.steal.attempts.inc();
        let sent = self.services.fabric.send(
            self.address,
            NetAddress::from_u64(victim.sched_address),
            encode_to_bytes(&request),
        );
        if sent.is_ok() {
            let seq = self.steal_seq;
            self.steal_seq += 1;
            self.steal_inflight = Some(StealInflight {
                victim: victim.node,
                deadline: Instant::now() + cfg.timeout,
                sent_at: Instant::now(),
                seq,
            });
            // Open the request→grant span (closed by StealRoundTrip
            // when this victim's answer arrives).
            self.services.events.append(
                me,
                Event::now(
                    Component::LocalScheduler,
                    EventKind::StealRequested {
                        thief: me,
                        victim: victim.node,
                        seq,
                    },
                ),
            );
        }
        // Send refused: the victim's endpoint is gone (stale report from
        // a dead node). No request is in flight, so the next turn simply
        // samples again.
    }

    /// Victim side: answer a steal request with one granted batch —
    /// possibly empty, when the queue drained since the thief read our
    /// load report (the stale-victim answer; the thief must never be
    /// left waiting on silence while we are alive).
    pub(crate) fn on_steal_request(
        &mut self,
        thief: NodeId,
        reply_address: u64,
        capacity: Resources,
        max_tasks: usize,
        hint: Vec<ObjectId>,
    ) {
        let me = self.config.node;
        // A snapshot of the queue, scored with the lock released (the
        // object-table sweep below must not hold the workers up).
        let candidates = match self.config.stealing.enabled {
            true => self.queue.steal_candidates(),
            false => Vec::new(),
        };
        let granted: Vec<TaskSpec> = if candidates.is_empty() {
            Vec::new()
        } else {
            // Score every candidate by the bytes of its dependencies
            // already resident on the thief: one batched `get_many`
            // sweep over the distinct dependencies (the same grouping
            // discipline as dependency resolution), never a point
            // probe per object.
            let mut distinct: Vec<ObjectId> = Vec::new();
            let mut seen: FastSet<ObjectId> = FastSet::default();
            for dep in candidates.iter().flat_map(|c| &c.dependencies) {
                if seen.insert(*dep) {
                    distinct.push(*dep);
                }
            }
            let hint: FastSet<ObjectId> = hint.into_iter().collect();
            let mut thief_bytes: FastMap<ObjectId, u64> = FastMap::default();
            if !distinct.is_empty() {
                let infos = self.services.objects.get_many(&distinct);
                for (dep, info) in distinct.into_iter().zip(infos) {
                    let (size, located) = info
                        .as_ref()
                        .map(|i| (i.size.max(1), i.locations.contains(&thief)))
                        .unwrap_or((1, false));
                    if located || hint.contains(&dep) {
                        thief_bytes.insert(dep, size);
                    }
                }
            }
            let tasks: Vec<TaskId> = candidates.iter().map(|c| c.task).collect();
            let scored: Vec<(Resources, u64)> = candidates
                .into_iter()
                .map(|c| {
                    let local = c.dependencies.iter();
                    let local = local.map(|dep| thief_bytes.get(dep).copied().unwrap_or(0));
                    (c.resources, local.sum())
                })
                .collect();
            let picks = plan_steal_grant(&scored, &capacity, max_tasks);
            // Whichever picks no worker took meanwhile leave the queue,
            // in preference order, their dependency pins released.
            let picks: Vec<TaskId> = picks.into_iter().map(|idx| tasks[idx]).collect();
            self.queue.take_queued(&picks)
        };
        let granted_ids: Vec<TaskId> = granted.iter().map(|spec| spec.task_id).collect();
        if !granted.is_empty() {
            // Ownership transfer, crash-consistent: the specs and their
            // `Queued(thief)` states are group-committed to the task
            // table BEFORE the grant frame leaves, so a thief that dies
            // with the batch is repaired like any other lost queue
            // (states on the dead node become `Lost`, lineage replays).
            self.services
                .tasks
                .record_many(&granted, &TaskState::Queued(thief));
        }
        let grant = SchedWire::StealGrant {
            victim: me,
            tasks: granted,
        };
        let sent = self.services.fabric.send(
            self.address,
            NetAddress::from_u64(reply_address),
            encode_to_bytes(&grant),
        );
        if sent.is_err() {
            // The thief vanished before the grant left (its endpoint is
            // gone) — but ownership is already committed as
            // `Queued(thief)`, and a node killed *before* this commit
            // landed has already run its one-shot task-table repair.
            // Take the batch back: the same batched ingest re-records
            // `Queued(me)` and re-gates dependencies, so the work is
            // never stranded on a ghost. Nothing was logged or counted
            // yet, so the event log never claims a transfer that was
            // undone.
            if let SchedWire::StealGrant { tasks, .. } = grant {
                if !tasks.is_empty() {
                    self.on_submit_batch(tasks, true);
                }
            }
        } else if !granted_ids.is_empty() {
            // Stats and the durable TaskStolen records reflect grants
            // that actually left. (A send that succeeds but dies in
            // flight is the thief-crash case the task-table repair and
            // lineage replay already cover.)
            let at_nanos = rtml_common::time::now_nanos();
            self.services.events.append_many(
                me,
                granted_ids
                    .iter()
                    .map(|task| Event {
                        at_nanos,
                        component: Component::LocalScheduler,
                        kind: EventKind::TaskStolen {
                            task: *task,
                            from: me,
                            to: thief,
                        },
                    })
                    .collect(),
            );
            self.stats.steal.tasks_granted.add(granted_ids.len() as u64);
        }
    }

    /// Thief side: a grant arrived. Empty grants re-arm the steal loop
    /// (stale victim); non-empty ones ingest exactly like a global
    /// placement batch (one spill/dependency scan, no re-spill), with
    /// per-task arrival stamps for the steal-to-run histogram.
    pub(crate) fn on_steal_grant(&mut self, victim: NodeId, tasks: Vec<TaskSpec>) {
        // Only the grant we are actually waiting on re-arms the loop: a
        // late answer from a victim we already timed out must not
        // cancel the deadline of the newer in-flight request.
        if self
            .steal_inflight
            .as_ref()
            .is_some_and(|inflight| inflight.victim == victim)
        {
            let inflight = self.steal_inflight.take().expect("checked above");
            // Close the request→grant span. Empty grants close it too
            // (tasks = 0): a wasted round trip is exactly what the
            // trace should show.
            self.services.events.append(
                self.config.node,
                Event::now(
                    Component::LocalScheduler,
                    EventKind::StealRoundTrip {
                        thief: self.config.node,
                        victim,
                        seq: inflight.seq,
                        tasks: tasks.len() as u32,
                        micros: inflight.sent_at.elapsed().as_micros() as u64,
                    },
                ),
            );
        }
        if tasks.is_empty() {
            self.stats.steal.empty_grants.inc();
            self.steal_failures = self.steal_failures.saturating_add(1);
            return;
        }
        self.steal_failures = 0;
        self.stats.steal.grants.inc();
        self.stats.steal.tasks_stolen.add(tasks.len() as u64);
        let now = Instant::now();
        for spec in &tasks {
            // Locality scoring working end to end: the stolen task's
            // dependencies are already here.
            if spec
                .dependencies()
                .any(|dep| self.services.store.contains(dep))
            {
                self.stats.steal.locality_hits.inc();
            }
            self.stolen_pending.insert(spec.task_id, now);
        }
        self.on_submit_batch(tasks, true);
    }
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
