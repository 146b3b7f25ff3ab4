//! Critical-path attribution over the event log: *where did the
//! makespan go?*
//!
//! The profiler's histograms say how long tasks waited on average; this
//! module answers the sharper question for one result — walk the sink
//! task's dependency chain backwards picking, at every step, the input
//! whose producer finished last (the binding constraint), then walk the
//! chain forwards attributing every nanosecond of the end-to-end span
//! to one of five buckets: **ingest** (submission, the wait in the
//! local scheduler's mailbox and the batch's ingest), **placement**
//! (global-scheduler spill decisions),
//! **queue** (runnable but waiting for a worker), **transfer** (waiting
//! on remote inputs), and **execution**.
//!
//! The walk is a single forward cursor over the chain's recorded
//! timestamps, so the buckets sum to the measured span *by
//! construction* — the self-check [`CriticalPath::attributed_nanos`]
//! `==` [`CriticalPath::makespan_nanos`] is an invariant, not a
//! tolerance. Timestamps lost to event-log retention simply contribute
//! no boundary: their time folds into the enclosing bucket instead of
//! unbalancing the sum.

use rtml_common::collections::{IdMap, IdSet};
use rtml_common::event::{Event, EventKind};
use rtml_common::ids::{NodeId, ObjectId, TaskId};
use rtml_common::metrics::fmt_nanos;

use crate::profiling::{ProfileReport, TaskProfile};

/// Attribution of one sink task's end-to-end span across the planes.
#[derive(Clone, Debug)]
pub struct CriticalPath {
    /// The task whose result the path explains.
    pub sink: TaskId,
    /// The binding dependency chain, root first, sink last.
    pub chain: Vec<TaskId>,
    /// When the chain's first recorded timestamp is (nanos since
    /// epoch) — normally the root's submission.
    pub start_nanos: u64,
    /// When the sink's last recorded timestamp is — normally its
    /// finish.
    pub end_nanos: u64,
    /// Submitted → queued: submission, mailbox wait and batch ingest.
    pub ingest_nanos: u64,
    /// Global-scheduler placement time (spilled chain links only).
    pub placement_nanos: u64,
    /// Runnable-but-waiting-for-a-worker time.
    pub queue_nanos: u64,
    /// Waiting on remote inputs still in flight at queue time.
    pub transfer_nanos: u64,
    /// On-worker execution time.
    pub execution_nanos: u64,
}

impl CriticalPath {
    /// The measured end-to-end span.
    pub fn makespan_nanos(&self) -> u64 {
        self.end_nanos.saturating_sub(self.start_nanos)
    }

    /// The sum of the five buckets. Equals
    /// [`CriticalPath::makespan_nanos`] by construction.
    pub fn attributed_nanos(&self) -> u64 {
        self.ingest_nanos
            + self.placement_nanos
            + self.queue_nanos
            + self.transfer_nanos
            + self.execution_nanos
    }

    /// Human-readable one-result breakdown.
    pub fn summary(&self) -> String {
        let total = self.makespan_nanos().max(1) as f64;
        let pct = |n: u64| 100.0 * n as f64 / total;
        format!(
            "critical path to {}: {} tasks, makespan {}\n\
             ingest    {:>10} ({:>5.1}%)\n\
             placement {:>10} ({:>5.1}%)\n\
             queue     {:>10} ({:>5.1}%)\n\
             transfer  {:>10} ({:>5.1}%)\n\
             execution {:>10} ({:>5.1}%)",
            self.sink,
            self.chain.len(),
            fmt_nanos(self.makespan_nanos()),
            fmt_nanos(self.ingest_nanos),
            pct(self.ingest_nanos),
            fmt_nanos(self.placement_nanos),
            pct(self.placement_nanos),
            fmt_nanos(self.queue_nanos),
            pct(self.queue_nanos),
            fmt_nanos(self.transfer_nanos),
            pct(self.transfer_nanos),
            fmt_nanos(self.execution_nanos),
            pct(self.execution_nanos),
        )
    }
}

/// Attributes the end-to-end span of `sink` over the event log.
///
/// `deps` supplies each task's dependency *objects* (the runtime wires
/// it to the task table's specs; see [`crate::Cluster::critical_path`]).
/// Producers are recovered from the object ids themselves
/// ([`ObjectId::producer_task`]), so the walk needs no extra lineage
/// table. Returns `None` when the log holds no timestamps for `sink` at
/// all.
pub fn critical_path(
    events: &[Event],
    deps: impl Fn(TaskId) -> Vec<ObjectId>,
    sink: TaskId,
) -> Option<CriticalPath> {
    let report = ProfileReport::from_events(events);
    let profiles: IdMap<TaskId, &TaskProfile> = report
        .tasks
        .iter()
        .filter_map(|t| t.task.map(|id| (id, t)))
        .collect();
    profiles.get(&sink)?;

    // Last completed transfer of each object onto each node — the
    // "input still in flight" boundary for the transfer bucket.
    let mut transfer_end: IdMap<(ObjectId, NodeId), u64> = IdMap::default();
    for event in events {
        if let EventKind::TransferFinished { object, to, .. } = &event.kind {
            let entry = transfer_end.entry((*object, *to)).or_insert(0);
            *entry = (*entry).max(event.at_nanos);
        }
    }

    // Backward: follow, at every task, the dependency whose producer
    // finished last. A cycle is impossible in a real DAG but a
    // corrupted log must not hang us.
    let mut chain = vec![sink];
    let mut visited: IdSet<TaskId> = IdSet::from_iter([sink]);
    let mut current = sink;
    loop {
        let binding = deps(current)
            .into_iter()
            .filter_map(|object| object.producer_task())
            .filter(|producer| !visited.contains(producer))
            .filter_map(|producer| {
                let p = profiles.get(&producer)?;
                Some((p.finished.or(p.started)?, producer))
            })
            .max();
        let Some((_, producer)) = binding else { break };
        visited.insert(producer);
        chain.push(producer);
        current = producer;
    }
    chain.reverse();

    // Forward: one cursor, every boundary clamps forward, so the bucket
    // sum telescopes to end - start exactly.
    let first = profiles[&chain[0]];
    let start_nanos = [first.submitted, first.queued, first.started, first.finished]
        .into_iter()
        .flatten()
        .next()?;
    let mut cursor = start_nanos;
    let mut path = CriticalPath {
        sink,
        chain: chain.clone(),
        start_nanos,
        end_nanos: start_nanos,
        ingest_nanos: 0,
        placement_nanos: 0,
        queue_nanos: 0,
        transfer_nanos: 0,
        execution_nanos: 0,
    };
    for task in &chain {
        let profile = profiles[task];
        let step = |to: Option<u64>, bucket: &mut u64, cursor: &mut u64| {
            if let Some(to) = to {
                if to > *cursor {
                    *bucket += to - *cursor;
                    *cursor = to;
                }
            }
        };
        // Pred-finish → submit is control-plane/submission time; it and
        // submit → queue (mailbox wait plus ingest) share the ingest
        // bucket. Spilled links split out the global scheduler's
        // share.
        step(profile.submitted, &mut path.ingest_nanos, &mut cursor);
        step(profile.placed, &mut path.placement_nanos, &mut cursor);
        step(profile.queued, &mut path.ingest_nanos, &mut cursor);
        // Queue → start, minus the tail of any dependency transfer
        // still landing on the executing node after queueing.
        let wait_node = profile.queued_node.or(profile.worker.map(|w| w.node));
        if let (Some(node), Some(started)) = (wait_node, profile.started) {
            let inbound = deps(*task)
                .into_iter()
                .filter_map(|object| transfer_end.get(&(object, node)).copied())
                .max()
                .map(|end| end.min(started));
            step(inbound, &mut path.transfer_nanos, &mut cursor);
        }
        step(profile.started, &mut path.queue_nanos, &mut cursor);
        step(profile.finished, &mut path.execution_nanos, &mut cursor);
    }
    path.end_nanos = cursor;
    debug_assert_eq!(path.attributed_nanos(), path.makespan_nanos());
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtml_common::event::Component;
    use rtml_common::ids::{DriverId, WorkerId};

    fn ev(at_nanos: u64, kind: EventKind) -> Event {
        Event {
            at_nanos,
            component: Component::Worker,
            kind,
        }
    }

    /// Two-task chain with a cross-node transfer in the middle: every
    /// bucket lands where it should and the sum telescopes.
    #[test]
    fn attribution_sums_to_makespan() {
        let root = TaskId::driver_root(DriverId::from_index(0));
        let a = root.child(0);
        let b = root.child(1);
        let a_out = a.return_object(0);
        let n0 = NodeId(0);
        let n1 = NodeId(1);
        let w0 = WorkerId::new(n0, 0);
        let w1 = WorkerId::new(n1, 0);
        let events = vec![
            ev(100, EventKind::TaskSubmitted { task: a }),
            ev(150, EventKind::TaskQueuedLocal { task: a, node: n0 }),
            ev(
                200,
                EventKind::TaskStarted {
                    task: a,
                    worker: w0,
                },
            ),
            ev(
                500,
                EventKind::TaskFinished {
                    task: a,
                    worker: w0,
                    micros: 0,
                },
            ),
            // b depends on a's output, runs on node 1, and waits for
            // the transfer to land there.
            ev(120, EventKind::TaskSubmitted { task: b }),
            ev(510, EventKind::TaskQueuedLocal { task: b, node: n1 }),
            ev(
                700,
                EventKind::TransferFinished {
                    object: a_out,
                    to: n1,
                    micros: 0,
                },
            ),
            ev(
                800,
                EventKind::TaskStarted {
                    task: b,
                    worker: w1,
                },
            ),
            ev(
                1000,
                EventKind::TaskFinished {
                    task: b,
                    worker: w1,
                    micros: 0,
                },
            ),
        ];
        let deps = |task: TaskId| if task == b { vec![a_out] } else { Vec::new() };
        let path = critical_path(&events, deps, b).expect("sink profiled");
        assert_eq!(path.chain, vec![a, b]);
        assert_eq!(path.start_nanos, 100);
        assert_eq!(path.end_nanos, 1000);
        assert_eq!(path.attributed_nanos(), path.makespan_nanos());
        // a: 100→150 ingest, 150→200 queue, 200→500 exec.
        // b (submitted at 120, already past): 500→510 ingest,
        // 510→700 transfer, 700→800 queue, 800→1000 exec.
        assert_eq!(path.ingest_nanos, 50 + 10);
        assert_eq!(path.queue_nanos, 50 + 100);
        assert_eq!(path.transfer_nanos, 190);
        assert_eq!(path.execution_nanos, 300 + 200);
        assert_eq!(path.placement_nanos, 0);
        assert!(path.summary().contains("critical path"));
    }

    /// A dropped boundary (b's queue record lost to retention) folds
    /// its window into the neighboring bucket without unbalancing the
    /// sum.
    #[test]
    fn missing_timestamps_keep_the_sum_balanced() {
        let root = TaskId::driver_root(DriverId::from_index(1));
        let a = root.child(0);
        let n0 = NodeId(0);
        let w0 = WorkerId::new(n0, 0);
        let events = vec![
            ev(100, EventKind::TaskSubmitted { task: a }),
            ev(
                400,
                EventKind::TaskStarted {
                    task: a,
                    worker: w0,
                },
            ),
            ev(
                900,
                EventKind::TaskFinished {
                    task: a,
                    worker: w0,
                    micros: 0,
                },
            ),
        ];
        let path = critical_path(&events, |_| Vec::new(), a).expect("sink profiled");
        assert_eq!(path.attributed_nanos(), path.makespan_nanos());
        assert_eq!(path.makespan_nanos(), 800);
        assert_eq!(path.queue_nanos, 300);
        assert_eq!(path.execution_nanos, 500);
    }

    #[test]
    fn unknown_sink_is_none() {
        let root = TaskId::driver_root(DriverId::from_index(2));
        assert!(critical_path(&[], |_| Vec::new(), root.child(0)).is_none());
    }
}
