//! Peer health tracking: heartbeat-derived suspicion.
//!
//! Every local scheduler publishes its [`LoadReport`] at least every 16
//! [`crate::local::LOAD_INTERVAL`]s, even when idle — the heartbeat —
//! and hands each one to the [`HealthTracker`] as it sends it
//! ([`HealthTracker::heard`]). The tracker keeps each node's last
//! report and combines its timestamp with *failure-derived* evidence
//! (fetch/pull attempts against a peer that timed out or errored) into
//! a single question: *is this node suspect right now?*
//!
//! Suspicion **steers, never decides**: suspect nodes are moved to the
//! back of holder rankings, never dropped from them. Correctness never
//! depends on suspicion being right; lineage reconstruction remains the
//! backstop. This matters because the tracker is shared memory in this
//! simulated cluster: a fabric-partitioned node keeps heartbeating, so
//! staleness alone cannot see partitions — the failure-derived half
//! can.
//!
//! Failure evidence decays: a burst of recorded failures marks a node
//! suspect for a quarantine window, after which it is trusted again
//! unless failures recur (a gray node keeps re-earning suspicion; a
//! healed one stops).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::msg::LoadReport;
use rtml_common::ids::NodeId;

/// How old a node's newest load report may be before the health tracker
/// calls the node suspect. Health is its only reader. A live scheduler
/// republishes at least every 16 [`crate::local::LOAD_INTERVAL`]s (its
/// heartbeat), so this much silence is decisive, not jitter.
pub const REPORT_STALE_AFTER: Duration = Duration::from_millis(100);

/// Failures within this window accumulate toward suspicion; the window
/// also serves as the quarantine period once the threshold is crossed.
const FAILURE_WINDOW: Duration = Duration::from_millis(500);
/// Consecutive recent failures that make a node suspect.
const FAILURE_THRESHOLD: u32 = 2;

#[derive(Clone, Copy, Default)]
struct PeerEvidence {
    /// Failures recorded inside the current window.
    failures: u32,
    /// Timestamp (nanos since process epoch) of the latest failure.
    last_failure_nanos: u64,
}

/// Shared peer-health view: each node's last load report and its
/// failure evidence. A verdict reads two maps, so a hot path (holder
/// ranking) can ask per call.
#[derive(Default)]
pub struct HealthTracker {
    evidence: Mutex<HashMap<NodeId, PeerEvidence>>,
    /// Each node's last published load report: staleness reads its
    /// timestamp, and the cluster-state dump its counts.
    reports: Mutex<HashMap<NodeId, LoadReport>>,
}

impl HealthTracker {
    /// A tracker that has heard nothing yet.
    pub fn new() -> Arc<Self> {
        Arc::new(HealthTracker::default())
    }

    /// Keeps `report` as its node's last load report (the local
    /// scheduler calls this for each one it publishes).
    pub fn heard(&self, report: &LoadReport) {
        self.reports.lock().insert(report.node, report.clone());
    }

    /// `node`'s last published load report, if it has one.
    pub fn report(&self, node: NodeId) -> Option<LoadReport> {
        self.reports.lock().get(&node).cloned()
    }

    /// Drops `node`'s load report (the node was killed or shut down: it
    /// leaves no frozen backlog behind). Its failure evidence stays.
    pub fn drop_report(&self, node: NodeId) {
        self.reports.lock().remove(&node);
    }

    /// Records a failed exchange with `node` (fetch timeout, pull
    /// error, send failure). Enough of these inside the failure window
    /// make the node suspect even while its heartbeats keep flowing.
    pub fn record_failure(&self, node: NodeId) {
        let now = rtml_common::time::now_nanos();
        let mut evidence = self.evidence.lock();
        let entry = evidence.entry(node).or_default();
        if now.saturating_sub(entry.last_failure_nanos) > FAILURE_WINDOW.as_nanos() as u64 {
            entry.failures = 0;
        }
        entry.failures += 1;
        entry.last_failure_nanos = now;
    }

    /// Records a successful exchange with `node`, clearing failure
    /// evidence (heartbeat staleness can still mark it suspect).
    pub fn record_success(&self, node: NodeId) {
        self.evidence.lock().remove(&node);
    }

    /// Whether `node` is suspect now ([`HealthTracker::assess`]).
    pub fn is_suspect(&self, node: NodeId) -> bool {
        self.assess(node, rtml_common::time::now_nanos())
    }

    /// Whether `node` is suspect at `now` (nanos since process epoch):
    /// either its failure count crossed the threshold within the failure
    /// window, or its last load report is older than
    /// [`REPORT_STALE_AFTER`].
    pub fn assess(&self, node: NodeId, now: u64) -> bool {
        if let Some(e) = self.evidence.lock().get(&node) {
            if e.failures >= FAILURE_THRESHOLD
                && now.saturating_sub(e.last_failure_nanos) < FAILURE_WINDOW.as_nanos() as u64
            {
                return true;
            }
        }
        // Heartbeat half: a node that has published a load report but
        // not refreshed it within `REPORT_STALE_AFTER` has a wedged or dead
        // scheduler loop. A node with no report at all is either just
        // forming or already detached — not this tracker's call.
        self.reports.lock().get(&node).is_some_and(|report| {
            now.saturating_sub(report.at_nanos) > REPORT_STALE_AFTER.as_nanos() as u64
        })
    }

    /// Reorders `nodes` so non-suspect nodes come first, preserving
    /// relative order within each class — for retry rankings, where
    /// suspect nodes should be last resorts rather than excluded.
    pub fn prefer_healthy(&self, nodes: Vec<NodeId>) -> Vec<NodeId> {
        if nodes.len() <= 1 {
            return nodes;
        }
        let (mut healthy, suspect): (Vec<NodeId>, Vec<NodeId>) =
            nodes.into_iter().partition(|n| !self.is_suspect(*n));
        healthy.extend(suspect);
        healthy
    }

    /// Forgets all evidence about `node` and its report (restart
    /// lifecycle: a rejoining node starts with a clean slate).
    pub fn forget(&self, node: NodeId) {
        self.evidence.lock().remove(&node);
        self.reports.lock().remove(&node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `node`'s report, measured at `at_nanos`.
    fn report(node: NodeId, at_nanos: u64) -> LoadReport {
        LoadReport {
            node,
            sched_address: 0,
            ready: 0,
            waiting: 0,
            running: 0,
            idle_workers: 1,
            available: rtml_common::Resources::cpu(1.0),
            total: rtml_common::Resources::cpu(1.0),
            at_nanos,
        }
    }

    #[test]
    fn failures_cross_threshold_and_successes_clear() {
        let t = HealthTracker::new();
        let n = NodeId(1);
        assert!(!t.is_suspect(n));
        t.record_failure(n);
        t.record_failure(n);
        assert!(t.is_suspect(n));
        t.record_success(n);
        assert!(!t.is_suspect(n));
    }

    #[test]
    fn stale_heartbeat_marks_suspect_and_fresh_clears() {
        let t = HealthTracker::new();
        let n = NodeId(2);
        let at = 1_000_000_000;
        let stale = REPORT_STALE_AFTER.as_nanos() as u64;
        t.heard(&report(n, at));
        assert!(!t.assess(n, at));
        assert!(!t.assess(n, at + stale));
        assert!(t.assess(n, at + stale + 1));
        // A fresh report clears it at once.
        t.heard(&report(n, at + stale));
        assert!(!t.assess(n, at + stale + 1));
        assert!(t.assess(n, at + 2 * stale + 1));
    }

    #[test]
    fn unknown_nodes_are_not_suspect() {
        let t = HealthTracker::new();
        assert!(!t.is_suspect(NodeId(77)));
        assert!(!t.assess(NodeId(77), u64::MAX));
    }

    #[test]
    fn a_killed_nodes_report_goes_and_its_failures_stay_until_forgotten() {
        let t = HealthTracker::new();
        let n = NodeId(3);
        let at = rtml_common::time::now_nanos();
        t.heard(&report(n, at));
        let later = at + REPORT_STALE_AFTER.as_nanos() as u64 + 1;
        assert!(t.assess(n, later));
        // Dropped on kill: a report no longer makes it suspect.
        t.drop_report(n);
        assert_eq!(t.report(n), None);
        assert!(!t.assess(n, later));
        // Failure evidence outlives the report.
        t.record_failure(n);
        t.record_failure(n);
        assert!(t.is_suspect(n));
        // A restart forgets both.
        t.heard(&report(n, at));
        t.forget(n);
        assert_eq!(t.report(n), None);
        assert!(!t.is_suspect(n));
    }

    #[test]
    fn steering_keeps_sets_nonempty() {
        let t = HealthTracker::new();
        let bad = NodeId(1);
        t.record_failure(bad);
        t.record_failure(bad);
        assert_eq!(
            t.prefer_healthy(vec![bad, NodeId(2), NodeId(3)]),
            vec![NodeId(2), NodeId(3), bad]
        );
        t.forget(bad);
        assert!(!t.is_suspect(bad));
    }
}
