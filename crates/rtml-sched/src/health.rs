//! Peer health tracking: heartbeat-derived suspicion.
//!
//! Every local scheduler already publishes a [`LoadReport`] into the
//! kv mirror (and, since the chaos plane, republishes it periodically
//! even when idle — the heartbeat). The [`HealthTracker`] reads those
//! timestamps and combines them with *failure-derived* evidence
//! (fetch/pull attempts against a peer that timed out or errored) into
//! a single question: *is this node suspect right now?*
//!
//! Suspicion **steers, never decides**: suspect nodes are moved to the
//! back of holder rankings, never dropped from them. Correctness never
//! depends on suspicion being right; lineage reconstruction remains the
//! backstop. This matters because the kv mirror is shared memory in
//! this simulated cluster: a fabric-partitioned node keeps
//! heartbeating, so staleness alone cannot see partitions — the
//! failure-derived half can.
//!
//! Failure evidence decays: a burst of recorded failures marks a node
//! suspect for a quarantine window, after which it is trusted again
//! unless failures recur (a gray node keeps re-earning suspicion; a
//! healed one stops).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::msg::{load_key, LoadReport};
use rtml_common::ids::NodeId;
use rtml_kv::KvStore;

/// How old a node's newest load report may be before the health tracker
/// calls the node suspect. Health is its only reader. A live scheduler
/// republishes at least every 16 [`crate::local::LOAD_INTERVAL`]s (its
/// heartbeat), so this much silence is decisive, not jitter.
pub const REPORT_STALE_AFTER: Duration = Duration::from_millis(100);

/// How long a cached verdict stays fresh: a sixteenth of
/// [`REPORT_STALE_AFTER`], so a hot path pays a map lookup, not a kv
/// read, and a verdict is never much older than the staleness it reads.
const VERDICT_FRESH_FOR: Duration = Duration::from_nanos(REPORT_STALE_AFTER.as_nanos() as u64 / 16);

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

/// Shared peer-health view. Cheap to consult: verdicts are cached for
/// a short interval so a hot path (holder ranking) pays a map lookup,
/// not a kv read, per call.
pub struct HealthTracker {
    kv: Arc<KvStore>,
    evidence: Mutex<HashMap<NodeId, PeerEvidence>>,
    /// Verdict cache: node -> (suspect, verdict timestamp nanos).
    verdicts: Mutex<HashMap<NodeId, (bool, u64)>>,
}

impl HealthTracker {
    /// A tracker reading the load reports mirrored in `kv`.
    pub fn new(kv: Arc<KvStore>) -> Arc<Self> {
        Arc::new(HealthTracker {
            kv,
            evidence: Mutex::new(HashMap::new()),
            verdicts: Mutex::new(HashMap::new()),
        })
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
        if entry.failures >= FAILURE_THRESHOLD {
            self.verdicts.lock().insert(node, (true, now));
        }
    }

    /// Records a successful exchange with `node`, clearing failure
    /// evidence (heartbeat staleness can still mark it suspect).
    pub fn record_success(&self, node: NodeId) {
        self.evidence.lock().remove(&node);
        self.verdicts.lock().remove(&node);
    }

    /// Whether `node` is currently suspect: either its failure count
    /// crossed the threshold recently, or its newest load report is
    /// stale. Verdicts are cached briefly to keep this callable from
    /// hot paths.
    pub fn is_suspect(&self, node: NodeId) -> bool {
        let now = rtml_common::time::now_nanos();
        if let Some((verdict, at)) = self.verdicts.lock().get(&node) {
            if now.saturating_sub(*at) < VERDICT_FRESH_FOR.as_nanos() as u64 {
                return *verdict;
            }
        }
        let verdict = self.assess(node, now);
        self.verdicts.lock().insert(node, (verdict, now));
        verdict
    }

    fn assess(&self, node: NodeId, now: u64) -> bool {
        {
            let evidence = self.evidence.lock();
            if let Some(e) = evidence.get(&node) {
                if e.failures >= FAILURE_THRESHOLD
                    && now.saturating_sub(e.last_failure_nanos) < FAILURE_WINDOW.as_nanos() as u64
                {
                    return true;
                }
            }
        }
        // Heartbeat half: a node that has published a load report but
        // not refreshed it within `REPORT_STALE_AFTER` has a wedged or dead
        // scheduler loop. A node with no report at all is either just
        // forming or already detached — not this tracker's call.
        match self.kv.get(&load_key(node)) {
            Some(bytes) => {
                match rtml_common::codec::decode_from_slice::<LoadReport>(bytes.as_ref()) {
                    Ok(report) => {
                        now.saturating_sub(report.at_nanos) > REPORT_STALE_AFTER.as_nanos() as u64
                    }
                    Err(_) => false,
                }
            }
            None => false,
        }
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

    /// Forgets all evidence about `node` (restart lifecycle: a
    /// rejoining node starts with a clean slate).
    pub fn forget(&self, node: NodeId) {
        self.evidence.lock().remove(&node);
        self.verdicts.lock().remove(&node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker() -> Arc<HealthTracker> {
        HealthTracker::new(KvStore::new(1))
    }

    #[test]
    fn failures_cross_threshold_and_successes_clear() {
        let t = tracker();
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
        // The test ages a real report instead of forging timestamps
        // (now_nanos is process-epoch-relative).
        let t = tracker();
        let n = NodeId(2);
        let report = LoadReport {
            node: n,
            sched_address: 0,
            ready: 0,
            waiting: 0,
            running: 0,
            idle_workers: 1,
            available: rtml_common::Resources::cpu(1.0),
            total: rtml_common::Resources::cpu(1.0),
            at_nanos: rtml_common::time::now_nanos(),
        };
        t.kv.set(load_key(n), rtml_common::codec::encode_to_bytes(&report));
        assert!(!t.is_suspect(n));
        std::thread::sleep(REPORT_STALE_AFTER * 2);
        assert!(t.is_suspect(n));
        // A fresh report clears it once the verdict cache expires.
        let fresh = LoadReport {
            at_nanos: rtml_common::time::now_nanos(),
            ..report
        };
        t.kv.set(load_key(n), rtml_common::codec::encode_to_bytes(&fresh));
        std::thread::sleep(VERDICT_FRESH_FOR * 2);
        assert!(!t.is_suspect(n));
    }

    #[test]
    fn unknown_nodes_are_not_suspect() {
        let t = tracker();
        assert!(!t.is_suspect(NodeId(77)));
    }

    #[test]
    fn steering_keeps_sets_nonempty() {
        let t = tracker();
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
