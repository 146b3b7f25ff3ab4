//! The per-node telemetry sample: the sensing half of the
//! observability plane.
//!
//! Every node carries a [`MetricsRegistry`] on which its components
//! (object plane, scheduler, store) register their live
//! counters at build time; cluster-wide state (fabric, kv, event log,
//! object table, global scheduler, lineage replay) is registered once,
//! on the services' registry, and only the lowest live node's sample
//! records it, so it is recorded once, not once a node. [`sample`] reads
//! the registries it is given and group-commits
//! the snapshot to the kv-backed [`TelemetryTable`] as **one record on
//! one key** — one control-plane lock per node per interval, independent
//! of how many metrics are registered. No thread of its own takes it:
//! the node's local scheduler runs it from its loop every interval, and
//! once more when the loop exits, so the series ends on the node's final
//! counts ([`rtml_sched::SchedServices::periodic`]). The per-node rings are
//! bounded, so a long-running cluster holds a sliding window of recent
//! samples ([`TelemetryTable::RETENTION`] records each): a
//! column-aligned time-series per node, not just end-of-run totals.

use std::sync::Arc;
use std::time::Duration;

use rtml_common::ids::NodeId;
use rtml_common::metrics::MetricsRegistry;
use rtml_common::time::now_nanos;
use rtml_kv::{TelemetryRecord, TelemetryTable};

/// How often a node samples: its ring of
/// [`TelemetryTable::RETENTION`] records then holds the
/// trailing ~10 seconds.
pub const INTERVAL: Duration = Duration::from_millis(10);

/// Appends one snapshot of every column of every registry in
/// `registries` (their names must not overlap), in one name order, to
/// `node`'s ring in `table`.
pub fn sample(node: NodeId, registries: &[Arc<MetricsRegistry>], table: &TelemetryTable) {
    let mut samples: Vec<(String, u64)> = registries.iter().flat_map(|r| r.sample()).collect();
    samples.sort_by(|a, b| a.0.cmp(&b.0));
    table.append(
        node,
        &TelemetryRecord {
            at_nanos: now_nanos(),
            samples,
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtml_common::metrics::Counter;
    use rtml_kv::KvStore;

    #[test]
    fn sampler_commits_bounded_series() {
        let kv = KvStore::new(2);
        let registry = Arc::new(MetricsRegistry::new());
        let c = Arc::new(Counter::new());
        c.add(3);
        let x = c.clone();
        registry.register_value("x", move || x.get());
        let shared = Arc::new(MetricsRegistry::new());
        shared.register_value("w", || 9);
        let table = TelemetryTable::new(kv.clone());
        let registries = [registry, shared];
        for _ in 0..TelemetryTable::RETENTION + 4 {
            sample(NodeId(5), &registries, &table);
        }
        c.add(1);
        // The exit run.
        sample(NodeId(5), &registries, &table);
        let series = table.read(NodeId(5));
        assert_eq!(
            series.len(),
            TelemetryTable::RETENTION,
            "the ring keeps the newest {}",
            TelemetryTable::RETENTION
        );
        // Timestamps rise; the shape is stable; the final snapshot saw
        // the last increment.
        for pair in series.windows(2) {
            assert!(pair[0].at_nanos <= pair[1].at_nanos);
            assert_eq!(pair[0].samples.len(), pair[1].samples.len());
        }
        // Both registries' columns, in one name order.
        assert_eq!(series[0].samples[0], ("w".to_string(), 9));
        assert_eq!(series[0].samples[1], ("x".to_string(), 3));
        assert_eq!(series.last().unwrap().samples[1].1, 4);
    }
}
