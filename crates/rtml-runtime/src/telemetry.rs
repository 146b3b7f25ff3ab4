//! The per-node telemetry sampler: the sensing half of the
//! observability plane.
//!
//! Every node carries a [`MetricsRegistry`] on which its components
//! (object plane, scheduler, store) register their live
//! counters at build time; cluster-wide state (fabric, kv, event log,
//! object table, global scheduler, lineage replay) is registered once,
//! on the services' registry. A node's sampler thread reads both on a
//! period and group-commits the snapshot to the kv-backed
//! [`TelemetryTable`] as **one record on one key** — one control-plane
//! lock per node per interval, independent of how many metrics are
//! registered. The per-node rings are bounded, so a long-running
//! cluster holds a sliding window of recent samples: a column-aligned
//! time-series per node, not just end-of-run totals.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{unbounded, RecvTimeoutError, Sender};

use rtml_common::ids::NodeId;
use rtml_common::metrics::MetricsRegistry;
use rtml_common::time::now_nanos;
use rtml_kv::{TelemetryRecord, TelemetryTable};

/// The `ClusterConfig::telemetry` knob: whether per-node samplers run,
/// how often they snapshot, and how much history each node's ring
/// keeps.
#[derive(Clone, Debug)]
pub struct TelemetryConfig {
    /// Whether per-node samplers run at all. On by default — the cost
    /// is one kv append per node per interval, which is noise against
    /// the submission hot path's budget (see ARCHITECTURE.md).
    pub enabled: bool,
    /// Sampling period.
    pub interval: Duration,
    /// Per-node ring capacity (records). At the default interval this
    /// holds the trailing ~10 seconds.
    pub retention: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: true,
            interval: Duration::from_millis(10),
            retention: TelemetryTable::DEFAULT_RETENTION,
        }
    }
}

/// Handle for one node's sampler thread; dropping (or
/// [`TelemetrySampler::shutdown`]) stops it.
pub struct TelemetrySampler {
    stop: Sender<()>,
    stopping: Arc<AtomicBool>,
    handle: parking_lot::Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl TelemetrySampler {
    /// Spawns the sampler for `node`, recording every column of every
    /// registry in `registries` (their names must not overlap). Takes
    /// one snapshot immediately (so even short-lived clusters have a
    /// non-empty series), then one per `interval`, then a final one on
    /// shutdown.
    pub fn spawn(
        node: NodeId,
        registries: Vec<Arc<MetricsRegistry>>,
        table: TelemetryTable,
        interval: Duration,
    ) -> TelemetrySampler {
        let (stop, stop_rx) = unbounded::<()>();
        let stopping = Arc::new(AtomicBool::new(false));
        let thread_stopping = stopping.clone();
        let handle = std::thread::Builder::new()
            .name(format!("rtml-telemetry-{node}"))
            .spawn(move || {
                let sample = || {
                    let mut samples: Vec<(String, u64)> =
                        registries.iter().flat_map(|r| r.sample()).collect();
                    samples.sort_by(|a, b| a.0.cmp(&b.0));
                    table.append(
                        node,
                        &TelemetryRecord {
                            at_nanos: now_nanos(),
                            samples,
                        },
                    );
                };
                sample();
                loop {
                    match stop_rx.recv_timeout(interval) {
                        Err(RecvTimeoutError::Timeout) => {
                            if thread_stopping.load(Ordering::Acquire) {
                                break;
                            }
                            sample();
                        }
                        Ok(()) | Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
                // Final snapshot: the series always reflects end state.
                sample();
            })
            .expect("spawn telemetry sampler");
        TelemetrySampler {
            stop,
            stopping,
            handle: parking_lot::Mutex::new(Some(handle)),
        }
    }

    /// Stops the sampler and joins its thread (idempotent).
    pub fn shutdown(&self) {
        self.stopping.store(true, Ordering::Release);
        let _ = self.stop.send(());
        if let Some(handle) = self.handle.lock().take() {
            let _ = handle.join();
        }
    }
}

impl Drop for TelemetrySampler {
    fn drop(&mut self) {
        self.stopping.store(true, Ordering::Release);
        let _ = self.stop.send(());
    }
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
        let table = TelemetryTable::with_retention(kv.clone(), 8);
        let sampler = TelemetrySampler::spawn(
            NodeId(5),
            vec![registry, shared],
            table.clone(),
            Duration::from_millis(1),
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while table.read(NodeId(5)).len() < 3 {
            assert!(std::time::Instant::now() < deadline, "sampler stalled");
            std::thread::sleep(Duration::from_millis(1));
        }
        c.add(1);
        sampler.shutdown();
        let series = table.read(NodeId(5));
        assert!(series.len() >= 3 && series.len() <= 8, "{}", series.len());
        // Timestamps rise; the shape is stable; the final snapshot saw
        // the last increment.
        for pair in series.windows(2) {
            assert!(pair[0].at_nanos <= pair[1].at_nanos);
            assert_eq!(pair[0].samples.len(), pair[1].samples.len());
        }
        // Both registries' columns, in one name order.
        assert_eq!(series[0].samples[0], ("w".to_string(), 9));
        assert_eq!(series[0].samples[1].0, "x");
        assert_eq!(series.last().unwrap().samples[1].1, 4);
    }

    #[test]
    fn shutdown_is_idempotent() {
        let kv = KvStore::new(2);
        let sampler = TelemetrySampler::spawn(
            NodeId(0),
            vec![Arc::new(MetricsRegistry::new())],
            TelemetryTable::new(kv),
            Duration::from_millis(50),
        );
        sampler.shutdown();
        sampler.shutdown();
    }
}
