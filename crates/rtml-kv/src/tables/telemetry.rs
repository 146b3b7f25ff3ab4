//! The telemetry table: per-node bounded rings of metric snapshots.
//!
//! This is the time-series half of the observability plane (paper R7:
//! profiling tools attached to the centralized control state). Each node
//! runs a sampler that reads its own `MetricsRegistry` and the cluster's
//! on a period and group-commits the whole snapshot here as **one record
//! on one key** — one shard lock acquisition per node per sampling
//! interval, so the sensing plane costs the control plane a few locks
//! per second per node regardless of how many metrics are registered.
//!
//! Every stream is a ring of [`TelemetryTable::RETENTION`] records, so a
//! long-running cluster holds a sliding window of recent samples
//! without unbounded control-plane memory. A record keeps its values
//! only: the column names of a node's snapshots are the same from one
//! sample to the next, so they are written once per column set, to a
//! log of the node's column sets that each record names by hash. Names
//! were ≈ 90 % of a record's bytes, and put a 51-column record over the
//! kv's packing cut-off.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use rtml_common::codec::{decode_from_slice, encode_to_bytes};
use rtml_common::ids::NodeId;

use crate::store::KvStore;

/// A node's ring of rows.
const PREFIX: &[u8] = b"tel:";
/// A node's column sets (not under [`PREFIX`]).
const COLUMNS: &[u8] = b"telcols:";

/// One sampler snapshot: every registered metric at one instant.
///
/// `samples` is name-sorted and shape-stable across records from one
/// node (the registry guarantees it), so consecutive records line up
/// column-wise into a time-series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryRecord {
    /// Capture time, nanoseconds since the cluster epoch.
    pub at_nanos: u64,
    /// Flat name-sorted `(metric, value)` pairs.
    pub samples: Vec<(String, u64)>,
}

rtml_common::impl_codec_struct!(TelemetryRecord { at_nanos, samples });

/// A record as its ring stores it: the values of the column set whose
/// hash is `columns`, in that set's order.
struct Row {
    at_nanos: u64,
    columns: u64,
    values: Vec<u64>,
}

rtml_common::impl_codec_struct!(Row {
    at_nanos,
    columns,
    values
});

/// A column set as a node's columns log stores it.
struct Columns {
    hash: u64,
    names: Vec<String>,
}

rtml_common::impl_codec_struct!(Columns { hash, names });

/// Typed handle over the per-node telemetry rings.
#[derive(Clone)]
pub struct TelemetryTable {
    kv: Arc<KvStore>,
    /// Per node, the hash of the column set this handle last wrote to
    /// the node's columns log.
    written: Arc<Mutex<BTreeMap<NodeId, u64>>>,
}

impl TelemetryTable {
    /// Records kept per node ring: at the default 10ms sampling
    /// interval this holds the trailing ~10 seconds.
    pub const RETENTION: usize = 1024;

    /// Creates a table over `kv`.
    pub fn new(kv: Arc<KvStore>) -> Self {
        TelemetryTable {
            kv,
            written: Arc::default(),
        }
    }

    fn key(prefix: &[u8], node: NodeId) -> Bytes {
        let mut v = Vec::with_capacity(prefix.len() + 4);
        v.extend_from_slice(prefix);
        v.extend_from_slice(&node.0.to_le_bytes());
        Bytes::from(v)
    }

    /// Group-commits one snapshot onto `node`'s ring (one shard lock;
    /// one more the first time this handle writes its column set);
    /// returns how many old records the ring evicted to stay bounded.
    pub fn append(&self, node: NodeId, record: &TelemetryRecord) -> usize {
        let mut hasher = DefaultHasher::new();
        record
            .samples
            .iter()
            .for_each(|(name, _)| name.hash(&mut hasher));
        let hash = hasher.finish();
        let mut written = self.written.lock();
        if written.insert(node, hash) != Some(hash) {
            let names = record.samples.iter().map(|(name, _)| name.clone());
            let names = names.collect();
            let columns = encode_to_bytes(&Columns { hash, names });
            self.kv.append(Self::key(COLUMNS, node), columns);
        }
        drop(written);
        let row = Row {
            at_nanos: record.at_nanos,
            columns: hash,
            values: record.samples.iter().map(|(_, value)| *value).collect(),
        };
        self.kv
            .append_many_capped(
                Self::key(PREFIX, node),
                vec![encode_to_bytes(&row)],
                Self::RETENTION,
                |_| 1,
            )
            .len()
    }

    /// Reads `node`'s ring, oldest first.
    pub fn read(&self, node: NodeId) -> Vec<TelemetryRecord> {
        self.records(node, &self.kv.read_log(&Self::key(PREFIX, node)))
    }

    /// Decodes `rows` of `node`'s ring against the node's column sets
    /// (written before any row that names them).
    fn records(&self, node: NodeId, rows: &[Bytes]) -> Vec<TelemetryRecord> {
        let sets: BTreeMap<u64, Vec<String>> = (self.kv.read_log(&Self::key(COLUMNS, node)))
            .iter()
            .filter_map(|b| decode_from_slice::<Columns>(b).ok())
            .map(|set| (set.hash, set.names))
            .collect();
        rows.iter()
            .filter_map(|b| {
                let row = decode_from_slice::<Row>(b).ok()?;
                let names = sets.get(&row.columns)?;
                (names.len() == row.values.len()).then(|| TelemetryRecord {
                    at_nanos: row.at_nanos,
                    samples: names.iter().cloned().zip(row.values).collect(),
                })
            })
            .collect()
    }

    /// Reads every node's ring (tooling path), sorted by node id.
    pub fn read_all(&self) -> Vec<(NodeId, Vec<TelemetryRecord>)> {
        let mut out: Vec<(NodeId, Vec<TelemetryRecord>)> = self
            .kv
            .scan_logs_prefix(PREFIX)
            .into_iter()
            .filter_map(|(key, rows)| {
                let suffix = key.strip_prefix(PREFIX)?;
                let bytes: [u8; 4] = suffix.try_into().ok()?;
                let node = NodeId(u32::from_le_bytes(bytes));
                Some((node, self.records(node, &rows)))
            })
            .collect();
        out.sort_by_key(|(node, _)| node.0);
        out
    }

    /// Total records across all node rings.
    pub fn len(&self) -> usize {
        self.kv
            .scan_logs_prefix(PREFIX)
            .iter()
            .map(|(_, records)| records.len())
            .sum()
    }

    /// Whether no snapshots have been committed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(at: u64, v: u64) -> TelemetryRecord {
        TelemetryRecord {
            at_nanos: at,
            samples: vec![("a.count".into(), v), ("b.p50".into(), v * 2)],
        }
    }

    #[test]
    fn record_round_trips() {
        let r = record(42, 7);
        let bytes = encode_to_bytes(&r);
        assert_eq!(decode_from_slice::<TelemetryRecord>(&bytes).unwrap(), r);
        let empty = TelemetryRecord {
            at_nanos: 0,
            samples: vec![],
        };
        let bytes = encode_to_bytes(&empty);
        assert_eq!(decode_from_slice::<TelemetryRecord>(&bytes).unwrap(), empty);
    }

    #[test]
    fn append_and_read_per_node() {
        let kv = KvStore::new(4);
        let table = TelemetryTable::new(kv);
        table.append(NodeId(1), &record(10, 1));
        table.append(NodeId(1), &record(20, 2));
        table.append(NodeId(2), &record(15, 3));
        let series = table.read(NodeId(1));
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].at_nanos, 10);
        assert_eq!(series[1].samples[0].1, 2);
        assert!(table.read(NodeId(9)).is_empty());
        let all = table.read_all();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].0, NodeId(1));
        assert_eq!(all[1].0, NodeId(2));
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn a_column_set_is_written_once_and_a_changed_one_reads_beside_it() {
        let kv = KvStore::new(4);
        let table = TelemetryTable::new(kv.clone());
        for i in 0..3 {
            table.append(NodeId(0), &record(i, i));
        }
        let mut wider = record(3, 3);
        wider.samples.push(("c.max".into(), 9));
        table.append(NodeId(0), &wider);
        // Two column sets, each written once; the rows hold values only.
        let sets = kv.read_log(&TelemetryTable::key(COLUMNS, NodeId(0)));
        assert_eq!(sets.len(), 2);
        let rows = kv.read_log(&TelemetryTable::key(PREFIX, NodeId(0)));
        assert!(rows.iter().all(|row| !row.windows(2).any(|w| w == b"a.")));
        // Every record reads back whole, through any handle.
        let series = TelemetryTable::new(kv).read(NodeId(0));
        let expected: Vec<TelemetryRecord> = (0..3).map(|i| record(i, i)).chain([wider]).collect();
        assert_eq!(series, expected);
    }

    #[test]
    fn ring_stays_bounded_and_keeps_newest() {
        const CAP: u64 = TelemetryTable::RETENTION as u64;
        let kv = KvStore::new(4);
        let table = TelemetryTable::new(kv);
        let mut evicted = 0;
        for i in 0..CAP + 6 {
            evicted += table.append(NodeId(0), &record(i, i));
        }
        assert_eq!(evicted, 6);
        let times: Vec<u64> = table.read(NodeId(0)).iter().map(|r| r.at_nanos).collect();
        assert_eq!(times, (6..CAP + 6).collect::<Vec<_>>());
    }
}
