//! The event log: append-only, per-(node, component) streams of
//! [`Event`]s, spread across control-plane shards.
//!
//! The paper keeps event logs in the centralized control plane precisely
//! so that profiling and debugging tools (R7) can reconstruct a global
//! timeline without touching the data path. Appends go to a key derived
//! from the emitting node and component, so high-rate logging scales with
//! the shard count like every other control-plane write.
//!
//! The log is always on. Two provisions keep it off the hot path's
//! back: batched submission appends a whole batch of events with one
//! shard lock acquisition ([`EventLog::append_many`]), and a constant
//! **retention cap** ([`EventLog::RETENTION`]) turns each stream into a
//! ring buffer so sustained throughput runs do not grow control-plane
//! memory without bound. The number of events dropped to enforce the
//! cap is counted and exposed, so profiling output can state when its
//! view is partial.

use std::sync::Arc;

use bytes::Bytes;

use rtml_common::codec::{decode_from_slice, Codec, Reader, Writer};
use rtml_common::event::{Component, Event};
use rtml_common::ids::NodeId;
use rtml_common::metrics::{Counter, MetricsRegistry};

use crate::store::KvStore;

const PREFIX: &[u8] = b"ev:";

/// Typed event-log handle.
#[derive(Clone)]
pub struct EventLog {
    kv: Arc<KvStore>,
    /// Events dropped across all streams to enforce the retention cap.
    /// Shared across clones so every handle reports the same total.
    dropped: Arc<Counter>,
    /// Frames a reader met that did not decode, shared like `dropped`.
    undecodable: Arc<Counter>,
}

impl EventLog {
    /// Maximum events kept per (node, component) stream, ring-buffer
    /// style: the oldest frames are dropped as new ones land, and the
    /// events they contained are counted in [`EventLog::dropped_count`].
    /// A frame is dropped whole, and the newest is always kept, so a
    /// stream exceeds the cap only while its newest frame alone does.
    /// A lone task writes at most 2 events to any one stream, so a
    /// stream holds the last ≈ 32 k tasks' history.
    pub const RETENTION: usize = 1 << 16;

    /// Creates an event log over `kv`.
    pub fn new(kv: Arc<KvStore>) -> Self {
        EventLog {
            kv,
            dropped: Arc::new(Counter::new()),
            undecodable: Arc::new(Counter::new()),
        }
    }

    /// Total events dropped to enforce the retention cap, across all
    /// streams and all clones of this handle.
    pub fn dropped_count(&self) -> u64 {
        self.dropped.get()
    }

    /// Frames that did not decode, counted each time a reader meets
    /// one, across all clones of this handle. A frame this log wrote
    /// always decodes, so anything but 0 means the stored bytes are not
    /// what was appended.
    pub fn undecodable_count(&self) -> u64 {
        self.undecodable.get()
    }

    /// Registers the retention drop count (`events.dropped`) and the
    /// undecodable frame count (`events.undecodable`).
    pub fn register_metrics(&self, registry: &MetricsRegistry) {
        let dropped = self.dropped.clone();
        registry.register_value("events.dropped", move || dropped.get());
        let undecodable = self.undecodable.clone();
        registry.register_value("events.undecodable", move || undecodable.get());
    }

    /// The stream key: the prefix, the node's id (4 bytes, little-endian)
    /// and the component's codec tag.
    fn key(node: NodeId, component: Component) -> Bytes {
        let mut w = Writer::with_capacity(PREFIX.len() + 5);
        w.put_raw(PREFIX);
        w.put_u32(node.0);
        component.encode(&mut w);
        w.into_bytes()
    }

    /// Appends an event attributed to `node` (a frame of one).
    pub fn append(&self, node: NodeId, event: Event) {
        self.append_frame(
            Self::key(node, event.component),
            std::slice::from_ref(&event),
        );
    }

    /// Group-commits a batch of events attributed to `node`: events for
    /// the same component are encoded into **one frame record** and land
    /// on their stream with one shard lock acquisition — the per-event
    /// cost of logging a batch submission collapses into a shared buffer
    /// append. Readers decode frames transparently.
    pub fn append_many(&self, node: NodeId, events: Vec<Event>) {
        if events.is_empty() {
            return;
        }
        // Batches are almost always single-component (one submitter);
        // frame runs of equal components so mixed batches still commit
        // in per-stream order.
        let mut run_start = 0;
        for i in 1..=events.len() {
            if i == events.len() || events[i].component != events[run_start].component {
                let component = events[run_start].component;
                self.append_frame(Self::key(node, component), &events[run_start..i]);
                run_start = i;
            }
        }
    }

    /// Encodes `events` as one length-prefixed frame record and appends
    /// it, charging any frames the retention cap evicted to the dropped
    /// counter (by their event counts, read from the frame headers — the
    /// weight the cap is counted in).
    fn append_frame(&self, key: Bytes, events: &[Event]) {
        let mut w = Writer::with_capacity(24 * events.len() + 4);
        w.put_varint(events.len() as u64);
        for event in events {
            event.encode(&mut w);
        }
        let frame = vec![w.into_bytes()];
        let evicted = self
            .kv
            .append_many_capped(key, frame, Self::RETENTION, Self::frame_len);
        if !evicted.is_empty() {
            let events: u64 = evicted.iter().map(|r| self.events_in(r)).sum();
            self.dropped.add(events);
        }
    }

    /// Number of events in an encoded frame (its leading varint), 0 for
    /// a record without one: the weight the retention cap counts in. The
    /// kv weighs under its lock through a plain `fn`, so readers, not
    /// this, count a record that does not decode.
    fn frame_len(record: &[u8]) -> usize {
        Reader::new(record).take_varint().unwrap_or(0) as usize
    }

    /// Number of events in a frame record, read from its header; a
    /// record without one is counted as undecodable and holds none.
    fn events_in(&self, record: &[u8]) -> u64 {
        Reader::new(record).take_varint().unwrap_or_else(|_| {
            self.undecodable.inc();
            0
        })
    }

    /// Decodes a frame record into its events; a record that does not
    /// decode is counted and holds none.
    fn decode_frame(&self, record: &[u8]) -> Vec<Event> {
        decode_from_slice::<Vec<Event>>(record).unwrap_or_else(|_| {
            self.undecodable.inc();
            Vec::new()
        })
    }

    /// Reads every event in the system, sorted by timestamp. Tooling path.
    pub fn read_all(&self) -> Vec<Event> {
        let mut events: Vec<Event> = self
            .kv
            .scan_logs_prefix(PREFIX)
            .into_iter()
            .flat_map(|(_k, records)| records)
            .flat_map(|b| self.decode_frame(&b))
            .collect();
        events.sort_by_key(|e| e.at_nanos);
        events
    }

    /// Total number of events recorded.
    pub fn len(&self) -> usize {
        self.kv
            .scan_logs_prefix(PREFIX)
            .iter()
            .flat_map(|(_k, records)| records.iter())
            .map(|b| self.events_in(b) as usize)
            .sum()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtml_common::event::EventKind;
    use rtml_common::ids::{DriverId, TaskId};

    /// The timestamps of one (node, component) stream, in append order.
    fn stream(log: &EventLog, node: NodeId, component: Component) -> Vec<u64> {
        log.kv
            .read_log(&EventLog::key(node, component))
            .iter()
            .flat_map(|b| log.decode_frame(b))
            .map(|e| e.at_nanos)
            .collect()
    }

    fn ev(component: Component, nanos: u64) -> Event {
        let root = TaskId::driver_root(DriverId::from_index(0));
        Event {
            at_nanos: nanos,
            component,
            kind: EventKind::TaskSubmitted {
                task: root.child(nanos),
            },
        }
    }

    #[test]
    fn append_and_read_per_stream() {
        let kv = KvStore::new(4);
        let log = EventLog::new(kv);
        log.append(NodeId(0), ev(Component::Worker, 1));
        log.append(NodeId(0), ev(Component::Worker, 2));
        log.append(NodeId(1), ev(Component::Worker, 3));
        assert_eq!(stream(&log, NodeId(0), Component::Worker), vec![1, 2]);
        assert_eq!(stream(&log, NodeId(1), Component::Worker), vec![3]);
        assert!(stream(&log, NodeId(2), Component::Worker).is_empty());
    }

    #[test]
    fn read_all_sorts_by_time() {
        let kv = KvStore::new(4);
        let log = EventLog::new(kv);
        log.append(NodeId(1), ev(Component::LocalScheduler, 30));
        log.append(NodeId(0), ev(Component::Worker, 10));
        log.append(NodeId(2), ev(Component::GlobalScheduler, 20));
        let all = log.read_all();
        assert_eq!(all.len(), 3);
        let times: Vec<u64> = all.iter().map(|e| e.at_nanos).collect();
        assert_eq!(times, vec![10, 20, 30]);
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn append_many_preserves_order_and_components() {
        let kv = KvStore::new(4);
        let log = EventLog::new(kv);
        log.append_many(
            NodeId(0),
            vec![
                ev(Component::Driver, 1),
                ev(Component::Driver, 2),
                ev(Component::Worker, 3),
                ev(Component::Driver, 4),
            ],
        );
        assert_eq!(stream(&log, NodeId(0), Component::Driver), vec![1, 2, 4]);
        assert_eq!(stream(&log, NodeId(0), Component::Worker), vec![3]);
        assert_eq!(log.len(), 4);
    }

    #[test]
    fn the_stream_key_ends_in_the_components_codec_tag() {
        let key = EventLog::key(NodeId(0x0403_0201), Component::FetchAgent);
        assert_eq!(key, b"ev:\x01\x02\x03\x04\x06"[..]);
        assert_eq!(
            EventLog::key(NodeId(7), Component::Driver),
            b"ev:\x07\x00\x00\x00\x00"[..]
        );
    }

    #[test]
    fn an_undecodable_frame_is_counted_and_the_good_events_still_read() {
        let kv = KvStore::new(4);
        let log = EventLog::new(kv.clone());
        let registry = MetricsRegistry::new();
        log.register_metrics(&registry);
        log.append(NodeId(0), ev(Component::Worker, 1));
        // Claims three events; the second byte is no component's tag.
        let garbage = Bytes::from_static(b"\x03\x01\xffgarbage");
        kv.append(EventLog::key(NodeId(0), Component::Worker), garbage);
        log.append_many(NodeId(0), vec![ev(Component::Worker, 2)]);
        assert_eq!(stream(&log, NodeId(0), Component::Worker), vec![1, 2]);
        assert_eq!(log.undecodable_count(), 1);
        assert_eq!(registry.get("events.undecodable"), Some(1));
        assert_eq!(registry.get("events.dropped"), Some(0));
    }

    #[test]
    fn retention_caps_streams_and_counts_drops() {
        const CAP: u64 = EventLog::RETENTION as u64;
        let kv = KvStore::new(4);
        let log = EventLog::new(kv);
        let frame = |times: std::ops::Range<u64>| times.map(|i| ev(Component::Worker, i)).collect();
        let worker = |log: &EventLog| stream(log, NodeId(0), Component::Worker);
        // Two half-cap frames fill the stream exactly.
        log.append_many(NodeId(0), frame(0..CAP / 2));
        log.append_many(NodeId(0), frame(CAP / 2..CAP));
        assert_eq!(worker(&log).len(), CAP as usize);
        assert_eq!(log.dropped_count(), 0);
        // One more event evicts the oldest frame whole: the survivors
        // are the newest, in order.
        log.append(NodeId(0), ev(Component::Worker, CAP));
        assert_eq!(worker(&log), (CAP / 2..=CAP).collect::<Vec<_>>());
        assert_eq!(log.dropped_count(), CAP / 2);
        // Clones share the drop counter. A batch lands as one frame
        // record, and the cap counts its events: it evicts the other
        // half-cap frame and keeps the single event.
        let clone = log.clone();
        clone.append_many(NodeId(0), frame(CAP + 1..CAP + 1 + CAP / 2));
        assert_eq!(log.dropped_count(), CAP);
        let times = worker(&log);
        assert_eq!(times.len() as u64, 1 + CAP / 2);
        assert_eq!((times[0], *times.last().unwrap()), (CAP, CAP + CAP / 2));
        // A frame larger than the cap is kept whole, alone.
        let start = CAP + 1 + CAP / 2;
        clone.append_many(NodeId(0), frame(start..start + CAP + 1));
        assert_eq!(log.dropped_count(), CAP + CAP / 2 + 1);
        assert_eq!(worker(&log), (start..start + CAP + 1).collect::<Vec<_>>());
    }
}
