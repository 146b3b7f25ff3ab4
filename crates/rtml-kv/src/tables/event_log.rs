//! The event log: append-only, per-(node, component) streams of
//! [`Event`]s, spread across control-plane shards.
//!
//! The paper keeps event logs in the centralized control plane precisely
//! so that profiling and debugging tools (R7) can reconstruct a global
//! timeline without touching the data path. Appends go to a key derived
//! from the emitting node and component, so high-rate logging scales with
//! the shard count like every other control-plane write.
//!
//! The log is always on, and off the per-task path: an event is pushed
//! to its node's **buffer** under one uncontended lock, encoded in place
//! — no kv call, and no key or frame allocated per event. The node's
//! loop appends the buffer on its load tick ([`EventLog::flush`]), one
//! frame per stream, so the log groups writes by time as batched
//! submission groups them by batch. A pusher that fills a buffer to
//! [`EventLog::BUFFER`] events flushes it itself, so a log with no loop
//! ticking holds no more; a batch that large lands as frames of its own.
//! Every reader ([`EventLog::read_all`], [`EventLog::len`],
//! [`EventLog::dropped_count`]) flushes every buffer first, so it sees
//! every event pushed before it asked, each stream in push order. A
//! killed node's unflushed events are dropped ([`EventLog::discard`])
//! and counted ([`EventLog::lost_count`]).
//!
//! A constant **retention cap** ([`EventLog::RETENTION`]) turns each
//! stream into a ring buffer so sustained throughput runs do not grow
//! control-plane memory without bound. The number of events dropped to
//! enforce the cap is counted and exposed, so profiling output can state
//! when its view is partial.

use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use rtml_common::codec::{decode_from_slice, Codec, Reader, Writer};
use rtml_common::event::{Component, Event};
use rtml_common::ids::NodeId;
use rtml_common::metrics::{Counter, MetricsRegistry};

use crate::store::KvStore;

const PREFIX: &[u8] = b"ev:";

/// Buffers per log: node `n` pushes to buffer `n % SLOTS`, so a
/// cluster of up to this many nodes gives each node its own.
const SLOTS: usize = 64;

/// Typed event-log handle.
#[derive(Clone)]
pub struct EventLog {
    kv: Arc<KvStore>,
    /// The nodes' event buffers, shared across clones.
    buffers: Arc<[Mutex<Buffer>]>,
    /// Events dropped across all streams to enforce the retention cap.
    /// Shared across clones so every handle reports the same total.
    dropped: Arc<Counter>,
    /// Frames a reader met that did not decode, shared like `dropped`.
    undecodable: Arc<Counter>,
    /// Events a killed node had buffered and never flushed, shared like
    /// `dropped`.
    lost: Arc<Counter>,
}

/// One buffer's events, a stream each, not yet appended.
#[derive(Default)]
struct Buffer {
    streams: Vec<Stream>,
    /// Events held across `streams`.
    held: usize,
}

/// The buffered tail of one (node, component) stream.
struct Stream {
    node: NodeId,
    component: Component,
    /// The stream's kv key, made once.
    key: Bytes,
    /// How many events `body` holds.
    count: usize,
    /// The events' encodings, back to back: a frame's body. Cleared, not
    /// freed, by a flush.
    body: Writer,
}

impl Buffer {
    /// The stream of `node`'s `component`, made on first use.
    fn stream(&mut self, node: NodeId, component: Component) -> &mut Stream {
        let at = self
            .streams
            .iter()
            .position(|s| s.node == node && s.component == component);
        let at = at.unwrap_or_else(|| {
            self.streams.push(Stream {
                node,
                component,
                key: EventLog::key(node, component),
                count: 0,
                body: Writer::new(),
            });
            self.streams.len() - 1
        });
        &mut self.streams[at]
    }
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

    /// Most events a node's buffer holds: a push that would take it past
    /// this flushes it first. A node's loop flushes it every
    /// [load tick](EventLog::flush): ≈ 700 events' worth at a lone
    /// round trip's release-build rate (7 events a task, ≈ 100 tasks a
    /// millisecond), so the bound is met only by a log no loop ticks
    /// for or a loop held up for several ticks, and keeps a buffer's
    /// allocation to about a hundred KiB.
    pub const BUFFER: usize = 4096;

    /// Creates an event log over `kv`.
    pub fn new(kv: Arc<KvStore>) -> Self {
        EventLog {
            kv,
            buffers: (0..SLOTS).map(|_| Mutex::new(Buffer::default())).collect(),
            dropped: Arc::new(Counter::new()),
            undecodable: Arc::new(Counter::new()),
            lost: Arc::new(Counter::new()),
        }
    }

    /// Total events dropped to enforce the retention cap, across all
    /// streams and all clones of this handle. A reader: flushes every
    /// buffer first.
    pub fn dropped_count(&self) -> u64 {
        self.drain();
        self.dropped.get()
    }

    /// Frames that did not decode, counted each time a reader meets
    /// one, across all clones of this handle. A frame this log wrote
    /// always decodes, so anything but 0 means the stored bytes are not
    /// what was appended.
    pub fn undecodable_count(&self) -> u64 {
        self.undecodable.get()
    }

    /// Events that killed nodes had buffered and never flushed
    /// ([`EventLog::discard`]), across all clones of this handle.
    pub fn lost_count(&self) -> u64 {
        self.lost.get()
    }

    /// Registers the retention drop count (`events.dropped`), the
    /// undecodable frame count (`events.undecodable`) and the count of
    /// events lost with their node (`events.lost`).
    pub fn register_metrics(&self, registry: &MetricsRegistry) {
        let counters = [
            ("events.dropped", &self.dropped),
            ("events.undecodable", &self.undecodable),
            ("events.lost", &self.lost),
        ];
        for (name, counter) in counters {
            let counter = counter.clone();
            registry.register_value(name, move || counter.get());
        }
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

    fn buffer(&self, node: NodeId) -> &Mutex<Buffer> {
        &self.buffers[node.0 as usize % SLOTS]
    }

    /// Logs an event attributed to `node`: pushes it to the node's
    /// buffer.
    pub fn append(&self, node: NodeId, event: Event) {
        self.push(node, std::slice::from_ref(&event));
    }

    /// Logs a batch of events attributed to `node`, in order, under one
    /// lock of the node's buffer; each lands on its component's stream.
    /// A batch of [`EventLog::BUFFER`] events or more is appended at
    /// once, as one frame per run of equal components.
    pub fn append_many(&self, node: NodeId, events: Vec<Event>) {
        self.push(node, &events);
    }

    fn push(&self, node: NodeId, events: &[Event]) {
        if events.is_empty() {
            return;
        }
        let mut buffer = self.buffer(node).lock();
        if buffer.held + events.len() > Self::BUFFER {
            self.flush_buffer(&mut buffer);
            if events.len() >= Self::BUFFER {
                // Framed whole, as a batch's events always were: runs
                // of equal components, each in its stream's order.
                for run in events.chunk_by(|a, b| a.component == b.component) {
                    let mut body = Writer::with_capacity(40 * run.len());
                    run.iter().for_each(|event| event.encode(&mut body));
                    let key = Self::key(node, run[0].component);
                    self.append_frame(key, run.len(), body.as_slice());
                }
                return;
            }
        }
        for event in events {
            let stream = buffer.stream(node, event.component);
            event.encode(&mut stream.body);
            stream.count += 1;
        }
        buffer.held += events.len();
    }

    /// Appends what `node`'s buffer holds (with any other node's that
    /// shares it): one frame per stream. The node's loop calls this on
    /// its load tick, and once more when it closes.
    pub fn flush(&self, node: NodeId) {
        self.flush_buffer(&mut self.buffer(node).lock());
    }

    /// Drops what `node`'s buffer holds of its events, unflushed, and
    /// counts them lost: the node was killed, and a crash takes what
    /// it had not written with it.
    pub fn discard(&self, node: NodeId) {
        let mut buffer = self.buffer(node).lock();
        let mut lost = 0;
        for stream in buffer.streams.iter_mut().filter(|s| s.node == node) {
            lost += std::mem::take(&mut stream.count);
            stream.body.clear();
        }
        buffer.held -= lost;
        self.lost.add(lost as u64);
    }

    /// Events held in buffers, not yet appended.
    pub fn buffered(&self) -> usize {
        self.buffers.iter().map(|b| b.lock().held).sum()
    }

    /// Bytes the buffers' allocations hold: what their streams' bodies
    /// have grown to. A flush keeps them, so this is the buffers' high
    /// water mark, not their contents.
    pub fn buffered_bytes(&self) -> usize {
        let bytes = |b: &Mutex<Buffer>| -> usize {
            b.lock().streams.iter().map(|s| s.body.capacity()).sum()
        };
        self.buffers.iter().map(bytes).sum()
    }

    /// Flushes every buffer: what every reader does first.
    fn drain(&self) {
        for buffer in self.buffers.iter() {
            self.flush_buffer(&mut buffer.lock());
        }
    }

    /// Appends each stream's buffered events as one frame, under the
    /// buffer's lock, so two flushes of a stream land in push order.
    fn flush_buffer(&self, buffer: &mut Buffer) {
        if buffer.held == 0 {
            return;
        }
        for stream in buffer.streams.iter_mut().filter(|s| s.count > 0) {
            let count = std::mem::take(&mut stream.count);
            self.append_frame(stream.key.clone(), count, stream.body.as_slice());
            stream.body.clear();
        }
        buffer.held = 0;
    }

    /// Appends `count` encoded events, `body`, as one frame record —
    /// their count's varint, then `body` — allocated to its exact size,
    /// charging any frames the retention cap evicted to the dropped
    /// counter (by their event counts, read from the frame headers — the
    /// weight the cap is counted in).
    fn append_frame(&self, key: Bytes, count: usize, body: &[u8]) {
        let head = (usize::BITS - count.leading_zeros()).max(1).div_ceil(7) as usize;
        let mut frame = Writer::with_capacity(head + body.len());
        frame.put_varint(count as u64);
        frame.put_raw(body);
        let frame = vec![frame.into_bytes()];
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

    /// Reads every event in the system, sorted by timestamp (a stable
    /// sort: a stream's events of one instant keep their push order).
    /// Tooling path; flushes every buffer first.
    pub fn read_all(&self) -> Vec<Event> {
        self.drain();
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

    /// Total number of events recorded; flushes every buffer first.
    pub fn len(&self) -> usize {
        self.drain();
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

    /// The timestamps of one (node, component) stream, in append order,
    /// every buffer flushed first.
    fn stream(log: &EventLog, node: NodeId, component: Component) -> Vec<u64> {
        log.drain();
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
        log.flush(NodeId(0));
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

    #[test]
    fn events_pushed_on_two_nodes_with_no_tick_between_read_back_in_push_order() {
        let kv = KvStore::new(4);
        let log = EventLog::new(kv.clone());
        // Interleaved across two nodes and two components, timestamps
        // out of order within a stream: nothing reaches the kv until a
        // reader asks, and each stream reads back in push order.
        let pushes = [
            (0, Component::Worker, 5),
            (1, Component::Worker, 9),
            (0, Component::Driver, 2),
            (0, Component::Worker, 3),
            (1, Component::Worker, 7),
            (0, Component::Worker, 4),
        ];
        let locks = kv.stats().total_locks();
        for (node, component, at) in pushes {
            log.append(NodeId(node), ev(component, at));
        }
        assert_eq!(kv.stats().total_locks(), locks, "a push took a kv lock");
        assert_eq!(log.buffered(), pushes.len());
        assert_eq!(log.read_all().len(), pushes.len());
        assert_eq!(log.buffered(), 0);
        assert_eq!(stream(&log, NodeId(0), Component::Worker), vec![5, 3, 4]);
        assert_eq!(stream(&log, NodeId(1), Component::Worker), vec![9, 7]);
        assert_eq!(stream(&log, NodeId(0), Component::Driver), vec![2]);
        // One flush wrote one frame per stream.
        let frames = kv.scan_logs_prefix(PREFIX);
        assert!(frames.iter().all(|(_, records)| records.len() == 1));
    }

    #[test]
    fn a_discarded_buffer_counts_its_events_lost_and_spares_other_nodes() {
        let kv = KvStore::new(4);
        let log = EventLog::new(kv);
        let registry = MetricsRegistry::new();
        log.register_metrics(&registry);
        log.append(NodeId(1), ev(Component::Worker, 1));
        log.flush(NodeId(1));
        log.append(NodeId(1), ev(Component::Worker, 2));
        log.append(NodeId(1), ev(Component::ObjectStore, 3));
        // Node 65 shares node 1's buffer and is not the one killed.
        log.append(NodeId(1 + SLOTS as u32), ev(Component::Worker, 4));
        log.discard(NodeId(1));
        assert_eq!(log.lost_count(), 2);
        assert_eq!(registry.get("events.lost"), Some(2));
        let times: Vec<u64> = log.read_all().iter().map(|e| e.at_nanos).collect();
        assert_eq!(times, vec![1, 4]);
        assert_eq!(log.dropped_count(), 0);
    }

    #[test]
    fn a_log_no_loop_flushes_never_holds_more_than_its_bound() {
        // The shape of a bare handle with nothing ticking: single
        // appends and 256-event batches, past the bound many times.
        let kv = KvStore::new(4);
        let log = EventLog::new(kv);
        let batch = |base: u64| {
            (base..base + 256)
                .map(|i| ev(Component::Driver, i))
                .collect()
        };
        let mut pushed = 0;
        for round in 0..40u64 {
            log.append(NodeId(0), ev(Component::Worker, round));
            log.append_many(NodeId(0), batch(1_000 * round));
            pushed += 257;
            assert!(log.buffered() <= EventLog::BUFFER, "{}", log.buffered());
        }
        // Under 32 B an event here, and an allocation at most double
        // its use.
        let bytes = log.buffered_bytes();
        assert!(bytes < 64 * EventLog::BUFFER, "{bytes} B buffered");
        // A batch past the bound lands whole, in order after what the
        // buffer held.
        let big: Vec<Event> = (0..EventLog::BUFFER as u64 + 1)
            .map(|i| ev(Component::Worker, 100_000 + i))
            .collect();
        log.append_many(NodeId(0), big);
        assert_eq!(log.buffered(), 0);
        assert_eq!(log.len(), pushed + EventLog::BUFFER + 1);
        let worker = stream(&log, NodeId(0), Component::Worker);
        assert_eq!(&worker[..40], &(0..40).collect::<Vec<_>>()[..]);
        assert_eq!(worker[40], 100_000);
    }
}
