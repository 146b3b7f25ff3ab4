//! The message fabric: registration, routed delivery, delays, partitions.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use rtml_common::error::{Error, Result};
use rtml_common::ids::NodeId;
use rtml_common::metrics::Counter;

use crate::fault::{FaultDecision, FaultPlan};
use crate::latency::LatencyModel;

/// Identifies a registered endpoint on the fabric.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetAddress(u64);

impl NetAddress {
    /// Raw form, for embedding addresses in serialized messages.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Rebuilds an address from its raw form. The address is only
    /// meaningful on the fabric that issued it.
    pub const fn from_u64(raw: u64) -> Self {
        NetAddress(raw)
    }
}

/// Fabric configuration.
#[derive(Clone, Debug, Default)]
pub struct FabricConfig {
    /// Propagation delay applied to cross-node messages.
    pub latency: LatencyModel,
    /// Serialization bandwidth for cross-node messages; `None` means
    /// infinite (no size-dependent term).
    pub bandwidth_bytes_per_sec: Option<u64>,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
    /// Deterministic fault injection plan (chaos plane). The default
    /// plan is empty: no faults, and no change to the jitter stream.
    pub faults: FaultPlan,
}

/// A message handed to a receiving endpoint.
#[derive(Clone, Debug)]
pub struct Delivery {
    /// Sending endpoint.
    pub from: NetAddress,
    /// Opaque payload: the whole message, or a chunk's header.
    pub payload: Bytes,
    /// A body sent beside the payload, as the sender handed it over
    /// ([`Fabric::send_chunks_with_bodies`], [`Fabric::send_with_body`]);
    /// empty for every other frame.
    pub body: Bytes,
    /// When the message was sent (monotonic nanos since process epoch).
    pub sent_at_nanos: u64,
    /// For a frame from another node, when its last byte left the
    /// sender's link (monotonic nanos since process epoch): `sent_at`
    /// plus the time it queued on, and took to cross, a link with a
    /// bandwidth. `None` for a same-node frame.
    pub departed_at_nanos: Option<u64>,
}

/// A registered endpoint: an address plus the receiving side of its
/// mailbox. Dropping it unregisters the address.
pub struct Endpoint {
    address: NetAddress,
    node: NodeId,
    rx: Receiver<Delivery>,
    fabric: Weak<Fabric>,
    delay: Arc<DelayEstimate>,
}

impl Endpoint {
    /// This endpoint's fabric address.
    pub fn address(&self) -> NetAddress {
        self.address
    }

    /// The node the endpoint is attached to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The mailbox receiver.
    pub fn receiver(&self) -> &Receiver<Delivery> {
        &self.rx
    }

    /// The delay of the cross-node frames this endpoint received, as
    /// [`Endpoint::received`] measured it; shared, so another thread can
    /// read it.
    pub fn delay(&self) -> &Arc<DelayEstimate> {
        &self.delay
    }

    /// Notes `delivery` taken from [`Endpoint::receiver`] at `now_nanos`:
    /// a frame from another node folds the time since it left its
    /// sender's link into [`Endpoint::delay`]. Call it on the one thread
    /// that receives.
    pub fn received(&self, delivery: &Delivery, now_nanos: u64) {
        if let Some(departed) = delivery.departed_at_nanos {
            self.delay.fold(now_nanos.saturating_sub(departed));
        }
    }
}

/// An exponentially weighted moving average of the one-way delay of the
/// cross-node frames one endpoint received: from when a frame's last
/// byte left its sender's link to its receipt, so the hop's latency
/// (with any delay the fault plan adds) and the receiving thread's
/// wake-up count, as they do for a task's small frames sent away and
/// back. The time a frame queued behind bulk on the sender's link, and
/// its own bytes' wire time, do not: they measure how much data was
/// moving, not what moving a task costs. The first sample sets it; each
/// later one moves it 1/[`DelayEstimate::WEIGHT`] of the way. One
/// thread writes it, any reads it.
#[derive(Debug, Default)]
pub struct DelayEstimate {
    /// Nanoseconds; 0 until the first sample.
    nanos: AtomicU64,
}

impl DelayEstimate {
    /// A new sample weighs 1/8, as TCP smooths its round trip.
    pub const WEIGHT: u64 = 8;

    /// Folds one sample in: what [`Endpoint::received`] does for a
    /// cross-node frame. A load and a store, not a read-modify-write:
    /// call it from one thread.
    pub fn fold(&self, sample_nanos: u64) {
        let sample = sample_nanos.max(1);
        let old = self.nanos.load(Relaxed);
        let new = if old == 0 {
            sample
        } else {
            old - old / Self::WEIGHT + sample / Self::WEIGHT
        };
        self.nanos.store(new.max(1), Relaxed);
    }

    /// The average one-way delay, if a cross-node frame has arrived.
    pub fn one_way(&self) -> Option<Duration> {
        match self.nanos.load(Relaxed) {
            0 => None,
            nanos => Some(Duration::from_nanos(nanos)),
        }
    }

    /// Twice [`one_way`](Self::one_way): what a message sent away and
    /// answered back costs.
    pub fn round_trip(&self) -> Option<Duration> {
        self.one_way().map(|d| d * 2)
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        if let Some(fabric) = self.fabric.upgrade() {
            fabric.unregister(self.address);
        }
    }
}

/// Counters describing fabric traffic.
#[derive(Debug, Default)]
pub struct FabricStats {
    /// Messages accepted by `send`.
    pub sent: Counter,
    /// Messages that reached a live mailbox (cross-node ones wait there,
    /// invisible, until they are due).
    pub delivered: Counter,
    /// Messages dropped: partitioned, dropped by the fault plan, sent to
    /// a mailbox whose receiver is gone, or still waiting in a mailbox
    /// when [`Fabric::unregister`] severed it (those move here from
    /// `delivered`).
    pub dropped: Counter,
    /// Total payload bytes accepted.
    pub bytes: Counter,
    /// Frames that crossed the wire as part of a chunked stream (a
    /// [`Fabric::send_chunks`] call): pieces of one logical transfer
    /// that pipelined over the link — one propagation-delay sample, each
    /// chunk due when its own bytes have crossed.
    pub chunk_frames: Counter,
    /// Total nanoseconds sends spent queued on their source node's
    /// egress link before their first byte left (only accrues when a
    /// bandwidth is configured): a chunk stream behind everything the
    /// link had accepted, any other frame behind the chunk on the wire.
    /// This is the fan-in hot-spot signal: K concurrent reads of one
    /// object from one holder serialize on that holder's link, and this
    /// counter is where the waiting shows up.
    pub egress_wait_nanos: Counter,
    /// Messages silently dropped by the fault plan (injected drops and
    /// scheduled partition windows; also counted in `dropped`).
    pub injected_drops: Counter,
    /// Messages the fault plan delivered twice.
    pub injected_dups: Counter,
    /// Messages that drew an injected delay spike.
    pub injected_delays: Counter,
    /// Messages slowed by a gray (degraded, not dead) link.
    pub injected_gray: Counter,
}

/// How a group of payloads entered the fabric, for stats attribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FrameKind {
    /// A plain single-message `send`.
    Single,
    /// Pieces of one streamed transfer (`send_chunks`).
    Chunked,
}

#[derive(Default)]
struct Routing {
    /// Each endpoint's node and the one sender of its mailbox, shared so
    /// that a send holds the mailbox without touching its lock.
    endpoints: HashMap<NetAddress, (NodeId, Arc<Sender<Delivery>>)>,
    partitions: HashSet<(NodeId, NodeId)>,
    next_address: u64,
    jitter_state: u64,
    /// Dedicated RNG state for the fault plan, separate from
    /// `jitter_state` so enabling faults never perturbs the latency
    /// jitter stream (and a fault-free run stays byte-identical).
    fault_state: u64,
    /// Per-node egress link occupancy. Only maintained when a bandwidth
    /// is configured — with infinite bandwidth frames never contend and
    /// the map stays empty.
    egress: HashMap<NodeId, Egress>,
}

/// One node's outbound link: a serialized queue in which bulk waits its
/// turn and everything else waits for the chunk on the wire.
struct Egress {
    /// The instant the link finishes serializing everything accepted.
    busy: Instant,
    /// When each chunk frame still on the link finishes leaving,
    /// ascending: the points at which a frame that is not part of a
    /// stream may cut in.
    chunk_ends: VecDeque<Instant>,
}

/// The shared fabric. Cheap to clone via `Arc`; see crate docs.
pub struct Fabric {
    config: FabricConfig,
    routing: Mutex<Routing>,
    /// Traffic counters.
    pub stats: FabricStats,
    /// Creation instant; the fault plan's schedule windows are
    /// evaluated against time elapsed since this epoch.
    epoch: Instant,
}

impl Fabric {
    /// Creates a fabric. It runs no thread: a cross-node message waits
    /// out its delay in the destination mailbox.
    pub fn new(config: FabricConfig) -> Arc<Self> {
        let fault_seed = config.faults.seed;
        Arc::new(Fabric {
            config,
            routing: Mutex::new(Routing {
                jitter_state: 0x243f6a8885a308d3,
                fault_state: fault_seed ^ 0x9e3779b97f4a7c15,
                ..Routing::default()
            }),
            stats: FabricStats::default(),
            epoch: Instant::now(),
        })
    }

    /// Registers the fabric's traffic counters on `registry` under the
    /// `fabric.` prefix. The fabric is cluster-wide shared state, so
    /// per-node samplers reading these see the same totals — consumers
    /// should treat the columns as cluster aggregates.
    pub fn register_metrics(self: &Arc<Self>, registry: &rtml_common::metrics::MetricsRegistry) {
        let f = self.clone();
        registry.register_value("fabric.sent", move || f.stats.sent.get());
        let f = self.clone();
        registry.register_value("fabric.delivered", move || f.stats.delivered.get());
        let f = self.clone();
        registry.register_value("fabric.dropped", move || f.stats.dropped.get());
        let f = self.clone();
        registry.register_value("fabric.bytes", move || f.stats.bytes.get());
        let f = self.clone();
        registry.register_value("fabric.chunk_frames", move || f.stats.chunk_frames.get());
        let f = self.clone();
        registry.register_value("fabric.egress_wait_nanos", move || {
            f.stats.egress_wait_nanos.get()
        });
        let f = self.clone();
        registry.register_value("fabric.injected_drops", move || {
            f.stats.injected_drops.get()
        });
        let f = self.clone();
        registry.register_value("fabric.injected_dups", move || f.stats.injected_dups.get());
        let f = self.clone();
        registry.register_value("fabric.injected_delays", move || {
            f.stats.injected_delays.get()
        });
        let f = self.clone();
        registry.register_value("fabric.injected_gray", move || f.stats.injected_gray.get());
    }

    /// Registers an endpoint on `node`; it stays registered until it is
    /// dropped or [`Fabric::unregister`]ed. The `name` is only for
    /// debugging.
    pub fn register(self: &Arc<Self>, node: NodeId, _name: &str) -> Endpoint {
        let (tx, rx) = unbounded();
        let mut routing = self.routing.lock();
        routing.next_address += 1;
        let address = NetAddress(routing.next_address);
        routing.endpoints.insert(address, (node, Arc::new(tx)));
        Endpoint {
            address,
            node,
            rx,
            fabric: Arc::downgrade(self),
            delay: Arc::default(),
        }
    }

    /// Number of endpoints currently registered. Leak detector for tests:
    /// transient protocol exchanges must leave this unchanged.
    pub fn endpoint_count(&self) -> usize {
        self.routing.lock().endpoints.len()
    }

    /// Severs a live endpoint (node kill, scheduler shutdown): its
    /// mailbox closes once the messages already due are drained, and
    /// those not yet due are dropped. Idempotent.
    pub fn unregister(&self, address: NetAddress) {
        let Some((_, mailbox)) = self.routing.lock().endpoints.remove(&address) else {
            return;
        };
        let severed = mailbox.discard_pending() as u64;
        self.stats.delivered.sub(severed);
        self.stats.dropped.add(severed);
    }

    /// Partitions traffic between two nodes (both directions).
    pub fn partition(&self, a: NodeId, b: NodeId) {
        let mut routing = self.routing.lock();
        routing.partitions.insert((a, b));
        routing.partitions.insert((b, a));
    }

    /// Heals a partition.
    pub fn heal(&self, a: NodeId, b: NodeId) {
        let mut routing = self.routing.lock();
        routing.partitions.remove(&(a, b));
        routing.partitions.remove(&(b, a));
    }

    /// Whether traffic from `a` to `b` is currently dropped.
    pub fn is_partitioned(&self, a: NodeId, b: NodeId) -> bool {
        self.routing.lock().partitions.contains(&(a, b))
    }

    /// Sends `payload` from `from` to `to`.
    ///
    /// Same-node messages are delivered immediately (shared-memory path).
    /// Cross-node messages pay the configured latency plus a
    /// size/bandwidth term: they go straight into the destination
    /// mailbox stamped with their due time and stay invisible to the
    /// receiver until then, becoming visible in due-time order (send
    /// order for equal due times).
    ///
    /// Returns [`Error::Disconnected`] if either address is unregistered.
    /// Partitioned messages are silently dropped, like a real network.
    pub fn send(&self, from: NetAddress, to: NetAddress, payload: Bytes) -> Result<()> {
        self.send_with_body(from, to, payload, Bytes::new())
    }

    /// [`Fabric::send`] for a frame that is a header and a body, handed
    /// over and charged as [`Fabric::send_chunks_with_bodies`] does.
    pub fn send_with_body(
        &self,
        from: NetAddress,
        to: NetAddress,
        payload: Bytes,
        body: Bytes,
    ) -> Result<()> {
        self.send_frames(from, to, vec![(payload, body)], FrameKind::Single)
    }

    /// Sends the pieces of **one logical transfer** (e.g. a chunked
    /// object) as a pipelined stream: the stream draws a single
    /// propagation-delay sample and occupies the egress link for its
    /// total size, and each chunk is due when *its own* bytes have
    /// crossed — the last when the whole stream has — so the receiver
    /// can work on (or pass on) the head of an object while its tail is
    /// still on the wire. The receiver observes one [`Delivery`] per
    /// chunk, in order. Streams queue behind everything the link has
    /// accepted; a frame that is not part of a stream waits only for the
    /// chunk on the wire, so a control message can pass the bulk it
    /// refers to. Each chunk is counted in
    /// [`FabricStats::chunk_frames`].
    pub fn send_chunks(&self, from: NetAddress, to: NetAddress, chunks: Vec<Bytes>) -> Result<()> {
        let frames = chunks.into_iter().map(|chunk| (chunk, Bytes::new()));
        self.send_frames(from, to, frames.collect(), FrameKind::Chunked)
    }

    /// [`Fabric::send_chunks`] for chunks that are each a header and a
    /// body: the receiver gets them as the [`Delivery`]'s `payload` and
    /// `body`, and the wire charges each chunk for both — its due time,
    /// the egress link and [`FabricStats::bytes`] read exactly as for
    /// the same bytes sent in one piece. The body is handed over as it
    /// is, so a chunk can be a window of a buffer the sender keeps.
    pub fn send_chunks_with_bodies(
        &self,
        from: NetAddress,
        to: NetAddress,
        chunks: Vec<(Bytes, Bytes)>,
    ) -> Result<()> {
        self.send_frames(from, to, chunks, FrameKind::Chunked)
    }

    fn send_frames(
        &self,
        from: NetAddress,
        to: NetAddress,
        frames: Vec<(Bytes, Bytes)>,
        kind: FrameKind,
    ) -> Result<()> {
        let mut routing = self.routing.lock();
        let from_node = routing
            .endpoints
            .get(&from)
            .ok_or(Error::Disconnected("fabric sender"))?
            .0;
        let (to_node, mailbox) = routing
            .endpoints
            .get(&to)
            .map(|(node, mailbox)| (*node, mailbox.clone()))
            .ok_or(Error::Disconnected("fabric receiver"))?;

        if frames.is_empty() {
            return Ok(());
        }
        // A frame is charged for its header and its body alike.
        let size = |(payload, body): &(Bytes, Bytes)| (payload.len() + body.len()) as u64;
        let count = frames.len() as u64;
        let total_bytes: u64 = frames.iter().map(size).sum();
        self.stats.sent.add(count);
        self.stats.bytes.add(total_bytes);
        match kind {
            FrameKind::Chunked => self.stats.chunk_frames.add(count),
            FrameKind::Single => {}
        }

        if routing.partitions.contains(&(from_node, to_node)) {
            self.stats.dropped.add(count);
            return Ok(());
        }

        let sent_at_nanos = rtml_common::time::now_nanos();
        let frame = |(payload, body): (Bytes, Bytes), departed_at_nanos| Delivery {
            from,
            payload,
            body,
            sent_at_nanos,
            departed_at_nanos,
        };

        if from_node == to_node {
            drop(routing);
            for parts in frames {
                self.deliver(&mailbox, frame(parts, None), None);
            }
            return Ok(());
        }

        // Chaos plane: consult the fault plan before the frame touches
        // the egress link. Injected drops and scheduled partition
        // windows behave exactly like the static partition path above
        // (silently dropped), but are additionally counted as injected
        // so experiments can assert the chaos they scripted happened.
        let mut fault = FaultDecision::default();
        if self.config.faults.is_active() {
            let elapsed = self.epoch.elapsed();
            let state = &mut routing.fault_state;
            fault = self.config.faults.decide(from_node, to_node, elapsed, || {
                *state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *state
            });
            if fault.drop {
                self.stats.dropped.add(count);
                self.stats.injected_drops.add(count);
                return Ok(());
            }
            if fault.duplicate {
                self.stats.injected_dups.add(count);
            }
            if fault.spiked {
                self.stats.injected_delays.add(count);
            }
            if !fault.gray.is_zero() {
                self.stats.injected_gray.add(count);
            }
        }

        // Cross-node: one delay sample for the whole frame.
        routing.jitter_state = routing
            .jitter_state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let entropy = routing.jitter_state;

        // Bandwidth models a *serialized* egress link, not just a
        // size-proportional delay: a stream cannot start transmitting
        // until everything the node already accepted has drained, so
        // concurrent transfers out of one node queue behind each other.
        // This is the fan-in hot-spot relaying and multi-holder reads
        // spread — with infinite bandwidth the term (and the queueing)
        // vanishes. A frame's last byte leaves at `starts` plus the wire
        // time of what leaves with or before it.
        let now = Instant::now();
        let bandwidth = self.config.bandwidth_bytes_per_sec.filter(|bw| *bw > 0);
        let wire = |bytes: u64| match bandwidth {
            Some(bw) => {
                Duration::from_nanos((bytes as u128 * 1_000_000_000u128 / bw as u128) as u64)
            }
            None => Duration::ZERO,
        };
        let mut starts = now;
        if bandwidth.is_some() {
            let egress = routing.egress.entry(from_node).or_insert(Egress {
                busy: now,
                chunk_ends: VecDeque::new(),
            });
            while egress.chunk_ends.front().is_some_and(|end| *end <= now) {
                egress.chunk_ends.pop_front();
            }
            starts = match (kind, egress.chunk_ends.front().copied()) {
                // Cut in behind the chunk on the wire; the chunks still
                // queued leave that much later.
                (FrameKind::Single, Some(slot)) => {
                    let shift = wire(total_bytes);
                    egress.chunk_ends.iter_mut().for_each(|end| *end += shift);
                    slot
                }
                _ => egress.busy.max(now),
            };
            self.stats
                .egress_wait_nanos
                .add(starts.duration_since(now).as_nanos() as u64);
            if kind == FrameKind::Chunked {
                let mut sent = 0u64;
                egress.chunk_ends.extend(frames.iter().map(|parts| {
                    sent += size(parts);
                    starts + wire(sent)
                }));
            }
            egress.busy = egress.busy.max(starts) + wire(total_bytes);
        }
        drop(routing);

        let flight = self.config.latency.sample(entropy) + fault.extra_delay();
        let mut sent = 0u64;
        for parts in frames {
            // A chunk is due when its own bytes have crossed; anything
            // else when the whole frame has.
            sent += size(&parts);
            let crossed = match kind {
                FrameKind::Chunked => sent,
                _ => total_bytes,
            };
            let departed = starts + wire(crossed);
            let departed_at = sent_at_nanos + departed.duration_since(now).as_nanos() as u64;
            let due = Some(departed + flight);
            if fault.duplicate {
                // Both copies arrive back to back: equal due times are
                // received in send order.
                self.deliver(&mailbox, frame(parts.clone(), Some(departed_at)), due);
            }
            self.deliver(&mailbox, frame(parts, Some(departed_at)), due);
        }
        Ok(())
    }

    /// Hands `frame` to `mailbox`: visible at once, or parked there until
    /// `due`.
    fn deliver(&self, mailbox: &Sender<Delivery>, frame: Delivery, due: Option<Instant>) {
        let sent = match due {
            Some(due) => mailbox.send_at(frame, due),
            None => mailbox.send(frame),
        };
        if sent.is_ok() {
            self.stats.delivered.inc();
        } else {
            self.stats.dropped.inc();
        }
    }

    /// The node `address` is registered on, if it still is.
    pub fn node_of(&self, address: NetAddress) -> Option<NodeId> {
        self.routing.lock().endpoints.get(&address).map(|e| e.0)
    }

    /// How long `node`'s egress link needs to drain what it has accepted
    /// so far; zero without a configured bandwidth.
    pub fn egress_backlog(&self, node: NodeId) -> Duration {
        let busy = self.routing.lock().egress.get(&node).map(|e| e.busy);
        busy.map_or(Duration::ZERO, |busy| {
            busy.saturating_duration_since(Instant::now())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric_with_latency(micros: u64) -> Arc<Fabric> {
        Fabric::new(FabricConfig {
            latency: LatencyModel::Constant(Duration::from_micros(micros)),
            ..FabricConfig::default()
        })
    }

    #[test]
    fn same_node_is_immediate() {
        let fabric = fabric_with_latency(50_000);
        let a = fabric.register(NodeId(0), "a");
        let b = fabric.register(NodeId(0), "b");
        let start = Instant::now();
        fabric
            .send(a.address(), b.address(), Bytes::from_static(b"x"))
            .unwrap();
        let msg = b.receiver().recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(&msg.payload[..], b"x");
        // Must not have paid the 50 ms cross-node latency.
        assert!(start.elapsed() < Duration::from_millis(40));
    }

    #[test]
    fn cross_node_pays_latency() {
        let fabric = fabric_with_latency(20_000); // 20 ms
        let a = fabric.register(NodeId(0), "a");
        let b = fabric.register(NodeId(1), "b");
        let start = Instant::now();
        fabric
            .send(a.address(), b.address(), Bytes::from_static(b"x"))
            .unwrap();
        let _ = b.receiver().recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn only_cross_node_frames_feed_the_delay_estimate() {
        let fabric = fabric_with_latency(2_000);
        let a = fabric.register(NodeId(0), "a");
        let b = fabric.register(NodeId(0), "b");
        let remote = fabric.register(NodeId(1), "remote");
        fabric
            .send(a.address(), b.address(), Bytes::from_static(b"x"))
            .unwrap();
        let local = b.receiver().recv().unwrap();
        assert_eq!(local.departed_at_nanos, None);
        b.received(&local, rtml_common::time::now_nanos());
        assert_eq!(
            b.delay().round_trip(),
            None,
            "a same-node frame is no sample"
        );

        for _ in 0..3 {
            fabric
                .send(remote.address(), b.address(), Bytes::from_static(b"y"))
                .unwrap();
            let crossed = b.receiver().recv().unwrap();
            assert!(crossed.departed_at_nanos.is_some());
            b.received(&crossed, rtml_common::time::now_nanos());
        }
        // Every sample waited out the 2 ms hop, so their average did.
        let one_way = b.delay().one_way().expect("three samples");
        assert!(one_way >= Duration::from_millis(2), "{one_way:?}");
        assert_eq!(b.delay().round_trip(), Some(one_way * 2));
        assert_eq!(remote.delay().one_way(), None, "per receiving endpoint");
    }

    #[test]
    fn a_delay_estimate_starts_at_its_first_sample_and_moves_an_eighth() {
        let estimate = DelayEstimate::default();
        estimate.fold(800);
        assert_eq!(estimate.one_way(), Some(Duration::from_nanos(800)));
        estimate.fold(1_600);
        assert_eq!(estimate.one_way(), Some(Duration::from_nanos(900)));
    }

    #[test]
    fn fifo_per_pair_under_constant_latency() {
        let fabric = fabric_with_latency(1_000);
        let a = fabric.register(NodeId(0), "a");
        let b = fabric.register(NodeId(1), "b");
        for i in 0..100u32 {
            fabric
                .send(
                    a.address(),
                    b.address(),
                    Bytes::from(i.to_le_bytes().to_vec()),
                )
                .unwrap();
        }
        for i in 0..100u32 {
            let msg = b.receiver().recv_timeout(Duration::from_secs(5)).unwrap();
            let mut arr = [0u8; 4];
            arr.copy_from_slice(&msg.payload);
            assert_eq!(u32::from_le_bytes(arr), i);
        }
    }

    #[test]
    fn bandwidth_adds_size_term() {
        let fabric = Fabric::new(FabricConfig {
            latency: LatencyModel::Zero,
            bandwidth_bytes_per_sec: Some(1_000_000), // 1 MB/s
            jitter_seed: 0,
            ..FabricConfig::default()
        });
        let a = fabric.register(NodeId(0), "a");
        let b = fabric.register(NodeId(1), "b");
        // 50 KB at 1 MB/s = 50 ms.
        let payload = Bytes::from(vec![0u8; 50_000]);
        let start = Instant::now();
        fabric.send(a.address(), b.address(), payload).unwrap();
        let _ = b.receiver().recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(45));
    }

    #[test]
    fn concurrent_transfers_serialize_on_source_egress() {
        // 1 MB/s, two 50 KB sends back to back from one node: the second
        // queues behind the first on the egress link, so the pair takes
        // ~100 ms, not ~50 ms — the fan-in hot-spot relaying spreads.
        let fabric = Fabric::new(FabricConfig {
            latency: LatencyModel::Zero,
            bandwidth_bytes_per_sec: Some(1_000_000),
            jitter_seed: 0,
            ..FabricConfig::default()
        });
        let a = fabric.register(NodeId(0), "a");
        let b = fabric.register(NodeId(1), "b");
        let start = Instant::now();
        for _ in 0..2 {
            fabric
                .send(a.address(), b.address(), Bytes::from(vec![0u8; 50_000]))
                .unwrap();
        }
        for _ in 0..2 {
            let _ = b.receiver().recv_timeout(Duration::from_secs(5)).unwrap();
        }
        assert!(start.elapsed() >= Duration::from_millis(95));
        // The second frame's wait behind the first is accounted.
        assert!(fabric.stats.egress_wait_nanos.get() >= 40_000_000);
    }

    #[test]
    fn distinct_sources_do_not_contend() {
        // The same two transfers from *different* nodes overlap: egress
        // serialization is per source link, not global.
        let fabric = Fabric::new(FabricConfig {
            latency: LatencyModel::Zero,
            bandwidth_bytes_per_sec: Some(1_000_000),
            jitter_seed: 0,
            ..FabricConfig::default()
        });
        let a = fabric.register(NodeId(0), "a");
        let c = fabric.register(NodeId(2), "c");
        let b = fabric.register(NodeId(1), "b");
        let start = Instant::now();
        fabric
            .send(a.address(), b.address(), Bytes::from(vec![0u8; 50_000]))
            .unwrap();
        fabric
            .send(c.address(), b.address(), Bytes::from(vec![0u8; 50_000]))
            .unwrap();
        for _ in 0..2 {
            let _ = b.receiver().recv_timeout(Duration::from_secs(5)).unwrap();
        }
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(45));
        assert!(elapsed < Duration::from_millis(95), "elapsed {elapsed:?}");
        assert_eq!(fabric.stats.egress_wait_nanos.get(), 0);
    }

    #[test]
    fn batch_to_partitioned_destination_drops_all() {
        let fabric = fabric_with_latency(0);
        let a = fabric.register(NodeId(0), "a");
        let b = fabric.register(NodeId(1), "b");
        fabric.partition(NodeId(0), NodeId(1));
        fabric
            .send_chunks(
                a.address(),
                b.address(),
                vec![Bytes::from_static(b"x"), Bytes::from_static(b"y")],
            )
            .unwrap();
        assert!(b
            .receiver()
            .recv_timeout(Duration::from_millis(50))
            .is_err());
        assert_eq!(fabric.stats.dropped.get(), 2);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let fabric = fabric_with_latency(0);
        let a = fabric.register(NodeId(0), "a");
        let b = fabric.register(NodeId(0), "b");
        fabric
            .send_chunks(a.address(), b.address(), vec![])
            .unwrap();
        assert_eq!(fabric.stats.sent.get(), 0);
    }

    #[test]
    fn chunk_stream_pays_one_latency_and_counts_chunk_frames() {
        let fabric = fabric_with_latency(20_000); // 20 ms
        let a = fabric.register(NodeId(0), "a");
        let b = fabric.register(NodeId(1), "b");
        let chunks: Vec<Bytes> = (0..8).map(|_| Bytes::from(vec![0u8; 64])).collect();
        let start = Instant::now();
        fabric
            .send_chunks(a.address(), b.address(), chunks)
            .unwrap();
        for _ in 0..8 {
            let _ = b.receiver().recv_timeout(Duration::from_secs(5)).unwrap();
        }
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(20));
        assert!(elapsed < Duration::from_millis(100), "elapsed {elapsed:?}");
        assert_eq!(fabric.stats.chunk_frames.get(), 8);
    }

    /// 10 MB/s, 1 ms hops: a 50 KB chunk occupies the link for 5 ms.
    fn slow_link() -> Arc<Fabric> {
        Fabric::new(FabricConfig {
            latency: LatencyModel::Constant(Duration::from_millis(1)),
            bandwidth_bytes_per_sec: Some(10_000_000),
            ..FabricConfig::default()
        })
    }

    #[test]
    fn each_chunk_is_due_when_its_own_bytes_have_crossed() {
        let fabric = slow_link();
        let a = fabric.register(NodeId(0), "a");
        let b = fabric.register(NodeId(1), "b");
        let chunks: Vec<Bytes> = (0..4u8).map(|i| Bytes::from(vec![i; 50_000])).collect();
        let start = Instant::now();
        fabric
            .send_chunks(a.address(), b.address(), chunks)
            .unwrap();
        // The link is taken for the stream's total, as for one frame,
        // and by the sender's link only.
        assert!(fabric.egress_backlog(NodeId(0)) <= Duration::from_millis(20));
        assert_eq!(fabric.egress_backlog(NodeId(1)), Duration::ZERO);
        for i in 0..4u64 {
            let chunk = b.receiver().recv_timeout(Duration::from_secs(5)).unwrap();
            let at = start.elapsed();
            assert_eq!(u64::from(chunk.payload[0]), i);
            // Chunk i has crossed once its own bytes have, (i + 1) x 5
            // ms after the send, not when the stream's last has: the
            // last exactly when the whole stream would have. It is
            // due 1 ms later.
            let crossed = chunk.departed_at_nanos.expect("crossed nodes") - chunk.sent_at_nanos;
            assert_eq!(crossed, (i + 1) * 5_000_000, "chunk {i}");
            let due = Duration::from_nanos(crossed) + Duration::from_millis(1);
            assert!(at >= due, "chunk {i} arrived at {at:?}, due {due:?}");
        }
        assert_eq!(fabric.stats.egress_wait_nanos.get(), 0);
    }

    #[test]
    fn a_frame_departs_when_its_last_byte_has_left_the_link() {
        // The delay estimate starts from here: what a chunk spent on the
        // wire is not a hop's delay.
        let fabric = slow_link();
        let a = fabric.register(NodeId(0), "a");
        let b = fabric.register(NodeId(1), "b");
        let chunks: Vec<Bytes> = (0..4u8).map(|i| Bytes::from(vec![i; 50_000])).collect();
        fabric
            .send_chunks(a.address(), b.address(), chunks)
            .unwrap();
        for i in 0..4u64 {
            let chunk = b.receiver().recv_timeout(Duration::from_secs(5)).unwrap();
            let departed = chunk.departed_at_nanos.expect("crossed nodes");
            assert_eq!(departed - chunk.sent_at_nanos, (i + 1) * 5_000_000);
            b.received(&chunk, rtml_common::time::now_nanos());
        }
        let one_way = b.delay().one_way().expect("four samples");
        assert!(one_way >= Duration::from_millis(1), "{one_way:?}");
    }

    #[test]
    fn a_small_frame_waits_for_the_chunk_on_the_wire_not_the_stream() {
        let fabric = slow_link();
        let a = fabric.register(NodeId(0), "a");
        let b = fabric.register(NodeId(1), "b");
        let chunks: Vec<Bytes> = (0..4u8).map(|i| Bytes::from(vec![i; 50_000])).collect();
        fabric
            .send_chunks(a.address(), b.address(), chunks)
            .unwrap();
        for _ in 0..2 {
            fabric
                .send(a.address(), b.address(), Bytes::from(vec![0xff; 64]))
                .unwrap();
        }
        let waited = Duration::from_nanos(fabric.stats.egress_wait_nanos.get());
        assert!(
            waited > Duration::from_millis(8) && waited < Duration::from_millis(11),
            "two frames each waited out one 5 ms chunk, not the 20 ms stream: {waited:?}"
        );
        // A second stream queues behind all of the first.
        fabric
            .send_chunks(a.address(), b.address(), vec![Bytes::from(vec![9; 64])])
            .unwrap();
        let queued = Duration::from_nanos(fabric.stats.egress_wait_nanos.get()) - waited;
        assert!(queued > Duration::from_millis(18), "{queued:?}");
        let order: Vec<u8> = (0..7)
            .map(|_| {
                b.receiver()
                    .recv_timeout(Duration::from_secs(5))
                    .unwrap()
                    .payload[0]
            })
            .collect();
        // Both small frames cut in behind chunk 0, one after the other.
        assert_eq!(order, vec![0, 0xff, 0xff, 1, 2, 3, 9]);
    }

    #[test]
    fn a_body_is_charged_on_the_wire_like_the_rest_of_its_frame() {
        // Each chunk is 50 KB, 5 ms of the slow link: sent in one piece,
        // or as a 25 KB header and a 25 KB window of a buffer the sender
        // keeps, and so is the 64-byte frame sent behind them. Both ways
        // must take the link for 20 ms, count 200 KB, make that frame
        // wait out one 5 ms chunk and be due 5 ms apart — a body carried
        // free would halve every one of these.
        let backing = Bytes::from(vec![7u8; 100_000]);
        let split: Vec<(Bytes, Bytes)> = (0..4u8)
            .map(|i| {
                let body = backing.slice(i as usize * 25_000..(i as usize + 1) * 25_000);
                (Bytes::from(vec![i; 25_000]), body)
            })
            .collect();
        let whole: Vec<Bytes> = split
            .iter()
            .map(|(header, body)| Bytes::from([&header[..], &body[..]].concat()))
            .collect();
        let run = |send: &dyn Fn(&Fabric, NetAddress, NetAddress)| {
            let fabric = slow_link();
            let a = fabric.register(NodeId(0), "a");
            let b = fabric.register(NodeId(1), "b");
            let start = Instant::now();
            send(&fabric, a.address(), b.address());
            let backlog = fabric.egress_backlog(NodeId(0));
            let waited = Duration::from_nanos(fabric.stats.egress_wait_nanos.get());
            let mut arrivals = Vec::new();
            for _ in 0..5 {
                let frame = b.receiver().recv_timeout(Duration::from_secs(5)).unwrap();
                arrivals.push((frame.payload[0], start.elapsed(), frame));
            }
            (fabric.stats.bytes.get(), backlog, waited, arrivals)
        };
        let whole = run(&|fabric, a, b| {
            fabric.send_chunks(a, b, whole.clone()).unwrap();
            fabric.send(a, b, Bytes::from(vec![0xff; 64])).unwrap();
        });
        let split = run(&|fabric, a, b| {
            fabric.send_chunks_with_bodies(a, b, split.clone()).unwrap();
            let (header, body) = (Bytes::from(vec![0xff; 32]), backing.slice(0..32));
            fabric.send_with_body(a, b, header, body).unwrap();
        });
        for (bytes, backlog, waited, arrivals) in [&whole, &split] {
            assert_eq!(*bytes, 200_000 + 64);
            let link = Duration::from_millis(20) + Duration::from_nanos(6_400);
            assert!(
                *backlog > Duration::from_millis(19) && *backlog <= link,
                "{backlog:?}"
            );
            assert!(
                *waited > Duration::from_micros(4_500) && *waited <= Duration::from_millis(5),
                "{waited:?}"
            );
            // The small frame cut in behind chunk 0; chunk i is due at
            // (i + 1) x 5 ms + 1 ms, pushed back 6.4 us by it.
            let order: Vec<u8> = arrivals.iter().map(|(tag, ..)| *tag).collect();
            assert_eq!(order, vec![0, 0xff, 1, 2, 3]);
            let chunks = arrivals.iter().filter(|(tag, ..)| *tag != 0xff);
            for (i, (_, at, _)) in chunks.enumerate() {
                let due = Duration::from_millis(5 * (i as u64 + 1) + 1);
                assert!(*at >= due, "chunk {i} arrived at {at:?}, due {due:?}");
            }
        }
        // Split, the body is the sender's window and the header the rest.
        let (_, _, _, arrivals) = &split;
        let (_, _, first) = &arrivals[0];
        assert_eq!((first.payload.len(), first.body.len()), (25_000, 25_000));
        assert_eq!(first.body.as_ptr(), backing.as_ptr());
        let (_, _, small) = &arrivals[1];
        assert_eq!((small.payload.len(), small.body.len()), (32, 32));
        assert!(whole.3.iter().all(|(_, _, frame)| frame.body.is_empty()));
    }

    #[test]
    fn endpoint_unregisters_on_drop() {
        let fabric = fabric_with_latency(0);
        let base = fabric.endpoint_count();
        let a = fabric.register(NodeId(0), "a");
        {
            let ephemeral = fabric.register(NodeId(0), "ephemeral");
            assert_eq!(fabric.endpoint_count(), base + 2);
            fabric
                .send(a.address(), ephemeral.address(), Bytes::from_static(b"x"))
                .unwrap();
            assert!(ephemeral
                .receiver()
                .recv_timeout(Duration::from_secs(1))
                .is_ok());
        }
        assert_eq!(fabric.endpoint_count(), base + 1);
        // Severing by hand first is fine: the drop finds nothing to do.
        fabric.unregister(a.address());
        fabric.unregister(a.address());
        assert_eq!(fabric.endpoint_count(), base);
        drop(a);
        assert_eq!(fabric.endpoint_count(), base);
    }

    #[test]
    fn a_frame_due_earlier_overtakes_a_bulk_stream_sent_before_it() {
        // 1 MiB at 50 MB/s occupies node 0's egress link for ~21 ms; the
        // small frame leaves node 1 later but is due ~20 ms earlier.
        let fabric = Fabric::new(FabricConfig {
            latency: LatencyModel::Constant(Duration::from_millis(1)),
            bandwidth_bytes_per_sec: Some(50_000_000),
            ..FabricConfig::default()
        });
        let bulk = fabric.register(NodeId(0), "bulk");
        let small = fabric.register(NodeId(1), "small");
        let dest = fabric.register(NodeId(2), "dest");
        let chunks: Vec<Bytes> = (0..16u8).map(|i| Bytes::from(vec![i; 64 * 1024])).collect();
        fabric
            .send_chunks(bulk.address(), dest.address(), chunks)
            .unwrap();
        fabric
            .send(small.address(), dest.address(), Bytes::from(vec![0xff; 64]))
            .unwrap();
        let recv = || {
            dest.receiver()
                .recv_timeout(Duration::from_secs(5))
                .unwrap()
        };
        let first = recv();
        assert_eq!(first.from, small.address());
        assert_eq!(first.payload.len(), 64);
        // The stream itself stays in order.
        for i in 0..16u8 {
            let chunk = recv();
            assert_eq!(chunk.from, bulk.address());
            assert_eq!(chunk.payload[0], i);
        }
    }

    /// The calling thread's timer slack, where Linux exposes it.
    #[cfg(target_os = "linux")]
    fn timer_slack_ns() -> Option<u64> {
        let task = std::fs::read_link("/proc/thread-self").ok()?;
        let file = std::path::Path::new("/proc")
            .join(task.file_name()?)
            .join("timerslack_ns");
        std::fs::read_to_string(file).ok()?.trim().parse().ok()
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_hop_costs_little_more_than_its_latency() {
        let hop = Duration::from_micros(100);
        let fabric = fabric_with_latency(100);
        let a = fabric.register(NodeId(0), "a");
        let b = fabric.register(NodeId(1), "b");
        // Other tests share the cores: the best of three rounds counts.
        let mut medians = Vec::new();
        for _ in 0..3 {
            let mut overshoots: Vec<Duration> = (0..200)
                .map(|_| {
                    let start = Instant::now();
                    fabric
                        .send(a.address(), b.address(), Bytes::from_static(b"x"))
                        .unwrap();
                    b.receiver().recv().unwrap();
                    let took = start.elapsed();
                    assert!(took >= hop, "received {took:?} after sending");
                    took - hop
                })
                .collect();
            // This thread waited out the due times, so it asked for
            // precise timers on the first one.
            if timer_slack_ns() != Some(1) {
                eprintln!("skipped: the thread's timer slack could not be set to 1 ns");
                return;
            }
            overshoots.sort();
            medians.push(overshoots[overshoots.len() / 2]);
        }
        let best = medians.iter().min().expect("three rounds");
        assert!(
            *best < Duration::from_micros(45),
            "median overshoot per round: {medians:?}"
        );
    }

    #[test]
    fn partition_drops_messages() {
        let fabric = fabric_with_latency(0);
        let a = fabric.register(NodeId(0), "a");
        let b = fabric.register(NodeId(1), "b");
        fabric.partition(NodeId(0), NodeId(1));
        assert!(fabric.is_partitioned(NodeId(0), NodeId(1)));
        fabric
            .send(a.address(), b.address(), Bytes::from_static(b"lost"))
            .unwrap();
        assert!(b
            .receiver()
            .recv_timeout(Duration::from_millis(50))
            .is_err());
        assert_eq!(fabric.stats.dropped.get(), 1);

        fabric.heal(NodeId(0), NodeId(1));
        fabric
            .send(a.address(), b.address(), Bytes::from_static(b"ok"))
            .unwrap();
        assert_eq!(
            &b.receiver()
                .recv_timeout(Duration::from_secs(1))
                .unwrap()
                .payload[..],
            b"ok"
        );
    }

    #[test]
    fn unknown_addresses_error() {
        let fabric = fabric_with_latency(0);
        let a = fabric.register(NodeId(0), "a");
        let ghost = NetAddress(999);
        assert!(fabric.send(a.address(), ghost, Bytes::new()).is_err());
        assert!(fabric.send(ghost, a.address(), Bytes::new()).is_err());
    }

    #[test]
    fn unregistered_receiver_drops_in_flight() {
        let fabric = fabric_with_latency(10_000);
        let a = fabric.register(NodeId(0), "a");
        let b = fabric.register(NodeId(1), "b");
        fabric
            .send(a.address(), b.address(), Bytes::from_static(b"x"))
            .unwrap();
        fabric.unregister(b.address());
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(fabric.stats.delivered.get(), 0);
        assert_eq!(fabric.stats.dropped.get(), 1);
    }

    #[test]
    fn concurrent_senders_all_deliver() {
        let fabric = fabric_with_latency(100);
        let receiver = fabric.register(NodeId(1), "rx");
        let mut handles = Vec::new();
        for t in 0..4 {
            let fabric = fabric.clone();
            let to = receiver.address();
            handles.push(std::thread::spawn(move || {
                let from = fabric.register(NodeId(0), &format!("tx{t}"));
                for _ in 0..250 {
                    fabric
                        .send(from.address(), to, Bytes::from_static(b"m"))
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut got = 0;
        while receiver
            .receiver()
            .recv_timeout(Duration::from_secs(5))
            .is_ok()
        {
            got += 1;
            if got == 1000 {
                break;
            }
        }
        assert_eq!(got, 1000);
    }

    #[test]
    fn stats_track_bytes() {
        let fabric = fabric_with_latency(0);
        let a = fabric.register(NodeId(0), "a");
        let b = fabric.register(NodeId(0), "b");
        fabric
            .send(a.address(), b.address(), Bytes::from(vec![0u8; 128]))
            .unwrap();
        assert_eq!(fabric.stats.bytes.get(), 128);
        assert_eq!(fabric.stats.sent.get(), 1);
    }

    fn fabric_with_faults(faults: FaultPlan) -> Arc<Fabric> {
        Fabric::new(FabricConfig {
            latency: LatencyModel::Zero,
            faults,
            ..FabricConfig::default()
        })
    }

    #[test]
    fn injected_drops_are_counted_and_silent() {
        use crate::fault::{LinkFault, LinkMatch};
        let fabric = fabric_with_faults(FaultPlan {
            links: vec![LinkFault {
                link: LinkMatch::any(),
                drop_ppm: 1_000_000,
                ..LinkFault::default()
            }],
            ..FaultPlan::default()
        });
        let a = fabric.register(NodeId(0), "a");
        let b = fabric.register(NodeId(1), "b");
        for _ in 0..5 {
            fabric
                .send(a.address(), b.address(), Bytes::from_static(b"x"))
                .unwrap();
        }
        assert!(b
            .receiver()
            .recv_timeout(Duration::from_millis(50))
            .is_err());
        assert_eq!(fabric.stats.injected_drops.get(), 5);
        assert_eq!(fabric.stats.dropped.get(), 5);
        // Same-node traffic is never subject to link faults.
        let c = fabric.register(NodeId(0), "c");
        fabric
            .send(a.address(), c.address(), Bytes::from_static(b"y"))
            .unwrap();
        assert!(c.receiver().recv_timeout(Duration::from_secs(1)).is_ok());
    }

    #[test]
    fn injected_duplicates_deliver_twice() {
        use crate::fault::{LinkFault, LinkMatch};
        let fabric = fabric_with_faults(FaultPlan {
            links: vec![LinkFault {
                link: LinkMatch::any(),
                duplicate_ppm: 1_000_000,
                ..LinkFault::default()
            }],
            ..FaultPlan::default()
        });
        let a = fabric.register(NodeId(0), "a");
        let b = fabric.register(NodeId(1), "b");
        fabric
            .send(a.address(), b.address(), Bytes::from_static(b"x"))
            .unwrap();
        for _ in 0..2 {
            let msg = b.receiver().recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(&msg.payload[..], b"x");
        }
        assert_eq!(fabric.stats.injected_dups.get(), 1);
        assert_eq!(fabric.stats.delivered.get(), 2);
    }

    #[test]
    fn gray_link_slows_but_delivers() {
        use crate::fault::{LinkFault, LinkMatch};
        let fabric = fabric_with_faults(FaultPlan {
            links: vec![LinkFault {
                link: LinkMatch::link(NodeId(0), NodeId(1)),
                gray_delay: Duration::from_millis(30),
                ..LinkFault::default()
            }],
            ..FaultPlan::default()
        });
        let a = fabric.register(NodeId(0), "a");
        let b = fabric.register(NodeId(1), "b");
        let start = Instant::now();
        fabric
            .send(a.address(), b.address(), Bytes::from_static(b"x"))
            .unwrap();
        let _ = b.receiver().recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(30));
        assert_eq!(fabric.stats.injected_gray.get(), 1);
        assert_eq!(fabric.stats.dropped.get(), 0);
    }

    #[test]
    fn scheduled_partition_window_drops_then_heals() {
        use crate::fault::{FaultWindow, WindowFault};
        let fabric = fabric_with_faults(FaultPlan {
            schedule: vec![FaultWindow {
                start: Duration::ZERO,
                stop: Duration::from_millis(150),
                fault: WindowFault::Partition(NodeId(0), NodeId(1)),
            }],
            ..FaultPlan::default()
        });
        let a = fabric.register(NodeId(0), "a");
        let b = fabric.register(NodeId(1), "b");
        fabric
            .send(a.address(), b.address(), Bytes::from_static(b"lost"))
            .unwrap();
        assert!(b
            .receiver()
            .recv_timeout(Duration::from_millis(20))
            .is_err());
        assert!(fabric.stats.injected_drops.get() >= 1);
        // After the window closes the link heals on its own.
        std::thread::sleep(Duration::from_millis(160));
        fabric
            .send(a.address(), b.address(), Bytes::from_static(b"ok"))
            .unwrap();
        assert_eq!(
            &b.receiver()
                .recv_timeout(Duration::from_secs(1))
                .unwrap()
                .payload[..],
            b"ok"
        );
    }

    #[test]
    fn same_fault_seed_injects_identically() {
        use crate::fault::{LinkFault, LinkMatch};
        let run = |seed: u64| {
            let fabric = fabric_with_faults(FaultPlan {
                seed,
                links: vec![LinkFault {
                    link: LinkMatch::any(),
                    drop_ppm: 400_000,
                    ..LinkFault::default()
                }],
                ..FaultPlan::default()
            });
            let a = fabric.register(NodeId(0), "a");
            let b = fabric.register(NodeId(1), "b");
            for _ in 0..200 {
                fabric
                    .send(a.address(), b.address(), Bytes::from_static(b"m"))
                    .unwrap();
            }
            fabric.stats.injected_drops.get()
        };
        let first = run(0xc4a05);
        assert_eq!(first, run(0xc4a05));
        assert!(first > 0 && first < 200, "drop rate should be partial");
    }

    #[test]
    fn dropping_a_fabric_with_frames_in_flight_is_prompt_and_leaves_no_thread() {
        let fabric = fabric_with_latency(5_000_000); // 5 s
        let a = fabric.register(NodeId(0), "a");
        let b = fabric.register(NodeId(1), "b");
        fabric
            .send(a.address(), b.address(), Bytes::from_static(b"x"))
            .unwrap();
        let start = Instant::now();
        drop(fabric);
        // The endpoints outlive their fabric; dropping them is inert.
        drop(a);
        drop(b);
        assert!(start.elapsed() < Duration::from_secs(1));
        #[cfg(target_os = "linux")]
        for task in std::fs::read_dir("/proc/self/task").unwrap() {
            let name = std::fs::read_to_string(task.unwrap().path().join("comm"));
            assert!(!name.unwrap_or_default().starts_with("rtml-net"));
        }
    }

    #[test]
    fn one_at_a_time_sends_are_never_stranded() {
        // One cross-node message at a time, each sent the moment the
        // previous one arrives — i.e. right as the receiver finds its
        // mailbox empty and goes to sleep. A send in that window must
        // still wake it; with nothing else sending, a missed wake-up is
        // a 1 s timeout.
        let fabric = fabric_with_latency(1);
        let a = fabric.register(NodeId(0), "a");
        let b = fabric.register(NodeId(1), "b");
        let payload = Bytes::from_static(b"x");
        for i in 0..200_000u32 {
            fabric
                .send(a.address(), b.address(), payload.clone())
                .unwrap();
            assert!(
                b.receiver().recv_timeout(Duration::from_secs(1)).is_ok(),
                "message {i} was stranded in the mailbox"
            );
        }
        assert_eq!(fabric.stats.delivered.get(), 200_000);
    }
}
