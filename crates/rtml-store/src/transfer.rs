//! Cross-node object transfer over the simulated fabric — the batched,
//! pipelined data plane.
//!
//! Each node runs two persistent components:
//!
//! - a [`TransferService`] (server side) that answers object requests
//!   from its local store, **chunking** large objects into size-capped
//!   frames ([`crate::StoreConfig::chunk_bytes`]) streamed through the
//!   fabric's bandwidth model, and **coalescing** a request for K
//!   objects into one reply stream;
//! - a [`FetchAgent`] (client side) with one persistent reply endpoint
//!   for the node's entire lifetime. [`FetchAgent::request_many`] groups
//!   K objects into a single request frame per holder, returns without
//!   blocking, and answers per object on the caller's channel (so one
//!   waiter can have requests out to several holders at once);
//!   [`FetchAgent::fetch_many`] is that request plus the wait. Both
//!   **single-flight** concurrent fetches of the same object: the
//!   second caller waits on the in-flight transfer instead of issuing a
//!   duplicate.
//!
//! The wire protocol is three message types, encoded with the rtml
//! codec: `Request { objects, reply_to }`, `Chunk { object, index,
//! total, payload }`, and `Missing { object }`. A response to a
//! K-object request is one [`rtml_net::Fabric::send_chunks`] stream:
//! a single propagation-delay sample plus the bandwidth term for the
//! total size, delivered as ⌈size/chunk⌉ frames per object.
//!
//! Frames are decoded over the `Bytes` they arrived in
//! ([`rtml_common::codec::decode_from_bytes`]), so a chunk's payload is
//! a window of its frame, not a copy. An object that arrives as one
//! chunk is sealed into the store as that window; a multi-chunk object
//! is assembled once, in the only reassembly loop there is.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Sender};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;

use rtml_common::codec::{decode_from_bytes, encode_to_bytes, Codec, Reader, Writer};
use rtml_common::error::{Error, Result};
use rtml_common::ids::{NodeId, ObjectId};
use rtml_common::metrics::Counter;
use rtml_net::{Fabric, NetAddress};

use crate::store::{ObjectStore, PutOutcome};

/// Transfer wire messages.
#[derive(Clone, Debug, PartialEq, Eq)]
enum TransferMsg {
    /// "Send me these objects; reply to this address." K objects from
    /// one holder travel as one request frame.
    Request {
        objects: Vec<ObjectId>,
        reply_to: u64,
    },
    /// One size-capped piece of an object's payload. `total` is the
    /// number of chunks the object was split into; the receiver
    /// reassembles once all have arrived.
    Chunk {
        object: ObjectId,
        index: u32,
        total: u32,
        payload: Bytes,
    },
    /// The holder no longer has the object (evicted or crashed between
    /// lookup and request).
    Missing { object: ObjectId },
}

impl Codec for TransferMsg {
    fn encode(&self, w: &mut Writer) {
        match self {
            TransferMsg::Request { objects, reply_to } => {
                w.put_u8(0);
                objects.encode(w);
                w.put_u64(*reply_to);
            }
            TransferMsg::Chunk {
                object,
                index,
                total,
                payload,
            } => {
                w.put_u8(1);
                object.encode(w);
                w.put_u32(*index);
                w.put_u32(*total);
                payload.encode(w);
            }
            TransferMsg::Missing { object } => {
                w.put_u8(2);
                object.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(match r.take_u8()? {
            0 => TransferMsg::Request {
                objects: Vec::<ObjectId>::decode(r)?,
                reply_to: r.take_u64()?,
            },
            1 => TransferMsg::Chunk {
                object: ObjectId::decode(r)?,
                index: r.take_u32()?,
                total: r.take_u32()?,
                payload: Bytes::decode(r)?,
            },
            2 => TransferMsg::Missing {
                object: ObjectId::decode(r)?,
            },
            other => return Err(Error::Codec(format!("invalid TransferMsg tag {other}"))),
        })
    }
}

/// Encodes a `TransferMsg::Chunk` frame directly from a payload slice,
/// skipping the intermediate `Bytes` a literal `TransferMsg` value would
/// force (one memcpy instead of two on the serving hot path). Must stay
/// byte-identical to `TransferMsg::Chunk`'s `Codec::encode`; a test
/// asserts the equivalence.
fn encode_chunk_frame(object: ObjectId, index: u32, total: u32, payload: &[u8]) -> Bytes {
    // Tag, object id (two 16-byte ids, a tag, a varint counter), two
    // u32s and the varint length prefix: sized so the frame is never
    // reallocated, which would double the buffer every receiver keeps.
    const HEADER_MAX: usize = 1 + (16 + 16 + 1 + 10) + 4 + 4 + 10;
    let mut w = Writer::with_capacity(HEADER_MAX + payload.len());
    w.put_u8(1);
    object.encode(&mut w);
    w.put_u32(index);
    w.put_u32(total);
    w.put_bytes(payload);
    w.into_bytes()
}

/// Maps each node to its transfer-service fabric address. Shared by all
/// nodes; populated during cluster construction.
#[derive(Default)]
pub struct TransferDirectory {
    map: RwLock<HashMap<NodeId, NetAddress>>,
}

impl TransferDirectory {
    /// Creates an empty directory.
    pub fn new() -> Arc<Self> {
        Arc::new(TransferDirectory::default())
    }

    /// Records `node`'s transfer service address.
    pub fn insert(&self, node: NodeId, address: NetAddress) {
        self.map.write().insert(node, address);
    }

    /// Looks up `node`'s transfer service address.
    pub fn lookup(&self, node: NodeId) -> Option<NetAddress> {
        self.map.read().get(&node).copied()
    }

    /// Removes a node (when it is killed).
    pub fn remove(&self, node: NodeId) {
        self.map.write().remove(&node);
    }
}

/// Server-side transfer counters, one set per [`TransferService`].
#[derive(Debug, Default)]
pub struct TransferStats {
    /// Request frames served (each may name many objects).
    pub requests: Counter,
    /// Objects served (payload found and streamed back).
    pub objects_served: Counter,
    /// Requested objects the store no longer had.
    pub misses: Counter,
    /// Undecodable or misrouted frames received.
    pub decode_errors: Counter,
    /// Reply streams the fabric refused (requester gone).
    pub send_failures: Counter,
    /// Chunk frames emitted.
    pub chunks_sent: Counter,
    /// Whether per-object demand tracking is on. Enabled by the
    /// replication plane; off by default so nodes without a
    /// [`crate::replicate::ReplicationAgent`] never grow the map.
    demand_enabled: std::sync::atomic::AtomicBool,
    /// Per-object remote-read demand accumulated since the last
    /// [`TransferStats::drain_demand`]. Fed by the serve loop (one unit
    /// per object served) and by scheduler hints that restore the
    /// fan-in a coalesced/single-flighted request hides.
    demand: Mutex<HashMap<ObjectId, u64>>,
}

impl TransferStats {
    /// Turns on per-object demand tracking (idempotent).
    pub fn enable_demand_tracking(&self) {
        self.demand_enabled
            .store(true, std::sync::atomic::Ordering::Release);
    }

    /// Whether demand tracking is currently on.
    pub fn demand_tracking_enabled(&self) -> bool {
        self.demand_enabled
            .load(std::sync::atomic::Ordering::Acquire)
    }

    /// Records one remote read of `object` (serve-loop path).
    fn record_read(&self, object: ObjectId) {
        self.record_demand(object, 1);
    }

    /// Adds `weight` units of remote-read demand for `object`. Weights
    /// above one come from the scheduler: a coalesced prefetch issues
    /// one request frame on behalf of many waiting tasks, so the hint
    /// restores the fan-in the wire no longer shows.
    pub fn record_demand(&self, object: ObjectId, weight: u64) {
        if weight == 0 || !self.demand_tracking_enabled() {
            return;
        }
        *self.demand.lock().entry(object).or_insert(0) += weight;
    }

    /// Takes and clears the accumulated per-object demand, sorted by
    /// object id for deterministic sweep order.
    pub fn drain_demand(&self) -> Vec<(ObjectId, u64)> {
        let drained: HashMap<ObjectId, u64> = std::mem::take(&mut *self.demand.lock());
        let mut out: Vec<(ObjectId, u64)> = drained.into_iter().collect();
        out.sort();
        out
    }

    /// Current (undrained) demand for one object; test and tooling aid.
    pub fn demand_of(&self, object: ObjectId) -> u64 {
        self.demand.lock().get(&object).copied().unwrap_or(0)
    }
}

/// Per-node server answering transfer requests from the local store.
pub struct TransferService {
    handle: Option<std::thread::JoinHandle<()>>,
    address: NetAddress,
    fabric: Arc<Fabric>,
    stats: Arc<TransferStats>,
}

impl TransferService {
    /// Spawns the service thread for `store` and registers it in
    /// `directory`.
    pub fn spawn(
        fabric: Arc<Fabric>,
        store: Arc<ObjectStore>,
        directory: &TransferDirectory,
    ) -> TransferService {
        let node = store.node();
        let endpoint = fabric.register(node, "transfer");
        let address = endpoint.address();
        directory.insert(node, address);
        let stats = Arc::new(TransferStats::default());
        let stats2 = stats.clone();
        let fabric2 = fabric.clone();
        let handle = std::thread::Builder::new()
            .name(format!("rtml-transfer-{node}"))
            .spawn(move || {
                while let Ok(delivery) = endpoint.receiver().recv() {
                    let msg = match decode_from_bytes::<TransferMsg>(&delivery.payload) {
                        Ok(msg) => msg,
                        Err(_) => {
                            stats2.decode_errors.inc();
                            continue;
                        }
                    };
                    let TransferMsg::Request { objects, reply_to } = msg else {
                        // Chunk/Missing frames belong to agents, not
                        // services; count the misroute rather than
                        // dropping it silently.
                        stats2.decode_errors.inc();
                        continue;
                    };
                    stats2.requests.inc();
                    let chunk_bytes = store.chunk_bytes() as usize;
                    // One reply stream for the whole request: all chunks
                    // of all objects share a single propagation-delay
                    // sample and pay bandwidth on their total size.
                    let mut frames = Vec::new();
                    for object in objects {
                        // Pin across lookup + snapshot so a concurrent
                        // put's LRU sweep cannot evict the object
                        // between "decide to serve" and "copy bytes".
                        let pinned = store.pin(object);
                        match store.get(object) {
                            Some(data) => {
                                stats2.objects_served.inc();
                                stats2.record_read(object);
                                let data = data.as_slice();
                                let total = (data.len().div_ceil(chunk_bytes)).max(1) as u32;
                                for index in 0..total {
                                    let a = index as usize * chunk_bytes;
                                    let b = (a + chunk_bytes).min(data.len());
                                    frames.push(encode_chunk_frame(
                                        object,
                                        index,
                                        total,
                                        &data[a..b],
                                    ));
                                    stats2.chunks_sent.inc();
                                }
                            }
                            None => {
                                stats2.misses.inc();
                                frames.push(encode_to_bytes(&TransferMsg::Missing { object }));
                            }
                        }
                        if pinned {
                            store.unpin(object);
                        }
                    }
                    if fabric2
                        .send_chunks(address, NetAddress::from_u64(reply_to), frames)
                        .is_err()
                    {
                        stats2.send_failures.inc();
                    }
                }
            })
            .expect("spawn transfer service");
        TransferService {
            handle: Some(handle),
            address,
            fabric,
            stats,
        }
    }

    /// The service's fabric address.
    pub fn address(&self) -> NetAddress {
        self.address
    }

    /// The service's counters (shared with its thread).
    pub fn stats(&self) -> &Arc<TransferStats> {
        &self.stats
    }

    /// Stops the service (unregisters its endpoint; the thread exits when
    /// its mailbox closes).
    pub fn shutdown(&mut self) {
        self.fabric.unregister(self.address);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for TransferService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Client-side transfer counters, one set per [`FetchAgent`].
#[derive(Debug, Default)]
pub struct FetchStats {
    /// Distinct transfers started (one per object actually requested).
    pub transfers: Counter,
    /// Request frames sent (each may name many objects).
    pub requests_sent: Counter,
    /// Fetches answered by joining an in-flight transfer instead of
    /// issuing a duplicate request.
    pub duplicates_suppressed: Counter,
    /// Chunk frames received.
    pub chunks_received: Counter,
    /// Objects fully received and sealed locally.
    pub objects_fetched: Counter,
    /// `Missing` answers (holder no longer had the object).
    pub misses: Counter,
    /// Waits that gave up before the transfer completed.
    pub timeouts: Counter,
    /// Undecodable, misrouted or out-of-bounds frames received.
    pub decode_errors: Counter,
}

/// How long an unsolicited (orphan) reassembly buffer is retained.
const ORPHAN_TTL: Duration = Duration::from_secs(5);

/// Outcome of fetching one object: its sealed bytes and what the local
/// put did (whether it inserted, what it evicted).
pub type FetchResult = Result<(Bytes, PutOutcome)>;

struct InFlight {
    /// The `done` channel of every request waiting on this transfer.
    waiters: Vec<Sender<(ObjectId, FetchResult)>>,
    chunks: Vec<Option<Bytes>>,
    received: u32,
    expires_at: Instant,
}

impl InFlight {
    fn answer(self, object: ObjectId, result: FetchResult) {
        for w in self.waiters {
            let _ = w.send((object, result.clone()));
        }
    }
}

struct AgentInner {
    fabric: Arc<Fabric>,
    store: Arc<ObjectStore>,
    directory: Arc<TransferDirectory>,
    address: NetAddress,
    /// Most chunks an object that fits the store can arrive in; a chunk
    /// header claiming more is corrupt and is dropped before anything
    /// is allocated for it.
    max_chunks: usize,
    in_flight: Mutex<HashMap<ObjectId, InFlight>>,
    stats: FetchStats,
}

/// Per-node fetch client: one persistent reply endpoint, coalesced
/// multi-object requests, chunk reassembly, and single-flighted
/// concurrent fetches. Steady-state fetching registers **zero** new
/// fabric endpoints.
pub struct FetchAgent {
    inner: Arc<AgentInner>,
    handle: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl FetchAgent {
    /// Spawns the agent's receive thread for `store`.
    pub fn spawn(
        fabric: Arc<Fabric>,
        store: Arc<ObjectStore>,
        directory: Arc<TransferDirectory>,
    ) -> FetchAgent {
        let node = store.node();
        let endpoint = fabric.register(node, "fetch-agent");
        let max_chunks = store.capacity_bytes().div_ceil(store.chunk_bytes()).max(1);
        let inner = Arc::new(AgentInner {
            address: endpoint.address(),
            max_chunks: usize::try_from(max_chunks).unwrap_or(usize::MAX),
            fabric,
            store,
            directory,
            in_flight: Mutex::new(HashMap::new()),
            stats: FetchStats::default(),
        });
        let inner2 = inner.clone();
        let handle = std::thread::Builder::new()
            .name(format!("rtml-fetch-{node}"))
            .spawn(move || agent_loop(inner2, endpoint))
            .expect("spawn fetch agent");
        FetchAgent {
            inner,
            handle: Mutex::new(Some(handle)),
        }
    }

    /// The agent's counters.
    pub fn stats(&self) -> &FetchStats {
        &self.inner.stats
    }

    /// The agent's persistent reply address.
    pub fn address(&self) -> NetAddress {
        self.inner.address
    }

    /// Number of transfers currently tracked (in flight, or stranded and
    /// awaiting the reap in the next `fetch_many`).
    pub fn in_flight_len(&self) -> usize {
        self.inner.in_flight.lock().len()
    }

    /// Pulls one object from `holder` into the local store; see
    /// [`FetchAgent::fetch_many`].
    pub fn fetch_one(&self, object: ObjectId, holder: NodeId, timeout: Duration) -> FetchResult {
        self.fetch_many(&[object], holder, timeout)
            .pop()
            .expect("one object in, one result out")
    }

    /// The non-blocking half of [`FetchAgent::fetch_many`]: starts
    /// pulling `objects` from `holder` and returns at once. Each input
    /// position is answered by exactly one `(object, result)` message
    /// on `done` — immediately for objects already local or a holder
    /// that is not in the directory, otherwise when the transfer
    /// completes or the holder reports the object missing. A transfer
    /// lost on the wire (partition, dead holder) answers nothing; the
    /// caller bounds its own wait, and `timeout` is how long this
    /// request counts as in flight before a later one for the same
    /// object re-requests instead of joining it.
    ///
    /// All objects that actually need requesting travel as **one**
    /// request frame; the holder answers with one chunked reply stream.
    /// Objects already in flight (from any caller on this node) join
    /// the existing transfer instead of issuing a duplicate. A caller
    /// may pass the same `done` to requests toward different holders
    /// and collect all of them from one channel.
    pub fn request_many(
        &self,
        objects: &[ObjectId],
        holder: NodeId,
        timeout: Duration,
        done: &Sender<(ObjectId, FetchResult)>,
    ) {
        let inner = &self.inner;
        let Some(remote) = inner.directory.lookup(holder) else {
            for &object in objects {
                let _ = done.send((object, Err(Error::NodeDown(holder))));
            }
            return;
        };
        let now = Instant::now();
        let deadline = now + timeout;
        let mut to_request: Vec<ObjectId> = Vec::new();
        {
            let mut fl = inner.in_flight.lock();
            // Reap transfers that died without an answer (holder gone
            // mid-stream, dropped partition traffic): entries past their
            // deadline plus a grace period will never complete, and
            // nothing else removes them once their waiters time out.
            fl.retain(|_, entry| now < entry.expires_at + ORPHAN_TTL);
            for &object in objects {
                if let Some(bytes) = inner.store.get(object) {
                    let hit = PutOutcome {
                        inserted: false,
                        evicted: Vec::new(),
                    };
                    let _ = done.send((object, Ok((bytes, hit))));
                    continue;
                }
                match fl.get_mut(&object) {
                    Some(entry) if entry.expires_at > now => {
                        // Single flight: join the in-flight transfer.
                        entry.waiters.push(done.clone());
                        inner.stats.duplicates_suppressed.inc();
                    }
                    Some(entry) => {
                        // The previous request apparently got lost
                        // (partition, dead holder): refresh and
                        // re-request, keeping earlier waiters attached.
                        entry.waiters.push(done.clone());
                        entry.expires_at = deadline;
                        to_request.push(object);
                    }
                    None => {
                        fl.insert(
                            object,
                            InFlight {
                                waiters: vec![done.clone()],
                                chunks: Vec::new(),
                                received: 0,
                                expires_at: deadline,
                            },
                        );
                        to_request.push(object);
                        inner.stats.transfers.inc();
                    }
                }
            }
        }

        if !to_request.is_empty() {
            inner.stats.requests_sent.inc();
            let request = TransferMsg::Request {
                objects: to_request.clone(),
                reply_to: inner.address.as_u64(),
            };
            if inner
                .fabric
                .send(inner.address, remote, encode_to_bytes(&request))
                .is_err()
            {
                // The holder's endpoint is gone: fail everything we just
                // put in flight toward it.
                let mut fl = inner.in_flight.lock();
                for object in to_request {
                    if let Some(entry) = fl.remove(&object) {
                        entry.answer(object, Err(Error::NodeDown(holder)));
                    }
                }
            }
        }
    }

    /// Pulls `objects` from `holder` into the local store, blocking up
    /// to `timeout`. Returns one result per input position, in order
    /// (duplicates allowed). This is [`FetchAgent::request_many`] plus
    /// the wait for its answers.
    pub fn fetch_many(
        &self,
        objects: &[ObjectId],
        holder: NodeId,
        timeout: Duration,
    ) -> Vec<FetchResult> {
        let deadline = Instant::now() + timeout;
        let (done, answers) = unbounded();
        self.request_many(objects, holder, timeout, &done);
        drop(done);
        // Answers arrive by id, one per input position.
        let mut positions: HashMap<ObjectId, Vec<usize>> = HashMap::new();
        for (i, &object) in objects.iter().enumerate().rev() {
            positions.entry(object).or_default().push(i);
        }
        let mut results: Vec<Option<FetchResult>> = vec![None; objects.len()];
        for _ in 0..objects.len() {
            let remaining = deadline.saturating_duration_since(Instant::now());
            let Ok((object, result)) = answers.recv_timeout(remaining) else {
                break;
            };
            if let Some(i) = positions.get_mut(&object).and_then(Vec::pop) {
                results[i] = Some(result);
            }
        }
        results
            .into_iter()
            .map(|r| {
                r.unwrap_or_else(|| {
                    self.inner.stats.timeouts.inc();
                    Err(Error::Timeout)
                })
            })
            .collect()
    }

    /// Stops the agent (unregisters its endpoint and joins the thread).
    pub fn shutdown(&self) {
        self.inner.fabric.unregister(self.inner.address);
        if let Some(handle) = self.handle.lock().take() {
            let _ = handle.join();
        }
    }
}

impl Drop for FetchAgent {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn agent_loop(inner: Arc<AgentInner>, endpoint: rtml_net::Endpoint) {
    while let Ok(delivery) = endpoint.receiver().recv() {
        // Decoded over the frame itself: a chunk's payload is a window
        // of `delivery.payload`.
        let msg = match decode_from_bytes::<TransferMsg>(&delivery.payload) {
            Ok(msg) => msg,
            Err(_) => {
                inner.stats.decode_errors.inc();
                continue;
            }
        };
        match msg {
            TransferMsg::Chunk {
                object,
                index,
                total,
                payload,
            } => {
                inner.stats.chunks_received.inc();
                let total = total.max(1) as usize;
                let index = index as usize;
                if index >= total || total > inner.max_chunks {
                    inner.stats.decode_errors.inc();
                    continue;
                }
                let mut fl = inner.in_flight.lock();
                let entry = fl.entry(object).or_insert_with(|| InFlight {
                    // Unsolicited data (a request we gave up on): still
                    // reassemble — sealing the bytes is useful work.
                    waiters: Vec::new(),
                    chunks: Vec::new(),
                    received: 0,
                    expires_at: Instant::now() + ORPHAN_TTL,
                });
                if entry.chunks.len() != total {
                    entry.chunks = vec![None; total];
                    entry.received = 0;
                }
                if entry.chunks[index].is_none() {
                    entry.chunks[index] = Some(payload);
                    entry.received += 1;
                }
                if entry.received as usize == total {
                    let mut entry = fl.remove(&object).expect("entry present");
                    // One chunk is the object: seal the window of the
                    // frame it arrived in. Several are joined once.
                    let bytes = if total == 1 {
                        entry.chunks[0].take().expect("all chunks received")
                    } else {
                        let chunks = || entry.chunks.iter().flatten();
                        let mut buf = Vec::with_capacity(chunks().map(Bytes::len).sum());
                        chunks().for_each(|chunk| buf.extend_from_slice(chunk));
                        Bytes::from(buf)
                    };
                    // Seal while still holding the in-flight lock: a
                    // concurrent fetch_many either finds this entry or
                    // finds the object in the store — never neither.
                    let result = inner.store.put(object, bytes.clone());
                    if result.is_ok() {
                        inner.stats.objects_fetched.inc();
                    }
                    entry.answer(object, result.map(|outcome| (bytes, outcome)));
                }
            }
            TransferMsg::Missing { object } => {
                inner.stats.misses.inc();
                if let Some(entry) = inner.in_flight.lock().remove(&object) {
                    entry.answer(object, Err(Error::ObjectNotFound(object)));
                }
            }
            TransferMsg::Request { .. } => inner.stats.decode_errors.inc(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;
    use rtml_common::ids::{DriverId, TaskId};
    use rtml_net::{FabricConfig, LatencyModel};

    fn obj(i: u64) -> ObjectId {
        TaskId::driver_root(DriverId::from_index(0))
            .child(i)
            .return_object(0)
    }

    fn setup(
        latency_micros: u64,
    ) -> (
        Arc<Fabric>,
        Arc<TransferDirectory>,
        Arc<ObjectStore>,
        Arc<ObjectStore>,
        TransferService,
        TransferService,
    ) {
        setup_chunked(latency_micros, crate::store::DEFAULT_CHUNK_BYTES)
    }

    fn setup_chunked(
        latency_micros: u64,
        chunk_bytes: u64,
    ) -> (
        Arc<Fabric>,
        Arc<TransferDirectory>,
        Arc<ObjectStore>,
        Arc<ObjectStore>,
        TransferService,
        TransferService,
    ) {
        let fabric = Fabric::new(FabricConfig {
            latency: LatencyModel::Constant(Duration::from_micros(latency_micros)),
            ..FabricConfig::default()
        });
        let directory = TransferDirectory::new();
        let store0 = Arc::new(ObjectStore::new(StoreConfig {
            node: NodeId(0),
            capacity_bytes: 1 << 20,
            chunk_bytes,
        }));
        let store1 = Arc::new(ObjectStore::new(StoreConfig {
            node: NodeId(1),
            capacity_bytes: 1 << 20,
            chunk_bytes,
        }));
        let svc0 = TransferService::spawn(fabric.clone(), store0.clone(), &directory);
        let svc1 = TransferService::spawn(fabric.clone(), store1.clone(), &directory);
        (fabric, directory, store0, store1, svc0, svc1)
    }

    #[test]
    fn transfer_msg_round_trips() {
        let msgs = vec![
            TransferMsg::Request {
                objects: vec![obj(1), obj(2), obj(3)],
                reply_to: 42,
            },
            TransferMsg::Chunk {
                object: obj(1),
                index: 2,
                total: 7,
                payload: Bytes::from_static(b"data"),
            },
            TransferMsg::Missing { object: obj(2) },
        ];
        for msg in msgs {
            let bytes = encode_to_bytes(&msg);
            let back: TransferMsg = decode_from_bytes(&bytes).unwrap();
            assert_eq!(msg, back);
        }
    }

    #[test]
    fn fetch_moves_object() {
        let (fabric, directory, store0, store1, _s0, _s1) = setup(100);
        store0.put(obj(1), Bytes::from_static(b"payload")).unwrap();
        let agent = FetchAgent::spawn(fabric.clone(), store1.clone(), directory.clone());
        let (data, outcome) = agent
            .fetch_one(obj(1), NodeId(0), Duration::from_secs(5))
            .unwrap();
        assert_eq!(&data[..], b"payload");
        assert!(outcome.inserted);
        assert!(store1.contains(obj(1)));
        // Source still has it (copy, not move).
        assert!(store0.contains(obj(1)));
    }

    #[test]
    fn fetch_pays_fabric_latency() {
        let (fabric, directory, store0, store1, _s0, _s1) = setup(5_000); // 5 ms per hop
        store0.put(obj(1), Bytes::from_static(b"x")).unwrap();
        let agent = FetchAgent::spawn(fabric.clone(), store1.clone(), directory.clone());
        let start = std::time::Instant::now();
        agent
            .fetch_one(obj(1), NodeId(0), Duration::from_secs(5))
            .unwrap();
        // Request + response = 2 hops ≥ 10 ms.
        assert!(start.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn single_chunk_object_is_stored_as_a_window_of_its_frame() {
        let (fabric, directory, store0, store1, _s0, _s1) = setup(0);
        let payload: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        store0.put(obj(1), Bytes::from(payload.clone())).unwrap();
        let agent = FetchAgent::spawn(fabric.clone(), store1.clone(), directory.clone());
        let (data, _) = agent
            .fetch_one(obj(1), NodeId(0), Duration::from_secs(5))
            .unwrap();
        assert_eq!(data.as_slice(), &payload[..]);
        // The store holds the very buffer the caller was answered with,
        // and that buffer is not the sender's.
        let stored = store1.get(obj(1)).unwrap();
        assert_eq!(stored.as_ptr(), data.as_ptr());
        assert_ne!(stored.as_ptr(), store0.get(obj(1)).unwrap().as_ptr());
    }

    #[test]
    fn forged_chunk_count_is_dropped_before_allocating() {
        // Store capacity 1 MiB at 256-byte chunks: no real object
        // arrives in more than 4096 chunks.
        let (fabric, directory, store0, store1, _s0, _s1) = setup_chunked(0, 256);
        let agent = FetchAgent::spawn(fabric.clone(), store1.clone(), directory.clone());
        let probe = fabric.register(NodeId(0), "probe");
        for total in [u32::MAX, 4097] {
            let forged = encode_chunk_frame(obj(1), 0, total, b"x");
            fabric
                .send(probe.address(), agent.address(), forged)
                .unwrap();
        }
        // The agent is alive, tracked nothing for the forged frames, and
        // a normal multi-chunk fetch of the same object still completes.
        let payload = Bytes::from(vec![5u8; 1000]);
        store0.put(obj(1), payload.clone()).unwrap();
        let (data, _) = agent
            .fetch_one(obj(1), NodeId(0), Duration::from_secs(5))
            .unwrap();
        assert_eq!(data, payload);
        assert_eq!(agent.stats().decode_errors.get(), 2);
        assert_eq!(agent.stats().chunks_received.get(), 2 + 4);
        assert_eq!(agent.in_flight_len(), 0);
    }

    #[test]
    fn large_object_moves_as_ceil_size_over_chunk_frames() {
        // 1000 bytes at 256-byte chunks = 4 frames.
        let (fabric, directory, store0, store1, s0, _s1) = setup_chunked(100, 256);
        let payload: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        store0.put(obj(1), Bytes::from(payload.clone())).unwrap();
        let agent = FetchAgent::spawn(fabric.clone(), store1.clone(), directory.clone());
        let (data, _) = agent
            .fetch_one(obj(1), NodeId(0), Duration::from_secs(5))
            .unwrap();
        assert_eq!(data.as_slice(), &payload[..]);
        assert_eq!(s0.stats().chunks_sent.get(), 4);
        assert_eq!(agent.stats().chunks_received.get(), 4);
        assert_eq!(fabric.stats.chunk_frames.get(), 4);
    }

    #[test]
    fn fetch_many_coalesces_one_request_frame_per_holder() {
        let (fabric, directory, store0, store1, s0, _s1) = setup(100);
        let objects: Vec<ObjectId> = (0..16).map(obj).collect();
        for (i, &o) in objects.iter().enumerate() {
            store0.put(o, Bytes::from(vec![i as u8; 64])).unwrap();
        }
        let agent = FetchAgent::spawn(fabric.clone(), store1.clone(), directory.clone());
        let results = agent.fetch_many(&objects, NodeId(0), Duration::from_secs(5));
        for (i, result) in results.iter().enumerate() {
            let (data, _) = result.as_ref().unwrap();
            assert_eq!(data.as_slice(), &[i as u8; 64][..]);
        }
        // 16 objects, one request frame, one reply stream.
        assert_eq!(s0.stats().requests.get(), 1);
        assert_eq!(agent.stats().requests_sent.get(), 1);
        assert_eq!(s0.stats().objects_served.get(), 16);
    }

    #[test]
    fn request_many_returns_at_once_and_answers_on_the_callers_channel() {
        let (fabric, directory, store0, store1, s0, _s1) = setup(20_000); // 20 ms per hop
        let objects: Vec<ObjectId> = (0..8).map(obj).collect();
        for &o in &objects[..6] {
            store0.put(o, Bytes::from(vec![1u8; 32])).unwrap();
        }
        store1.put(objects[0], Bytes::from(vec![1u8; 32])).unwrap();
        let agent = FetchAgent::spawn(fabric.clone(), store1.clone(), directory.clone());
        let (done, answers) = unbounded();
        let start = Instant::now();
        agent.request_many(&objects[..4], NodeId(0), Duration::from_secs(5), &done);
        // A second request while the first is in flight: its own frame,
        // same channel; the overlapping object joins the first transfer.
        agent.request_many(&objects[3..], NodeId(0), Duration::from_secs(5), &done);
        assert!(
            start.elapsed() < Duration::from_millis(20),
            "request blocked"
        );
        // The local hit is answered before anything crosses the wire.
        let (first, result) = answers.try_recv().unwrap();
        assert_eq!(first, objects[0]);
        assert!(!result.unwrap().1.inserted);
        let mut fetched = 0;
        let mut missing = 0;
        for _ in 0..8 {
            match answers.recv_timeout(Duration::from_secs(5)).unwrap() {
                (_, Ok((data, _))) => {
                    assert_eq!(data.len(), 32);
                    fetched += 1;
                }
                (object, Err(err)) => {
                    assert_eq!(err, Error::ObjectNotFound(object));
                    missing += 1;
                }
            }
        }
        // objects[3] was asked for twice and answered twice.
        assert_eq!((fetched, missing), (6, 2));
        assert!(start.elapsed() >= Duration::from_millis(40));
        assert_eq!(agent.stats().requests_sent.get(), 2);
        assert_eq!(agent.stats().duplicates_suppressed.get(), 1);
        assert_eq!(s0.stats().objects_served.get(), 5);
        assert_eq!(agent.in_flight_len(), 0);
    }

    #[test]
    fn concurrent_fetches_of_same_object_single_flight() {
        let (fabric, directory, store0, store1, s0, _s1) = setup(2_000);
        store0.put(obj(1), Bytes::from(vec![7u8; 256])).unwrap();
        let agent = Arc::new(FetchAgent::spawn(
            fabric.clone(),
            store1.clone(),
            directory.clone(),
        ));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let agent = agent.clone();
            handles.push(std::thread::spawn(move || {
                agent
                    .fetch_one(obj(1), NodeId(0), Duration::from_secs(5))
                    .map(|(data, _)| data.len())
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap().unwrap(), 256);
        }
        assert!(store1.contains(obj(1)));
        // Exactly one transfer crossed the wire; callers beyond the
        // first either joined it or hit the store.
        assert_eq!(s0.stats().requests.get(), 1);
        assert_eq!(s0.stats().objects_served.get(), 1);
        assert_eq!(agent.stats().transfers.get(), 1);
    }

    #[test]
    fn fetch_many_with_duplicates_issues_one_transfer_per_distinct_object() {
        let (fabric, directory, store0, store1, s0, _s1) = setup(100);
        store0.put(obj(1), Bytes::from_static(b"a")).unwrap();
        store0.put(obj(2), Bytes::from_static(b"bb")).unwrap();
        let agent = FetchAgent::spawn(fabric.clone(), store1.clone(), directory.clone());
        let ids = vec![obj(1), obj(2), obj(1), obj(2), obj(1)];
        let results = agent.fetch_many(&ids, NodeId(0), Duration::from_secs(5));
        let lens: Vec<usize> = results
            .iter()
            .map(|r| r.as_ref().unwrap().0.len())
            .collect();
        assert_eq!(lens, vec![1, 2, 1, 2, 1]);
        assert_eq!(agent.stats().transfers.get(), 2);
        assert_eq!(agent.stats().duplicates_suppressed.get(), 3);
        assert_eq!(s0.stats().objects_served.get(), 2);
    }

    #[test]
    fn agent_fetch_of_local_object_is_immediate() {
        let (fabric, directory, _store0, store1, s0, _s1) = setup(50_000);
        store1.put(obj(1), Bytes::from_static(b"here")).unwrap();
        let agent = FetchAgent::spawn(fabric.clone(), store1.clone(), directory.clone());
        let start = Instant::now();
        let (data, outcome) = agent
            .fetch_one(obj(1), NodeId(0), Duration::from_secs(5))
            .unwrap();
        assert_eq!(&data[..], b"here");
        assert!(!outcome.inserted);
        assert!(start.elapsed() < Duration::from_millis(40));
        assert_eq!(s0.stats().requests.get(), 0);
    }

    #[test]
    fn agent_reports_missing_and_unknown_holder() {
        let (fabric, directory, _store0, store1, s0, _s1) = setup(0);
        let agent = FetchAgent::spawn(fabric.clone(), store1.clone(), directory.clone());
        assert_eq!(
            agent
                .fetch_one(obj(9), NodeId(0), Duration::from_secs(5))
                .unwrap_err(),
            Error::ObjectNotFound(obj(9))
        );
        assert_eq!(agent.stats().misses.get(), 1);
        assert_eq!(s0.stats().misses.get(), 1);
        assert_eq!(
            agent
                .fetch_one(obj(9), NodeId(42), Duration::from_secs(1))
                .unwrap_err(),
            Error::NodeDown(NodeId(42))
        );
    }

    #[test]
    fn agent_times_out_under_partition_then_recovers() {
        let (fabric, directory, store0, store1, _s0, _s1) = setup(0);
        store0.put(obj(1), Bytes::from_static(b"x")).unwrap();
        let agent = FetchAgent::spawn(fabric.clone(), store1.clone(), directory.clone());
        fabric.partition(NodeId(0), NodeId(1));
        assert_eq!(
            agent
                .fetch_one(obj(1), NodeId(0), Duration::from_millis(40))
                .unwrap_err(),
            Error::Timeout
        );
        assert_eq!(agent.stats().timeouts.get(), 1);
        // The dead transfer stays tracked until completion or reap.
        assert_eq!(agent.in_flight_len(), 1);
        fabric.heal(NodeId(0), NodeId(1));
        // The expired in-flight entry must be re-requested, not joined.
        let (data, _) = agent
            .fetch_one(obj(1), NodeId(0), Duration::from_secs(5))
            .unwrap();
        assert_eq!(&data[..], b"x");
        // Completion removes the entry; nothing lingers.
        assert_eq!(agent.in_flight_len(), 0);
    }

    #[test]
    fn chunk_frame_encoding_matches_codec() {
        let payload: Vec<u8> = (0..300u32).map(|i| (i % 256) as u8).collect();
        let direct = encode_chunk_frame(obj(3), 2, 7, &payload);
        let via_codec = encode_to_bytes(&TransferMsg::Chunk {
            object: obj(3),
            index: 2,
            total: 7,
            payload: Bytes::from(payload),
        });
        assert_eq!(direct, via_codec);
    }

    #[test]
    fn agent_uses_one_persistent_endpoint_across_fetches() {
        let (fabric, directory, store0, store1, _s0, _s1) = setup(0);
        let agent = FetchAgent::spawn(fabric.clone(), store1.clone(), directory.clone());
        let base = fabric.endpoint_count();
        // Success, miss and timeout paths all leave the endpoint table
        // exactly as they found it.
        for i in 0..32 {
            store0.put(obj(i), Bytes::from_static(b"x")).unwrap();
            agent
                .fetch_one(obj(i), NodeId(0), Duration::from_secs(5))
                .unwrap();
            agent
                .fetch_one(obj(1000 + i), NodeId(0), Duration::from_secs(5))
                .unwrap_err();
        }
        fabric.partition(NodeId(0), NodeId(1));
        store0.put(obj(99), Bytes::from_static(b"x")).unwrap();
        agent
            .fetch_one(obj(99), NodeId(0), Duration::from_millis(20))
            .unwrap_err();
        assert_eq!(fabric.endpoint_count(), base);
        agent.shutdown();
        assert_eq!(fabric.endpoint_count(), base - 1);
    }

    #[test]
    fn service_counts_decode_errors_and_stays_alive() {
        let (fabric, directory, store0, store1, s0, _s1) = setup(0);
        store0.put(obj(1), Bytes::from_static(b"x")).unwrap();
        let remote = directory.lookup(NodeId(0)).unwrap();
        let probe = fabric.register(NodeId(1), "probe");
        fabric
            .send(probe.address(), remote, Bytes::from_static(b"\xff garbage"))
            .unwrap();
        // The service must survive garbage and keep serving.
        let (data, _) = FetchAgent::spawn(fabric.clone(), store1.clone(), directory.clone())
            .fetch_one(obj(1), NodeId(0), Duration::from_secs(5))
            .unwrap();
        assert_eq!(&data[..], b"x");
        assert_eq!(s0.stats().decode_errors.get(), 1);
    }

    #[test]
    fn holder_pins_object_while_serving() {
        // A store at capacity: serving a request must not let the served
        // object be evicted out from under the snapshot. We exercise the
        // pin bracket directly through a serve while the store is full.
        let (fabric, directory, store0, store1, _s0, _s1) = setup_chunked(0, 64);
        let payload = Bytes::from(vec![9u8; 512]);
        store0.put(obj(1), payload.clone()).unwrap();
        let (data, _) = FetchAgent::spawn(fabric.clone(), store1.clone(), directory.clone())
            .fetch_one(obj(1), NodeId(0), Duration::from_secs(5))
            .unwrap();
        assert_eq!(data, payload);
        // The pin was released after the serve: the object is evictable
        // again under pressure.
        store0.put(obj(2), Bytes::from(vec![1u8; 1 << 20])).unwrap();
        assert!(!store0.contains(obj(1)));
    }
}
