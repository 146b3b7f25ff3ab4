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
//! total, size, payload }`, and `Missing { object }`. A response to a
//! K-object request is one [`rtml_net::Fabric::send_chunks`] stream:
//! a single propagation-delay sample, each chunk due when its own bytes
//! have crossed, [`chunk_frames`] frames per object.
//!
//! # Receiving: in place, in order
//!
//! Frames are decoded over the `Bytes` they arrived in
//! ([`rtml_common::codec::decode_from_bytes`]), so a chunk's payload is
//! a window of its frame, not a copy. An object that arrives as one
//! chunk is sealed into the store as that window. A multi-chunk object
//! is assembled while it arrives: its first chunk allocates the
//! destination once, at the exact size the chunk header names, and each
//! chunk is appended as soon as everything before it has been — so when
//! the last chunk lands only its own copy is left to do. Duplicated and
//! reordered frames are absorbed by index.
//!
//! # Relaying: a hot object leaves its origin once
//!
//! Between [`FetchAgent::request_many`] and the seal an object is
//! *created, not yet sealed* on the reading node. That state lives in
//! the node's [`ObjectStore`] (the unsealed table, Plasma's create/seal
//! split) because both halves of the node need it: the agent fills it,
//! and the node's transfer service **relays from it**. Two rules make a
//! broadcast spread in one wave instead of N pulls from the origin:
//!
//! - a service asked for a multi-chunk object it is still streaming to
//!   an earlier reader (its egress link has not drained that stream)
//!   hands the request on, unchanged, to that reader's node, and
//!   remembers the new reader as the latest — a chain in arrival order.
//!   Only earlier readers are ever named, so the chain has no cycle;
//! - a service asked for an object its node is still receiving sends
//!   the chunk frames it already has and registers the reader
//!   downstream; the agent passes every later frame on as it arrives,
//!   byte-identical, before copying it.
//!
//! A node with a sealed copy serves as always. A relay whose own fetch
//! is answered `Missing` passes that on; one that goes silent (killed,
//! partitioned) leaves its readers to their own timeout and the
//! caller's holder-by-holder retry, and whatever chunks did arrive stay
//! in the reader's entry, so the retry only has to fill the gaps. This
//! is the fine-grained pipelining of Hoplite (Zhuang et al., SIGCOMM
//! '21) reduced to a chain. Nothing copies an object to a node that
//! has not asked for it: every reader that seals a copy is committed as
//! a holder, and later readers pick among all holders.
//!
//! # Pushing: a small result goes where its future is
//!
//! A pull is two hops on its reader's blocking path (request, reply).
//! For the result of a task submitted from another node, whose caller
//! is as a rule already blocked on it, the producer can do better:
//! [`push_sealed`] sends the sealed bytes to the submitter's fetch
//! agent — the [`TransferDirectory`] lists agents beside services — as
//! the single `Chunk` frame a request would have been answered with,
//! one hop after the seal. Only values of at most [`PUSH_MAX_BYTES`]
//! that fit one chunk are pushed; whether a given result *should* be
//! (nothing queued behind it on the producing node) is the caller's
//! rule. The receiving agent needs nothing new: a chunk of an object
//! nobody asked for has always been assembled and sealed.
//!
//! # Somebody owns what nobody asked for
//!
//! An object can be sealed here with no one left to tell: it was pushed,
//! or everyone who requested it has gone (timed out, served by another
//! holder, satisfied by the local seal a step before the answer). Its
//! location still has to reach the object table, and whatever its `put`
//! evicted has to leave it. So an agent has a standing sink
//! ([`FetchAgent::deliver_unclaimed_to`], the node scheduler's answer
//! channel): an `Ok` answer that no waiter received is delivered there,
//! in the form a waiter would have got it, and is committed by the code
//! that commits the scheduler's own fetches. A requester that leaves
//! with answers possibly still to come says so with
//! [`FetchAgent::close`], which takes what has been sent and drops the
//! channel under the lock arrivals are sealed and answered under: an
//! answer is then either returned to the requester or meets a channel
//! that is gone — never one that is merely no longer read.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};
use std::collections::hash_map::Entry;
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
    /// one holder travel as one request frame. A service that hands a
    /// request on sends the same message, `reply_to` untouched.
    Request {
        objects: Vec<ObjectId>,
        reply_to: u64,
    },
    /// One size-capped piece of an object's payload. `total` is the
    /// number of chunks the object was split into and `size` its length
    /// in bytes; the receiver appends chunks in index order.
    Chunk {
        object: ObjectId,
        index: u32,
        total: u32,
        size: u64,
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
                size,
                payload,
            } => {
                w.put_u8(1);
                object.encode(w);
                w.put_u32(*index);
                w.put_u32(*total);
                w.put_varint(*size);
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
                size: r.take_varint()?,
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
fn encode_chunk_frame(
    object: ObjectId,
    index: u32,
    total: u32,
    size: u64,
    payload: &[u8],
) -> Bytes {
    // Tag, object id (two 16-byte ids, a tag, a varint counter), two
    // u32s, the size and the varint length prefix: sized so the frame is
    // never reallocated, which would double the buffer every receiver
    // keeps.
    const HEADER_MAX: usize = 1 + (16 + 16 + 1 + 10) + 4 + 4 + 10 + 10;
    let mut w = Writer::with_capacity(HEADER_MAX + payload.len());
    w.put_u8(1);
    object.encode(&mut w);
    w.put_u32(index);
    w.put_u32(total);
    w.put_varint(size);
    w.put_bytes(payload);
    w.into_bytes()
}

/// A tail shorter than this share of a chunk rides in the last full
/// frame instead of a frame of its own.
const TAIL_SHARE: usize = 16;

/// How many frames an object of `size` bytes leaves a store in:
/// ⌈size / chunk⌉, except that a tail under a sixteenth of a chunk is
/// absorbed by the frame before it. A sealed value is its payload plus
/// at most 11 envelope bytes, so without the exception a 256 KiB block
/// would travel as a frame and a sliver — and lose its place as a
/// window of one received frame.
pub fn chunk_frames(size: usize, chunk_bytes: usize) -> usize {
    let chunk_bytes = chunk_bytes.max(1);
    let (full, tail) = (size / chunk_bytes, size % chunk_bytes);
    if full > 0 && tail < chunk_bytes / TAIL_SHARE {
        full
    } else {
        full + usize::from(tail > 0 || full == 0)
    }
}

/// What one node has listed: where requests for its objects go, and
/// where their replies — and results pushed to it — arrive.
#[derive(Clone, Copy, Default)]
struct Listing {
    service: Option<NetAddress>,
    agent: Option<NetAddress>,
}

/// Maps each node to the fabric addresses of its transfer service and
/// its fetch agent. Shared by all nodes; each component lists itself
/// when it is spawned. Cloning shares the map.
#[derive(Clone, Default)]
pub struct TransferDirectory {
    map: Arc<RwLock<HashMap<NodeId, Listing>>>,
}

impl TransferDirectory {
    /// Creates an empty directory.
    pub fn new() -> Arc<Self> {
        Arc::new(TransferDirectory::default())
    }

    /// Records `node`'s transfer service address.
    pub fn insert(&self, node: NodeId, address: NetAddress) {
        self.map.write().entry(node).or_default().service = Some(address);
    }

    /// Records `node`'s fetch agent address.
    pub fn insert_agent(&self, node: NodeId, address: NetAddress) {
        self.map.write().entry(node).or_default().agent = Some(address);
    }

    /// Looks up `node`'s transfer service address.
    pub fn lookup(&self, node: NodeId) -> Option<NetAddress> {
        self.map.read().get(&node)?.service
    }

    /// Looks up `node`'s fetch agent address.
    pub fn lookup_agent(&self, node: NodeId) -> Option<NetAddress> {
        self.map.read().get(&node)?.agent
    }

    /// Removes a node (when it is killed).
    pub fn remove(&self, node: NodeId) {
        self.map.write().remove(&node);
    }

    /// Every node with a transfer service listed, ascending.
    pub fn nodes(&self) -> Vec<NodeId> {
        let map = self.map.read();
        let mut nodes: Vec<NodeId> = map
            .iter()
            .filter(|(_, listing)| listing.service.is_some())
            .map(|(node, _)| *node)
            .collect();
        nodes.sort_unstable();
        nodes
    }
}

/// The largest sealed result a producer sends to its submitter unasked:
/// 8 µs of a 1 GiB/s link, against the 100 µs request hop it saves.
pub const PUSH_MAX_BYTES: usize = 8 * 1024;

/// Sends the sealed bytes of `object`, unasked, from `store`'s node to
/// the fetch agent of node `to` — the frame a request would have been
/// answered with, so the receiving agent needs no second code path: it
/// seals an object nobody asked for as it always has, and hands it to
/// its standing sink ([`FetchAgent::deliver_unclaimed_to`]) to be
/// committed. Sent as a lone control frame ([`Fabric::send`]), from the
/// caller's thread.
///
/// Returns whether the fabric accepted the frame — only then may the
/// caller announce the copy. Nothing is sent for a value over
/// [`PUSH_MAX_BYTES`] or one a request would have split into several
/// chunks, or when either end is not listed in `directory` (a dead
/// node).
pub fn push_sealed(
    fabric: &Fabric,
    directory: &TransferDirectory,
    stats: &TransferStats,
    store: &ObjectStore,
    to: NodeId,
    object: ObjectId,
    data: &[u8],
) -> bool {
    if data.len() > PUSH_MAX_BYTES || chunk_frames(data.len(), store.chunk_bytes() as usize) != 1 {
        return false;
    }
    let (Some(from), Some(agent)) = (directory.lookup(store.node()), directory.lookup_agent(to))
    else {
        return false;
    };
    let frame = encode_chunk_frame(object, 0, 1, data.len() as u64, data);
    let sent = fabric.send(from, agent, frame).is_ok();
    if sent {
        stats.pushed.inc();
        stats.chunks_sent.inc();
    }
    sent
}

/// Server-side transfer counters, one set per [`TransferService`].
#[derive(Debug, Default)]
pub struct TransferStats {
    /// Request frames served (each may name many objects).
    pub requests: Counter,
    /// Objects served from a sealed copy (payload found and streamed
    /// back).
    pub objects_served: Counter,
    /// Objects whose request was handed on to the earlier reader this
    /// service was still streaming them to.
    pub handed_on: Counter,
    /// Objects answered from a copy this node was still receiving: the
    /// frames it had, with the rest passed on by its fetch agent.
    pub relayed: Counter,
    /// Requested objects the store no longer had.
    pub misses: Counter,
    /// Undecodable or misrouted frames received.
    pub decode_errors: Counter,
    /// Reply streams the fabric refused (requester gone).
    pub send_failures: Counter,
    /// Chunk frames emitted by this service (a relay's catch-up frames
    /// and pushed results included; frames its agent passes on later
    /// are counted there).
    pub chunks_sent: Counter,
    /// Results sent to their submitter's node unasked ([`push_sealed`]):
    /// frames the fabric accepted, whether or not they arrived.
    pub pushed: Counter,
}

/// Per-node server answering transfer requests from the local store.
pub struct TransferService {
    handle: Option<std::thread::JoinHandle<()>>,
    address: NetAddress,
    fabric: Arc<Fabric>,
    stats: Arc<TransferStats>,
}

/// The reader a service last streamed (or handed) an object to, and
/// when its own egress link will have drained that stream.
struct Streaming {
    reader: NodeId,
    until: Instant,
}

struct ServiceLoop {
    fabric: Arc<Fabric>,
    store: Arc<ObjectStore>,
    directory: TransferDirectory,
    address: NetAddress,
    stats: Arc<TransferStats>,
    /// Multi-chunk objects still leaving this node's egress link.
    streaming: HashMap<ObjectId, Streaming>,
}

impl ServiceLoop {
    fn serve(&mut self, objects: Vec<ObjectId>, reply_to: u64) {
        self.stats.requests.inc();
        let reader = NetAddress::from_u64(reply_to);
        let chunk_bytes = self.store.chunk_bytes() as usize;
        let now = Instant::now();
        self.streaming.retain(|_, s| s.until > now);
        // One reply stream for the whole request: all chunks of all
        // objects share a single propagation-delay sample.
        let mut frames = Vec::new();
        let mut streamed = Vec::new();
        for object in objects {
            if self.hand_on(object, reader) {
                continue;
            }
            if let Some(have) = self.relay(object, reader) {
                self.stats.relayed.inc();
                self.stats.chunks_sent.add(have.len() as u64);
                frames.extend(have);
                continue;
            }
            // Pin across lookup + snapshot so a concurrent put's LRU
            // sweep cannot evict the object between "decide to serve"
            // and "copy bytes".
            let pinned = self.store.pin(object);
            match self.store.get(object) {
                Some(data) => {
                    self.stats.objects_served.inc();
                    let data = data.as_slice();
                    let total = chunk_frames(data.len(), chunk_bytes);
                    for index in 0..total {
                        let a = index * chunk_bytes;
                        let b = match index + 1 == total {
                            true => data.len(),
                            false => a + chunk_bytes,
                        };
                        frames.push(encode_chunk_frame(
                            object,
                            index as u32,
                            total as u32,
                            data.len() as u64,
                            &data[a..b],
                        ));
                    }
                    self.stats.chunks_sent.add(total as u64);
                    if total > 1 {
                        streamed.push(object);
                    }
                }
                None => {
                    self.stats.misses.inc();
                    frames.push(encode_to_bytes(&TransferMsg::Missing { object }));
                }
            }
            if pinned {
                self.store.unpin(object);
            }
        }
        if self
            .fabric
            .send_chunks(self.address, reader, frames)
            .is_err()
        {
            self.stats.send_failures.inc();
        } else if !streamed.is_empty() {
            if let Some(reader) = self.fabric.node_of(reader) {
                let until = Instant::now() + self.fabric.egress_backlog(self.store.node());
                for object in streamed {
                    self.streaming.insert(object, Streaming { reader, until });
                }
            }
        }
    }

    /// Hands a request for `object` on to the earlier reader it is
    /// still being streamed to. A single-chunk object is never handed
    /// on: with nothing to pipeline, a relay only adds a hop.
    fn hand_on(&mut self, object: ObjectId, reader: NetAddress) -> bool {
        let Some(stream) = self.streaming.get_mut(&object) else {
            return false;
        };
        // Asked only now: a request that finds nothing streaming never
        // takes the fabric's routing lock for it.
        let reader_node = self.fabric.node_of(reader);
        if Some(stream.reader) == reader_node {
            return false;
        }
        let Some(earlier) = self.directory.lookup(stream.reader) else {
            return false;
        };
        let request = TransferMsg::Request {
            objects: vec![object],
            reply_to: reader.as_u64(),
        };
        if self
            .fabric
            .send(self.address, earlier, encode_to_bytes(&request))
            .is_err()
        {
            return false;
        }
        self.stats.handed_on.inc();
        if let Some(node) = reader_node {
            stream.reader = node;
        }
        true
    }

    /// If this node is still receiving `object`, registers `reader`
    /// downstream of it and returns the chunk frames received so far.
    fn relay(&self, object: ObjectId, reader: NetAddress) -> Option<Vec<Bytes>> {
        let mut unsealed = self.store.unsealed.lock();
        // An entry past its deadline is a transfer that died: better an
        // honest `Missing` than a reader waiting on it.
        let entry = unsealed
            .get_mut(&object)
            .filter(|entry| entry.expires_at > Instant::now())?;
        if !entry.downstream.contains(&reader) {
            entry.downstream.push(reader);
        }
        Some(
            entry
                .chunks
                .iter()
                .flatten()
                .map(|chunk| chunk.frame.clone())
                .collect(),
        )
    }
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
        let mut service = ServiceLoop {
            fabric: fabric.clone(),
            store,
            directory: directory.clone(),
            address,
            stats: stats.clone(),
            streaming: HashMap::new(),
        };
        let handle = std::thread::Builder::new()
            .name(format!("rtml-transfer-{node}"))
            .spawn(move || {
                while let Ok(delivery) = endpoint.receiver().recv() {
                    match decode_from_bytes::<TransferMsg>(&delivery.payload) {
                        Ok(TransferMsg::Request { objects, reply_to }) => {
                            service.serve(objects, reply_to)
                        }
                        // Chunk/Missing frames belong to agents, not
                        // services; count the misroute rather than
                        // dropping it silently.
                        Ok(_) | Err(_) => service.stats.decode_errors.inc(),
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
    /// Chunk frames passed on to a reader downstream of this node.
    pub chunks_forwarded: Counter,
    /// Objects fully received and sealed locally.
    pub objects_fetched: Counter,
    /// Of those, objects nobody on this node had asked for when their
    /// first frame arrived: results pushed by their producer (and the
    /// rare reply that outlived its request's entry).
    pub pushes_received: Counter,
    /// `Missing` answers (holder no longer had the object).
    pub misses: Counter,
    /// Waits that gave up before the transfer completed.
    pub timeouts: Counter,
    /// Undecodable, misrouted or out-of-bounds frames received.
    pub decode_errors: Counter,
}

/// How long an unsolicited (orphan) reassembly buffer is retained.
const ORPHAN_TTL: Duration = Duration::from_secs(5);

/// How a fetched object got here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fetched {
    /// Whether this fetch sealed new bytes locally (false: a local hit).
    pub inserted: bool,
    /// Objects the local put evicted to make room; the caller must drop
    /// their locations from the object table.
    pub evicted: Vec<ObjectId>,
    /// The node whose egress link fed the bytes: the holder asked, the
    /// relay it handed the request to, or this node for a local hit.
    pub from: NodeId,
    /// For bytes nobody on this node had asked for when their first
    /// frame arrived (a result its producer pushed), when that frame
    /// left its sender, in nanos since the process epoch.
    pub pushed_at_nanos: Option<u64>,
}

/// Outcome of fetching one object: its sealed bytes and how they got
/// here.
pub type FetchResult = Result<(Bytes, Fetched)>;

/// One received chunk: the frame exactly as it arrived (what a relay
/// passes on), the payload window inside it, and when the frame left
/// its sender (nanos since the process epoch).
pub(crate) struct Chunk {
    frame: Bytes,
    payload: Bytes,
    sent_at_nanos: u64,
}

/// An object created on this node but not yet sealed: requested by the
/// node's fetch agent, perhaps partly received, perhaps being relayed.
/// Kept in the node's [`ObjectStore`] so the transfer service sees it.
pub(crate) struct Unsealed {
    /// The `done` channel of every request waiting on this transfer.
    waiters: Vec<Sender<(ObjectId, FetchResult)>>,
    expires_at: Instant,
    /// Chunks received so far, by index.
    chunks: Vec<Option<Chunk>>,
    /// The object's length in bytes, as the chunk headers name it.
    size: usize,
    /// Where a multi-chunk object is assembled: allocated once, at the
    /// object's exact size, and appended to in index order. `None`
    /// before the first chunk and while a thread has it out for a copy.
    dest: Option<Vec<u8>>,
    /// Chunks appended to `dest` so far.
    copied: usize,
    /// A thread is appending to `dest` outside the lock.
    copying: bool,
    /// Reply addresses of readers downstream of this node.
    downstream: Vec<NetAddress>,
    /// The node that fed the first chunk.
    upstream: Option<NodeId>,
    /// Set for an entry a frame opened, not a request: when that frame
    /// left its sender.
    unasked_at_nanos: Option<u64>,
}

impl Unsealed {
    fn new(expires_at: Instant) -> Unsealed {
        Unsealed {
            waiters: Vec::new(),
            expires_at,
            chunks: Vec::new(),
            size: 0,
            dest: None,
            copied: 0,
            copying: false,
            downstream: Vec::new(),
            upstream: None,
            unasked_at_nanos: None,
        }
    }

    /// Answers every waiter; whether any of them was still there to
    /// hear it.
    fn answer(self, object: ObjectId, result: &FetchResult) -> bool {
        let mut heard = false;
        for w in self.waiters {
            heard |= w.send((object, result.clone())).is_ok();
        }
        heard
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
    /// Where objects sealed with no waiter left to answer go.
    unclaimed: RwLock<Option<Sender<(ObjectId, FetchResult)>>>,
    stats: FetchStats,
}

/// Per-node fetch client: one persistent reply endpoint, coalesced
/// multi-object requests, in-place chunk reassembly, relaying, and
/// single-flighted concurrent fetches. Steady-state fetching registers
/// **zero** new fabric endpoints.
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
        directory.insert_agent(node, endpoint.address());
        let max_chunks = store.capacity_bytes().div_ceil(store.chunk_bytes()).max(1);
        let inner = Arc::new(AgentInner {
            address: endpoint.address(),
            max_chunks: usize::try_from(max_chunks).unwrap_or(usize::MAX),
            fabric,
            store,
            directory,
            unclaimed: RwLock::new(None),
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

    /// Names the standing owner of what nobody is waiting for: an
    /// object this agent seals with no waiter left to answer — a result
    /// pushed by its producer, a reply that outlived everyone who asked
    /// for it — is reported on `sink` like the answer to a request, so
    /// its location is committed and whatever its `put` evicted is
    /// dropped from the table. Without a sink such an arrival is stored
    /// and nobody is told (a bare agent in a test).
    pub fn deliver_unclaimed_to(&self, sink: Sender<(ObjectId, FetchResult)>) {
        *self.inner.unclaimed.write() = Some(sink);
    }

    /// Ends a requester's interest in its answers without orphaning
    /// one: returns what was sent to `answers` so far and drops the
    /// channel, atomically with respect to arrivals (which are sealed
    /// and answered under the lock taken here). An answer is therefore
    /// either in the returned list, for the caller to commit, or finds
    /// the channel gone and goes to the standing sink
    /// ([`FetchAgent::deliver_unclaimed_to`]) — never into a channel
    /// nobody will read again.
    pub fn close(
        &self,
        answers: Receiver<(ObjectId, FetchResult)>,
    ) -> Vec<(ObjectId, FetchResult)> {
        let _sealing = self.inner.store.unsealed.lock();
        let taken = answers.try_iter().collect();
        drop(answers);
        taken
    }

    /// Number of transfers currently tracked on this node (in flight, or
    /// stranded and awaiting the reap in the next `fetch_many`).
    pub fn in_flight_len(&self) -> usize {
        self.inner.store.unsealed_len()
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
    /// lost on the wire (partition, dead holder or relay) answers
    /// nothing; the caller bounds its own wait, and `timeout` is how
    /// long this request counts as in flight before a later one for the
    /// same object re-requests instead of joining it.
    ///
    /// All objects that actually need requesting travel as **one**
    /// request frame; the holder answers with one chunked reply stream,
    /// or hands a hot object's request on to a node already receiving
    /// it. Objects already in flight (from any caller on this node)
    /// join the existing transfer instead of issuing a duplicate. A
    /// caller may pass the same `done` to requests toward different
    /// holders and collect all of them from one channel.
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
            let mut unsealed = inner.store.unsealed.lock();
            // Reap transfers that died without an answer (holder gone
            // mid-stream, dropped partition traffic): entries past their
            // deadline plus a grace period will never complete, and
            // nothing else removes them once their waiters time out.
            unsealed.retain(|_, entry| entry.copying || now < entry.expires_at + ORPHAN_TTL);
            for &object in objects {
                if let Some(bytes) = inner.store.get(object) {
                    let hit = Fetched {
                        inserted: false,
                        evicted: Vec::new(),
                        from: inner.store.node(),
                        pushed_at_nanos: None,
                    };
                    let _ = done.send((object, Ok((bytes, hit))));
                    continue;
                }
                match unsealed.get_mut(&object) {
                    Some(entry) if entry.expires_at > now => {
                        // Single flight: join the in-flight transfer.
                        entry.waiters.push(done.clone());
                        inner.stats.duplicates_suppressed.inc();
                    }
                    Some(entry) => {
                        // The previous request apparently got lost
                        // (partition, dead holder or relay): refresh
                        // and re-request, keeping earlier waiters and
                        // whatever chunks did arrive.
                        entry.waiters.push(done.clone());
                        entry.expires_at = deadline;
                        to_request.push(object);
                    }
                    None => {
                        let mut entry = Unsealed::new(deadline);
                        entry.waiters.push(done.clone());
                        unsealed.insert(object, entry);
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
                let mut unsealed = inner.store.unsealed.lock();
                for object in to_request {
                    if let Some(entry) = unsealed.remove(&object) {
                        entry.answer(object, &Err(Error::NodeDown(holder)));
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
        let mut take = |(object, result): (ObjectId, FetchResult)| {
            if let Some(i) = positions.get_mut(&object).and_then(Vec::pop) {
                results[i] = Some(result);
            }
        };
        for _ in 0..objects.len() {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match answers.recv_timeout(remaining) {
                Ok(answer) => take(answer),
                Err(_) => break,
            }
        }
        // Out of time with answers missing: one sent this instant is
        // still taken, a later one goes to the sink.
        self.close(answers).into_iter().for_each(take);
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
    // The node behind each sender seen so far (an address is never
    // reused): naming a chunk's upstream takes the fabric's routing lock
    // once per sender, not once per object.
    let mut senders: HashMap<NetAddress, Option<NodeId>> = HashMap::new();
    while let Ok(delivery) = endpoint.receiver().recv() {
        // Decoded over the frame itself: a chunk's payload is a window
        // of `delivery.payload`.
        match decode_from_bytes::<TransferMsg>(&delivery.payload) {
            Ok(TransferMsg::Chunk {
                object,
                index,
                total,
                size,
                payload,
            }) => {
                inner.stats.chunks_received.inc();
                let from = *senders
                    .entry(delivery.from)
                    .or_insert_with(|| inner.fabric.node_of(delivery.from));
                let chunk = Chunk {
                    frame: delivery.payload,
                    payload,
                    sent_at_nanos: delivery.sent_at_nanos,
                };
                let total = total.max(1) as usize;
                let size = usize::try_from(size).unwrap_or(usize::MAX);
                if index as usize >= total
                    || total > inner.max_chunks
                    || size as u64 > inner.store.capacity_bytes()
                    || !inner.on_chunk(from, object, index as usize, total, size, chunk)
                {
                    inner.stats.decode_errors.inc();
                }
            }
            Ok(TransferMsg::Missing { object }) => {
                inner.stats.misses.inc();
                let entry = inner.store.unsealed.lock().remove(&object);
                if let Some(entry) = entry {
                    // Readers downstream hear it from here: their
                    // request never reached anyone else.
                    for reader in &entry.downstream {
                        let _ = inner
                            .fabric
                            .send(inner.address, *reader, delivery.payload.clone());
                    }
                    entry.answer(object, &Err(Error::ObjectNotFound(object)));
                }
            }
            Ok(TransferMsg::Request { .. }) | Err(_) => inner.stats.decode_errors.inc(),
        }
    }
}

impl AgentInner {
    /// Takes one chunk of `object` (bounds already checked), fed by
    /// node `from`: records it, passes it on downstream, appends
    /// whatever has become contiguous to the destination, and seals the
    /// object when that was the last of it. Returns `false` for a chunk
    /// that contradicts what already arrived.
    fn on_chunk(
        &self,
        from: Option<NodeId>,
        object: ObjectId,
        index: usize,
        total: usize,
        size: usize,
        chunk: Chunk,
    ) -> bool {
        let mut unsealed = self.store.unsealed.lock();
        let entry = match unsealed.entry(object) {
            Entry::Occupied(entry) => entry.into_mut(),
            // A late copy of a chunk of an object already sealed.
            Entry::Vacant(_) if self.store.contains(object) => return true,
            // Nobody here asked (a result pushed by its producer, a
            // request given up on long ago): the bytes are assembled
            // and sealed all the same.
            Entry::Vacant(slot) => {
                let entry = slot.insert(Unsealed::new(Instant::now() + ORPHAN_TTL));
                entry.unasked_at_nanos = Some(chunk.sent_at_nanos);
                entry
            }
        };
        if entry.chunks.len() != total || entry.size != size {
            if entry.copying {
                return false;
            }
            entry.chunks = (0..total).map(|_| None).collect();
            entry.size = size;
            entry.dest = None;
            entry.copied = 0;
        }
        if entry.chunks[index].is_some() {
            // A duplicate: nothing new to keep or pass on.
            return true;
        }
        entry.upstream = entry.upstream.or(from);
        if !entry.downstream.is_empty() {
            // Pass it on before copying it, the table unlocked: the next
            // node's copy overlaps this one's.
            let downstream = entry.downstream.clone();
            let frame = chunk.frame.clone();
            entry.chunks[index] = Some(chunk);
            drop(unsealed);
            for reader in downstream {
                if self
                    .fabric
                    .send_chunks(self.address, reader, vec![frame.clone()])
                    .is_ok()
                {
                    self.stats.chunks_forwarded.inc();
                }
            }
            unsealed = self.store.unsealed.lock();
        } else {
            entry.chunks[index] = Some(chunk);
        }

        // Append what has become contiguous.
        loop {
            let Some(entry) = unsealed.get_mut(&object) else {
                return true;
            };
            if entry.copying || entry.chunks.len() != total || entry.size != size {
                return true;
            }
            if entry.copied == total {
                break;
            }
            let Some(next) = &entry.chunks[entry.copied] else {
                return true;
            };
            if total == 1 {
                // One chunk is the object: its window is what is sealed.
                entry.copied = 1;
                break;
            }
            let payload = next.payload.clone();
            let mut dest = entry
                .dest
                .take()
                .unwrap_or_else(|| Vec::with_capacity(size));
            if dest.len() + payload.len() > size {
                unsealed.remove(&object);
                return false;
            }
            // The copy runs with the table unlocked; `copying` keeps
            // every other thread's hands off `dest` and the entry alive.
            entry.copying = true;
            drop(unsealed);
            dest.extend_from_slice(&payload);
            unsealed = self.store.unsealed.lock();
            // Gone (answered `Missing`, node cleared): so is the copy.
            let Some(entry) = unsealed.get_mut(&object).filter(|e| e.copying) else {
                return true;
            };
            entry.dest = Some(dest);
            entry.copied += 1;
            entry.copying = false;
        }
        // Seal while still holding the table lock: a concurrent request
        // either finds this entry or finds the object in the store —
        // never neither.
        let mut entry = unsealed.remove(&object).expect("entry present");
        let bytes = match entry.dest.take() {
            Some(dest) => Bytes::from(dest),
            None => entry.chunks[0].take().expect("all chunks received").payload,
        };
        let complete = bytes.len() == size;
        let from = entry.upstream.unwrap_or(self.store.node());
        let result = match complete {
            true => self.store.put(object, bytes.clone()),
            false => Err(Error::Codec(format!(
                "{object} arrived short of {size} bytes"
            ))),
        };
        if result.is_ok() {
            self.stats.objects_fetched.inc();
            if entry.unasked_at_nanos.is_some() {
                self.stats.pushes_received.inc();
            }
        }
        let pushed_at_nanos = entry.unasked_at_nanos;
        let answer = result.map(|PutOutcome { inserted, evicted }| {
            let fetched = Fetched {
                inserted,
                evicted,
                from,
                pushed_at_nanos,
            };
            (bytes, fetched)
        });
        // Sealed bytes somebody must own: with no waiter left to commit
        // their location (and drop what they evicted), the sink does.
        if !entry.answer(object, &answer) && answer.is_ok() {
            if let Some(sink) = &*self.unclaimed.read() {
                let _ = sink.send((object, answer));
            }
        }
        complete
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
                size: 1 << 40,
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
            let forged = encode_chunk_frame(obj(1), 0, total, 1, b"x");
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
        let direct = encode_chunk_frame(obj(3), 2, 7, 2000, &payload);
        let via_codec = encode_to_bytes(&TransferMsg::Chunk {
            object: obj(3),
            index: 2,
            total: 7,
            size: 2000,
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

    struct Peer {
        store: Arc<ObjectStore>,
        service: TransferService,
        agent: FetchAgent,
    }

    /// `n` nodes, each with a store, a service and an agent, on one
    /// fabric.
    fn peers(
        n: u32,
        config: FabricConfig,
        chunk_bytes: u64,
    ) -> (Arc<Fabric>, Arc<TransferDirectory>, Vec<Peer>) {
        let fabric = Fabric::new(config);
        let directory = TransferDirectory::new();
        let peers = (0..n)
            .map(|node| {
                let store = Arc::new(ObjectStore::new(StoreConfig {
                    node: NodeId(node),
                    capacity_bytes: 16 << 20,
                    chunk_bytes,
                }));
                Peer {
                    service: TransferService::spawn(fabric.clone(), store.clone(), &directory),
                    agent: FetchAgent::spawn(fabric.clone(), store.clone(), directory.clone()),
                    store,
                }
            })
            .collect();
        (fabric, directory, peers)
    }

    fn patterned(len: usize) -> Bytes {
        Bytes::from((0..len).map(|i| (i % 251) as u8).collect::<Vec<u8>>())
    }

    #[test]
    fn chunk_frames_absorb_a_sliver_tail() {
        let chunk = 256 << 10;
        assert_eq!(chunk_frames(0, chunk), 1);
        assert_eq!(chunk_frames(chunk - 1, chunk), 1);
        assert_eq!(chunk_frames(chunk, chunk), 1);
        // A sealed 256 KiB / 1 MiB value: payload plus 11 envelope bytes.
        assert_eq!(chunk_frames(chunk + 11, chunk), 1);
        assert_eq!(chunk_frames((1 << 20) + 11, chunk), 4);
        // A sixteenth of a chunk is a frame of its own again.
        assert_eq!(chunk_frames(chunk + chunk / 16 - 1, chunk), 1);
        assert_eq!(chunk_frames(chunk + chunk / 16, chunk), 2);
        assert_eq!(chunk_frames(1000, 256), 4);
        assert_eq!(chunk_frames(7, 1), 7);
    }

    #[test]
    fn a_sliver_over_one_chunk_still_arrives_as_one_stored_frame() {
        let (_fabric, _directory, p) = peers(2, FabricConfig::default(), 256 << 10);
        let payload = patterned((256 << 10) + 11);
        p[0].store.put(obj(1), payload.clone()).unwrap();
        let (data, fetched) = p[1]
            .agent
            .fetch_one(obj(1), NodeId(0), Duration::from_secs(5))
            .unwrap();
        assert_eq!(data, payload);
        assert_eq!(fetched.from, NodeId(0));
        assert_eq!(p[0].service.stats().chunks_sent.get(), 1);
        assert_eq!(p[1].agent.stats().chunks_received.get(), 1);
        assert_eq!(p[1].store.get(obj(1)).unwrap().as_ptr(), data.as_ptr());
    }

    /// 100 us hops, 1 GiB/s links: the ledger's fabric.
    fn ledger_fabric() -> FabricConfig {
        FabricConfig {
            latency: LatencyModel::Constant(Duration::from_micros(100)),
            bandwidth_bytes_per_sec: Some(1 << 30),
            ..FabricConfig::default()
        }
    }

    #[test]
    fn three_readers_of_a_hot_object_relay_it_chunk_by_chunk() {
        // Three readers ask within 100 us. The origin's egress link
        // carries the object once; the second and third reader are
        // handed down the chain and fed chunk by chunk while the copy
        // ahead of them is still arriving. Other tests share the cores:
        // a round whose requests were not issued within 100 us is not
        // the scenario, and the time is the best round's.
        let limit = Duration::from_micros(2800);
        let (_fabric, _directory, p) = peers(4, ledger_fabric(), 256 << 10);
        let payload = patterned((1 << 20) + 11);
        let passed_on = |relay: &Peer| {
            relay.service.stats().chunks_sent.get() + relay.agent.stats().chunks_forwarded.get()
        };
        let mut best = Duration::MAX;
        let mut rounds = 0;
        for attempt in 0..40 {
            let object = obj(attempt);
            p[0].store.put(object, payload.clone()).unwrap();
            let before: Vec<u64> = p.iter().map(passed_on).collect();
            let handed_before = p[0].service.stats().handed_on.get();
            let (done, answers) = unbounded();
            let start = Instant::now();
            for reader in &p[1..] {
                reader
                    .agent
                    .request_many(&[object], NodeId(0), Duration::from_secs(5), &done);
            }
            let issued = start.elapsed();
            let results: Vec<FetchResult> = (0..3)
                .map(|_| answers.recv_timeout(Duration::from_secs(5)).unwrap().1)
                .collect();
            let took = start.elapsed();
            let mut fed_by = Vec::new();
            for result in results {
                let (data, fetched) = result.unwrap();
                assert_eq!(data, payload);
                assert!(fetched.inserted);
                fed_by.push(fetched.from);
            }
            for peer in &p {
                assert_eq!(peer.agent.in_flight_len(), 0);
                assert!(peer.store.delete(object));
            }
            if issued > Duration::from_micros(100) {
                continue;
            }
            rounds += 1;
            best = best.min(took);
            // A chain in arrival order: each fed by the reader before it,
            // and every chunk went down it once — caught up by the
            // relay's service, or passed on by its agent as it arrived.
            fed_by.sort();
            assert_eq!(fed_by, vec![NodeId(0), NodeId(1), NodeId(2)]);
            assert_eq!(p[0].service.stats().handed_on.get() - handed_before, 2);
            let sent: Vec<u64> = p
                .iter()
                .zip(before)
                .map(|(p, b)| passed_on(p) - b)
                .collect();
            assert_eq!(
                sent,
                vec![4, 4, 4, 0],
                "chunks each node sent of a 4-chunk object"
            );
            if best <= limit {
                break;
            }
        }
        // 1.2 ms for the first copy, a chunk and a hop (0.36 ms) per
        // relay, the last chunk's copy; three pulls from the origin took
        // 3.9 ms.
        assert!(
            best <= limit,
            "last reader sealed after {best:?} (best of {rounds} rounds)"
        );
    }

    #[test]
    fn a_reader_whose_relay_goes_silent_completes_from_another_holder() {
        // 2 MB/s: each 8 KiB chunk of the 64 KiB object takes 4 ms.
        let config = FabricConfig {
            latency: LatencyModel::Constant(Duration::from_micros(100)),
            bandwidth_bytes_per_sec: Some(2_000_000),
            ..FabricConfig::default()
        };
        let (fabric, _directory, p) = peers(3, config, 8 << 10);
        let endpoints = fabric.endpoint_count();
        let payload = patterned(64 << 10);
        p[0].store.put(obj(1), payload.clone()).unwrap();
        let (done, answers) = unbounded();
        // Node 1 reads from the origin; node 2 asks next and is handed
        // on to node 1.
        p[1].agent
            .request_many(&[obj(1)], NodeId(0), Duration::from_secs(5), &done);
        p[2].agent
            .request_many(&[obj(1)], NodeId(0), Duration::from_millis(150), &done);
        // Cut the relay off from its reader after its second chunk.
        let deadline = Instant::now() + Duration::from_secs(5);
        while p[2].agent.stats().chunks_received.get() < 2 {
            assert!(Instant::now() < deadline, "relay never fed its reader");
            std::thread::yield_now();
        }
        fabric.partition(NodeId(1), NodeId(2));
        // The relay itself completes; its reader hears nothing more.
        let (_, first) = answers.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(first.unwrap().1.from, NodeId(0));
        assert_eq!(p[0].service.stats().handed_on.get(), 1);
        assert!(answers.recv_timeout(Duration::from_millis(200)).is_err());
        let partial = p[2].agent.stats().chunks_received.get();
        assert!((2..8).contains(&partial), "{partial} chunks before the cut");
        assert_eq!(p[2].store.unsealed_len(), 1);
        // The caller's retry, as `holders_ranked` would order it: the
        // origin again, which by now streams to nobody.
        let (data, fetched) = p[2]
            .agent
            .fetch_one(obj(1), NodeId(0), Duration::from_secs(5))
            .unwrap();
        assert_eq!(data, payload);
        assert_eq!(
            fetched.from,
            NodeId(1),
            "the first bytes came from the relay"
        );
        assert!(fetched.inserted);
        // The earlier waiter is answered by the same transfer.
        assert!(answers
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .1
            .is_ok());
        for peer in &p {
            assert_eq!(peer.agent.in_flight_len(), 0);
            assert_eq!(peer.store.unsealed_len(), 0);
            assert_eq!(peer.store.used_bytes(), payload.len() as u64);
        }
        assert_eq!(fabric.endpoint_count(), endpoints);
    }

    #[test]
    fn a_relay_whose_own_fetch_fails_answers_missing() {
        let config = FabricConfig {
            latency: LatencyModel::Constant(Duration::from_millis(2)),
            ..FabricConfig::default()
        };
        let (_fabric, _directory, p) = peers(3, config, 8 << 10);
        // Node 1 asks node 0 for an object node 0 does not have; until
        // the `Missing` lands (4 ms) node 1 counts as receiving it, and a
        // request reaching it meanwhile is registered downstream.
        let (done, answers) = unbounded();
        p[1].agent
            .request_many(&[obj(1)], NodeId(0), Duration::from_secs(5), &done);
        p[2].agent
            .request_many(&[obj(1)], NodeId(1), Duration::from_secs(5), &done);
        for _ in 0..2 {
            let (_, result) = answers.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(result.unwrap_err(), Error::ObjectNotFound(obj(1)));
        }
        assert_eq!(p[1].service.stats().relayed.get(), 1);
        assert_eq!(p[1].service.stats().misses.get(), 0);
        assert_eq!(p[2].agent.stats().misses.get(), 1);
        for peer in &p {
            assert_eq!(peer.store.unsealed_len(), 0);
        }
    }

    #[test]
    fn duplicated_and_reordered_chunks_seal_one_object_once() {
        // Every stream is delivered twice and half of them draw a 3 ms
        // spike. A direct stream is one fault decision, so the reordering
        // happens on the relay hop, where every chunk is passed on as a
        // stream of its own.
        use rtml_net::{FaultPlan, LinkFault, LinkMatch};
        let config = FabricConfig {
            latency: LatencyModel::Constant(Duration::from_micros(100)),
            bandwidth_bytes_per_sec: Some(8_000_000),
            faults: FaultPlan {
                seed: 0xd0_0b1e,
                links: vec![LinkFault {
                    link: LinkMatch::any(),
                    duplicate_ppm: 1_000_000,
                    delay_spike_ppm: 500_000,
                    delay_spike: Duration::from_millis(3),
                    ..LinkFault::default()
                }],
                ..FaultPlan::default()
            },
            ..FabricConfig::default()
        };
        let (fabric, _directory, p) = peers(3, config, 4 << 10);
        let payload = patterned(64 << 10);
        p[0].store.put(obj(1), payload.clone()).unwrap();
        let (done, answers) = unbounded();
        for reader in &p[1..] {
            reader
                .agent
                .request_many(&[obj(1)], NodeId(0), Duration::from_secs(5), &done);
        }
        for _ in 0..2 {
            let (_, result) = answers.recv_timeout(Duration::from_secs(5)).unwrap();
            let (data, fetched) = result.unwrap();
            assert_eq!(data, payload);
            assert!(fetched.inserted);
        }
        assert!(answers.recv_timeout(Duration::from_millis(50)).is_err());
        assert!(fabric.stats.injected_dups.get() >= 16);
        assert!(fabric.stats.injected_delays.get() > 0);
        // Let the copies still in flight land: a chunk of an object
        // that is already sealed starts no second assembly.
        std::thread::sleep(Duration::from_millis(20));
        for reader in &p[1..] {
            assert_eq!(reader.agent.stats().objects_fetched.get(), 1);
            assert_eq!(reader.store.stats.puts.get(), 1);
            assert_eq!(reader.store.used_bytes(), payload.len() as u64);
            assert_eq!(reader.store.unsealed_len(), 0);
        }
        // Whichever request the origin saw second was handed on (its
        // duplicate, by then the latest reader's own, was served). The
        // relay passed on only frames that were new to it.
        assert_eq!(p[0].service.stats().handed_on.get(), 1);
        let relayed = p[1..].iter().map(|r| r.service.stats().relayed.get());
        assert!(relayed.sum::<u64>() >= 1);
        let forwarded = p[1..]
            .iter()
            .map(|r| r.agent.stats().chunks_forwarded.get());
        assert!((1..=16).contains(&forwarded.sum::<u64>()));
    }

    #[test]
    fn a_pushed_result_is_sealed_unasked_and_handed_to_the_sink() {
        let (fabric, directory, p) = peers(2, ledger_fabric(), 256 << 10);
        let (sink, arrivals) = unbounded();
        p[0].agent.deliver_unclaimed_to(sink);
        let stats = p[1].service.stats();
        let payload = patterned(PUSH_MAX_BYTES);
        p[1].store.put(obj(1), payload.clone()).unwrap();
        let before = rtml_common::time::now_nanos();
        let push = |to: NodeId, object: ObjectId, data: &[u8]| {
            push_sealed(&fabric, &directory, stats, &p[1].store, to, object, data)
        };
        assert!(push(NodeId(0), obj(1), &payload));

        // It arrives as the one frame a request would have been answered
        // with, and the sink is told what a requester would have been —
        // plus when the frame left, since no request marks the start.
        let (object, answer) = arrivals.recv_timeout(Duration::from_secs(5)).unwrap();
        let (data, fetched) = answer.unwrap();
        assert_eq!((object, &data), (obj(1), &payload));
        assert!(fetched.inserted && fetched.evicted.is_empty());
        assert_eq!(fetched.from, NodeId(1));
        let left = fetched.pushed_at_nanos.expect("nobody asked for it");
        assert!(before <= left && left <= rtml_common::time::now_nanos());
        assert_eq!(p[0].store.get(obj(1)).unwrap(), payload);
        assert_eq!((stats.pushed.get(), stats.requests.get()), (1, 0));
        assert_eq!(p[0].agent.stats().requests_sent.get(), 0);
        assert_eq!(p[0].agent.stats().chunks_received.get(), 1);
        assert_eq!(p[0].agent.stats().pushes_received.get(), 1);
        assert_eq!(p[0].agent.in_flight_len(), 0);

        // One byte over the limit, a value a request would have split,
        // a node with no agent listed: nothing is sent.
        assert!(!push(NodeId(0), obj(2), &patterned(PUSH_MAX_BYTES + 1)));
        assert!(!push(NodeId(9), obj(2), b"x"));
        directory.remove(NodeId(0));
        assert!(!push(NodeId(0), obj(2), b"x"));
        let small_chunks = ObjectStore::new(StoreConfig {
            node: NodeId(1),
            capacity_bytes: 1 << 20,
            chunk_bytes: 1024,
        });
        directory.insert_agent(NodeId(0), p[0].agent.address());
        let split = patterned(4096);
        assert!(!push_sealed(
            &fabric,
            &directory,
            stats,
            &small_chunks,
            NodeId(0),
            obj(2),
            &split
        ));
        assert_eq!(stats.pushed.get(), 1);
        assert!(arrivals.try_recv().is_err());
    }

    #[test]
    fn a_reply_that_outlives_its_request_goes_to_the_sink_with_its_evictions() {
        // 20 ms hops against a 5 ms wait: the reply cannot land before
        // the requester has gone.
        let slow = FabricConfig {
            latency: LatencyModel::Constant(Duration::from_millis(20)),
            ..FabricConfig::default()
        };
        let fabric = Fabric::new(slow);
        let directory = TransferDirectory::new();
        let store = |node: u32, capacity_bytes: u64| {
            Arc::new(ObjectStore::new(StoreConfig {
                node: NodeId(node),
                capacity_bytes,
                chunk_bytes: 256 << 10,
            }))
        };
        let (holder, reader) = (store(0, 1 << 20), store(1, 1 << 20));
        let _service = TransferService::spawn(fabric.clone(), holder.clone(), &directory);
        let agent = FetchAgent::spawn(fabric.clone(), reader.clone(), directory.clone());
        let (sink, arrivals) = unbounded();
        agent.deliver_unclaimed_to(sink);
        // The reader's store is full: sealing the reply evicts.
        for i in 0..4 {
            reader.put(obj(100 + i), patterned(256 << 10)).unwrap();
        }
        holder.put(obj(1), patterned(256 << 10)).unwrap();
        assert_eq!(
            agent
                .fetch_one(obj(1), NodeId(0), Duration::from_millis(5))
                .unwrap_err(),
            Error::Timeout
        );
        let (object, answer) = arrivals.recv_timeout(Duration::from_secs(5)).unwrap();
        let (_, fetched) = answer.unwrap();
        assert_eq!(object, obj(1));
        assert!(fetched.inserted);
        assert_eq!(fetched.evicted, vec![obj(100)]);
        // It was asked for, once: not a push.
        assert_eq!(fetched.pushed_at_nanos, None);
        assert_eq!(agent.stats().pushes_received.get(), 0);
        // A waiter that is still there keeps the answer to itself.
        holder.put(obj(2), patterned(64)).unwrap();
        agent
            .fetch_one(obj(2), NodeId(0), Duration::from_secs(5))
            .unwrap();
        assert!(arrivals.try_recv().is_err());
    }

    #[test]
    fn closing_an_answer_channel_never_orphans_an_arrival() {
        // A requester may leave before the answer to its own request is
        // sent — a blocked `get` does, on the local seal. Either way the
        // arrival is reported exactly once.
        let slow = FabricConfig {
            latency: LatencyModel::Constant(Duration::from_millis(10)),
            ..FabricConfig::default()
        };
        let (_fabric, _directory, p) = peers(2, slow, 256 << 10);
        let (sink, arrivals) = unbounded();
        p[1].agent.deliver_unclaimed_to(sink);
        let request = |i: u64| {
            p[0].store.put(obj(i), patterned(64)).unwrap();
            let (done, answers) = unbounded();
            p[1].agent
                .request_many(&[obj(i)], NodeId(0), Duration::from_secs(5), &done);
            answers
        };
        // It leaves once the object is in the store: the seal and the
        // answer happen under the lock `close` takes, so the answer is
        // already there, and the sink hears nothing.
        for i in 0..5 {
            let answers = request(i);
            let deadline = Instant::now() + Duration::from_secs(5);
            while !p[1].store.contains(obj(i)) {
                assert!(Instant::now() < deadline, "never arrived");
                std::thread::yield_now();
            }
            let taken = p[1].agent.close(answers);
            assert!(matches!(taken.as_slice(), [(object, Ok(_))] if *object == obj(i)));
            assert!(arrivals.try_recv().is_err());
        }
        // It leaves before the reply has crossed the fabric: nothing to
        // take, and the arrival finds the channel gone.
        let taken = p[1].agent.close(request(9));
        assert!(taken.is_empty());
        let (object, answer) = arrivals.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(object, obj(9));
        assert!(answer.unwrap().1.inserted);
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
