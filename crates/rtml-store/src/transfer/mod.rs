//! Cross-node object transfer over the simulated fabric — the batched,
//! pipelined data plane.
//!
//! Each node runs **one** object plane, in two halves: the
//! [`FetchAgent`] its callers use, and the [`PlaneCore`] that answers
//! every frame reaching the plane. A cluster node has no thread for it:
//! its one control loop (the local scheduler) reads the node's one
//! endpoint and hands the core the frames it
//! [`takes`](PlaneCore::takes). A bare store's agent
//! ([`FetchAgent::spawn`]) gets an endpoint and a thread of its own. The
//! core handles, one frame at a time:
//!
//! - a `Request` from a peer is served from the local store,
//!   **chunking** large objects into size-capped frames
//!   ([`crate::StoreConfig::chunk_bytes`]) streamed through the fabric's
//!   bandwidth model, and **coalescing** a request for K objects into
//!   one reply stream (`serve.rs`);
//! - a `Chunk` or `Missing` answering this node's own requests is
//!   assembled and sealed into the local store (`assembly.rs`).
//!
//! Callers on the node ask through the same agent (`agent.rs`):
//! [`FetchAgent::request_many`] groups K objects into a single request
//! frame per holder, returns without blocking, and answers per object
//! on the caller's channel (so one waiter can have requests out to
//! several holders at once); [`FetchAgent::fetch_many`] is that request
//! plus the wait. Both **single-flight** concurrent fetches of the same
//! object: the second caller waits on the in-flight transfer instead of
//! issuing a duplicate.
//!
//! The wire protocol (`wire.rs`) is three message types, encoded with
//! the rtml codec: `Request { objects, reply_to }`, `Chunk { object,
//! index, total, size, len }`, and `Missing { object }`. A chunk frame
//! is that header plus a body of `len` bytes, carried beside it by the
//! fabric ([`rtml_net::Delivery::body`]). A response to a K-object
//! request is one [`rtml_net::Fabric::send_chunks_with_bodies`] stream:
//! a single propagation-delay sample, each chunk due when its header and
//! body have crossed, [`chunk_frames`] frames per object.
//!
//! # Copying nothing: windows out, windows joined
//!
//! A holder sends each chunk's body as a `Bytes::slice` window of its
//! sealed copy, and a relay passes on the frames it received as they
//! are, so every chunk of a stream, however many nodes it went through,
//! is a window of the one buffer it was served from. When the last
//! chunk lands, the receiver seals the object by joining its windows
//! (`Bytes::try_join`): the object it stores is the holder's buffer,
//! and no thread copied a payload byte. Only chunks from different
//! buffers — a stream re-requested from another holder partway through
//! — do not join; the object is then copied once, at the exact size its
//! headers name, and counted in [`TransferStats::bytes_copied`].
//! Duplicated and reordered frames are absorbed by index.
//!
//! # Relaying: a hot object leaves its origin once
//!
//! Between [`FetchAgent::request_many`] and the seal an object is
//! *created, not yet sealed* on the reading node (Plasma's create/seal
//! split). That state lives in the agent's unsealed table: its thread
//! fills it and **relays from it**, and its callers join it. Two rules
//! make a broadcast spread in one wave instead of N pulls from the
//! origin:
//!
//! - a node asked for a multi-chunk object it is still streaming to an
//!   earlier reader (its egress link has not drained that stream) hands
//!   the request on, unchanged, to that reader's node, and remembers the
//!   new reader as the latest — a chain in arrival order. Only earlier
//!   readers are ever named, so the chain has no cycle;
//! - a node asked for an object it is still receiving sends the chunk
//!   frames it already has and registers the reader downstream; every
//!   later frame is passed on as it arrives, header and body as they
//!   came. Catch-up and pass-on run in the same loop, so each frame
//!   reaches each downstream reader exactly once.
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
//! [`FetchAgent::push`] sends the sealed bytes to the submitter's
//! object plane as the single `Chunk` frame a request would have been
//! answered with — its body the sealed buffer — one hop after the seal. Only values of at most
//! [`PUSH_MAX_BYTES`] that fit one chunk are pushed; whether a given
//! result *should* be (nothing queued behind it on the producing node)
//! is the caller's rule. The receiving agent needs nothing new: a chunk
//! of an object nobody asked for has always been assembled and sealed.
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

mod agent;
mod assembly;
mod serve;
mod wire;

pub use agent::{FetchAgent, PlaneCore, TransferService};
pub use wire::chunk_frames;

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::RwLock;

use rtml_common::error::Result;
use rtml_common::ids::{NodeId, ObjectId};
use rtml_common::metrics::{Counter, MetricsRegistry};
use rtml_net::NetAddress;

/// Maps each node to the fabric address of its object plane: where
/// requests for its objects go, and where replies to its requests — and
/// results pushed to it — arrive. Shared by all nodes; each agent lists
/// itself when it is spawned. Cloning shares the map.
#[derive(Clone, Default)]
pub struct TransferDirectory {
    map: Arc<RwLock<HashMap<NodeId, NetAddress>>>,
}

impl TransferDirectory {
    /// Creates an empty directory.
    pub fn new() -> Arc<Self> {
        Arc::new(TransferDirectory::default())
    }

    /// Records `node`'s address.
    pub fn insert(&self, node: NodeId, address: NetAddress) {
        self.map.write().insert(node, address);
    }

    /// Looks up `node`'s address.
    pub fn lookup(&self, node: NodeId) -> Option<NetAddress> {
        self.map.read().get(&node).copied()
    }

    /// Removes a node (when it is killed).
    pub fn remove(&self, node: NodeId) {
        self.map.write().remove(&node);
    }

    /// Whether a node other than `node` is listed: `false` when `node`
    /// is the only one alive.
    pub fn lists_other_than(&self, node: NodeId) -> bool {
        self.map.read().keys().any(|&other| other != node)
    }

    /// Every node listed with its address, ascending by node, read
    /// under one lock.
    pub fn entries(&self) -> Vec<(NodeId, NetAddress)> {
        let mut entries: Vec<(NodeId, NetAddress)> =
            self.map.read().iter().map(|(&n, &a)| (n, a)).collect();
        entries.sort_unstable_by_key(|&(node, _)| node);
        entries
    }
}

/// The largest sealed result a producer sends to its submitter unasked:
/// 8 µs of a 1 GiB/s link, against the 100 µs request hop it saves.
pub const PUSH_MAX_BYTES: usize = 8 * 1024;

/// One node's object-plane counters: what it served to its peers and
/// what it fetched for itself.
#[derive(Debug, Default)]
pub struct TransferStats {
    /// Request frames served (each may name many objects).
    pub requests: Counter,
    /// Objects served from a sealed copy (payload found and streamed
    /// back).
    pub objects_served: Counter,
    /// Objects whose request was handed on to the earlier reader this
    /// node was still streaming them to.
    pub handed_on: Counter,
    /// Objects answered from a copy this node was still receiving: the
    /// frames it had, with the rest passed on as they arrive.
    pub relayed: Counter,
    /// Requested objects the store no longer had (answered `Missing`).
    pub misses_served: Counter,
    /// Reply streams the fabric refused (requester gone).
    pub send_failures: Counter,
    /// Chunk frames emitted when serving (a relay's catch-up frames
    /// included) and results pushed; frames passed on later are
    /// [`TransferStats::chunks_forwarded`].
    pub chunks_sent: Counter,
    /// Results sent to their submitter's node unasked
    /// ([`FetchAgent::push`]): frames the fabric accepted, whether or
    /// not they arrived.
    pub pushed: Counter,
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
    /// `Missing` answers received (the holder no longer had the object).
    pub misses_received: Counter,
    /// Waits that gave up before the transfer completed.
    pub timeouts: Counter,
    /// Undecodable frames received.
    pub decode_errors: Counter,
    /// Chunk frames dropped: a header out of bounds for the store, a
    /// body of another length than its header names, or an object that
    /// did not add up to the size its headers named.
    pub bad_chunks: Counter,
    /// Payload bytes copied while serving, pushing or assembling: only
    /// an object whose chunks came from different buffers is copied.
    pub bytes_copied: Counter,
}

impl TransferStats {
    /// Registers the counters some reader reads: what this node served
    /// (`transfer.*`) and what it fetched for itself (`fetch.*`).
    pub fn register_metrics(self: &Arc<Self>, registry: &MetricsRegistry) {
        type Read = fn(&TransferStats) -> &Counter;
        let counters: [(&str, Read); 12] = [
            ("transfer.requests", |s| &s.requests),
            ("transfer.bytes_copied", |s| &s.bytes_copied),
            ("transfer.objects_served", |s| &s.objects_served),
            ("transfer.misses", |s| &s.misses_served),
            ("transfer.chunks_sent", |s| &s.chunks_sent),
            ("transfer.pushed", |s| &s.pushed),
            ("fetch.transfers", |s| &s.transfers),
            ("fetch.requests_sent", |s| &s.requests_sent),
            ("fetch.duplicates_suppressed", |s| &s.duplicates_suppressed),
            ("fetch.objects_fetched", |s| &s.objects_fetched),
            ("fetch.pushes_received", |s| &s.pushes_received),
            ("fetch.timeouts", |s| &s.timeouts),
        ];
        for (name, read) in counters {
            let stats = self.clone();
            registry.register_value(name, move || read(&stats).get());
        }
    }
}

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

#[cfg(test)]
mod tests {
    use super::wire::{chunk_frame, TransferMsg};
    use super::*;
    use crate::store::{ObjectStore, StoreConfig};
    use crossbeam::channel::unbounded;
    use rtml_common::codec::{decode_from_bytes, decode_from_slice, encode_to_bytes};
    use rtml_common::error::Error;
    use rtml_common::ids::{DriverId, TaskId};
    use rtml_net::{Fabric, FabricConfig, LatencyModel};
    use std::time::{Duration, Instant};

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
        FetchAgent,
        FetchAgent,
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
        FetchAgent,
        FetchAgent,
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
        let agent0 = FetchAgent::spawn(fabric.clone(), store0.clone(), &directory);
        let agent1 = FetchAgent::spawn(fabric.clone(), store1.clone(), &directory);
        (fabric, directory, store0, store1, agent0, agent1)
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
                len: 1 << 18,
            },
            TransferMsg::Missing { object: obj(2) },
        ];
        for msg in msgs {
            let bytes = encode_to_bytes(&msg);
            assert!(PlaneCore::takes(&bytes), "{msg:?}");
            let back: TransferMsg = decode_from_bytes(&bytes).unwrap();
            assert_eq!(msg, back);
        }
    }

    /// As `rtml-sched`'s test of the same name: every strict prefix of a
    /// frame fails to decode, and so does an unknown tag, naming the type.
    #[test]
    fn every_strict_prefix_of_a_frame_and_an_unknown_tag_fail_to_decode() {
        for msg in [
            TransferMsg::Request {
                objects: vec![obj(1), obj(2)],
                reply_to: u64::MAX,
            },
            TransferMsg::Chunk {
                object: obj(1),
                index: 200,
                total: 300,
                size: 1 << 40,
                len: 1 << 18,
            },
            TransferMsg::Missing { object: obj(2) },
        ] {
            let frame = encode_to_bytes(&msg);
            for end in 0..frame.len() {
                let cut = decode_from_slice::<TransferMsg>(&frame[..end]);
                assert!(cut.is_err(), "{msg:?} cut to {end} bytes decoded");
            }
            let mut renamed = frame.to_vec();
            renamed[0] = u8::MAX;
            let err = decode_from_slice::<TransferMsg>(&renamed).unwrap_err();
            assert!(
                err.to_string().contains("invalid TransferMsg tag 255"),
                "{err}"
            );
        }
    }

    #[test]
    fn fetch_moves_object() {
        let (_fabric, _directory, store0, store1, _s0, agent) = setup(100);
        store0.put(obj(1), Bytes::from_static(b"payload")).unwrap();
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
        let (_fabric, _directory, store0, _store1, _s0, agent) = setup(5_000); // 5 ms per hop
        store0.put(obj(1), Bytes::from_static(b"x")).unwrap();
        let start = std::time::Instant::now();
        agent
            .fetch_one(obj(1), NodeId(0), Duration::from_secs(5))
            .unwrap();
        // Request + response = 2 hops ≥ 10 ms.
        assert!(start.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn single_chunk_object_is_stored_as_a_window_of_its_frame() {
        let (_fabric, _directory, store0, store1, s0, agent) = setup(0);
        let payload: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        store0.put(obj(1), Bytes::from(payload.clone())).unwrap();
        let (data, _) = agent
            .fetch_one(obj(1), NodeId(0), Duration::from_secs(5))
            .unwrap();
        assert_eq!(data.as_slice(), &payload[..]);
        // The store holds the very buffer the caller was answered with,
        // and that buffer is the holder's sealed copy: nothing copied it.
        let stored = store1.get(obj(1)).unwrap();
        assert_eq!(stored.as_ptr(), data.as_ptr());
        assert_eq!(stored.as_ptr(), store0.get(obj(1)).unwrap().as_ptr());
        assert_eq!(s0.stats().bytes_copied.get(), 0);
        assert_eq!(agent.stats().bytes_copied.get(), 0);
    }

    #[test]
    fn forged_chunk_count_is_dropped_before_allocating() {
        // Store capacity 1 MiB at 256-byte chunks: no real object
        // arrives in more than 4096 chunks.
        let (fabric, _directory, store0, _store1, _s0, agent) = setup_chunked(0, 256);
        let probe = fabric.register(NodeId(0), "probe");
        for total in [u32::MAX, 4097] {
            let forged = chunk_frame(obj(1), 0, total, 1, Bytes::from_static(b"x"));
            fabric
                .send_chunks_with_bodies(probe.address(), agent.address(), vec![forged])
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
        assert_eq!(agent.stats().bad_chunks.get(), 2);
        assert_eq!(agent.stats().chunks_received.get(), 2 + 4);
        assert_eq!(agent.in_flight_len(), 0);
    }

    #[test]
    fn large_object_moves_as_ceil_size_over_chunk_frames() {
        // 1000 bytes at 256-byte chunks = 4 frames.
        let (fabric, _directory, store0, _store1, s0, agent) = setup_chunked(100, 256);
        let payload: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        store0.put(obj(1), Bytes::from(payload.clone())).unwrap();
        let (data, _) = agent
            .fetch_one(obj(1), NodeId(0), Duration::from_secs(5))
            .unwrap();
        assert_eq!(data.as_slice(), &payload[..]);
        assert_eq!(s0.stats().chunks_sent.get(), 4);
        assert_eq!(agent.stats().chunks_received.get(), 4);
        assert_eq!(fabric.stats.chunk_frames.get(), 4);
    }

    #[test]
    fn a_multi_chunk_fetch_seals_the_holders_buffer_and_copies_nothing() {
        // 1 MiB at 256 KiB chunks: four windows of the holder's copy,
        // joined back into one on arrival.
        let (_fabric, _directory, store0, store1, s0, agent) = setup(100);
        let payload: Vec<u8> = (0..1u32 << 20).map(|i| (i % 251) as u8).collect();
        store0.put(obj(1), Bytes::from(payload.clone())).unwrap();
        let (data, _) = agent
            .fetch_one(obj(1), NodeId(0), Duration::from_secs(5))
            .unwrap();
        assert_eq!(data.as_slice(), &payload[..]);
        assert_eq!(agent.stats().chunks_received.get(), 4);
        let holders = store0.get(obj(1)).unwrap();
        assert_eq!(store1.get(obj(1)).unwrap().as_ptr(), holders.as_ptr());
        assert_eq!(data.as_ptr(), holders.as_ptr());
        assert_eq!(s0.stats().bytes_copied.get(), 0);
        assert_eq!(agent.stats().bytes_copied.get(), 0);
    }

    /// Sends `frames` to `agent` from a probe endpoint on node 0.
    fn hand_feed(fabric: &Arc<Fabric>, agent: &FetchAgent, frames: Vec<(Bytes, Bytes)>) {
        let probe = fabric.register(NodeId(0), "probe");
        fabric
            .send_chunks_with_bodies(probe.address(), agent.address(), frames)
            .unwrap();
    }

    #[test]
    fn chunks_from_different_buffers_are_copied_once_and_counted() {
        let (fabric, _directory, _store0, store1, _s0, agent) = setup(0);
        let payload = patterned(600 << 10);
        let size = payload.len() as u64;
        // The same bytes, sealed twice: chunk 1 comes from the second.
        let twin = Bytes::from(payload.to_vec());
        let frames = vec![
            chunk_frame(obj(1), 0, 3, size, payload.slice(0..256 << 10)),
            chunk_frame(obj(1), 1, 3, size, twin.slice(256 << 10..512 << 10)),
            chunk_frame(obj(1), 2, 3, size, payload.slice(512 << 10..600 << 10)),
        ];
        hand_feed(&fabric, &agent, frames);
        let deadline = Instant::now() + Duration::from_secs(5);
        while !store1.contains(obj(1)) {
            assert!(Instant::now() < deadline, "never sealed");
            std::thread::yield_now();
        }
        let stored = store1.get(obj(1)).unwrap();
        assert_eq!(stored, payload);
        assert_ne!(stored.as_ptr(), payload.as_ptr());
        assert_eq!(agent.stats().bytes_copied.get(), size);
        assert_eq!(agent.stats().bad_chunks.get(), 0);
    }

    #[test]
    fn chunks_that_overrun_their_size_are_rejected() {
        let (fabric, _directory, _store0, store1, _s0, agent) = setup(0);
        let buffer = patterned(200_000);
        // Adjacent windows of one buffer, which join, but 200 000 bytes
        // against the 150 000 the headers name.
        let mut frames = vec![
            chunk_frame(obj(1), 0, 2, 150_000, buffer.slice(0..100_000)),
            chunk_frame(obj(1), 1, 2, 150_000, buffer.slice(100_000..200_000)),
        ];
        // Bodies that add up to the object's size, each one byte off the
        // length its own header names.
        for (index, body) in [(0, 0..99), (1, 99..200)] {
            let (header, _) = chunk_frame(obj(2), index, 2, 200, buffer.slice(0..100));
            frames.push((header, buffer.slice(body)));
        }
        hand_feed(&fabric, &agent, frames);
        let deadline = Instant::now() + Duration::from_secs(5);
        while agent.stats().bad_chunks.get() < 3 {
            assert!(Instant::now() < deadline, "not rejected");
            std::thread::yield_now();
        }
        assert_eq!(agent.stats().chunks_received.get(), 4);
        assert_eq!(agent.stats().bad_chunks.get(), 3);
        assert!(!store1.contains(obj(1)) && !store1.contains(obj(2)));
        assert_eq!(agent.in_flight_len(), 0);
        assert_eq!(agent.stats().objects_fetched.get(), 0);
    }

    #[test]
    fn fetch_many_coalesces_one_request_frame_per_holder() {
        let (_fabric, _directory, store0, _store1, s0, agent) = setup(100);
        let objects: Vec<ObjectId> = (0..16).map(obj).collect();
        for (i, &o) in objects.iter().enumerate() {
            store0.put(o, Bytes::from(vec![i as u8; 64])).unwrap();
        }
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
        let (_fabric, _directory, store0, store1, s0, agent) = setup(20_000); // 20 ms per hop
        let objects: Vec<ObjectId> = (0..8).map(obj).collect();
        for &o in &objects[..6] {
            store0.put(o, Bytes::from(vec![1u8; 32])).unwrap();
        }
        store1.put(objects[0], Bytes::from(vec![1u8; 32])).unwrap();
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
        let (_fabric, _directory, store0, store1, s0, agent) = setup(2_000);
        store0.put(obj(1), Bytes::from(vec![7u8; 256])).unwrap();
        let agent = Arc::new(agent);
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
        let (_fabric, _directory, store0, _store1, s0, agent) = setup(100);
        store0.put(obj(1), Bytes::from_static(b"a")).unwrap();
        store0.put(obj(2), Bytes::from_static(b"bb")).unwrap();
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
        let (_fabric, _directory, _store0, store1, s0, agent) = setup(50_000);
        store1.put(obj(1), Bytes::from_static(b"here")).unwrap();
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
        let (_fabric, _directory, _store0, _store1, s0, agent) = setup(0);
        assert_eq!(
            agent
                .fetch_one(obj(9), NodeId(0), Duration::from_secs(5))
                .unwrap_err(),
            Error::ObjectNotFound(obj(9))
        );
        assert_eq!(agent.stats().misses_received.get(), 1);
        assert_eq!(s0.stats().misses_served.get(), 1);
        assert_eq!(
            agent
                .fetch_one(obj(9), NodeId(42), Duration::from_secs(1))
                .unwrap_err(),
            Error::NodeDown(NodeId(42))
        );
    }

    #[test]
    fn agent_times_out_under_partition_then_recovers() {
        let (fabric, _directory, store0, _store1, _s0, agent) = setup(0);
        store0.put(obj(1), Bytes::from_static(b"x")).unwrap();
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
    fn agent_uses_one_persistent_endpoint_across_fetches() {
        let (fabric, _directory, store0, _store1, _s0, agent) = setup(0);
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
    fn a_plane_on_a_borrowed_mailbox_leaves_the_endpoint_to_its_owner() {
        let (fabric, directory, _store0, store1, _s0, _agent) = setup(0);
        let endpoint = fabric.register(NodeId(1), "node");
        let (agent, core) =
            FetchAgent::on_mailbox(fabric.clone(), store1, &directory, endpoint.address());
        let base = fabric.endpoint_count();
        agent.shutdown();
        drop(agent);
        drop(core);
        assert_eq!(fabric.endpoint_count(), base);
        drop(endpoint);
        assert_eq!(fabric.endpoint_count(), base - 1);
    }

    #[test]
    fn service_counts_decode_errors_and_stays_alive() {
        let (fabric, directory, store0, _store1, s0, agent) = setup(0);
        store0.put(obj(1), Bytes::from_static(b"x")).unwrap();
        let remote = directory.lookup(NodeId(0)).unwrap();
        let probe = fabric.register(NodeId(1), "probe");
        fabric
            .send(probe.address(), remote, Bytes::from_static(b"\xff garbage"))
            .unwrap();
        // The service must survive garbage and keep serving.
        let (data, _) = agent
            .fetch_one(obj(1), NodeId(0), Duration::from_secs(5))
            .unwrap();
        assert_eq!(&data[..], b"x");
        assert_eq!(s0.stats().decode_errors.get(), 1);
    }

    struct Peer {
        store: Arc<ObjectStore>,
        agent: FetchAgent,
    }

    /// `n` nodes, each with a store and its agent, on one fabric.
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
        assert_eq!(p[0].agent.stats().chunks_sent.get(), 1);
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
        // ahead of them is still arriving (the chain itself is checked at
        // a rate that holds the link for tens of ms, below). Other tests
        // share the cores: a round whose requests were not issued within
        // 100 us is not the scenario, and the time is the best round's.
        let limit = Duration::from_micros(2800);
        let (_fabric, _directory, p) = peers(4, ledger_fabric(), 256 << 10);
        let payload = patterned((1 << 20) + 11);
        let mut best = Duration::MAX;
        let mut rounds = 0;
        for attempt in 0..40 {
            let object = obj(attempt);
            p[0].store.put(object, payload.clone()).unwrap();
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
            for result in results {
                let (data, fetched) = result.unwrap();
                assert_eq!(data, payload);
                assert!(fetched.inserted);
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
    fn three_readers_of_a_hot_object_form_a_chain_that_passes_each_chunk_on_once() {
        // 1 MB/s: the 64 KiB object's four chunks hold the origin's link
        // for 65 ms, so the second and third request reach the chain
        // while the copy ahead of them is still arriving, even when a
        // loaded host wakes the planes late.
        let config = FabricConfig {
            latency: LatencyModel::Constant(Duration::from_micros(100)),
            bandwidth_bytes_per_sec: Some(1_000_000),
            ..FabricConfig::default()
        };
        let (_fabric, _directory, p) = peers(4, config, 16 << 10);
        let payload = patterned((64 << 10) + 11);
        p[0].store.put(obj(1), payload.clone()).unwrap();
        let (done, answers) = unbounded();
        for reader in &p[1..] {
            reader
                .agent
                .request_many(&[obj(1)], NodeId(0), Duration::from_secs(5), &done);
        }
        let mut fed_by: Vec<NodeId> = (0..3)
            .map(|_| {
                let (data, fetched) = answers
                    .recv_timeout(Duration::from_secs(5))
                    .unwrap()
                    .1
                    .unwrap();
                assert_eq!(data, payload);
                fetched.from
            })
            .collect();
        // A chain in arrival order: each fed by the reader before it, and
        // every chunk went down it once — caught up when the request
        // reached the relay, or passed on as it arrived.
        fed_by.sort();
        assert_eq!(fed_by, vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(p[0].agent.stats().handed_on.get(), 2);
        let sent: Vec<u64> = p
            .iter()
            .map(|p| p.agent.stats().chunks_sent.get() + p.agent.stats().chunks_forwarded.get())
            .collect();
        assert_eq!(
            sent,
            vec![4, 4, 4, 0],
            "chunks each node sent of a 4-chunk object"
        );
    }

    #[test]
    fn a_relayed_object_is_the_holders_buffer_on_every_reader() {
        // 1 MB/s: the 64 KiB object's four chunks hold the origin's link
        // for 65 ms, so the second and third request are handed on even
        // when a loaded host wakes the planes late.
        let config = FabricConfig {
            latency: LatencyModel::Constant(Duration::from_micros(100)),
            bandwidth_bytes_per_sec: Some(1_000_000),
            ..FabricConfig::default()
        };
        let (_fabric, _directory, p) = peers(4, config, 16 << 10);
        let payload = patterned(64 << 10);
        p[0].store.put(obj(1), payload.clone()).unwrap();
        let (done, answers) = unbounded();
        for reader in &p[1..] {
            reader
                .agent
                .request_many(&[obj(1)], NodeId(0), Duration::from_secs(5), &done);
        }
        for _ in 0..3 {
            let (_, result) = answers.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(result.unwrap().0.as_ptr(), payload.as_ptr());
        }
        assert_eq!(p[0].agent.stats().handed_on.get(), 2);
        let forwarded = p.iter().map(|p| p.agent.stats().chunks_forwarded.get());
        assert!(forwarded.sum::<u64>() > 0);
        for peer in &p {
            assert_eq!(peer.store.get(obj(1)).unwrap().as_ptr(), payload.as_ptr());
            assert_eq!(peer.agent.stats().bytes_copied.get(), 0);
        }
    }

    /// A node whose object plane the test drives frame by frame: its
    /// endpoint, its store and agent, and the plane's core.
    fn driven(
        fabric: &Arc<Fabric>,
        directory: &Arc<TransferDirectory>,
        node: u32,
    ) -> (rtml_net::Endpoint, Peer, PlaneCore) {
        let store = Arc::new(ObjectStore::new(StoreConfig {
            node: NodeId(node),
            capacity_bytes: 16 << 20,
            chunk_bytes: 8 << 10,
        }));
        let endpoint = fabric.register(NodeId(node), "driven");
        let address = endpoint.address();
        let (agent, core) =
            FetchAgent::on_mailbox(fabric.clone(), store.clone(), directory, address);
        (endpoint, Peer { store, agent }, core)
    }

    /// Hands `core` the next frame to reach `endpoint`.
    fn step(endpoint: &rtml_net::Endpoint, core: &mut PlaneCore) {
        let frame = endpoint.receiver().recv_timeout(Duration::from_secs(5));
        core.on_frame(frame.expect("a frame"));
    }

    #[test]
    fn a_reader_whose_relay_goes_silent_completes_from_another_holder() {
        // 2 MB/s: each 8 KiB chunk of the 64 KiB object takes 4 ms. The
        // origin (node 0) and the relay (node 1) handle their frames on
        // this thread, one at a time, so where the relay is cut off from
        // its reader (node 2) is decided by frames, not by when a thread
        // wakes.
        let config = FabricConfig {
            latency: LatencyModel::Constant(Duration::from_micros(100)),
            bandwidth_bytes_per_sec: Some(2_000_000),
            ..FabricConfig::default()
        };
        let fabric = Fabric::new(config);
        let directory = TransferDirectory::new();
        let (origin_at, origin, mut origin_core) = driven(&fabric, &directory, 0);
        let (relay_at, relay, mut relay_core) = driven(&fabric, &directory, 1);
        let reader_store = Arc::new(ObjectStore::new(StoreConfig {
            node: NodeId(2),
            capacity_bytes: 16 << 20,
            chunk_bytes: 8 << 10,
        }));
        let reader = Peer {
            agent: FetchAgent::spawn(fabric.clone(), reader_store.clone(), &directory),
            store: reader_store,
        };
        let endpoints = fabric.endpoint_count();
        let payload = patterned(64 << 10);
        origin.store.put(obj(1), payload.clone()).unwrap();
        let (done, answers) = unbounded();
        // Node 1 reads from the origin; node 2 asks next and, the origin
        // still streaming to node 1, is handed on to it.
        relay
            .agent
            .request_many(&[obj(1)], NodeId(0), Duration::from_secs(5), &done);
        reader
            .agent
            .request_many(&[obj(1)], NodeId(0), Duration::from_millis(150), &done);
        step(&origin_at, &mut origin_core);
        step(&origin_at, &mut origin_core);
        assert_eq!(origin.agent.stats().handed_on.get(), 1);
        // The relay takes frames until it has sent its reader two chunks
        // (its catch-up and what it passed on since), and the link is cut
        // before it sends a third.
        let stats = relay.agent.stats();
        let to_reader = || stats.chunks_sent.get() + stats.chunks_forwarded.get();
        while to_reader() < 2 {
            step(&relay_at, &mut relay_core);
        }
        let sent = to_reader();
        assert!((2..8).contains(&sent), "{sent} chunks before the cut");
        fabric.partition(NodeId(1), NodeId(2));
        // The relay itself completes; its reader hears nothing more.
        let first = loop {
            if let Ok(answer) = answers.try_recv() {
                break answer;
            }
            step(&relay_at, &mut relay_core);
        };
        assert_eq!(first.1.unwrap().1.from, NodeId(0));
        assert_eq!(stats.relayed.get(), 1);
        assert_eq!(to_reader(), 8, "the relay sent its reader every chunk");
        // From here on the planes serve on their own.
        let origin_address = origin_at.address();
        let relay_address = relay_at.address();
        let planes = [
            std::thread::spawn(move || origin_core.run(&origin_at)),
            std::thread::spawn(move || relay_core.run(&relay_at)),
        ];
        let deadline = Instant::now() + Duration::from_secs(5);
        while reader.agent.stats().chunks_received.get() < sent {
            assert!(Instant::now() < deadline, "the chunks sent never arrived");
            std::thread::yield_now();
        }
        // Past its 150 ms timeout: nothing else is on its way to it.
        assert!(answers.recv_timeout(Duration::from_millis(200)).is_err());
        assert_eq!(reader.agent.stats().chunks_received.get(), sent);
        assert_eq!(reader.agent.in_flight_len(), 1);
        // The caller's retry, as `holders_ranked` would order it: the
        // origin again, which by now streams to nobody.
        let (data, fetched) = reader
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
        for peer in [&origin, &relay, &reader] {
            assert_eq!(peer.agent.in_flight_len(), 0);
            assert_eq!(peer.store.used_bytes(), payload.len() as u64);
        }
        assert_eq!(fabric.endpoint_count(), endpoints);
        fabric.unregister(origin_address);
        fabric.unregister(relay_address);
        for plane in planes {
            plane.join().unwrap();
        }
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
        assert_eq!(p[1].agent.stats().relayed.get(), 1);
        assert_eq!(p[1].agent.stats().misses_served.get(), 0);
        assert_eq!(p[2].agent.stats().misses_received.get(), 1);
        for peer in &p {
            assert_eq!(peer.agent.in_flight_len(), 0);
        }
    }

    #[test]
    fn duplicated_and_reordered_chunks_seal_one_object_once() {
        // Every stream is delivered twice and half of them draw a 3 ms
        // spike. A direct stream is one fault decision, so the reordering
        // happens on the relay hop, where every chunk is passed on as a
        // stream of its own. At 1 MB/s the object is 65 ms on the
        // origin's link: the second request is handed on, and reaches the
        // relay before its last chunk, though a loaded host wakes the
        // planes tens of milliseconds late.
        use rtml_net::{FaultPlan, LinkFault, LinkMatch};
        let config = FabricConfig {
            latency: LatencyModel::Constant(Duration::from_micros(100)),
            bandwidth_bytes_per_sec: Some(1_000_000),
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
        // Let the copies still in flight land (every link drained, then
        // a spiked flight): a chunk of an object that is already sealed
        // starts no second assembly.
        let drained = (0..3).map(|n| fabric.egress_backlog(NodeId(n))).max();
        std::thread::sleep(drained.unwrap_or_default() + Duration::from_millis(20));
        for reader in &p[1..] {
            assert_eq!(reader.agent.stats().objects_fetched.get(), 1);
            assert_eq!(reader.store.stats.puts.get(), 1);
            assert_eq!(reader.store.used_bytes(), payload.len() as u64);
            assert_eq!(reader.agent.in_flight_len(), 0);
        }
        // Whichever request the origin saw second was handed on (its
        // duplicate, by then the latest reader's own, was served). The
        // relay passed on only frames that were new to it.
        assert_eq!(p[0].agent.stats().handed_on.get(), 1);
        let relayed = p[1..].iter().map(|r| r.agent.stats().relayed.get());
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
        let stats = p[1].agent.stats();
        let payload = patterned(PUSH_MAX_BYTES);
        p[1].store.put(obj(1), payload.clone()).unwrap();
        let before = rtml_common::time::now_nanos();
        let push = |to: NodeId, object: ObjectId, data: &Bytes| p[1].agent.push(to, object, data);
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
        let x = Bytes::from_static(b"x");
        assert!(!push(NodeId(9), obj(2), &x));
        directory.remove(NodeId(0));
        assert!(!push(NodeId(0), obj(2), &x));
        let small_chunks = FetchAgent::spawn(
            fabric,
            Arc::new(ObjectStore::new(StoreConfig {
                node: NodeId(2),
                capacity_bytes: 1 << 20,
                chunk_bytes: 1024,
            })),
            &directory,
        );
        directory.insert(NodeId(0), p[0].agent.address());
        let split = patterned(4096);
        assert!(!small_chunks.push(NodeId(0), obj(2), &split));
        assert_eq!(stats.pushed.get(), 1);
        assert_eq!(small_chunks.stats().pushed.get(), 0);
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
        let _holder = FetchAgent::spawn(fabric.clone(), holder.clone(), &directory);
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
    fn serving_leaves_the_object_evictable() {
        // Serving sends windows of the sealed copy, which keep its bytes
        // alive on their own: nothing is pinned, before or after.
        let (_fabric, _directory, store0, _store1, _s0, agent) = setup_chunked(0, 64);
        let payload = Bytes::from(vec![9u8; 512]);
        store0.put(obj(1), payload.clone()).unwrap();
        let (data, _) = agent
            .fetch_one(obj(1), NodeId(0), Duration::from_secs(5))
            .unwrap();
        assert_eq!(data, payload);
        assert_eq!(store0.pinned_bytes(), 0);
        store0.put(obj(2), Bytes::from(vec![1u8; 1 << 20])).unwrap();
        assert!(!store0.contains(obj(1)));
    }
}
