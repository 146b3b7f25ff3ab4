//! The agent: a node's one object-plane endpoint and thread, and the
//! calls through which the node asks for objects and pushes results.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::{Mutex, RwLock};

use rtml_common::codec::{decode_from_bytes, encode_to_bytes};
use rtml_common::error::Error;
use rtml_common::ids::{NodeId, ObjectId};
use rtml_net::{Endpoint, Fabric, NetAddress};

use super::assembly::{Chunk, Unsealed};
use super::serve::Server;
use super::wire::{chunk_frames, encode_chunk_frame, TransferMsg};
use super::{FetchResult, Fetched, TransferDirectory, TransferStats, PUSH_MAX_BYTES};
use crate::store::ObjectStore;

/// What an agent's callers and its thread share.
pub(super) struct Plane {
    pub(super) fabric: Arc<Fabric>,
    pub(super) store: Arc<ObjectStore>,
    pub(super) directory: TransferDirectory,
    pub(super) address: NetAddress,
    /// Most chunks an object that fits the store can arrive in; a chunk
    /// header claiming more is corrupt and is dropped before anything
    /// is allocated for it.
    pub(super) max_chunks: usize,
    /// Where objects sealed with no waiter left to answer go.
    pub(super) unclaimed: RwLock<Option<Sender<(ObjectId, FetchResult)>>>,
    pub(super) stats: Arc<TransferStats>,
    /// Objects created on this node but not yet sealed. Callers add
    /// waiters and requests; only the agent's thread assembles, seals,
    /// relays from or removes an entry. Locked before the store's own
    /// state, never after it.
    pub(super) unsealed: Mutex<HashMap<ObjectId, Unsealed>>,
}

/// A node's object plane: one persistent endpoint and one thread that
/// serves its peers' requests (chunked, coalesced, relayed) and
/// assembles the answers to its own, plus the calls through which the
/// node asks (coalesced multi-object requests, single-flighted
/// concurrent fetches) and pushes. Steady-state fetching registers
/// **zero** new fabric endpoints.
pub struct FetchAgent {
    plane: Arc<Plane>,
    handle: Mutex<Option<std::thread::JoinHandle<()>>>,
}

/// The name the perf ledger's pinned surface spawns a holder's object
/// plane under (`TransferService::{spawn, shutdown}`); it exists only
/// for that surface, and nothing in this repository uses it.
pub type TransferService = FetchAgent;

/// How often the agent's thread reaps transfers that died without an
/// answer, when no frame gives it a turn sooner.
const REAP_EVERY: Duration = Duration::from_secs(1);

impl FetchAgent {
    /// Spawns the object plane of `store`'s node and lists it in
    /// `directory`.
    pub fn spawn(
        fabric: Arc<Fabric>,
        store: Arc<ObjectStore>,
        directory: impl AsRef<TransferDirectory>,
    ) -> FetchAgent {
        let node = store.node();
        let endpoint = fabric.register(node, "transfer");
        let directory = directory.as_ref().clone();
        directory.insert(node, endpoint.address());
        let max_chunks = store.capacity_bytes().div_ceil(store.chunk_bytes()).max(1);
        let plane = Arc::new(Plane {
            address: endpoint.address(),
            max_chunks: usize::try_from(max_chunks).unwrap_or(usize::MAX),
            fabric,
            store,
            directory,
            unclaimed: RwLock::new(None),
            stats: Arc::new(TransferStats::default()),
            unsealed: Mutex::new(HashMap::new()),
        });
        let turns = plane.clone();
        let handle = std::thread::Builder::new()
            .name(format!("rtml-transfer-{node}"))
            .spawn(move || run(&turns, &endpoint))
            .expect("spawn object plane");
        FetchAgent {
            plane,
            handle: Mutex::new(Some(handle)),
        }
    }

    /// The node's object-plane counters (shared with its thread).
    pub fn stats(&self) -> &Arc<TransferStats> {
        &self.plane.stats
    }

    /// The agent's persistent address.
    pub fn address(&self) -> NetAddress {
        self.plane.address
    }

    /// Names the standing owner of what nobody is waiting for: an
    /// object this agent seals with no waiter left to answer — a result
    /// pushed by its producer, a reply that outlived everyone who asked
    /// for it — is reported on `sink` like the answer to a request, so
    /// its location is committed and whatever its `put` evicted is
    /// dropped from the table. Without a sink such an arrival is stored
    /// and nobody is told (a bare agent in a test).
    pub fn deliver_unclaimed_to(&self, sink: Sender<(ObjectId, FetchResult)>) {
        *self.plane.unclaimed.write() = Some(sink);
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
        let _sealing = self.plane.unsealed.lock();
        let taken = answers.try_iter().collect();
        drop(answers);
        taken
    }

    /// Number of transfers currently tracked on this node (in flight, or
    /// stranded and awaiting the agent's reap); their buffers are not
    /// part of [`ObjectStore::used_bytes`]. Leak detector.
    pub fn in_flight_len(&self) -> usize {
        self.plane.unsealed.lock().len()
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
        let plane = &self.plane;
        let Some(remote) = plane.directory.lookup(holder) else {
            for &object in objects {
                let _ = done.send((object, Err(Error::NodeDown(holder))));
            }
            return;
        };
        let now = Instant::now();
        let deadline = now + timeout;
        let mut to_request: Vec<ObjectId> = Vec::new();
        {
            let mut unsealed = plane.unsealed.lock();
            for &object in objects {
                if let Some(bytes) = plane.store.get(object) {
                    let hit = Fetched {
                        inserted: false,
                        evicted: Vec::new(),
                        from: plane.store.node(),
                        pushed_at_nanos: None,
                    };
                    let _ = done.send((object, Ok((bytes, hit))));
                    continue;
                }
                match unsealed.get_mut(&object) {
                    Some(entry) if entry.expires_at > now => {
                        // Single flight: join the in-flight transfer.
                        entry.waiters.push(done.clone());
                        plane.stats.duplicates_suppressed.inc();
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
                        plane.stats.transfers.inc();
                    }
                }
            }
        }

        if !to_request.is_empty() {
            plane.stats.requests_sent.inc();
            let request = TransferMsg::Request {
                objects: to_request.clone(),
                reply_to: plane.address.as_u64(),
            };
            if plane
                .fabric
                .send(plane.address, remote, encode_to_bytes(&request))
                .is_err()
            {
                // The holder's endpoint is gone: fail everything we just
                // put in flight toward it. The entries stay, expired, so
                // the next request re-requests; the agent's reap drops
                // them if none comes.
                let mut unsealed = plane.unsealed.lock();
                for object in to_request {
                    if let Some(entry) = unsealed.get_mut(&object) {
                        entry.expires_at = now;
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
                    self.plane.stats.timeouts.inc();
                    Err(Error::Timeout)
                })
            })
            .collect()
    }

    /// Sends the sealed bytes of `object`, unasked, to the object plane
    /// of node `to` — the frame a request would have been answered
    /// with, so the receiving agent needs no second code path: it seals
    /// an object nobody asked for as it always has, and hands it to its
    /// standing sink ([`FetchAgent::deliver_unclaimed_to`]) to be
    /// committed. Sent as a lone control frame ([`Fabric::send`]), from
    /// the caller's thread.
    ///
    /// Returns whether the fabric accepted the frame — only then may the
    /// caller announce the copy. Nothing is sent for a value over
    /// [`PUSH_MAX_BYTES`] or one a request would have split into several
    /// chunks, or when either end is gone (`to` not in the directory,
    /// this agent shut down).
    pub fn push(&self, to: NodeId, object: ObjectId, data: &[u8]) -> bool {
        let plane = &self.plane;
        let chunk_bytes = plane.store.chunk_bytes() as usize;
        if data.len() > PUSH_MAX_BYTES || chunk_frames(data.len(), chunk_bytes) != 1 {
            return false;
        }
        let Some(agent) = plane.directory.lookup(to) else {
            return false;
        };
        let frame = encode_chunk_frame(object, 0, 1, data.len() as u64, data);
        let sent = plane.fabric.send(plane.address, agent, frame).is_ok();
        if sent {
            plane.stats.pushed.inc();
            plane.stats.chunks_sent.inc();
        }
        sent
    }

    /// Stops the object plane: unregisters its endpoint, joins its
    /// thread, and drops the unsealed table with it — whoever still
    /// waits on an entry sees its channel close.
    pub fn shutdown(&self) {
        self.plane.fabric.unregister(self.plane.address);
        let mut handle = self.handle.lock();
        if let Some(handle) = handle.take() {
            let _ = handle.join();
        }
        self.plane.unsealed.lock().clear();
    }
}

impl Drop for FetchAgent {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The agent's thread: one loop over every frame that reaches the node's
/// object plane, and the reap of transfers that died without an answer.
fn run(plane: &Plane, endpoint: &Endpoint) {
    let mut server = Server::default();
    // The node behind each sender seen so far (an address is never
    // reused): naming a chunk's upstream takes the fabric's routing lock
    // once per sender, not once per object.
    let mut senders: HashMap<NetAddress, Option<NodeId>> = HashMap::new();
    let mut next_reap = Instant::now() + REAP_EVERY;
    loop {
        let wait = next_reap.saturating_duration_since(Instant::now());
        match endpoint.receiver().recv_timeout(wait) {
            // Decoded over the frame itself: a chunk's payload is a
            // window of `delivery.payload`.
            Ok(delivery) => match decode_from_bytes::<TransferMsg>(&delivery.payload) {
                Ok(TransferMsg::Request { objects, reply_to }) => {
                    server.serve(plane, objects, reply_to)
                }
                Ok(TransferMsg::Chunk {
                    object,
                    index,
                    total,
                    size,
                    payload,
                }) => {
                    plane.stats.chunks_received.inc();
                    let from = *senders
                        .entry(delivery.from)
                        .or_insert_with(|| plane.fabric.node_of(delivery.from));
                    let chunk = Chunk {
                        frame: delivery.payload,
                        payload,
                        sent_at_nanos: delivery.sent_at_nanos,
                    };
                    if !plane.on_chunk(from, object, index, total, size, chunk) {
                        plane.stats.bad_chunks.inc();
                    }
                }
                Ok(TransferMsg::Missing { object }) => plane.on_missing(object, delivery.payload),
                Err(_) => plane.stats.decode_errors.inc(),
            },
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
        let now = Instant::now();
        if now >= next_reap {
            plane.reap(now);
            next_reap = now + REAP_EVERY;
        }
    }
}
