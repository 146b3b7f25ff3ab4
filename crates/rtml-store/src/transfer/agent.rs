//! The agent: the calls through which a node asks for objects and
//! pushes results, and the core that handles every frame reaching the
//! node's object plane — run by the node's control loop, or by a thread
//! of its own for an agent that stands alone.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::{Mutex, RwLock};

use rtml_common::codec::{decode_from_slice, encode_to_bytes, Tagged};
use rtml_common::collections::IdMap;
use rtml_common::error::Error;
use rtml_common::ids::{NodeId, ObjectId};
use rtml_net::{Delivery, Endpoint, Fabric, NetAddress};

use super::assembly::{Chunk, Unsealed};
use super::serve::Server;
use super::wire::{chunk_frame, chunk_frames, TransferMsg};
use super::{FetchResult, Fetched, TransferDirectory, TransferStats, PUSH_MAX_BYTES};
use crate::store::ObjectStore;

/// What an agent's callers and its core share.
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
    /// waiters and requests; only the core assembles, seals, relays from
    /// or removes an entry. Locked before the store's own state and the
    /// fabric's routing (a chunk is passed on downstream under it),
    /// never after either.
    pub(super) unsealed: Mutex<IdMap<ObjectId, Unsealed>>,
}

/// A node's object plane, as its callers see it: the calls through
/// which the node asks (coalesced multi-object requests, single-flighted
/// concurrent fetches) and pushes. Its frames — peers' requests to serve
/// (chunked, coalesced, relayed) and the answers to its own — are
/// handled by its [`PlaneCore`], on the thread that reads the plane's
/// mailbox. Steady-state fetching registers **zero** new fabric
/// endpoints.
pub struct FetchAgent {
    plane: Arc<Plane>,
    /// The thread of an agent that stands alone ([`FetchAgent::spawn`]);
    /// `None` when the node's control loop runs the core
    /// ([`FetchAgent::on_mailbox`]).
    handle: Mutex<Option<std::thread::JoinHandle<()>>>,
}

/// The name the perf ledger's pinned surface spawns a holder's object
/// plane under (`TransferService::{spawn, shutdown}`); it exists only
/// for that surface, and nothing in this repository uses it.
pub type TransferService = FetchAgent;

/// How often the core reaps transfers that died without an answer.
const REAP_EVERY: Duration = Duration::from_secs(1);

impl FetchAgent {
    /// An object plane that stands alone: `store`'s node gets an
    /// endpoint for it and a thread that runs its core, and is listed in
    /// `directory`. A cluster node has no such thread — its control
    /// loop runs the core ([`FetchAgent::on_mailbox`]); this is the
    /// plane of a bare store (tests, probes, benches).
    pub fn spawn(
        fabric: Arc<Fabric>,
        store: Arc<ObjectStore>,
        directory: impl AsRef<TransferDirectory>,
    ) -> FetchAgent {
        let node = store.node();
        let endpoint = fabric.register(node, "transfer");
        let (agent, mut core) =
            FetchAgent::on_mailbox(fabric, store, directory, endpoint.address());
        let thread = std::thread::Builder::new()
            .name(format!("rtml-transfer-{node}"))
            .spawn(move || core.run(&endpoint))
            .expect("spawn object plane");
        *agent.handle.lock() = Some(thread);
        agent
    }

    /// An object plane with no thread of its own: its frames arrive in
    /// the mailbox at `address` — the node's one endpoint, which its
    /// control loop reads — and the loop hands each frame the returned
    /// core [`takes`](PlaneCore::takes) to [`PlaneCore::on_frame`].
    /// `store`'s node is listed in `directory` at `address`. The loop
    /// owns that endpoint and withdraws it when it stops; neither
    /// [`FetchAgent::shutdown`] nor dropping the agent touches it.
    pub fn on_mailbox(
        fabric: Arc<Fabric>,
        store: Arc<ObjectStore>,
        directory: impl AsRef<TransferDirectory>,
        address: NetAddress,
    ) -> (FetchAgent, PlaneCore) {
        let directory = directory.as_ref().clone();
        directory.insert(store.node(), address);
        let max_chunks = store.capacity_bytes().div_ceil(store.chunk_bytes()).max(1);
        let plane = Arc::new(Plane {
            address,
            max_chunks: usize::try_from(max_chunks).unwrap_or(usize::MAX),
            fabric,
            store,
            directory,
            unclaimed: RwLock::new(None),
            stats: Arc::new(TransferStats::default()),
            unsealed: Mutex::new(IdMap::default()),
        });
        let core = PlaneCore {
            plane: plane.clone(),
            server: Server::default(),
            senders: HashMap::new(),
            next_reap: Instant::now() + REAP_EVERY,
        };
        let agent = FetchAgent {
            plane,
            handle: Mutex::new(None),
        };
        (agent, core)
    }

    /// The node's object-plane counters (shared with its core).
    pub fn stats(&self) -> &Arc<TransferStats> {
        &self.plane.stats
    }

    /// The plane's persistent address.
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
    /// stranded and awaiting the core's reap); their buffers are not
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
                // the next request re-requests; the core's reap drops
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
        let mut positions: IdMap<ObjectId, Vec<usize>> = IdMap::default();
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
    /// with, its body the sealed buffer itself, so the receiving core
    /// needs no second code path: it seals an object nobody asked for
    /// as it always has, and hands it to its standing sink
    /// ([`FetchAgent::deliver_unclaimed_to`]) to be committed. Sent as a
    /// lone control frame ([`Fabric::send_with_body`]), from the
    /// caller's thread.
    ///
    /// Returns whether the fabric accepted the frame — only then may the
    /// caller announce the copy. Nothing is sent for a value over
    /// [`PUSH_MAX_BYTES`] or one a request would have split into several
    /// chunks, or when either end is gone (`to` not in the directory,
    /// this agent shut down).
    pub fn push(&self, to: NodeId, object: ObjectId, data: &Bytes) -> bool {
        let plane = &self.plane;
        let chunk_bytes = plane.store.chunk_bytes() as usize;
        if data.len() > PUSH_MAX_BYTES || chunk_frames(data.len(), chunk_bytes) != 1 {
            return false;
        }
        let Some(agent) = plane.directory.lookup(to) else {
            return false;
        };
        let (header, body) = chunk_frame(object, 0, 1, data.len() as u64, data.clone());
        let sent = plane
            .fabric
            .send_with_body(plane.address, agent, header, body)
            .is_ok();
        if sent {
            plane.stats.pushed.inc();
            plane.stats.chunks_sent.inc();
        }
        sent
    }

    /// Stops an agent that stands alone: unregisters its address, joins
    /// its thread and drops the unsealed table — whoever still waits on
    /// an entry sees its channel close. Does nothing to a plane built
    /// [`on_mailbox`](FetchAgent::on_mailbox): the loop that reads that
    /// mailbox owns the endpoint and the core, and stops them itself.
    pub fn shutdown(&self) {
        let Some(thread) = self.handle.lock().take() else {
            return;
        };
        self.plane.fabric.unregister(self.plane.address);
        let _ = thread.join();
        self.plane.unsealed.lock().clear();
    }
}

impl Drop for FetchAgent {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The frame-handling half of a node's object plane, owned by the one
/// thread that reads the plane's mailbox: it serves peers' requests,
/// assembles and relays the answers to the node's own, and reaps
/// transfers that died without an answer. Dropping it drops the
/// unsealed table, as [`FetchAgent::shutdown`] does.
pub struct PlaneCore {
    plane: Arc<Plane>,
    server: Server,
    /// The node behind each sender seen so far (an address is never
    /// reused): naming a chunk's upstream takes the fabric's routing
    /// lock once per sender, not once per object.
    senders: HashMap<NetAddress, Option<NodeId>>,
    next_reap: Instant,
}

impl PlaneCore {
    /// Whether `payload` is an object-plane frame. The plane's message
    /// tags are disjoint from the scheduler's, so a node reads both
    /// protocols from one mailbox: what this takes goes to
    /// [`PlaneCore::on_frame`], the rest is the scheduler's.
    pub fn takes(payload: &[u8]) -> bool {
        payload
            .first()
            .is_some_and(|tag| TransferMsg::TAGS.contains(tag))
    }

    /// Handles one frame that reached the plane: serves a `Request`,
    /// assembles (and passes on) a `Chunk`, fails the waiters of a
    /// `Missing`. Never blocks.
    pub fn on_frame(&mut self, delivery: Delivery) {
        let plane = &*self.plane;
        match decode_from_slice::<TransferMsg>(&delivery.payload) {
            Ok(TransferMsg::Request { objects, reply_to }) => {
                self.server.serve(plane, objects, reply_to)
            }
            Ok(TransferMsg::Chunk {
                object,
                index,
                total,
                size,
                len,
            }) => {
                plane.stats.chunks_received.inc();
                let from = *self
                    .senders
                    .entry(delivery.from)
                    .or_insert_with(|| plane.fabric.node_of(delivery.from));
                let fits = len == delivery.body.len() as u64;
                let chunk = Chunk {
                    frame: (delivery.payload, delivery.body),
                    sent_at_nanos: delivery.sent_at_nanos,
                };
                if !fits || !plane.on_chunk(from, object, index, total, size, chunk) {
                    plane.stats.bad_chunks.inc();
                }
            }
            Ok(TransferMsg::Missing { object }) => plane.on_missing(object, delivery.payload),
            Err(_) => plane.stats.decode_errors.inc(),
        }
    }

    /// When the core next wants a turn if no frame gives it one.
    pub fn next_tick(&self) -> Instant {
        self.next_reap
    }

    /// The core's timed work, when it is due: the transfers stranded
    /// past their deadline are dropped for good.
    pub fn tick(&mut self, now: Instant) {
        if now >= self.next_reap {
            self.plane.reap(now);
            self.next_reap = now + REAP_EVERY;
        }
    }

    /// Serves the plane alone: every frame reaching `endpoint`, and the
    /// ticks between them, until the endpoint's address is withdrawn.
    /// A stand-alone agent's thread runs this, and so does a node's
    /// control loop once it has stopped scheduling; a scheduler frame
    /// that reaches it then (a placement racing the node's shutdown) is
    /// dropped as a decode error.
    pub fn run(&mut self, endpoint: &Endpoint) {
        loop {
            let wait = self.next_tick().saturating_duration_since(Instant::now());
            match endpoint.receiver().recv_timeout(wait) {
                Ok(delivery) => self.on_frame(delivery),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }
            self.tick(Instant::now());
        }
    }
}

impl Drop for PlaneCore {
    fn drop(&mut self) {
        self.plane.unsealed.lock().clear();
    }
}
