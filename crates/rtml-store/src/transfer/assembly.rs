//! Assembly: an object created on this node but not yet sealed, filled
//! chunk by chunk as it arrives, passed on to the readers downstream,
//! and sealed into the store — its chunk windows joined — when the last
//! of it lands.

use std::collections::hash_map::Entry;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::Sender;

use rtml_common::error::{Error, Result};
use rtml_common::ids::{NodeId, ObjectId};
use rtml_net::NetAddress;

use super::agent::Plane;
use super::wire::Frame;
use super::{FetchResult, Fetched};
use crate::store::PutOutcome;

/// How long an unsolicited (orphan) reassembly buffer is retained, and
/// how long past its deadline a stranded transfer stays tracked.
pub(super) const ORPHAN_TTL: Duration = Duration::from_secs(5);

/// One received chunk: the frame exactly as it arrived — its header
/// and its body, a window of the sealed copy it was served from — which
/// is what a relay passes on, and when the frame left its sender (nanos
/// since the process epoch).
pub(super) struct Chunk {
    pub(super) frame: Frame,
    pub(super) sent_at_nanos: u64,
}

/// An object created on this node but not yet sealed: requested by the
/// node's agent, perhaps partly received, perhaps being relayed.
pub(super) struct Unsealed {
    /// The `done` channel of every request waiting on this transfer.
    pub(super) waiters: Vec<Sender<(ObjectId, FetchResult)>>,
    pub(super) expires_at: Instant,
    /// Chunks received so far, by index.
    pub(super) chunks: Vec<Option<Chunk>>,
    /// How many of `chunks` are there.
    received: usize,
    /// The object's length in bytes, as the chunk headers name it.
    size: usize,
    /// Reply addresses of readers downstream of this node.
    pub(super) downstream: Vec<NetAddress>,
    /// The node that fed the first chunk.
    upstream: Option<NodeId>,
    /// Set for an entry a frame opened, not a request: when that frame
    /// left its sender.
    unasked_at_nanos: Option<u64>,
}

impl Unsealed {
    pub(super) fn new(expires_at: Instant) -> Unsealed {
        Unsealed {
            waiters: Vec::new(),
            expires_at,
            chunks: Vec::new(),
            received: 0,
            size: 0,
            downstream: Vec::new(),
            upstream: None,
            unasked_at_nanos: None,
        }
    }

    /// Answers (and forgets) every waiter; whether any of them was still
    /// there to hear it.
    pub(super) fn answer(&mut self, object: ObjectId, result: &FetchResult) -> bool {
        let mut heard = false;
        for w in self.waiters.drain(..) {
            heard |= w.send((object, result.clone())).is_ok();
        }
        heard
    }
}

impl Plane {
    /// Takes one chunk of `object`, fed by node `from`: checks its
    /// header against what an object that fits the store can be,
    /// records it, passes it on downstream, and seals the object when
    /// that was the last of it. Returns `false` for a chunk whose header
    /// is out of bounds — dropped before anything is allocated for it —
    /// or whose object does not add up to the size its headers name.
    pub(super) fn on_chunk(
        &self,
        from: Option<NodeId>,
        object: ObjectId,
        index: u32,
        total: u32,
        size: u64,
        chunk: Chunk,
    ) -> bool {
        let (index, total) = (index as usize, total.max(1) as usize);
        let size = usize::try_from(size).unwrap_or(usize::MAX);
        if index >= total || total > self.max_chunks || size as u64 > self.store.capacity_bytes() {
            return false;
        }
        let mut unsealed = self.unsealed.lock();
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
            entry.chunks = (0..total).map(|_| None).collect();
            entry.received = 0;
            entry.size = size;
        }
        if entry.chunks[index].is_some() {
            // A duplicate: nothing new to keep or pass on.
            return true;
        }
        entry.upstream = entry.upstream.or(from);
        for reader in &entry.downstream {
            let frame = chunk.frame.clone();
            if self
                .fabric
                .send_chunks_with_bodies(self.address, *reader, vec![frame])
                .is_ok()
            {
                self.stats.chunks_forwarded.inc();
            }
        }
        entry.chunks[index] = Some(chunk);
        entry.received += 1;
        if entry.received < total {
            return true;
        }
        // Seal while still holding the table lock: a concurrent request
        // either finds this entry or finds the object in the store —
        // never neither.
        let mut entry = unsealed.remove(&object).expect("the entry just filled");
        let bodies = entry.chunks.iter().flatten().map(|chunk| &chunk.frame.1);
        let joined = self.join(bodies, size);
        let complete = joined.is_some();
        let from = entry.upstream.unwrap_or(self.store.node());
        let result: Result<(Bytes, PutOutcome)> = match joined {
            Some(bytes) => self
                .store
                .put(object, bytes.clone())
                .map(|put| (bytes, put)),
            None => Err(Error::Codec(format!(
                "{object} did not arrive as the {size} bytes its headers name"
            ))),
        };
        if result.is_ok() {
            self.stats.objects_fetched.inc();
            if entry.unasked_at_nanos.is_some() {
                self.stats.pushes_received.inc();
            }
        }
        let pushed_at_nanos = entry.unasked_at_nanos;
        let answer = result.map(|(bytes, PutOutcome { inserted, evicted })| {
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

    /// The object that `bodies`, in index order, make up: their windows
    /// joined, copying nothing, when each starts where the one before it
    /// ends in one buffer — always so for a stream served from one
    /// sealed copy, relayed or not. Bodies from different buffers (a
    /// stream re-requested from another holder partway through) are
    /// copied once, into a buffer of exactly `size` bytes, and the copy
    /// is counted. `None` when they do not add up to `size`.
    fn join<'a>(
        &self,
        bodies: impl Iterator<Item = &'a Bytes> + Clone,
        size: usize,
    ) -> Option<Bytes> {
        if bodies.clone().map(Bytes::len).sum::<usize>() != size {
            return None;
        }
        let joined = bodies
            .clone()
            .try_fold(Bytes::new(), |joined, body| joined.try_join(body));
        Some(joined.unwrap_or_else(|| {
            let mut copy = Vec::with_capacity(size);
            bodies.for_each(|body| copy.extend_from_slice(body));
            self.stats.bytes_copied.add(size as u64);
            Bytes::from(copy)
        }))
    }

    /// The holder no longer has `object`: its waiters hear so, and so
    /// do the readers downstream, whose request never reached anyone
    /// else — they are sent `frame`, the `Missing` that arrived here.
    pub(super) fn on_missing(&self, object: ObjectId, frame: Bytes) {
        self.stats.misses_received.inc();
        let entry = self.unsealed.lock().remove(&object);
        if let Some(mut entry) = entry {
            for reader in &entry.downstream {
                let _ = self.fabric.send(self.address, *reader, frame.clone());
            }
            entry.answer(object, &Err(Error::ObjectNotFound(object)));
        }
    }

    /// Drops transfers that died without an answer (holder gone
    /// mid-stream, dropped partition traffic): past their deadline plus
    /// [`ORPHAN_TTL`] they will never complete, and their waiters have
    /// long given up.
    pub(super) fn reap(&self, now: Instant) {
        self.unsealed
            .lock()
            .retain(|_, entry| now < entry.expires_at + ORPHAN_TTL);
    }
}
