//! Assembly: an object created on this node but not yet sealed, filled
//! chunk by chunk as it arrives, passed on to the readers downstream,
//! and sealed into the store when the last of it lands.

use std::collections::hash_map::Entry;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::Sender;

use rtml_common::error::{Error, Result};
use rtml_common::ids::{NodeId, ObjectId};
use rtml_net::NetAddress;

use super::agent::Plane;
use super::{FetchResult, Fetched};
use crate::store::PutOutcome;

/// How long an unsolicited (orphan) reassembly buffer is retained, and
/// how long past its deadline a stranded transfer stays tracked.
pub(super) const ORPHAN_TTL: Duration = Duration::from_secs(5);

/// Only the plane's core (on the one thread that reads the plane's
/// mailbox) removes an entry or changes its chunks and destination, so
/// the entry it left is there when it relocks.
const ONLY_THE_AGENT: &str = "only the plane's core removes an entry";

/// One received chunk: the frame exactly as it arrived (what a relay
/// passes on), the payload window inside it, and when the frame left
/// its sender (nanos since the process epoch).
pub(super) struct Chunk {
    pub(super) frame: Bytes,
    pub(super) payload: Bytes,
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
    /// The object's length in bytes, as the chunk headers name it.
    size: usize,
    /// Where a multi-chunk object is assembled: allocated once, at the
    /// object's exact size, and appended to in index order. `None`
    /// before the first chunk and while the agent has it out for a copy.
    dest: Option<Vec<u8>>,
    /// Chunks appended to `dest` so far.
    copied: usize,
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
            size: 0,
            dest: None,
            copied: 0,
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
    /// records it, passes it on downstream, appends whatever has become
    /// contiguous to the destination, and seals the object when that
    /// was the last of it. Returns `false` for a chunk whose header is
    /// out of bounds — dropped before anything is allocated for it — or
    /// whose object does not add up to the size its headers name.
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
            entry.size = size;
            entry.dest = None;
            entry.copied = 0;
        }
        if entry.chunks[index].is_some() {
            // A duplicate: nothing new to keep or pass on.
            return true;
        }
        entry.upstream = entry.upstream.or(from);
        let forward = match entry.downstream.is_empty() {
            true => None,
            false => Some((entry.downstream.clone(), chunk.frame.clone())),
        };
        entry.chunks[index] = Some(chunk);
        if let Some((readers, frame)) = forward {
            // Pass it on before copying it, the table unlocked: the next
            // node's copy overlaps this one's.
            drop(unsealed);
            for reader in readers {
                if self
                    .fabric
                    .send_chunks(self.address, reader, vec![frame.clone()])
                    .is_ok()
                {
                    self.stats.chunks_forwarded.inc();
                }
            }
            unsealed = self.unsealed.lock();
        }

        // Append what has become contiguous.
        loop {
            let entry = unsealed.get_mut(&object).expect(ONLY_THE_AGENT);
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
            // The copy runs with the table unlocked: a requester never
            // waits on a memcpy.
            drop(unsealed);
            dest.extend_from_slice(&payload);
            unsealed = self.unsealed.lock();
            let entry = unsealed.get_mut(&object).expect(ONLY_THE_AGENT);
            entry.dest = Some(dest);
            entry.copied += 1;
        }
        // Seal while still holding the table lock: a concurrent request
        // either finds this entry or finds the object in the store —
        // never neither.
        let mut entry = unsealed.remove(&object).expect(ONLY_THE_AGENT);
        let bytes = match entry.dest.take() {
            Some(dest) => Bytes::from(dest),
            None => entry.chunks[0].take().expect("all chunks received").payload,
        };
        let complete = bytes.len() == size;
        let from = entry.upstream.unwrap_or(self.store.node());
        let result: Result<PutOutcome> = match complete {
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
