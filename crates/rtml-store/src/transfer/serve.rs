//! Serving and relaying: how a node answers a `Request` — from its
//! sealed copy, by handing it on to an earlier reader it is still
//! streaming the object to, or from a copy it is still receiving.

use std::time::Instant;

use bytes::Bytes;

use rtml_common::codec::encode_to_bytes;
use rtml_common::collections::IdMap;
use rtml_common::ids::{NodeId, ObjectId};
use rtml_net::NetAddress;

use super::agent::Plane;
use super::wire::{chunk_frame, chunk_frames, Frame, TransferMsg};

/// The reader a node last streamed (or handed) an object to, and when
/// its own egress link will have drained that stream.
struct Streaming {
    reader: NodeId,
    until: Instant,
}

/// The serving state of a node's object plane, owned by its core.
#[derive(Default)]
pub(super) struct Server {
    /// Multi-chunk objects still leaving this node's egress link.
    streaming: IdMap<ObjectId, Streaming>,
}

impl Server {
    /// Answers one `Request` frame with one reply stream: all chunks of
    /// all objects share a single propagation-delay sample.
    pub(super) fn serve(&mut self, plane: &Plane, objects: Vec<ObjectId>, reply_to: u64) {
        plane.stats.requests.inc();
        let reader = NetAddress::from_u64(reply_to);
        let chunk_bytes = plane.store.chunk_bytes() as usize;
        let now = Instant::now();
        self.streaming.retain(|_, s| s.until > now);
        let mut frames = Vec::new();
        let mut streamed = Vec::new();
        for object in objects {
            if self.hand_on(plane, object, reader) {
                continue;
            }
            if let Some(have) = plane.relay(object, reader) {
                plane.stats.relayed.inc();
                plane.stats.chunks_sent.add(have.len() as u64);
                frames.extend(have);
                continue;
            }
            match plane.store.get(object) {
                Some(data) => {
                    plane.stats.objects_served.inc();
                    // Each chunk's body is a window of the sealed copy.
                    let (size, total) = (data.len(), chunk_frames(data.len(), chunk_bytes));
                    for index in 0..total {
                        let a = index * chunk_bytes;
                        let b = match index + 1 == total {
                            true => size,
                            false => a + chunk_bytes,
                        };
                        let body = data.slice(a..b);
                        let frame =
                            chunk_frame(object, index as u32, total as u32, size as u64, body);
                        frames.push(frame);
                    }
                    plane.stats.chunks_sent.add(total as u64);
                    if total > 1 {
                        streamed.push(object);
                    }
                }
                None => {
                    plane.stats.misses_served.inc();
                    let missing = encode_to_bytes(&TransferMsg::Missing { object });
                    frames.push((missing, Bytes::new()));
                }
            }
        }
        if plane
            .fabric
            .send_chunks_with_bodies(plane.address, reader, frames)
            .is_err()
        {
            plane.stats.send_failures.inc();
        } else if !streamed.is_empty() {
            if let Some(reader) = plane.fabric.node_of(reader) {
                let until = Instant::now() + plane.fabric.egress_backlog(plane.store.node());
                for object in streamed {
                    self.streaming.insert(object, Streaming { reader, until });
                }
            }
        }
    }

    /// Hands a request for `object` on to the earlier reader it is
    /// still being streamed to. A single-chunk object is never handed
    /// on: with nothing to pipeline, a relay only adds a hop.
    fn hand_on(&mut self, plane: &Plane, object: ObjectId, reader: NetAddress) -> bool {
        let Some(stream) = self.streaming.get_mut(&object) else {
            return false;
        };
        // Asked only now: a request that finds nothing streaming never
        // takes the fabric's routing lock for it.
        let reader_node = plane.fabric.node_of(reader);
        if Some(stream.reader) == reader_node {
            return false;
        }
        let Some(earlier) = plane.directory.lookup(stream.reader) else {
            return false;
        };
        let request = TransferMsg::Request {
            objects: vec![object],
            reply_to: reader.as_u64(),
        };
        if plane
            .fabric
            .send(plane.address, earlier, encode_to_bytes(&request))
            .is_err()
        {
            return false;
        }
        plane.stats.handed_on.inc();
        if let Some(node) = reader_node {
            stream.reader = node;
        }
        true
    }
}

impl Plane {
    /// If this node is still receiving `object`, registers `reader`
    /// downstream of it and returns the chunk frames received so far;
    /// the assembly passes on every later frame as it arrives.
    fn relay(&self, object: ObjectId, reader: NetAddress) -> Option<Vec<Frame>> {
        let mut unsealed = self.unsealed.lock();
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
