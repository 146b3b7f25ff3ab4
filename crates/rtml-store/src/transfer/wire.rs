//! The object plane's wire format: three messages, encoded with the
//! rtml codec, and how many frames an object leaves a store in.

use bytes::Bytes;

use rtml_common::codec::{Codec, Reader, Writer};
use rtml_common::error::{Error, Result};
use rtml_common::ids::ObjectId;

/// Transfer wire messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(super) enum TransferMsg {
    /// "Send me these objects; reply to this address." K objects from
    /// one holder travel as one request frame. A node that hands a
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
pub(super) fn encode_chunk_frame(
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
