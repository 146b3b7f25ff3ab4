//! The object plane's wire format: three messages, encoded with the
//! rtml codec, how a chunk travels — its encoded header and, beside it,
//! a window of the sealed object — and how many frames an object leaves
//! a store in.

use bytes::Bytes;

use rtml_common::codec::encode_to_bytes;
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
    /// The header of one size-capped piece of an object's payload: the
    /// piece itself is the frame's body, `len` bytes. `total` is the
    /// number of chunks the object was split into and `size` its length
    /// in bytes.
    Chunk {
        object: ObjectId,
        index: u32,
        total: u32,
        size: u64,
        len: u64,
    },
    /// The holder no longer has the object (evicted or crashed between
    /// lookup and request).
    Missing { object: ObjectId },
}

rtml_common::impl_codec_enum!(TransferMsg {
    0 => Request { objects, reply_to },
    1 => Chunk { object, index, total, size, len },
    2 => Missing { object },
});

/// A frame as the object plane hands it to the fabric: the encoded
/// message, and a chunk's body — empty for the other messages.
pub(super) type Frame = (Bytes, Bytes);

/// Chunk `index` of the `total` that `object`, `size` bytes in all, is
/// sent in: its header, and `body` as it is — a window of the sealed
/// copy, never copied.
pub(super) fn chunk_frame(
    object: ObjectId,
    index: u32,
    total: u32,
    size: u64,
    body: Bytes,
) -> Frame {
    let len = body.len() as u64;
    let header = TransferMsg::Chunk {
        object,
        index,
        total,
        size,
        len,
    };
    (encode_to_bytes(&header), body)
}

/// A tail shorter than this share of a chunk rides in the last full
/// frame instead of a frame of its own.
const TAIL_SHARE: usize = 16;

/// How many frames an object of `size` bytes leaves a store in:
/// ⌈size / chunk⌉, except that a tail under a sixteenth of a chunk is
/// absorbed by the frame before it. A sealed value is its payload plus
/// at most 11 envelope bytes, so without the exception a 256 KiB block
/// would travel as a frame and a sliver — a second header, a second
/// frame for the receiver's loop to take, for eleven bytes.
pub fn chunk_frames(size: usize, chunk_bytes: usize) -> usize {
    let chunk_bytes = chunk_bytes.max(1);
    let (full, tail) = (size / chunk_bytes, size % chunk_bytes);
    if full > 0 && tail < chunk_bytes / TAIL_SHARE {
        full
    } else {
        full + usize::from(tail > 0 || full == 0)
    }
}
