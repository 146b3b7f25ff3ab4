//! Value envelopes: how task results and errors travel through the object
//! store.
//!
//! Every object payload in the system is an [`Envelope`]: either a
//! successfully computed value or an application error. Sealing errors as
//! first-class objects is what lets failures propagate through dataflow
//! edges without any side channel: a consumer task opens its argument,
//! sees the error, and fails the same way, cascading to the driver's
//! `get` (the behaviour Ray later standardized).

use bytes::Bytes;

use rtml_common::codec::{decode_from_bytes, encode_nested_to_bytes, encode_to_bytes, Codec};
use rtml_common::error::{Error, Result};
use rtml_common::ids::TaskId;

/// An object-store payload: a value or a propagated error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Envelope {
    /// Encoded application value.
    Value(Bytes),
    /// An error raised by the producing task (or one of its ancestors).
    Error(String),
}

/// The tag of [`Envelope::Value`], which [`seal_value`] writes too.
const TAG_VALUE: u8 = 0;
/// The tag of [`Envelope::Error`].
const TAG_ERROR: u8 = 1;

rtml_common::impl_codec_enum!(Envelope {
    TAG_VALUE => Value(bytes),
    TAG_ERROR => Error(message),
});

impl Envelope {
    /// Serializes this envelope to store bytes. A value that is not yet
    /// encoded seals in one pass through [`seal_value`] instead.
    pub fn seal(&self) -> Bytes {
        encode_to_bytes(self)
    }

    /// Parses an envelope from store bytes. A value's bytes are a window
    /// of `bytes`, not a copy.
    pub fn open(bytes: &Bytes) -> Result<Envelope> {
        decode_from_bytes(bytes)
    }

    /// Extracts the raw value bytes or surfaces the propagated error.
    pub fn into_value_bytes(self, producer: TaskId) -> Result<Bytes> {
        match self {
            Envelope::Value(bytes) => Ok(bytes),
            Envelope::Error(message) => Err(Error::TaskFailed {
                task: producer,
                message,
            }),
        }
    }
}

/// Seals a value directly to store bytes — the bytes of
/// `Envelope::Value(encode_to_bytes(value)).seal()`, with the value
/// encoded once, straight behind the envelope header.
pub fn seal_value<T: Codec>(value: &T) -> Bytes {
    encode_nested_to_bytes(TAG_VALUE, value)
}

/// Convenience: seal an error directly to store bytes.
pub fn seal_error(message: &str) -> Bytes {
    Envelope::Error(message.to_string()).seal()
}

/// Opens store bytes and decodes the value inside. Any `Bytes` in the
/// value is a window of `bytes` and keeps that buffer alive.
pub fn open_value<T: Codec>(bytes: &Bytes, producer: TaskId) -> Result<T> {
    let raw = Envelope::open(bytes)?.into_value_bytes(producer)?;
    decode_from_bytes(&raw)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_round_trips() {
        let sealed = seal_value(&(7u64, String::from("x")));
        let back: (u64, String) = open_value(&sealed, TaskId::NIL).unwrap();
        assert_eq!(back, (7, "x".to_string()));
    }

    #[test]
    fn error_surfaces_as_task_failed() {
        let sealed = seal_error("boom");
        let r: Result<u64> = open_value(&sealed, TaskId::NIL);
        match r {
            Err(Error::TaskFailed { message, .. }) => assert_eq!(message, "boom"),
            other => panic!("expected TaskFailed, got {other:?}"),
        }
    }

    #[test]
    fn envelope_codec_round_trips() {
        for env in [
            Envelope::Value(Bytes::from_static(b"v")),
            Envelope::Error("e".into()),
        ] {
            let bytes = env.seal();
            assert_eq!(Envelope::open(&bytes).unwrap(), env);
        }
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(Envelope::open(&Bytes::from_static(&[9, 9, 9])).is_err());
    }

    #[test]
    fn one_pass_seal_matches_the_two_step_encoding() {
        // Every varint width of the length prefix, and the inline cap.
        for len in [0usize, 1, 20, 24, 100, 127, 128, 16_383, 16_384, 1 << 20] {
            let value = Bytes::from(vec![7u8; len]);
            let two_step = Envelope::Value(encode_to_bytes(&value)).seal();
            assert_eq!(seal_value(&value), two_step, "payload of {len} bytes");
        }
        assert_eq!(
            seal_value(&(7u64, String::from("x"))),
            Envelope::Value(encode_to_bytes(&(7u64, String::from("x")))).seal()
        );
    }

    #[test]
    fn opened_bytes_are_a_window_of_the_sealed_buffer() {
        let payload = Bytes::from(vec![3u8; 4096]);
        let sealed = seal_value(&payload);
        let back: Bytes = open_value(&sealed, TaskId::NIL).unwrap();
        assert_eq!(back, payload);
        let sealed_range = sealed.as_ptr_range();
        assert!(sealed_range.contains(&back.as_ptr()));
        assert!(back.as_ptr_range().end <= sealed_range.end);
    }

    #[test]
    fn type_mismatch_is_codec_error() {
        let sealed = seal_value(&String::from("text"));
        let r: Result<Vec<f64>> = open_value(&sealed, TaskId::NIL);
        assert!(r.is_err());
    }
}
