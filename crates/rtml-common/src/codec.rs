//! A compact, dependency-free binary serialization format.
//!
//! Objects exchanged through the object store and records written to the
//! control plane are plain byte strings. This module defines the encoding:
//!
//! - every unsigned integer up to `u64`/`usize` is a LEB128 varint, and
//!   every signed one a zig-zag varint — so is a length or a count;
//! - `u128` is 16 little-endian bytes, `f32`/`f64` their IEEE bits as 4
//!   or 8 little-endian bytes, `bool` one byte (0 or 1);
//! - `String` and `Bytes` are a length, then the bytes; `Vec` a count,
//!   then the items; `Option` one byte (0 or 1), then the value; a tuple
//!   its fields in order.
//!
//! A type states its format once, through one of two macros:
//! [`impl_codec_struct!`](crate::impl_codec_struct) (the fields in
//! order) and [`impl_codec_enum!`](crate::impl_codec_enum) (one tag
//! byte, then the variant's fields in order). Tags are append-only: a
//! retired tag is not reused, so an old frame fails to decode instead of
//! misdecoding. Nothing persists across versions, so a field's encoding
//! may change with its type.
//!
//! Only these `Codec`s are written by hand, each for its layout:
//! `UniqueId` and the ids that wrap it (16 fixed bytes) and `ObjectId`
//! (two of them, a derivation tag byte and a counter); `NodeId` (4 fixed
//! bytes, which sit inside the 24-byte inline object record);
//! `ObjectInfo` (a flag byte says whether an announcement suffix
//! follows, so a record without one keeps its 24-byte inline layout, as a
//! property test pins); `Resources` (its decode rejects unsorted custom
//! resources); and this module's primitives.
//!
//! The format is **deterministic**: encoding the same value always produces
//! the same bytes. Lineage replay verifies reconstructed objects against
//! this property in tests.
//!
//! # Examples
//!
//! ```
//! use rtml_common::codec::{decode_from_slice, encode_to_bytes, Codec};
//!
//! let value = (42u64, String::from("hello"), vec![1.0f64, 2.0]);
//! let bytes = encode_to_bytes(&value);
//! let back: (u64, String, Vec<f64>) = decode_from_slice(&bytes).unwrap();
//! assert_eq!(value, back);
//! ```

use bytes::Bytes;

use crate::error::{Error, Result};

/// Destination buffer for encoding.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Creates a writer with `cap` bytes of pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Consumes the writer and returns the encoded bytes.
    pub fn into_bytes(self) -> Bytes {
        Bytes::from(self.buf)
    }

    /// Consumes the writer and returns the underlying vector.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Bytes the writer can hold before it grows.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Forgets what was written, keeping the allocation.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u128`.
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a LEB128 varint.
    pub fn put_varint(&mut self, v: u64) {
        write_varint(v, |byte| self.buf.push(byte));
    }

    /// Appends a zig-zag encoded signed varint.
    pub fn put_signed_varint(&mut self, v: i64) {
        self.put_varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_varint(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends raw bytes with no length prefix.
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// LEB128-encodes `v`, one byte at a time, into `put`.
#[inline]
fn write_varint(mut v: u64, mut put: impl FnMut(u8)) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            put(byte);
            return;
        }
        put(byte | 0x80);
    }
}

/// Source buffer for decoding; a cursor over a byte slice.
///
/// A reader built with [`Reader::over`] also knows the [`Bytes`] it
/// reads from, so byte strings decode as windows of that buffer
/// ([`Reader::take_shared`]) instead of copies.
pub struct Reader<'a> {
    buf: &'a [u8],
    /// The buffer `buf` is the tail of, when the caller has one.
    backing: Option<&'a Bytes>,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`. Byte strings decoded through it are
    /// copied out; prefer [`Reader::over`] when the input is a `Bytes`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, backing: None }
    }

    /// Creates a reader over a shared buffer: every `Bytes` decoded
    /// through it is a zero-copy [`Bytes::slice`] of `bytes` and keeps
    /// that buffer alive.
    pub fn over(bytes: &'a Bytes) -> Self {
        Reader {
            buf: bytes.as_slice(),
            backing: Some(bytes),
        }
    }

    /// Bytes remaining to be read.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Whether the reader has been fully consumed.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    fn advance(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.buf.len() < n {
            return Err(Error::Codec(format!(
                "unexpected end of input: wanted {n} bytes, had {}",
                self.buf.len()
            )));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8> {
        Ok(self.advance(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32> {
        let b = self.advance(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64> {
        let b = self.advance(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Reads a little-endian `u128`.
    pub fn take_u128(&mut self) -> Result<u128> {
        let b = self.advance(16)?;
        let mut a = [0u8; 16];
        a.copy_from_slice(b);
        Ok(u128::from_le_bytes(a))
    }

    /// Reads a LEB128 varint.
    pub fn take_varint(&mut self) -> Result<u64> {
        let mut result: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.take_u8()?;
            if shift == 63 && byte > 1 {
                return Err(Error::Codec("varint overflows u64".into()));
            }
            result |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(result);
            }
            shift += 7;
            if shift > 63 {
                return Err(Error::Codec("varint too long".into()));
            }
        }
    }

    /// Reads a zig-zag encoded signed varint.
    pub fn take_signed_varint(&mut self) -> Result<i64> {
        let v = self.take_varint()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    /// Reads a length-prefixed byte string.
    pub fn take_bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.take_varint()? as usize;
        self.advance(len)
    }

    /// Reads a length-prefixed byte string as an owned `Bytes`: a window
    /// of the backing buffer when the reader has one (windows at or
    /// below the inline cap re-inline, so small records hold no
    /// reference), a copy otherwise.
    pub fn take_shared(&mut self) -> Result<Bytes> {
        let head = self.take_bytes()?;
        Ok(match self.backing {
            Some(backing) => {
                // `buf` is always a tail of `backing`, so the string just
                // read ends where the unread remainder begins.
                let end = backing.len() - self.buf.len();
                backing.slice(end - head.len()..end)
            }
            None => Bytes::copy_from_slice(head),
        })
    }
}

/// A value that can be serialized to and from the rtml wire format.
///
/// Implementations must round-trip: `decode(encode(v)) == v`. The codec is
/// used for object-store payloads, control-plane records, and task
/// arguments.
pub trait Codec: Sized {
    /// Appends the encoding of `self` to `w`.
    fn encode(&self, w: &mut Writer);

    /// Decodes a value from `r`, consuming exactly the bytes `encode`
    /// produced.
    fn decode(r: &mut Reader<'_>) -> Result<Self>;
}

/// Encodes a value into a freshly allocated [`Bytes`].
///
/// Pre-allocates a cache-line-ish buffer: control-plane records (task
/// states, object infos, events, small specs) almost all fit, turning
/// the encode into a single allocation instead of a doubling series.
pub fn encode_to_bytes<T: Codec>(value: &T) -> Bytes {
    let mut w = Writer::with_capacity(64);
    value.encode(&mut w);
    w.into_bytes()
}

/// Encodes `tag` followed by `value` as a nested, length-prefixed byte
/// string — byte for byte what `w.put_u8(tag)` then
/// `encode_to_bytes(value).encode(w)` produce — in **one pass**. The
/// value is encoded once, straight behind room reserved for the longest
/// header, and the header is written right-aligned into that room once
/// the length is known; the result is a window that starts at the
/// header. This is how a value is sealed into an envelope without
/// encoding it and then copying the encoding.
pub fn encode_nested_to_bytes<T: Codec>(tag: u8, value: &T) -> Bytes {
    // Tag byte plus the longest varint.
    const HEADER_MAX: usize = 1 + 10;
    let mut w = Writer::with_capacity(64);
    w.put_raw(&[0; HEADER_MAX]);
    value.encode(&mut w);
    let mut buf = w.into_vec();
    let mut header = [0u8; HEADER_MAX];
    header[0] = tag;
    let mut header_len = 1;
    write_varint((buf.len() - HEADER_MAX) as u64, |byte| {
        header[header_len] = byte;
        header_len += 1;
    });
    let start = HEADER_MAX - header_len;
    buf[start..HEADER_MAX].copy_from_slice(&header[..header_len]);
    let end = buf.len();
    Bytes::from(buf).slice(start..end)
}

/// Decodes a value from a byte slice, requiring full consumption.
pub fn decode_from_slice<T: Codec>(buf: &[u8]) -> Result<T> {
    decode_fully(Reader::new(buf))
}

/// Decodes a value from a shared buffer, requiring full consumption.
/// Same result as [`decode_from_slice`], but every `Bytes` inside the
/// value is a window of `bytes` rather than a copy of it.
pub fn decode_from_bytes<T: Codec>(bytes: &Bytes) -> Result<T> {
    decode_fully(Reader::over(bytes))
}

fn decode_fully<T: Codec>(mut r: Reader<'_>) -> Result<T> {
    let value = T::decode(&mut r)?;
    if !r.is_empty() {
        return Err(Error::Codec(format!(
            "{} trailing bytes after decode",
            r.remaining()
        )));
    }
    Ok(value)
}

macro_rules! codec_unsigned {
    ($($ty:ty),*) => {$(
        impl Codec for $ty {
            fn encode(&self, w: &mut Writer) {
                w.put_varint(*self as u64);
            }

            fn decode(r: &mut Reader<'_>) -> Result<Self> {
                let v = r.take_varint()?;
                <$ty>::try_from(v)
                    .map_err(|_| Error::Codec(format!("value {v} out of range for {}", stringify!($ty))))
            }
        }
    )*};
}

codec_unsigned!(u8, u16, u32, u64, usize);

macro_rules! codec_signed {
    ($($ty:ty),*) => {$(
        impl Codec for $ty {
            fn encode(&self, w: &mut Writer) {
                w.put_signed_varint(*self as i64);
            }

            fn decode(r: &mut Reader<'_>) -> Result<Self> {
                let v = r.take_signed_varint()?;
                <$ty>::try_from(v)
                    .map_err(|_| Error::Codec(format!("value {v} out of range for {}", stringify!($ty))))
            }
        }
    )*};
}

codec_signed!(i8, i16, i32, i64, isize);

impl Codec for u128 {
    fn encode(&self, w: &mut Writer) {
        w.put_u128(*self);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        r.take_u128()
    }
}

impl Codec for bool {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(*self as u8);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match r.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(Error::Codec(format!("invalid bool byte {other}"))),
        }
    }
}

impl Codec for f32 {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.to_bits());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(f32::from_bits(r.take_u32()?))
    }
}

impl Codec for f64 {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.to_bits());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(f64::from_bits(r.take_u64()?))
    }
}

impl Codec for () {
    fn encode(&self, _w: &mut Writer) {}

    fn decode(_r: &mut Reader<'_>) -> Result<Self> {
        Ok(())
    }
}

impl Codec for String {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(self.as_bytes());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let bytes = r.take_bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|e| Error::Codec(format!("invalid utf-8: {e}")))
    }
}

impl Codec for Bytes {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(self);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        r.take_shared()
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.len() as u64);
        for item in self {
            item.encode(w);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let len = r.take_varint()? as usize;
        // Guard against hostile lengths: cap the pre-allocation, let the
        // loop fail naturally on truncated input.
        let mut out = Vec::with_capacity(len.min(4096));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match r.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            other => Err(Error::Codec(format!("invalid option tag {other}"))),
        }
    }
}

macro_rules! codec_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Codec),+> Codec for ($($name,)+) {
            fn encode(&self, w: &mut Writer) {
                $(self.$idx.encode(w);)+
            }

            fn decode(r: &mut Reader<'_>) -> Result<Self> {
                Ok(($($name::decode(r)?,)+))
            }
        }
    };
}

codec_tuple!(A: 0);
codec_tuple!(A: 0, B: 1);
codec_tuple!(A: 0, B: 1, C: 2);
codec_tuple!(A: 0, B: 1, C: 2, D: 3);
codec_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
codec_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

/// Implements [`Codec`] for a struct by encoding its fields in order.
///
/// # Examples
///
/// ```
/// use rtml_common::impl_codec_struct;
///
/// #[derive(Debug, Clone, PartialEq)]
/// struct Point { x: f64, y: f64, label: String }
/// impl_codec_struct!(Point { x, y, label });
///
/// let p = Point { x: 1.0, y: 2.0, label: "origin-ish".into() };
/// let bytes = rtml_common::codec::encode_to_bytes(&p);
/// let q: Point = rtml_common::codec::decode_from_slice(&bytes).unwrap();
/// assert_eq!(p, q);
/// ```
#[macro_export]
macro_rules! impl_codec_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::codec::Codec for $ty {
            fn encode(&self, w: &mut $crate::codec::Writer) {
                $($crate::codec::Codec::encode(&self.$field, w);)+
            }

            fn decode(r: &mut $crate::codec::Reader<'_>) -> $crate::error::Result<Self> {
                Ok($ty {
                    $($field: $crate::codec::Codec::decode(r)?,)+
                })
            }
        }
    };
}

/// A [`Codec`] type whose encoding starts with a tag byte naming its
/// variant: every type [`impl_codec_enum!`](crate::impl_codec_enum)
/// implements. Lets one mailbox tell two protocols apart by their first
/// byte.
pub trait Tagged: Codec {
    /// The tags the variants are written with.
    const TAGS: &'static [u8];
}

/// Implements [`Codec`] and [`Tagged`] for an enum: one tag byte, then
/// the variant's fields in order, each through its own `Codec`. Each
/// variant is listed once, as `tag => Variant`, `tag => Variant(a, b)`
/// or `tag => Variant { a, b }`, naming every field; a tag is a literal
/// or a `u8` constant in scope. A tag not listed decodes as an
/// [`Error::Codec`] naming the type.
///
/// # Examples
///
/// ```
/// use rtml_common::impl_codec_enum;
///
/// #[derive(Debug, Clone, PartialEq)]
/// enum Shape { Dot, Circle(f64), Rect { width: f64, height: f64 } }
/// // Tag 2 was a shape nobody draws any more: retired, not reused.
/// impl_codec_enum!(Shape { 0 => Dot, 1 => Circle(radius), 3 => Rect { width, height } });
///
/// let s = Shape::Rect { width: 2.0, height: 1.0 };
/// let bytes = rtml_common::codec::encode_to_bytes(&s);
/// assert_eq!(bytes[0], 3);
/// let back: Shape = rtml_common::codec::decode_from_slice(&bytes).unwrap();
/// assert_eq!(s, back);
/// let err = rtml_common::codec::decode_from_slice::<Shape>(&[2]).unwrap_err();
/// assert!(err.to_string().contains("invalid Shape tag 2"));
/// ```
#[macro_export]
macro_rules! impl_codec_enum {
    ($ty:ident {
        $($tag:tt => $variant:ident $(($($field:ident),+))? $({ $($named:ident),+ })?),+ $(,)?
    }) => {
        impl $crate::codec::Codec for $ty {
            fn encode(&self, w: &mut $crate::codec::Writer) {
                match self {
                    $($ty::$variant $(($($field),+))? $({ $($named),+ })? => {
                        w.put_u8($tag);
                        $($($crate::codec::Codec::encode($field, w);)+)?
                        $($($crate::codec::Codec::encode($named, w);)+)?
                    })+
                }
            }

            fn decode(r: &mut $crate::codec::Reader<'_>) -> $crate::error::Result<Self> {
                Ok(match r.take_u8()? {
                    $($tag => {
                        $($(let $field = $crate::codec::Codec::decode(r)?;)+)?
                        $($(let $named = $crate::codec::Codec::decode(r)?;)+)?
                        $ty::$variant $(($($field),+))? $({ $($named),+ })?
                    })+
                    other => {
                        return Err($crate::error::Error::Codec(format!(
                            concat!("invalid ", stringify!($ty), " tag {}"),
                            other
                        )))
                    }
                })
            }
        }

        impl $crate::codec::Tagged for $ty {
            const TAGS: &'static [u8] = &[$($tag),+];
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Codec + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = encode_to_bytes(&value);
        let back: T = decode_from_slice(&bytes).unwrap();
        assert_eq!(value, back);
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(u16::MAX);
        round_trip(u32::MAX);
        round_trip(u64::MAX);
        round_trip(usize::MAX);
        round_trip(i8::MIN);
        round_trip(i16::MIN);
        round_trip(i32::MIN);
        round_trip(i64::MIN);
        round_trip(-1i64);
        round_trip(u128::MAX);
        round_trip(true);
        round_trip(false);
        round_trip(1.5f32);
        round_trip(-0.0f64);
        round_trip(f64::INFINITY);
    }

    #[test]
    fn nan_round_trips_bitwise() {
        let bytes = encode_to_bytes(&f64::NAN);
        let back: f64 = decode_from_slice(&bytes).unwrap();
        assert!(back.is_nan());
    }

    #[test]
    fn containers_round_trip() {
        round_trip(String::from("hello world"));
        round_trip(String::new());
        round_trip(vec![1u64, 2, 3]);
        round_trip(Vec::<u64>::new());
        round_trip(Some(42u32));
        round_trip(Option::<u32>::None);
        round_trip((1u8, -2i64, String::from("x")));
        round_trip(Bytes::from_static(b"raw bytes"));
        round_trip(vec![vec![1u8], vec![], vec![2, 3]]);
    }

    #[test]
    fn varint_boundaries() {
        for shift in 0..64 {
            round_trip(1u64 << shift);
            round_trip((1u64 << shift).wrapping_sub(1));
        }
    }

    #[test]
    fn truncated_input_is_an_error() {
        let bytes = encode_to_bytes(&(1u64, 2u64));
        let r: Result<(u64, u64)> = decode_from_slice(&bytes[..bytes.len() - 1]);
        assert!(r.is_err());
    }

    #[test]
    fn trailing_bytes_are_an_error() {
        let mut w = Writer::new();
        5u64.encode(&mut w);
        w.put_u8(0xff);
        let bytes = w.into_bytes();
        let r: Result<u64> = decode_from_slice(&bytes);
        assert!(r.is_err());
    }

    #[test]
    fn invalid_bool_rejected() {
        let r: Result<bool> = decode_from_slice(&[2]);
        assert!(r.is_err());
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut w = Writer::new();
        w.put_bytes(&[0xff, 0xfe]);
        let bytes = w.into_bytes();
        let r: Result<String> = decode_from_slice(&bytes);
        assert!(r.is_err());
    }

    #[test]
    fn out_of_range_narrowing_rejected() {
        let bytes = encode_to_bytes(&300u64);
        let r: Result<u8> = decode_from_slice(&bytes);
        assert!(r.is_err());
    }

    #[test]
    fn overlong_varint_rejected() {
        // 10 bytes of continuation markers overflows a u64 varint.
        let buf = [0xffu8; 10];
        let mut r = Reader::new(&buf);
        assert!(r.take_varint().is_err());
    }

    #[test]
    fn struct_macro_round_trips() {
        #[derive(Debug, Clone, PartialEq)]
        struct Sample {
            a: u64,
            b: String,
            c: Vec<f64>,
        }
        impl_codec_struct!(Sample { a, b, c });
        round_trip(Sample {
            a: 9,
            b: "s".into(),
            c: vec![1.0, 2.0],
        });
    }

    #[test]
    fn encoding_is_deterministic() {
        let v = (vec![1u64, 2, 3], String::from("det"), Some(5i64));
        assert_eq!(encode_to_bytes(&v), encode_to_bytes(&v));
    }
}
