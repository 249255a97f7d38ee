//! The deterministic binary state codec and the [`Persist`] trait.
//!
//! Encoding rules: all integers are little-endian fixed width, `usize`
//! travels as `u64`, `f64` travels as its IEEE-754 bit pattern (restored
//! values are bit-identical, including negative zero and NaN payloads),
//! strings are length-prefixed, a raw byte slice carries no prefix (its
//! reader finds the end), `Option` is a one-byte tag, and collections are
//! a length followed by their elements in iteration order. There is no
//! alignment and no padding, so the bytes a given value produces are a
//! pure function of the value.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// A decode failure. Every variant carries enough context to say *what*
/// failed to decode and *where* in the buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateError {
    /// The buffer ended before the requested bytes.
    UnexpectedEof {
        /// What was being decoded.
        what: &'static str,
        /// Byte offset at which the read started.
        at: usize,
        /// Bytes requested.
        wanted: usize,
        /// Bytes remaining.
        remaining: usize,
    },
    /// A tag byte (enum discriminant, Option marker) had no meaning.
    BadTag {
        /// The type being decoded.
        what: &'static str,
        /// The offending tag value.
        tag: u64,
    },
    /// A decoded value failed a semantic check.
    Invalid {
        /// The type being decoded.
        what: &'static str,
        /// Why the value was rejected.
        reason: String,
    },
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnexpectedEof {
                what,
                at,
                wanted,
                remaining,
            } => write!(
                f,
                "truncated state while decoding {what}: wanted {wanted} byte(s) at offset {at}, \
                 {remaining} remaining"
            ),
            Self::BadTag { what, tag } => write!(f, "invalid tag {tag} while decoding {what}"),
            Self::Invalid { what, reason } => write!(f, "invalid {what}: {reason}"),
        }
    }
}

impl std::error::Error for StateError {}

/// Serializes values into a growable byte buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes written so far.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far (borrowed).
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Number of bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i64`, little-endian two's complement.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    pub fn put_len(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes an `f64` as its exact bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a `bool` as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Writes a length-prefixed string.
    pub fn put_str(&mut self, v: &str) {
        self.put_len(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Writes `bytes` as they are, with no length prefix: the reader must
    /// know where they end.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes any [`Persist`] value.
    pub fn put<T: Persist>(&mut self, v: &T) {
        v.save(self);
    }
}

/// Deserializes values from a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `data`, positioned at the start.
    #[must_use]
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// True when every byte has been consumed.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.data.len()
    }

    /// Refuses bytes left after a complete `what`: a state that decoded
    /// but did not consume its whole buffer is not the state that was
    /// saved.
    ///
    /// # Errors
    ///
    /// [`StateError::Invalid`] naming the leftover byte count.
    pub fn expect_end(&self, what: &'static str) -> Result<(), StateError> {
        if self.is_exhausted() {
            return Ok(());
        }
        Err(StateError::Invalid {
            what,
            reason: format!("{} byte(s) left after the state", self.remaining()),
        })
    }

    /// The bytes not yet consumed, without consuming them: a decoder that
    /// finds its own end reads them and then takes what it used with
    /// [`Reader::take_raw`].
    #[must_use]
    pub fn unread(&self) -> &'a [u8] {
        &self.data[self.pos..]
    }

    /// Consumes the next `n` bytes and returns them, borrowed from the
    /// buffer.
    ///
    /// # Errors
    ///
    /// [`StateError::UnexpectedEof`] naming `what` if fewer than `n` bytes
    /// remain.
    pub fn take_raw(&mut self, what: &'static str, n: usize) -> Result<&'a [u8], StateError> {
        if self.remaining() < n {
            return Err(StateError::UnexpectedEof {
                what,
                at: self.pos,
                wanted: n,
                remaining: self.remaining(),
            });
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one raw byte.
    pub fn take_u8(&mut self) -> Result<u8, StateError> {
        Ok(self.take_raw("u8", 1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn take_u16(&mut self) -> Result<u16, StateError> {
        Ok(u16::from_le_bytes(
            self.take_raw("u16", 2)?.try_into().expect("2 bytes"),
        ))
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, StateError> {
        Ok(u32::from_le_bytes(
            self.take_raw("u32", 4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, StateError> {
        Ok(u64::from_le_bytes(
            self.take_raw("u64", 8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a little-endian `i64`.
    pub fn take_i64(&mut self) -> Result<i64, StateError> {
        Ok(i64::from_le_bytes(
            self.take_raw("i64", 8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a length (`u64`), checked against the bytes remaining so a
    /// corrupt length cannot trigger an enormous allocation.
    pub fn take_len(&mut self) -> Result<usize, StateError> {
        let len = self.take_u64()?;
        if len > self.remaining() as u64 {
            return Err(StateError::Invalid {
                what: "length prefix",
                reason: format!("{len} exceeds the {} bytes remaining", self.remaining()),
            });
        }
        Ok(len as usize)
    }

    /// Reads an `f64` from its exact bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, StateError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads a `bool`, rejecting bytes other than 0 and 1.
    pub fn take_bool(&mut self) -> Result<bool, StateError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(StateError::BadTag {
                what: "bool",
                tag: u64::from(tag),
            }),
        }
    }

    /// Reads a length-prefixed UTF-8 string, borrowed from the buffer.
    pub fn take_str(&mut self) -> Result<&'a str, StateError> {
        let len = self.take_len()?;
        let bytes = self.take_raw("string", len)?;
        std::str::from_utf8(bytes).map_err(|e| StateError::Invalid {
            what: "string",
            reason: e.to_string(),
        })
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn take_string(&mut self) -> Result<String, StateError> {
        self.take_str().map(str::to_owned)
    }

    /// Reads any [`Persist`] value.
    pub fn take<T: Persist>(&mut self) -> Result<T, StateError> {
        T::load(self)
    }
}

/// A type whose full dynamic state round-trips through the codec.
///
/// The contract: `load(save(x)) == x` for every observable behavior —
/// a restored simulation must produce the exact byte stream the original
/// would have from the checkpoint instant on.
pub trait Persist: Sized {
    /// Appends this value's encoding to `w`.
    fn save(&self, w: &mut Writer);

    /// Decodes one value from `r`.
    ///
    /// # Errors
    ///
    /// Returns a [`StateError`] on truncation, bad tags, or semantically
    /// invalid values.
    fn load(r: &mut Reader<'_>) -> Result<Self, StateError>;
}

macro_rules! persist_primitive {
    ($ty:ty, $put:ident, $take:ident) => {
        impl Persist for $ty {
            fn save(&self, w: &mut Writer) {
                w.$put(*self);
            }
            fn load(r: &mut Reader<'_>) -> Result<Self, StateError> {
                r.$take()
            }
        }
    };
}

persist_primitive!(u8, put_u8, take_u8);
persist_primitive!(u16, put_u16, take_u16);
persist_primitive!(u32, put_u32, take_u32);
persist_primitive!(u64, put_u64, take_u64);
persist_primitive!(i64, put_i64, take_i64);
persist_primitive!(f64, put_f64, take_f64);
persist_primitive!(bool, put_bool, take_bool);

impl Persist for usize {
    fn save(&self, w: &mut Writer) {
        w.put_u64(*self as u64);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, StateError> {
        let v = r.take_u64()?;
        usize::try_from(v).map_err(|_| StateError::Invalid {
            what: "usize",
            reason: format!("{v} does not fit this platform's usize"),
        })
    }
}

impl Persist for u128 {
    fn save(&self, w: &mut Writer) {
        w.put_u64((*self >> 64) as u64);
        w.put_u64(*self as u64);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, StateError> {
        let hi = r.take_u64()?;
        let lo = r.take_u64()?;
        Ok((u128::from(hi) << 64) | u128::from(lo))
    }
}

impl Persist for String {
    fn save(&self, w: &mut Writer) {
        w.put_str(self);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, StateError> {
        r.take_string()
    }
}

impl Persist for () {
    fn save(&self, _: &mut Writer) {}
    fn load(_: &mut Reader<'_>) -> Result<Self, StateError> {
        Ok(())
    }
}

impl<T: Persist> Persist for Option<T> {
    fn save(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.save(w);
            }
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, StateError> {
        match r.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(r)?)),
            tag => Err(StateError::BadTag {
                what: "Option",
                tag: u64::from(tag),
            }),
        }
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn save(&self, w: &mut Writer) {
        w.put_len(self.len());
        for item in self {
            item.save(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, StateError> {
        let len = r.take_len()?;
        let mut out = Vec::with_capacity(len.min(r.remaining().max(1)));
        for _ in 0..len {
            out.push(T::load(r)?);
        }
        Ok(out)
    }
}

impl<T: Persist> Persist for VecDeque<T> {
    fn save(&self, w: &mut Writer) {
        w.put_len(self.len());
        for item in self {
            item.save(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, StateError> {
        Ok(Vec::<T>::load(r)?.into())
    }
}

impl<K: Persist + Ord, V: Persist> Persist for BTreeMap<K, V> {
    fn save(&self, w: &mut Writer) {
        w.put_len(self.len());
        for (k, v) in self {
            k.save(w);
            v.save(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, StateError> {
        let len = r.take_len()?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::load(r)?;
            let v = V::load(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<T: Persist, const N: usize> Persist for [T; N] {
    fn save(&self, w: &mut Writer) {
        for item in self {
            item.save(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, StateError> {
        let mut items = Vec::with_capacity(N);
        for _ in 0..N {
            items.push(T::load(r)?);
        }
        items.try_into().map_err(|_| StateError::Invalid {
            what: "array",
            reason: "length mismatch".to_owned(),
        })
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn save(&self, w: &mut Writer) {
        self.0.save(w);
        self.1.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, StateError> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

impl<A: Persist, B: Persist, C: Persist> Persist for (A, B, C) {
    fn save(&self, w: &mut Writer) {
        self.0.save(w);
        self.1.save(w);
        self.2.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, StateError> {
        Ok((A::load(r)?, B::load(r)?, C::load(r)?))
    }
}

/// Implements [`Persist`] for a struct by listing **all** of its fields.
///
/// The generated `load` builds the struct with a struct literal, so a
/// field missing from the list is a *compile error* — the macro cannot
/// silently drop state.
///
/// ```
/// struct Pid { kp: f64, integral: f64, last_error: f64 }
/// bz_state::persist_struct!(Pid { kp, integral, last_error });
/// ```
#[macro_export]
macro_rules! persist_struct {
    ($ty:ident { $($field:ident),* $(,)? }) => {
        impl $crate::Persist for $ty {
            fn save(&self, w: &mut $crate::Writer) {
                $( $crate::Persist::save(&self.$field, w); )*
            }
            fn load(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::StateError> {
                Ok(Self { $( $field: $crate::Persist::load(r)? ),* })
            }
        }
    };
}

/// Implements [`Persist`] for a fieldless enum as a stable `u8` tag per
/// listed variant (the listing order is the wire order — append only).
#[macro_export]
macro_rules! persist_unit_enum {
    ($ty:ident { $($variant:ident),* $(,)? }) => {
        impl $crate::Persist for $ty {
            fn save(&self, w: &mut $crate::Writer) {
                let mut tag: u8 = 0;
                $(
                    if let Self::$variant = self {
                        w.put_u8(tag);
                        return;
                    }
                    tag = tag.wrapping_add(1);
                )*
                let _ = tag;
                unreachable!("variant not listed in persist_unit_enum!");
            }
            fn load(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::StateError> {
                let tag = r.take_u8()?;
                let mut i: u8 = 0;
                $(
                    if tag == i { return Ok(Self::$variant); }
                    i += 1;
                )*
                let _ = i;
                Err($crate::StateError::BadTag { what: stringify!($ty), tag: u64::from(tag) })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Persist + PartialEq + std::fmt::Debug>(value: T) {
        let mut w = Writer::new();
        value.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = T::load(&mut r).expect("decodes");
        assert_eq!(back, value);
        assert!(r.is_exhausted(), "trailing bytes after {value:?}");
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(u16::MAX);
        round_trip(0xDEAD_BEEFu32);
        round_trip(u64::MAX);
        round_trip(-42i64);
        round_trip(usize::MAX);
        round_trip(u128::MAX - 7);
        round_trip(true);
        round_trip(String::from("wsn.node.21.sent"));
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for v in [
            0.0,
            -0.0,
            1.5,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            let mut w = Writer::new();
            v.save(&mut w);
            let bytes = w.into_bytes();
            let back = f64::load(&mut Reader::new(&bytes)).unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v}");
        }
        // NaN payloads survive too.
        let nan = f64::from_bits(0x7FF8_0000_0000_1234);
        let mut w = Writer::new();
        nan.save(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(
            f64::load(&mut Reader::new(&bytes)).unwrap().to_bits(),
            nan.to_bits()
        );
    }

    #[test]
    fn collections_round_trip() {
        round_trip(vec![1u64, 2, 3]);
        round_trip(VecDeque::from(vec![(1u64, 2.5f64), (3, 4.5)]));
        round_trip(BTreeMap::from([
            (String::from("a"), 1u64),
            (String::from("b"), 2),
        ]));
        round_trip([1.0f64, 2.0, 3.0]);
        round_trip(Some(vec![Some(7u64), None]));
        round_trip((1u64, String::from("x"), -3i64));
    }

    #[test]
    fn truncation_is_a_clean_error() {
        let mut w = Writer::new();
        vec![1u64, 2, 3].save(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let err = Vec::<u64>::load(&mut Reader::new(&bytes[..cut]));
            assert!(err.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn hostile_length_prefix_is_rejected_without_allocating() {
        let mut w = Writer::new();
        w.put_u64(u64::MAX); // claims ~1.8e19 elements
        let bytes = w.into_bytes();
        let err = Vec::<u8>::load(&mut Reader::new(&bytes)).unwrap_err();
        assert!(matches!(err, StateError::Invalid { .. }), "{err}");
    }

    proptest::proptest! {
        /// Values of random kinds, then stray bytes, read back by a random
        /// walk of takes: each take returns `Ok` or `Err`, never panics,
        /// and the reader never passes the end.
        #[test]
        fn any_walk_over_any_bytes_returns_errors_not_panics(
            written in proptest::collection::vec((0u8..6, 0u64..48), 0..24),
            stray in proptest::collection::vec(0u16..256, 0..16),
            takes in proptest::collection::vec(0u8..14, 1..32),
        ) {
            let mut w = Writer::new();
            for (kind, v) in written {
                match kind {
                    0 => w.put_u8(v as u8),
                    1 => w.put_u64(v),
                    2 => w.put_len(v as usize),
                    3 => w.put_str(&"é".repeat(v as usize % 5)),
                    4 => w.put_u8((v % 3) as u8),
                    _ => w.put_f64(v as f64),
                }
            }
            let mut bytes = w.into_bytes();
            bytes.extend(stray.iter().map(|&b| b as u8));
            let mut r = Reader::new(&bytes);
            for take in takes {
                let _ = match take {
                    0 => r.take_u8().map(drop),
                    1 => r.take_u16().map(drop),
                    2 => r.take_u32().map(drop),
                    3 => r.take_u64().map(drop),
                    4 => r.take_len().map(drop),
                    5 => r.take_bool().map(drop),
                    6 => r.take_str().map(drop),
                    7 => r.take::<Vec<u8>>().map(drop),
                    8 => r.take::<usize>().map(drop),
                    9 => r.take::<Vec<Option<u8>>>().map(drop),
                    10 => r.take::<VecDeque<String>>().map(drop),
                    11 => r.take::<BTreeMap<u8, bool>>().map(drop),
                    12 => r.take::<[u16; 3]>().map(drop),
                    _ => r.take::<(u128, i64)>().map(drop),
                };
                proptest::prop_assert!(r.pos <= bytes.len());
            }
        }
    }

    #[test]
    fn bad_tags_are_descriptive() {
        let err = Option::<u8>::load(&mut Reader::new(&[9])).unwrap_err();
        assert_eq!(
            err,
            StateError::BadTag {
                what: "Option",
                tag: 9
            }
        );
        let err = bool::load(&mut Reader::new(&[2])).unwrap_err();
        assert!(err.to_string().contains("invalid tag 2"));
    }

    #[derive(Debug, PartialEq)]
    struct Demo {
        a: u64,
        b: f64,
        c: Vec<u16>,
    }
    persist_struct!(Demo { a, b, c });

    #[derive(Debug, PartialEq)]
    enum Mode {
        Off,
        Auto,
        Manual,
    }
    persist_unit_enum!(Mode { Off, Auto, Manual });

    #[test]
    fn macros_cover_structs_and_enums() {
        round_trip(Demo {
            a: 7,
            b: -1.25,
            c: vec![1, 2],
        });
        round_trip(Mode::Off);
        round_trip(Mode::Manual);
        let err = Mode::load(&mut Reader::new(&[3])).unwrap_err();
        assert!(err.to_string().contains("Mode"));
    }
}
