//! The ADT stream protocol (paper §6.4).
//!
//! > "Each ADT class can read an attribute value of its type from an input
//! > stream and construct a Java object representing it. Likewise, the ADT
//! > class can write an object back to an output stream. [...] At both
//! > client and server, Java UDFs are invoked using the identical protocol;
//! > input parameters are presented as streams, and the output parameter is
//! > expected as a stream. This allows UDF code to be run without change at
//! > either site."
//!
//! This module is that protocol: every [`Value`] (and by extension every
//! tuple and schema) can serialise itself onto any `io::Write`. The same
//! encoding is used
//!
//! * by `jaguar-ipc` to marshal UDF arguments into the isolated worker
//!   process (Design 2/4),
//! * by `jaguar-net` as the wire representation between client and server,
//! * by `jaguar-udf` to marshal arguments into the sandboxed VM (the
//!   analogue of JNI argument mapping in Design 3).
//!
//! Every value is self-describing: one type-tag byte, then its payload —
//! on the wire, where the receiver may not know the schema, and inside
//! pages alike. All integers are little-endian; lengths are `u32` (a single attribute
//! value larger than 4 GiB is rejected rather than silently truncated).
//!
//! Tagged values have one decoder, over a byte slice: a stream is read a
//! whole message at a time ([`crate::polled::Polled`]) and decoded as one
//! ([`next_value`], [`next_tuple`], [`whole`]). A stored record is a slice
//! of its page: a [`RecordView`] walks it in place, once, showing a scan
//! the columns it judges and folds by their bytes, and [`decode_tuple`]
//! builds only the columns its caller wants.

use std::io::{self, Read, Write};

use crate::error::{JaguarError, Result};
use crate::schema::{Field, Schema};
use crate::tuple::{ColumnSet, Tuple};
use crate::value::{ByteArray, DataType, Value};

/// Tag byte for NULL in the tagged form (distinct from all `DataType::tag`s).
const NULL_TAG: u8 = 0;

/// Hard cap on any declared length read from an untrusted stream, to stop a
/// corrupt or malicious length prefix from triggering a giant allocation
/// (one of the denial-of-service vectors the paper worries about).
pub const MAX_DECLARED_LEN: u32 = 256 * 1024 * 1024;

/// How much of a declared length [`read_blob`] (and a frame's reader,
/// [`crate::polled::Polled`]) reserves before any byte has arrived.
pub(crate) const BLOB_RESERVE_CAP: usize = 64 * 1024;

#[inline]
fn check_declared_len(len: u32) -> Result<()> {
    if len > MAX_DECLARED_LEN {
        return Err(JaguarError::Protocol(format!(
            "declared blob length {len} exceeds limit {MAX_DECLARED_LEN}"
        )));
    }
    Ok(())
}

#[inline]
fn check_arity(n: u32) -> Result<()> {
    if n > 65_535 {
        return Err(JaguarError::Protocol(format!(
            "implausible tuple arity {n}"
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// primitive helpers
// ---------------------------------------------------------------------

pub fn write_u8(w: &mut impl Write, v: u8) -> Result<()> {
    w.write_all(&[v])?;
    Ok(())
}

pub fn read_u8(r: &mut impl Read) -> Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

pub fn write_u16(w: &mut impl Write, v: u16) -> Result<()> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

pub fn read_u16(r: &mut impl Read) -> Result<u16> {
    let mut b = [0u8; 2];
    r.read_exact(&mut b)?;
    Ok(u16::from_le_bytes(b))
}

pub fn write_u32(w: &mut impl Write, v: u32) -> Result<()> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

pub fn read_u32(r: &mut impl Read) -> Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

pub fn write_u64(w: &mut impl Write, v: u64) -> Result<()> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

pub fn read_u64(r: &mut impl Read) -> Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

pub fn write_i64(w: &mut impl Write, v: i64) -> Result<()> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

pub fn read_i64(r: &mut impl Read) -> Result<i64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(i64::from_le_bytes(b))
}

pub fn write_f64(w: &mut impl Write, v: f64) -> Result<()> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

pub fn read_f64(r: &mut impl Read) -> Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

/// Write a length-prefixed byte slice.
pub fn write_blob(w: &mut impl Write, data: &[u8]) -> Result<()> {
    let len = u32::try_from(data.len())
        .map_err(|_| JaguarError::Protocol("blob exceeds u32 length".into()))?;
    write_u32(w, len)?;
    w.write_all(data)?;
    Ok(())
}

/// Read a length-prefixed byte slice, enforcing [`MAX_DECLARED_LEN`].
///
/// The declared length is untrusted: it is believed up to
/// `BLOB_RESERVE_CAP` (one allocation for the usual small value), and
/// past that the buffer grows as bytes actually arrive (`Read::take` +
/// `read_to_end`), so peak memory is bounded by what the peer really sent,
/// never by what it *claimed* it would send. A short frame is a decode
/// error, not a hang or a panic.
pub fn read_blob(r: &mut impl Read) -> Result<Vec<u8>> {
    let len = read_u32(r)?;
    check_declared_len(len)?;
    let mut buf = Vec::with_capacity((len as usize).min(BLOB_RESERVE_CAP));
    let got = r.take(len as u64).read_to_end(&mut buf)?;
    if got != len as usize {
        return Err(JaguarError::Protocol(format!(
            "truncated blob: declared {len} bytes, stream ended after {got}"
        )));
    }
    Ok(buf)
}

pub fn write_str(w: &mut impl Write, s: &str) -> Result<()> {
    write_blob(w, s.as_bytes())
}

pub fn read_str(r: &mut impl Read) -> Result<String> {
    let raw = read_blob(r)?;
    String::from_utf8(raw).map_err(|_| JaguarError::Protocol("invalid utf-8 string".into()))
}

// ---------------------------------------------------------------------
// values
// ---------------------------------------------------------------------

/// Write a value in its tagged (self-describing) form.
pub fn write_value(w: &mut impl Write, v: &Value) -> Result<()> {
    match v {
        Value::Null => write_u8(w, NULL_TAG),
        Value::Bool(b) => {
            write_u8(w, DataType::Bool.tag())?;
            write_u8(w, *b as u8)
        }
        Value::Int(i) => {
            write_u8(w, DataType::Int.tag())?;
            write_i64(w, *i)
        }
        Value::Float(x) => {
            write_u8(w, DataType::Float.tag())?;
            write_f64(w, *x)
        }
        Value::Str(s) => {
            write_u8(w, DataType::Str.tag())?;
            write_str(w, s)
        }
        Value::Bytes(b) => {
            write_u8(w, DataType::Bytes.tag())?;
            write_blob(w, b.as_slice())
        }
    }
}

/// One value in its tagged form off the front of `rec`, checked and built
/// as a stored record's column is.
pub fn next_value(rec: &mut &[u8]) -> Result<Value> {
    let (ty, payload) = read_column(rec)?;
    build_column(ty, payload)
}

/// Decode all of `body` with `decode`, refusing bytes it leaves and a field
/// it finds cut short (the body is whole: the sender's error, not an EOF).
pub fn whole<T>(mut body: &[u8], decode: impl FnOnce(&mut &[u8]) -> Result<T>) -> Result<T> {
    let out = decode(&mut body).map_err(|e| match e {
        JaguarError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
            JaguarError::Protocol("a field runs past the end of its message".into())
        }
        e => e,
    })?;
    match body.len() {
        0 => Ok(out),
        n => Err(JaguarError::Protocol(format!(
            "{n} trailing bytes after a message"
        ))),
    }
}

// ---------------------------------------------------------------------
// tuples & schemas
// ---------------------------------------------------------------------

/// Write a tuple in tagged form (arity prefix + tagged values).
pub fn write_tuple(w: &mut impl Write, t: &Tuple) -> Result<()> {
    let n = u32::try_from(t.len())
        .map_err(|_| JaguarError::Protocol("tuple arity exceeds u32".into()))?;
    write_u32(w, n)?;
    for v in t.values() {
        write_value(w, v)?;
    }
    Ok(())
}

/// One tuple in tagged form off the front of `rec`.
pub fn next_tuple(rec: &mut &[u8]) -> Result<Tuple> {
    let n = read_u32(rec)?;
    check_arity(n)?;
    // The arity is untrusted even after the plausibility cap: reserve for
    // a realistic row only, and grow past that as values actually decode.
    let mut values = Vec::with_capacity(n.min(64) as usize);
    for _ in 0..n {
        values.push(next_value(rec)?);
    }
    Ok(Tuple::new(values))
}

/// One tagged value read off the front of `rec` (a stored record, a
/// message): its type (`None` for NULL) and its payload in place (1, 8 or
/// a `Str`/`Bytes` body's bytes). Nothing is built, but a `Bool` byte is
/// checked even when stepped over.
#[inline(always)]
pub fn read_column<'a>(rec: &mut &'a [u8]) -> Result<(Option<DataType>, &'a [u8])> {
    let Some((&tag, rest)) = rec.split_first() else {
        return Err(short_record());
    };
    let ty = match tag {
        NULL_TAG => None,
        tag => Some(DataType::from_tag(tag)?),
    };
    let width = match ty {
        None => 0,
        Some(DataType::Bool) => 1,
        Some(DataType::Int | DataType::Float) => 8,
        Some(DataType::Str | DataType::Bytes) => {
            let Some((len, rest)) = rest.split_first_chunk() else {
                return Err(short_record());
            };
            let len = u32::from_le_bytes(*len);
            check_declared_len(len)?;
            let Some((body, rest)) = rest.split_at_checked(len as usize) else {
                return Err(JaguarError::Protocol(format!(
                    "truncated blob: declared {len} bytes, record ended after {}",
                    rest.len()
                )));
            };
            *rec = rest;
            return Ok((ty, body));
        }
    };
    let Some((payload, rest)) = rest.split_at_checked(width) else {
        return Err(short_record());
    };
    if let (Some(DataType::Bool), &[byte]) = (ty, payload) {
        if byte > 1 {
            return Err(JaguarError::Protocol(format!("invalid bool byte {byte}")));
        }
    }
    *rec = rest;
    Ok((ty, payload))
}

/// The value of a column [`read_column`] read: a fixed-width one on the
/// stack, a `Str`/`Bytes` body with one allocation.
#[inline(always)]
pub fn build_column(ty: Option<DataType>, payload: &[u8]) -> Result<Value> {
    let word = || payload.try_into().map_err(|_| short_record());
    Ok(match ty {
        None => Value::Null,
        Some(DataType::Bool) => Value::Bool(payload == [1]),
        Some(DataType::Int) => Value::Int(i64::from_le_bytes(word()?)),
        Some(DataType::Float) => Value::Float(f64::from_le_bytes(word()?)),
        Some(DataType::Bytes) => Value::Bytes(ByteArray::from(payload)),
        Some(DataType::Str) => match std::str::from_utf8(payload) {
            Ok(s) => Value::Str(s.to_owned()),
            Err(_) => return Err(JaguarError::Protocol("invalid utf-8 string".into())),
        },
    })
}

/// A record that ends inside a value fails as a short `read_exact` does.
#[cold]
fn short_record() -> JaguarError {
    io::Error::from(io::ErrorKind::UnexpectedEof).into()
}

/// Decode a stored record — [`write_tuple`]'s form — straight from the
/// bytes of its page, building only the columns in `cols`.
///
/// The result has the stored arity; a column outside `cols` reads as
/// `Value::Null`, its `Str`/`Bytes` body bounds-checked and stepped over
/// (not copied, not UTF-8-checked). A wanted body costs one allocation.
/// Validation and error kinds are [`next_tuple`]'s; in addition the record
/// must end where the tuple does.
pub fn decode_tuple(rec: &[u8], cols: &ColumnSet) -> Result<Tuple> {
    let mut values = Vec::new();
    RecordView::new(rec)?.decode_into(cols, &mut values)?;
    Ok(Tuple::new(values))
}

/// One column of a stored record, in place, as a [`RecordView`] walked and
/// checked it: its tagged encoding, as [`write_value`] writes it.
#[derive(Clone, Copy)]
pub struct Column<'a>(&'a [u8]);

impl<'a> Column<'a> {
    #[inline]
    pub fn encoded(&self) -> &'a [u8] {
        self.0
    }

    #[inline]
    pub fn is_null(&self) -> bool {
        self.0[0] == NULL_TAG
    }

    /// The stored type (`None` for NULL) and the payload.
    #[inline(always)]
    fn parts(&self) -> Result<(Option<DataType>, &'a [u8])> {
        read_column(&mut { self.0 })
    }

    /// The payload of an INT column; `None` for any other tag.
    #[inline(always)]
    pub fn int(&self) -> Option<i64> {
        match self.0 {
            [tag, payload @ ..] if *tag == DataType::Int.tag() => {
                Some(i64::from_le_bytes(payload.try_into().ok()?))
            }
            _ => None,
        }
    }

    /// The value, as a decode builds it.
    #[inline]
    pub fn value(&self) -> Result<Value> {
        let (ty, payload) = self.parts()?;
        build_column(ty, payload)
    }

    /// A fixed-width value, or NULL for a `Str`/`Bytes` one: what a scan
    /// judges a record by.
    #[inline]
    pub fn fixed(&self) -> Result<Value> {
        match self.parts()? {
            (Some(DataType::Str | DataType::Bytes), _) => Ok(Value::Null),
            (ty, payload) => build_column(ty, payload),
        }
    }
}

/// How many column starts a [`RecordView`] keeps: a column past the last
/// kept one is found again by walking on from the last kept start.
const KEPT: usize = 8;

/// A stored record walked front to back only as far as its reader asks,
/// with every check a decode makes, keeping where each of its first
/// eight walked columns starts to read it where it lies.
pub struct RecordView<'a> {
    arity: usize,
    /// The bytes of the columns, after the arity.
    columns: &'a [u8],
    /// Where each of the first `count.min(KEPT)` columns starts.
    starts: [usize; KEPT],
    /// Columns walked, and where the walk stands.
    count: usize,
    walked: usize,
}

impl<'a> RecordView<'a> {
    /// View `rec`, its arity checked as [`next_tuple`] checks it.
    #[inline]
    pub fn new(rec: &'a [u8]) -> Result<RecordView<'a>> {
        let Some((n, columns)) = rec.split_first_chunk() else {
            return Err(short_record());
        };
        let arity = u32::from_le_bytes(*n);
        check_arity(arity)?;
        Ok(RecordView {
            arity: arity as usize,
            columns,
            starts: [0; KEPT],
            count: 0,
            walked: 0,
        })
    }

    /// Column `c`, walked to if the walk has not passed it yet; `None` if
    /// the record has no column `c`. Errors are [`decode_tuple`]'s.
    #[inline(always)]
    pub fn column(&mut self, c: usize) -> Result<Option<Column<'a>>> {
        if c >= self.arity {
            return Ok(None);
        }
        while self.count <= c {
            let mut rest = &self.columns[self.walked..];
            read_column(&mut rest)?;
            if let Some(start) = self.starts.get_mut(self.count) {
                *start = self.walked;
            }
            self.count += 1;
            self.walked = self.columns.len() - rest.len();
        }
        Ok(self.walked(c))
    }

    /// Column `c` if the walk has passed it.
    #[inline(always)]
    pub fn walked(&self, c: usize) -> Option<Column<'a>> {
        if c >= self.count {
            return None;
        }
        let start = match self.starts.get(c) {
            Some(&start) => start,
            None => self.skip(self.starts[KEPT - 1], c + 1 - KEPT),
        };
        let end = match self.starts.get(c + 1) {
            _ if c + 1 == self.count => self.walked,
            Some(&next) => next,
            None => self.skip(start, 1),
        };
        Some(Column(&self.columns[start..end]))
    }

    /// Where the column `n` columns after the walked one at `at` starts.
    fn skip(&self, at: usize, n: usize) -> usize {
        let mut rest = &self.columns[at..self.walked];
        for _ in 0..n {
            read_column(&mut rest).expect("a walked column reads as it did");
        }
        self.walked - rest.len()
    }

    /// Hand `each` every column's type and payload, walking from column 0;
    /// the record must end where the tuple does. With `keep` the walk is
    /// kept: every column counts as walked.
    #[inline(always)]
    fn each_column(
        &mut self,
        keep: bool,
        mut each: impl FnMut(usize, Option<DataType>, &'a [u8]) -> Result<()>,
    ) -> Result<()> {
        let mut rest = self.columns;
        for c in 0..self.arity {
            if let (true, Some(start)) = (keep, self.starts.get_mut(c)) {
                *start = self.columns.len() - rest.len();
            }
            let (ty, payload) = read_column(&mut rest)?;
            each(c, ty, payload)?;
        }
        if keep {
            (self.count, self.walked) = (self.arity, self.columns.len() - rest.len());
        }
        match rest.len() {
            0 => Ok(()),
            trailing => Err(JaguarError::Protocol(format!(
                "{trailing} trailing bytes after tuple"
            ))),
        }
    }

    /// Walk the record to its end with every check that decoding the
    /// columns in `cols` makes (a wanted `Str` is UTF-8-checked).
    #[inline]
    pub fn check(&mut self, cols: &ColumnSet) -> Result<()> {
        self.each_column(true, |c, ty, payload| match ty {
            Some(DataType::Str) if cols.contains(c) => std::str::from_utf8(payload)
                .map(drop)
                .map_err(|_| JaguarError::Protocol("invalid utf-8 string".into())),
            _ => Ok(()),
        })
    }

    /// [`decode_tuple`] into a recycled `out`: each value is assigned into
    /// the slot the last record left (a quarter of the cost of
    /// clear-and-push), and `out` grows only as values decode — the arity
    /// is untrusted. It ends the view.
    #[inline]
    pub fn decode_into(mut self, cols: &ColumnSet, out: &mut Vec<Value>) -> Result<()> {
        out.truncate(self.arity);
        self.each_column(false, |c, ty, payload| {
            let value = match cols.contains(c) {
                true => build_column(ty, payload)?,
                false => Value::Null,
            };
            match out.get_mut(c) {
                Some(slot) => *slot = value,
                None => out.push(value),
            }
            Ok(())
        })
    }
}

/// Write a schema (field count, then name + type tag per field).
pub fn write_schema(w: &mut impl Write, s: &Schema) -> Result<()> {
    write_u32(w, s.len() as u32)?;
    for f in s.fields() {
        write_str(w, &f.name)?;
        write_u8(w, f.dtype.tag())?;
    }
    Ok(())
}

/// Read a schema written by [`write_schema`].
pub fn read_schema(r: &mut impl Read) -> Result<Schema> {
    let n = read_u32(r)?;
    if n > 65_535 {
        return Err(JaguarError::Protocol(format!(
            "implausible schema width {n}"
        )));
    }
    let mut fields = Vec::new();
    for _ in 0..n {
        let name = read_str(r)?;
        let dtype = DataType::from_tag(read_u8(r)?)?;
        fields.push(Field::new(name, dtype));
    }
    Schema::new(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A value's tagged encoding.
    fn value_to_vec(v: &Value) -> Vec<u8> {
        let mut buf = Vec::new();
        write_value(&mut buf, v).unwrap();
        buf
    }

    fn roundtrip_tagged(v: &Value) -> Value {
        whole(&value_to_vec(v), next_value).unwrap()
    }

    /// The one decoder of a standalone tagged value.
    fn value_from_slice(data: &[u8]) -> Result<Value> {
        whole(data, next_value)
    }

    #[test]
    fn tagged_roundtrip_all_types() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(i64::MIN),
            Value::Int(0),
            Value::Int(i64::MAX),
            Value::Float(-0.0),
            Value::Float(f64::MAX),
            Value::Str(String::new()),
            Value::Str("héllo – utf8".into()),
            Value::Bytes(ByteArray::patterned(1000, 3)),
        ] {
            assert_eq!(roundtrip_tagged(&v), v);
        }
    }

    #[test]
    fn nan_float_roundtrips_bitwise() {
        let v = Value::Float(f64::NAN);
        match roundtrip_tagged(&v) {
            Value::Float(x) => assert!(x.is_nan()),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn tuple_roundtrip() {
        let t = Tuple::new(vec![
            Value::Int(7),
            Value::Null,
            Value::Bytes(ByteArray::patterned(33, 9)),
            Value::Str("s".into()),
        ]);
        let mut buf = Vec::new();
        write_tuple(&mut buf, &t).unwrap();
        assert_eq!(whole(&buf, next_tuple).unwrap(), t);
    }

    #[test]
    fn schema_roundtrip() {
        let s = Schema::of(&[
            ("id", DataType::Int),
            ("pic", DataType::Bytes),
            ("loc", DataType::Str),
        ]);
        let mut buf = Vec::new();
        write_schema(&mut buf, &s).unwrap();
        assert_eq!(read_schema(&mut buf.as_slice()).unwrap(), s);
    }

    #[test]
    fn corrupt_tag_is_error_not_panic() {
        assert!(value_from_slice(&[200]).is_err());
    }

    #[test]
    fn truncated_stream_is_error() {
        let buf = value_to_vec(&Value::Int(5));
        assert!(value_from_slice(&buf[..4]).is_err());
    }

    #[test]
    fn gigabyte_declared_blob_rejected() {
        let mut frame = Vec::new();
        write_u32(&mut frame, 1 << 30).unwrap();
        let err = read_blob(&mut frame.as_slice()).unwrap_err();
        assert!(err.to_string().contains("exceeds limit"), "{err}");
    }

    #[test]
    fn blob_shorter_than_declared_is_decode_error() {
        // Declared length passes the cap, but the stream ends early: the
        // buffer must only ever hold the bytes that actually arrived.
        let mut frame = Vec::new();
        write_u32(&mut frame, 1024).unwrap();
        frame.extend_from_slice(b"only these bytes");
        let err = read_blob(&mut frame.as_slice()).unwrap_err();
        assert!(err.to_string().contains("truncated blob"), "{err}");
    }

    #[test]
    fn trailing_garbage_is_error() {
        let mut buf = value_to_vec(&Value::Int(5));
        buf.push(0);
        assert!(value_from_slice(&buf).is_err());
    }

    #[test]
    fn huge_declared_blob_is_rejected() {
        // Tag for Bytes, then a 4 GiB-ish declared length with no body.
        let mut buf = vec![DataType::Bytes.tag()];
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(value_from_slice(&buf).is_err());
    }

    #[test]
    fn implausible_arity_rejected() {
        let mut buf = Vec::new();
        write_u32(&mut buf, 1_000_000).unwrap();
        assert!(next_tuple(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn invalid_bool_byte_rejected() {
        let buf = vec![DataType::Bool.tag(), 7];
        assert!(value_from_slice(&buf).is_err());
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut buf = vec![DataType::Str.tag()];
        write_blob(&mut buf, &[0xff, 0xfe]).unwrap();
        assert!(value_from_slice(&buf).is_err());
    }

    #[test]
    fn small_blob_is_read_into_one_exact_allocation() {
        let mut frame = Vec::new();
        write_blob(&mut frame, &[9u8; 100]).unwrap();
        let blob = read_blob(&mut frame.as_slice()).unwrap();
        assert_eq!((blob.len(), blob.capacity()), (100, 100));
    }

    fn encode(t: &Tuple) -> Vec<u8> {
        let mut buf = Vec::new();
        write_tuple(&mut buf, t).unwrap();
        buf
    }

    #[test]
    fn decode_tuple_rejects_what_read_tuple_rejects() {
        let all = ColumnSet::all();
        let none = ColumnSet::of(1, []);
        let record = |body: &[u8]| [&1u32.to_le_bytes()[..], body].concat();
        // A view's check fails as the decode does, in the same words.
        let err = |rec: &[u8], cols| {
            let decoded = decode_tuple(rec, cols).unwrap_err().to_string();
            let viewed = RecordView::new(rec).and_then(|mut v| v.check(cols));
            assert_eq!(viewed.unwrap_err().to_string(), decoded);
            decoded
        };
        let bad_bool = record(&[DataType::Bool.tag(), 7]);
        let bad_tag = record(&[200]);
        let mut huge = record(&[DataType::Bytes.tag()]);
        huge.extend_from_slice(&(1u32 << 30).to_le_bytes());
        let mut short = record(&[DataType::Bytes.tag()]);
        short.extend_from_slice(&1024u32.to_le_bytes());
        short.extend_from_slice(b"only these bytes");
        for cols in [&all, &none] {
            assert!(err(&bad_bool, cols).contains("invalid bool byte 7"));
            assert!(err(&bad_tag, cols).contains("unknown type tag 200"));
            assert!(err(&huge, cols).contains("exceeds limit"));
            assert!(err(&short, cols).contains("truncated blob: declared 1024"));
            assert!(err(&1_000_000u32.to_le_bytes(), cols).contains("implausible tuple arity"));
            assert!(matches!(
                decode_tuple(&[1, 0], cols),
                Err(JaguarError::Io(_))
            ));
            assert!(matches!(
                next_tuple(&mut &[1, 0][..]),
                Err(JaguarError::Io(_))
            ));
            let mut trailing = encode(&Tuple::new(vec![Value::Int(5)]));
            trailing.push(0);
            assert!(err(&trailing, cols).contains("1 trailing bytes"));
        }
        // The one decoder of a tuple in a message rejects each alike.
        let mut trailing = encode(&Tuple::new(vec![Value::Int(5)]));
        trailing.push(0);
        let arity = 1_000_000u32.to_le_bytes();
        for (rec, text) in [
            (&bad_bool[..], "invalid bool byte 7"),
            (&bad_tag, "unknown type tag 200"),
            (&huge, "exceeds limit"),
            (&short, "truncated blob: declared 1024"),
            (&arity, "implausible tuple arity"),
            (&trailing, "1 trailing bytes"),
        ] {
            let e = whole(rec, next_tuple).unwrap_err().to_string();
            assert!(e.contains(text), "{e}");
        }
        // A string is UTF-8-checked only if it is wanted.
        let mut bad_str = record(&[DataType::Str.tag()]);
        write_blob(&mut bad_str, &[0xff, 0xfe]).unwrap();
        assert!(err(&bad_str, &all).contains("invalid utf-8"));
        let e = whole(&bad_str, next_tuple).unwrap_err();
        assert!(e.to_string().contains("invalid utf-8"), "{e}");
        assert_eq!(
            decode_tuple(&bad_str, &none).unwrap().values(),
            [Value::Null]
        );
        let mut view = RecordView::new(&bad_str).unwrap();
        view.check(&none).unwrap();
    }

    /// A view walks a record once, as far as it is asked: a column behind
    /// the walk is read where it lies, and a damaged column past the last
    /// one asked for is not seen until the record is walked to its end.
    #[test]
    fn a_view_walks_as_far_as_it_is_asked() {
        let mut rec = encode(&Tuple::new(vec![
            Value::Int(1),
            Value::Str("ab".into()),
            Value::Float(2.5),
            Value::Bool(true),
        ]));
        let last = rec.len() - 1;
        rec[last] = 2; // a Bool byte of 2
        let mut view = RecordView::new(&rec).unwrap();
        let third = view.column(2).unwrap().unwrap();
        assert_eq!(third.fixed().unwrap(), Value::Float(2.5));
        assert_eq!(third.encoded(), value_to_vec(&Value::Float(2.5)));
        let second = view.column(1).unwrap().unwrap();
        assert_eq!(
            second.fixed().unwrap(),
            Value::Null,
            "a string is not judged"
        );
        assert_eq!(second.value().unwrap(), Value::Str("ab".into()));
        assert_eq!(
            view.column(0).unwrap().unwrap().value().unwrap(),
            Value::Int(1)
        );
        assert!(view.column(4).unwrap().is_none());
        assert_eq!(view.count, 3, "walked to column 2 and no further");
        let err = view.check(&ColumnSet::all()).unwrap_err();
        assert_eq!(
            err.to_string(),
            decode_tuple(&rec, &ColumnSet::all())
                .unwrap_err()
                .to_string()
        );
        assert!(err.to_string().contains("invalid bool byte 2"), "{err}");
    }

    mod decode_props {
        use super::*;
        use proptest::prelude::*;

        fn arb_value() -> impl Strategy<Value = Value> {
            prop_oneof![
                Just(Value::Null),
                any::<bool>().prop_map(Value::Bool),
                any::<i64>().prop_map(Value::Int),
                any::<f64>().prop_map(Value::Float),
                ".{0,24}".prop_map(Value::Str),
                proptest::collection::vec(any::<u8>(), 0..200)
                    .prop_map(|v| Value::Bytes(ByteArray::new(v))),
            ]
        }

        /// A tuple of up to twelve values — past the starts a view keeps —
        /// and a column set over it.
        fn arb_case() -> impl Strategy<Value = (Tuple, ColumnSet)> {
            (
                proptest::collection::vec(arb_value(), 0..13),
                proptest::collection::vec(any::<bool>(), 12..13),
            )
                .prop_map(|(values, picks)| {
                    let wanted = (0..values.len()).filter(|&i| picks[i]);
                    let cols = ColumnSet::of(values.len(), wanted);
                    (Tuple::new(values), cols)
                })
        }

        proptest! {
            /// Pruning never changes a value it keeps: the pruned decode is
            /// the full decode with the unwanted columns nulled, and the
            /// full decode is `next_tuple`'s. (Compared as re-encoded
            /// bytes: NaN is not equal to itself.)
            #[test]
            fn pruned_decode_is_full_decode_with_unwanted_nulled(case in arb_case()) {
                let (tuple, cols) = case;
                let record = encode(&tuple);
                let full = decode_tuple(&record, &ColumnSet::all()).unwrap();
                prop_assert_eq!(encode(&full), record.clone());
                let streamed = whole(&record, next_tuple).unwrap();
                prop_assert_eq!(encode(&streamed), record.clone());
                let nulled: Vec<Value> = (full.values().iter().enumerate())
                    .map(|(i, v)| if cols.contains(i) { v.clone() } else { Value::Null })
                    .collect();
                let pruned = decode_tuple(&record, &cols).unwrap();
                prop_assert_eq!(encode(&pruned), encode(&Tuple::new(nulled)));
            }

            /// A column a scan judges is the one the decode builds, or NULL
            /// for a `Str`/`Bytes` one; past the record's end there is none.
            /// Asked for in any order, a column's bytes are its tagged
            /// encoding, and the record is walked no further than the last
            /// column asked for; an INT one's payload is its integer. Walked
            /// to its end, the view shows every column, past the starts it
            /// keeps too. Decoding into a recycled tuple, after the view
            /// judged those columns, is the plain decode.
            #[test]
            fn a_judged_column_is_the_decoded_column(
                case in arb_case(),
                asked in proptest::collection::vec(0usize..14, 0..6),
            ) {
                let (tuple, cols) = case;
                let record = encode(&tuple);
                let full = decode_tuple(&record, &ColumnSet::all()).unwrap();
                let mut view = RecordView::new(&record).unwrap();
                for &c in &asked {
                    let got = view.column(c).unwrap();
                    let want = full.values().get(c);
                    prop_assert_eq!(
                        got.map(|col| value_to_vec(&col.fixed().unwrap())),
                        want.map(|v| value_to_vec(match v {
                            Value::Str(_) | Value::Bytes(_) => &Value::Null,
                            fixed => fixed,
                        }))
                    );
                    prop_assert_eq!(got.map(|col| col.encoded().to_vec()), want.map(value_to_vec));
                    let int = |v: &Value| match v {
                        Value::Int(x) => Some(*x),
                        _ => None,
                    };
                    prop_assert_eq!(got.and_then(|col| col.int()), want.and_then(int));
                }
                let deepest = asked.iter().filter(|&&c| c < full.len()).max();
                prop_assert_eq!(view.count, deepest.map_or(0, |c| c + 1));
                // Checked to its end, every column reads where it lies.
                view.check(&cols).unwrap();
                for (c, v) in full.values().iter().enumerate() {
                    prop_assert_eq!(view.walked(c).map(|col| col.encoded().to_vec()), Some(value_to_vec(v)));
                }
                prop_assert!(view.walked(full.len()).is_none());
                let mut out = vec![Value::Int(7); 3];
                view.decode_into(&cols, &mut out).unwrap();
                let plain = decode_tuple(&record, &cols).unwrap();
                prop_assert_eq!(encode(&Tuple::new(out)), encode(&plain));
            }

            /// A damaged record is an error or some other tuple — never a
            /// panic or a read past the slice — and a record cut short is
            /// always an error, whichever columns are wanted.
            #[test]
            fn damaged_records_never_panic(case in arb_case()) {
                let (tuple, cols) = case;
                let record = encode(&tuple);
                for cols in [&cols, &ColumnSet::all()] {
                    for cut in 0..record.len() {
                        prop_assert!(decode_tuple(&record[..cut], cols).is_err());
                    }
                    let mut damaged = record.clone();
                    for at in 0..record.len() {
                        for flip in [0x01, 0x80, 0xff] {
                            damaged[at] = record[at] ^ flip;
                            let _ = decode_tuple(&damaged, cols);
                            if let Ok(mut view) = RecordView::new(&damaged) {
                                (0..13).rev().for_each(|c| drop(view.column(c)));
                                let _ = view.check(cols);
                            }
                        }
                        damaged[at] = record[at];
                    }
                }
            }
        }
    }
}
