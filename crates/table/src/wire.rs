//! Canonical binary serialization for tables and values — the wire format
//! the checkpoint store (`wrangler-ckpt`) persists stage outputs in.
//!
//! Two properties are load-bearing and tested:
//!
//! * **Byte-exact round-trips.** Floats are encoded as their raw IEEE-754
//!   bits (`f64::to_bits`), never rendered and re-parsed, so a resumed
//!   wrangle that loads a checkpointed table is `to_bits`-identical to the
//!   pass that wrote it — including negative zero and every subnormal.
//!   (NaN payloads round-trip too, though the pipeline's containment layer
//!   quarantines them before they get this far.)
//! * **Canonical renderings.** A value/table has exactly one encoding, so
//!   [`hash64`] over the encoding is a content key: equal content ⇔ equal
//!   bytes ⇔ equal hash (modulo 64-bit collisions, which the checkpoint
//!   record's full checksum backstops).
//!
//! The format is deliberately boring: fixed-width little-endian integers,
//! length-prefixed UTF-8, one tag byte per value. No varints, no framing —
//! framing, checksums and atomicity belong to the checkpoint store, not the
//! payload encoding.

use crate::{DataType, Field, Result, Schema, Table, TableError, Value};

/// Seed/offset of the FNV-1a 64-bit hash.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a 64-bit hasher — deterministic across runs and platforms
/// (unlike `DefaultHasher`, whose algorithm is not a stable contract).
#[derive(Debug, Clone, Copy)]
pub struct Hasher64 {
    state: u64,
}

impl Default for Hasher64 {
    fn default() -> Self {
        Hasher64 { state: FNV_OFFSET }
    }
}

impl Hasher64 {
    /// Fresh hasher.
    pub fn new() -> Hasher64 {
        Hasher64::default()
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Absorb a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write(&v.to_le_bytes())
    }

    /// Absorb a UTF-8 string, length-prefixed so `("ab","c")` and
    /// `("a","bc")` hash differently.
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_u64(s.len() as u64).write(s.as_bytes())
    }

    /// Final hash value.
    pub fn finish(&self) -> u64 {
        // One avalanche round (splitmix64 finalizer): FNV alone is weak in
        // the high bits for short inputs, and content keys slice these bits
        // into file names.
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// FNV-1a-64 (avalanched) over a byte slice.
pub fn hash64(bytes: &[u8]) -> u64 {
    let mut h = Hasher64::new();
    h.write(bytes);
    h.finish()
}

/// Encoder: append-only byte buffer with fixed-width primitives.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Fresh empty encoder.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been encoded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Append a bool as one byte (0/1).
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.u8(u8::from(v))
    }

    /// Append a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a `usize` as `u64`.
    pub fn usize(&mut self, v: usize) -> &mut Self {
        self.u64(v as u64)
    }

    /// Append an `i64`, little-endian two's complement.
    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append an `f64` as its raw IEEE-754 bits.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Append length-prefixed raw bytes.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
        self
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }
}

/// Decoder over a byte slice; every read is bounds-checked and a truncated
/// or malformed buffer surfaces as a structured [`TableError::Invalid`],
/// never a panic — a torn checkpoint must be detectable, not trusted.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Decoder positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    /// A claimed element count cut down to what the unread input could
    /// hold, given that one element encodes to at least `min_encoded_size`
    /// bytes. Decoders size their `Vec::with_capacity` with this, so a
    /// forged length field reserves no more than the input is long.
    pub fn cap(&self, claimed: usize, min_encoded_size: usize) -> usize {
        claimed.min(self.remaining() / min_encoded_size.max(1))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(TableError::Invalid(format!(
                "wire: truncated buffer (need {n} bytes at offset {}, have {})",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a bool; any byte other than 0/1 is malformed.
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(TableError::Invalid(format!("wire: bad bool byte {b}"))),
        }
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a `usize` encoded as `u64`, rejecting values that do not fit.
    pub fn usize(&mut self) -> Result<usize> {
        let v = self.u64()?;
        usize::try_from(v)
            .map_err(|_| TableError::Invalid(format!("wire: length {v} exceeds usize")))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(self.u64()? as i64)
    }

    /// Read an `f64` from its raw bits.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read length-prefixed raw bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.usize()?;
        // Length sanity before allocation-sized reads: a bit-flipped length
        // field must fail cleanly, not attempt a multi-exabyte take.
        if n > self.remaining() {
            return Err(TableError::Invalid(format!(
                "wire: declared length {n} exceeds remaining {} bytes",
                self.remaining()
            )));
        }
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec())
            .map_err(|e| TableError::Invalid(format!("wire: invalid UTF-8: {e}")))
    }
}

// Value tags — part of the persisted format; append-only.
const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_FLOAT: u8 = 3;
const TAG_STR: u8 = 4;

/// Encode one value (tag byte + payload).
pub fn encode_value(enc: &mut Enc, v: &Value) {
    match v {
        Value::Null => {
            enc.u8(TAG_NULL);
        }
        Value::Bool(b) => {
            enc.u8(TAG_BOOL).bool(*b);
        }
        Value::Int(i) => {
            enc.u8(TAG_INT).i64(*i);
        }
        Value::Float(f) => {
            enc.u8(TAG_FLOAT).f64(*f);
        }
        Value::Str(s) => {
            enc.u8(TAG_STR).str(s);
        }
    }
}

/// Decode one value.
pub fn decode_value(dec: &mut Dec<'_>) -> Result<Value> {
    match dec.u8()? {
        TAG_NULL => Ok(Value::Null),
        TAG_BOOL => Ok(Value::Bool(dec.bool()?)),
        TAG_INT => Ok(Value::Int(dec.i64()?)),
        TAG_FLOAT => Ok(Value::Float(dec.f64()?)),
        TAG_STR => Ok(Value::Str(dec.str()?)),
        t => Err(TableError::Invalid(format!("wire: unknown value tag {t}"))),
    }
}

fn dtype_tag(d: DataType) -> u8 {
    match d {
        DataType::Null => 0,
        DataType::Bool => 1,
        DataType::Int => 2,
        DataType::Float => 3,
        DataType::Str => 4,
    }
}

fn dtype_from_tag(t: u8) -> Result<DataType> {
    match t {
        0 => Ok(DataType::Null),
        1 => Ok(DataType::Bool),
        2 => Ok(DataType::Int),
        3 => Ok(DataType::Float),
        4 => Ok(DataType::Str),
        _ => Err(TableError::Invalid(format!("wire: unknown dtype tag {t}"))),
    }
}

/// Encode a schema (field count, then name/dtype/nullable per field).
pub fn encode_schema(enc: &mut Enc, schema: &Schema) {
    enc.usize(schema.len());
    for f in schema.fields() {
        enc.str(&f.name);
        enc.u8(dtype_tag(f.dtype));
        enc.bool(f.nullable);
    }
}

/// Decode a schema.
pub fn decode_schema(dec: &mut Dec<'_>) -> Result<Schema> {
    let n = dec.usize()?;
    let mut fields = Vec::with_capacity(dec.cap(n, 10));
    for _ in 0..n {
        let name = dec.str()?;
        let dtype = dtype_from_tag(dec.u8()?)?;
        let nullable = dec.bool()?;
        let f = if nullable {
            Field::new(name, dtype)
        } else {
            Field::required(name, dtype)
        };
        fields.push(f);
    }
    Schema::new(fields)
}

/// Encode a table columnar: schema, row count, then each column's values.
pub fn encode_table(enc: &mut Enc, t: &Table) {
    encode_schema(enc, t.schema());
    enc.usize(t.num_rows());
    for col in t.columns() {
        for v in col {
            encode_value(enc, v);
        }
    }
}

/// Decode a table written by [`encode_table`].
pub fn decode_table(dec: &mut Dec<'_>) -> Result<Table> {
    let schema = decode_schema(dec)?;
    let rows = dec.usize()?;
    let mut columns: Vec<Vec<Value>> = Vec::with_capacity(schema.len());
    for _ in 0..schema.len() {
        let mut col = Vec::with_capacity(dec.cap(rows, 1));
        for _ in 0..rows {
            col.push(decode_value(dec)?);
        }
        columns.push(col);
    }
    Table::from_columns(schema, columns)
}

/// Canonical bytes of a table (the payload the checkpoint store persists).
pub fn table_bytes(t: &Table) -> Vec<u8> {
    let mut enc = Enc::new();
    encode_table(&mut enc, t);
    enc.into_bytes()
}

/// Content hash of a table over its canonical encoding: equal content ⇔
/// equal hash. This is the "source payload hash" checkpoint keys derive from.
pub fn table_hash(t: &Table) -> u64 {
    hash64(&table_bytes(t))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> Table {
        let mut t = Table::empty(Schema::new(vec![
            Field::new("sku", DataType::Str),
            Field::new("price", DataType::Float),
            Field::new("stock", DataType::Int),
            Field::new("live", DataType::Bool),
        ]).unwrap());
        t.push_row(vec![
            Value::Str("a1".into()),
            Value::Float(9.99),
            Value::Int(3),
            Value::Bool(true),
        ])
        .unwrap();
        t.push_row(vec![
            Value::Null,
            Value::Float(-0.0),
            Value::Int(-7),
            Value::Bool(false),
        ])
        .unwrap();
        t.push_row(vec![
            Value::Str("üñïçødé \"quoted\"".into()),
            Value::Float(f64::MIN_POSITIVE / 2.0), // subnormal
            Value::Int(i64::MIN),
            Value::Bool(true),
        ])
        .unwrap();
        t
    }

    #[test]
    fn table_roundtrip_is_bit_exact() {
        let t = sample_table();
        let bytes = table_bytes(&t);
        let back = decode_table(&mut Dec::new(&bytes)).unwrap();
        assert_eq!(back.num_rows(), t.num_rows());
        assert_eq!(back.schema().names(), t.schema().names());
        for r in 0..t.num_rows() {
            for c in 0..t.num_columns() {
                let (a, b) = (t.get(r, c).unwrap(), back.get(r, c).unwrap());
                match (a, b) {
                    (Value::Float(x), Value::Float(y)) => {
                        assert_eq!(x.to_bits(), y.to_bits(), "({r},{c})")
                    }
                    _ => assert_eq!(a, b, "({r},{c})"),
                }
            }
        }
        // Canonical: re-encoding the decoded table gives identical bytes.
        assert_eq!(table_bytes(&back), bytes);
    }

    #[test]
    fn negative_zero_and_nan_round_trip_by_bits() {
        let mut enc = Enc::new();
        encode_value(&mut enc, &Value::Float(-0.0));
        encode_value(&mut enc, &Value::Float(f64::from_bits(0x7ff8_dead_beef_0001)));
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        let a = decode_value(&mut dec).unwrap();
        let b = decode_value(&mut dec).unwrap();
        assert!(matches!(a, Value::Float(f) if f.to_bits() == (-0.0f64).to_bits()));
        assert!(matches!(b, Value::Float(f) if f.to_bits() == 0x7ff8_dead_beef_0001));
    }

    #[test]
    fn hash_distinguishes_content_not_identity() {
        let t = sample_table();
        let mut u = sample_table();
        assert_eq!(table_hash(&t), table_hash(&u));
        u.set(0, 1, Value::Float(9.990000001)).unwrap();
        assert_ne!(table_hash(&t), table_hash(&u));
    }

    #[test]
    fn truncated_buffers_error_cleanly() {
        let bytes = table_bytes(&sample_table());
        for cut in [0, 1, 5, bytes.len() / 2, bytes.len() - 1] {
            let r = decode_table(&mut Dec::new(&bytes[..cut]));
            assert!(r.is_err(), "cut at {cut} must not decode");
        }
    }

    #[test]
    fn bitflips_never_panic() {
        let bytes = table_bytes(&sample_table());
        for i in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0x40;
            // Any outcome is fine except a panic; most flips fail to decode,
            // a value-payload flip decodes to different content.
            let _ = decode_table(&mut Dec::new(&mutated));
        }
    }

    #[test]
    fn hasher_is_order_and_boundary_sensitive() {
        let mut a = Hasher64::new();
        a.write_str("ab").write_str("c");
        let mut b = Hasher64::new();
        b.write_str("a").write_str("bc");
        assert_ne!(a.finish(), b.finish());
        assert_eq!(hash64(b"xyz"), hash64(b"xyz"));
        assert_ne!(hash64(b"xyz"), hash64(b"xyw"));
    }
}
