//! Checkpoint codec: one versioned, hand-rolled record frame for engine,
//! shard-set and pipeline state.
//!
//! The engine's value lives entirely in run-local state — snapshot
//! tables, graphlet runs, per-partition aggregates, the monotone
//! watermark. A crash loses every open window unless that state is
//! durable, so every layer cuts it into records through
//! [`Snapshot::cut`](crate::Snapshot::cut) and rebuilds a freshly
//! constructed instance from a chain of them through
//! [`Snapshot::restore_chain`](crate::Snapshot::restore_chain).
//!
//! Every record is one `HMDL` [`Frame`]: chain metadata (kind, seq,
//! parent, workload epoch), one engine-state payload per shard, and an
//! opaque tail the pipeline fills with its own state. An engine payload
//! is always a *delta* — partitions and pending halves to remove, those
//! to upsert, and the small scalar state. A base is the delta from an
//! empty engine: every partition and pending half is an upsert, and the
//! restore applies it onto an emptied engine. One encoder, one decoder
//! and one apply therefore serve both kinds.
//!
//! # Guarantees
//!
//! * **Round-trip identity**: restoring a chain reproduces the engine
//!   state exactly — continuing the stream after a restore emits
//!   byte-identical results, in identical order, to never having
//!   checkpointed (`tests/checkpoint_equivalence.rs`,
//!   `tests/delta_checkpoint.rs`). Encoding is deterministic (hash maps
//!   are serialized in their canonical total order), so a restored
//!   engine's next full cut equals the original's byte for byte.
//! * **Versioned**: every record starts with a magic tag and a format
//!   version; a mismatch is a clean [`CheckpointError`], never a
//!   mis-decode.
//! * **Workload-fingerprinted**: a payload taken under one compiled
//!   workload (share groups, member counts, windows, sharding) refuses
//!   to restore into an engine compiled from a different one.
//!
//! The codec is deliberately dependency-free (the build environment has
//! no crates.io route, so there is no serde): fixed-width little-endian
//! integers, `f64` as IEEE-754 bits, length-prefixed sequences and
//! UTF-8 strings. Wall-clock artifacts (`Instant` arrival stamps) are
//! not serialized — they reset across a restore, which can only affect
//! latency *metrics*, never results. Byte layouts live in
//! `docs/checkpoint-format.md`.

use hamlet_types::{AttrValue, Event, GroupKey, Ts};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Magic tag opening every checkpoint record.
pub const MAGIC: [u8; 4] = *b"HMDL";
/// Record format version.
pub const VERSION: u16 = 2;

/// Kind byte of a frame carrying a full base.
const KIND_BASE: u8 = 0;
/// Kind byte of a frame carrying an incremental delta.
const KIND_DELTA: u8 = 1;

/// One checkpoint record, parsed without decoding its payloads (which it
/// borrows from the record bytes).
///
/// A single engine cuts a frame with one shard payload and an empty
/// tail. A shard set (`ParallelEngine`, the pipeline) packs the
/// payloads its engines cut at one barrier, in shard order; the
/// pipeline appends its reorder buffer, cursor and counters as the tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame<'a> {
    /// True for a base (a full snapshot), false for a delta.
    pub base: bool,
    /// Chain sequence number of this record (monotone per chain).
    pub seq: u64,
    /// Sequence number of the predecessor record (0 for a base).
    pub parent: u64,
    /// Workload epoch the record was cut at.
    pub epoch: u64,
    /// One engine-state payload per shard (index = shard).
    pub shards: Vec<&'a [u8]>,
    /// Layer-specific state after the shards (empty below the pipeline).
    pub tail: &'a [u8],
}

impl<'a> Frame<'a> {
    /// Serializes the frame: magic, version, kind, chain position, epoch,
    /// the length-prefixed shard payloads, then the length-prefixed tail.
    pub fn encode(&self) -> Vec<u8> {
        // Sized exactly: a frame copies whole engine states, and growing
        // the buffer past them would double it.
        let fixed = 4 + 2 + 1 + 3 * 8 + 8 + 8;
        let payloads: usize = self.shards.iter().map(|s| 8 + s.len()).sum();
        let mut e = Enc::with_capacity(fixed + payloads + self.tail.len());
        e.raw(&MAGIC);
        e.u16(VERSION);
        e.u8(if self.base { KIND_BASE } else { KIND_DELTA });
        e.u64(self.seq);
        e.u64(self.parent);
        e.u64(self.epoch);
        e.usize(self.shards.len());
        for s in &self.shards {
            e.bytes(s);
        }
        e.bytes(self.tail);
        e.finish()
    }

    /// Mirror of [`encode`](Self::encode): parses and validates the
    /// frame, borrowing the payloads from `bytes`.
    pub fn decode(bytes: &'a [u8]) -> Result<Frame<'a>, CheckpointError> {
        let mut d = Dec::new(bytes);
        d.magic(&MAGIC)?;
        let v = d.u16()?;
        if v != VERSION {
            return Err(CheckpointError::BadVersion(v));
        }
        let base = match d.u8()? {
            KIND_BASE => true,
            KIND_DELTA => false,
            k => return Err(CheckpointError::Corrupt(format!("record kind {k}"))),
        };
        let seq = d.u64()?;
        let parent = d.u64()?;
        let epoch = d.u64()?;
        let n = d.seq_len()?;
        if n == 0 {
            return Err(CheckpointError::Corrupt("record with no shards".into()));
        }
        let mut shards = Vec::with_capacity(n);
        for _ in 0..n {
            shards.push(d.bytes()?);
        }
        let tail = d.bytes()?;
        d.expect_end()?;
        Ok(Frame {
            base,
            seq,
            parent,
            epoch,
            shards,
            tail,
        })
    }
}

/// Encodes a one-shard record with an empty tail whose payload `body`
/// writes straight into the frame: what
/// `Frame { shards: vec![payload], tail: &[], .. }.encode()` produces,
/// without materializing the payload first.
pub(crate) fn encode_single(
    base: bool,
    seq: u64,
    parent: u64,
    epoch: u64,
    body: impl FnOnce(&mut Enc),
) -> Vec<u8> {
    let mut e = Enc::new();
    e.raw(&MAGIC);
    e.u16(VERSION);
    e.u8(if base { KIND_BASE } else { KIND_DELTA });
    e.u64(seq);
    e.u64(parent);
    e.u64(epoch);
    e.usize(1);
    // The payload's length prefix, patched once `body` is done.
    let at = e.buf.len();
    e.usize(0);
    body(&mut e);
    let len = (e.buf.len() - at - 8) as u64;
    e.buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
    e.bytes(&[]);
    e.finish()
}

/// Errors surfaced while decoding or validating a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The blob does not start with the expected magic tag.
    BadMagic,
    /// The blob's format version is not one this build understands.
    BadVersion(u16),
    /// The blob ended before the decoder was done.
    UnexpectedEof,
    /// The blob decoded to something structurally invalid.
    Corrupt(String),
    /// The checkpoint's workload fingerprint does not match the engine
    /// it is being restored into.
    WorkloadMismatch(String),
    /// A checkpoint store failed to read or write the underlying
    /// medium (only produced by store implementations, never by the
    /// codec itself).
    Io(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a checkpoint (bad magic)"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::UnexpectedEof => write!(f, "checkpoint truncated"),
            CheckpointError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
            CheckpointError::WorkloadMismatch(m) => {
                write!(f, "checkpoint does not match this workload: {m}")
            }
            CheckpointError::Io(m) => write!(f, "checkpoint store io error: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Binary encoder: appends fixed-width little-endian primitives and
/// length-prefixed composites to a growable buffer.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// New empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }

    /// New empty encoder with room for `bytes` bytes.
    pub fn with_capacity(bytes: usize) -> Self {
        Enc {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// Finishes encoding and hands back the blob.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True iff nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Raw bytes, verbatim.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `usize` as a `u64` (the format is 64-bit everywhere).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Two's-complement `i64`.
    pub fn i64(&mut self, v: i64) {
        self.u64(v as u64);
    }

    /// IEEE-754 bits of an `f64` (bit-exact, `NaN`s included).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Boolean as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// `Duration` as whole nanoseconds (saturating at `u64::MAX` ≈ 584
    /// years — far beyond any run this engine measures).
    pub fn duration(&mut self, d: Duration) {
        self.u64(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.raw(s.as_bytes());
    }

    /// Length-prefixed byte blob.
    pub fn bytes(&mut self, b: &[u8]) {
        self.usize(b.len());
        self.raw(b);
    }

    /// `Option` presence tag; the caller encodes the payload when `true`.
    pub fn some(&mut self, present: bool) {
        self.bool(present);
    }

    /// One attribute value (tagged union).
    pub fn attr_value(&mut self, v: &AttrValue) {
        match v {
            AttrValue::Int(i) => {
                self.u8(0);
                self.i64(*i);
            }
            AttrValue::Float(f) => {
                self.u8(1);
                self.f64(*f);
            }
            AttrValue::Str(s) => {
                self.u8(2);
                self.str(s);
            }
        }
    }

    /// A group-by partition key.
    pub fn group_key(&mut self, k: &GroupKey) {
        self.usize(k.0.len());
        for v in &k.0 {
            self.attr_value(v);
        }
    }

    /// One stream event (time, type, attributes).
    pub fn event(&mut self, e: &Event) {
        self.u64(e.time.ticks());
        self.u16(e.ty.0);
        self.usize(e.attrs.len());
        for a in &e.attrs {
            self.attr_value(a);
        }
    }
}

/// Binary decoder over a checkpoint blob; the mirror of [`Enc`].
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Starts decoding a blob.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless every byte was consumed — trailing garbage means the
    /// blob was not produced by this format.
    pub fn expect_end(&self) -> Result<(), CheckpointError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CheckpointError::Corrupt(format!(
                "{} trailing byte(s)",
                self.remaining()
            )))
        }
    }

    /// Consumes and checks a 4-byte magic tag.
    pub fn magic(&mut self, expected: &[u8; 4]) -> Result<(), CheckpointError> {
        if self.take(4).map_err(|_| CheckpointError::BadMagic)? == expected {
            Ok(())
        } else {
            Err(CheckpointError::BadMagic)
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.remaining() < n {
            return Err(CheckpointError::UnexpectedEof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    /// Little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CheckpointError> {
        let b = self
            .take(2)?
            .try_into()
            .map_err(|_| CheckpointError::UnexpectedEof)?;
        Ok(u16::from_le_bytes(b))
    }

    /// Little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CheckpointError> {
        let b = self
            .take(4)?
            .try_into()
            .map_err(|_| CheckpointError::UnexpectedEof)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        let b = self
            .take(8)?
            .try_into()
            .map_err(|_| CheckpointError::UnexpectedEof)?;
        Ok(u64::from_le_bytes(b))
    }

    /// `usize` (bounded by the blob length to refuse absurd
    /// length prefixes before any allocation).
    pub fn usize(&mut self) -> Result<usize, CheckpointError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| CheckpointError::Corrupt(format!("length {v} overflows")))
    }

    /// A sequence length, sanity-bounded by the bytes that remain (every
    /// element costs at least one byte).
    pub fn seq_len(&mut self) -> Result<usize, CheckpointError> {
        let n = self.usize()?;
        if n > self.remaining() {
            return Err(CheckpointError::Corrupt(format!(
                "sequence of {n} elements in {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Two's-complement `i64`.
    pub fn i64(&mut self) -> Result<i64, CheckpointError> {
        Ok(self.u64()? as i64)
    }

    /// `f64` from IEEE-754 bits.
    pub fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Boolean (rejects anything but 0/1).
    pub fn bool(&mut self) -> Result<bool, CheckpointError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CheckpointError::Corrupt(format!("bool byte {b}"))),
        }
    }

    /// `Duration` from whole nanoseconds.
    pub fn duration(&mut self) -> Result<Duration, CheckpointError> {
        Ok(Duration::from_nanos(self.u64()?))
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CheckpointError> {
        let n = self.seq_len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| CheckpointError::Corrupt(format!("invalid utf-8: {e}")))
    }

    /// Length-prefixed byte blob, borrowed from the input.
    pub fn bytes(&mut self) -> Result<&'a [u8], CheckpointError> {
        let n = self.seq_len()?;
        self.take(n)
    }

    /// `Option` presence tag.
    pub fn some(&mut self) -> Result<bool, CheckpointError> {
        self.bool()
    }

    /// One attribute value.
    pub fn attr_value(&mut self) -> Result<AttrValue, CheckpointError> {
        match self.u8()? {
            0 => Ok(AttrValue::Int(self.i64()?)),
            1 => Ok(AttrValue::Float(self.f64()?)),
            2 => Ok(AttrValue::Str(Arc::from(self.str()?.as_str()))),
            t => Err(CheckpointError::Corrupt(format!("attr tag {t}"))),
        }
    }

    /// A group-by partition key.
    pub fn group_key(&mut self) -> Result<GroupKey, CheckpointError> {
        let n = self.seq_len()?;
        let mut vals = Vec::with_capacity(n);
        for _ in 0..n {
            vals.push(self.attr_value()?);
        }
        Ok(GroupKey(vals))
    }

    /// One stream event.
    pub fn event(&mut self) -> Result<Event, CheckpointError> {
        let time = Ts(self.u64()?);
        let ty = hamlet_types::EventTypeId(self.u16()?);
        let n = self.seq_len()?;
        let mut attrs = Vec::with_capacity(n);
        for _ in 0..n {
            attrs.push(self.attr_value()?);
        }
        Ok(Event { time, ty, attrs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trip() {
        let mut e = Enc::new();
        e.u8(7);
        e.u16(65_000);
        e.u32(123_456);
        e.u64(u64::MAX - 1);
        e.i64(-42);
        e.f64(-2.5);
        e.f64(f64::NAN);
        e.bool(true);
        e.duration(Duration::from_micros(1234));
        e.str("héllo");
        e.bytes(&[1, 2, 3]);
        let blob = e.finish();
        let mut d = Dec::new(&blob);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u16().unwrap(), 65_000);
        assert_eq!(d.u32().unwrap(), 123_456);
        assert_eq!(d.u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.i64().unwrap(), -42);
        assert_eq!(d.f64().unwrap(), -2.5);
        assert!(d.f64().unwrap().is_nan());
        assert!(d.bool().unwrap());
        assert_eq!(d.duration().unwrap(), Duration::from_micros(1234));
        assert_eq!(d.str().unwrap(), "héllo");
        assert_eq!(d.bytes().unwrap(), [1, 2, 3]);
        d.expect_end().unwrap();
    }

    #[test]
    fn values_and_events_round_trip() {
        let key = GroupKey(vec![
            AttrValue::Int(-3),
            AttrValue::Float(1.5),
            AttrValue::Str(Arc::from("d1")),
        ]);
        let ev = Event::new(Ts(99), hamlet_types::EventTypeId(4), key.0.clone());
        let mut e = Enc::new();
        e.group_key(&key);
        e.event(&ev);
        let blob = e.finish();
        let mut d = Dec::new(&blob);
        assert_eq!(d.group_key().unwrap(), key);
        assert_eq!(d.event().unwrap(), ev);
        d.expect_end().unwrap();
    }

    #[test]
    fn truncation_is_a_clean_error() {
        let mut e = Enc::new();
        e.u64(5);
        let blob = e.finish();
        let mut d = Dec::new(&blob[..4]);
        assert_eq!(d.u64(), Err(CheckpointError::UnexpectedEof));
    }

    #[test]
    fn absurd_lengths_are_rejected_before_allocation() {
        let mut e = Enc::new();
        e.u64(u64::MAX); // length prefix far beyond the blob
        let blob = e.finish();
        let mut d = Dec::new(&blob);
        assert!(matches!(d.seq_len(), Err(CheckpointError::Corrupt(_))));
        let mut d = Dec::new(&blob);
        assert!(d.str().is_err());
    }

    #[test]
    fn bad_bool_and_tags_are_corrupt() {
        let mut d = Dec::new(&[9]);
        assert!(matches!(d.bool(), Err(CheckpointError::Corrupt(_))));
        let mut d = Dec::new(&[9]);
        assert!(matches!(d.attr_value(), Err(CheckpointError::Corrupt(_))));
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut e = Enc::new();
        e.u8(1);
        e.u8(2);
        let blob = e.finish();
        let mut d = Dec::new(&blob);
        let _ = d.u8().unwrap();
        assert!(matches!(d.expect_end(), Err(CheckpointError::Corrupt(_))));
    }

    #[test]
    fn errors_display() {
        for e in [
            CheckpointError::BadMagic,
            CheckpointError::BadVersion(9),
            CheckpointError::UnexpectedEof,
            CheckpointError::Corrupt("x".into()),
            CheckpointError::WorkloadMismatch("y".into()),
        ] {
            assert!(!format!("{e}").is_empty());
        }
    }

    #[test]
    fn frame_round_trips_and_rejects_every_prefix() {
        let f = Frame {
            base: false,
            seq: 7,
            parent: 6,
            epoch: 2,
            shards: vec![&[1, 2, 3], &[], &[4]],
            tail: &[9, 9],
        };
        let bytes = f.encode();
        assert_eq!(
            bytes.capacity(),
            bytes.len(),
            "encode sizes the frame exactly"
        );
        assert_eq!(Frame::decode(&bytes).unwrap(), f);
        for cut in 0..bytes.len() {
            assert!(Frame::decode(&bytes[..cut]).is_err(), "prefix {cut}");
        }
        let mut bumped = bytes.clone();
        bumped[4] = 9;
        assert_eq!(Frame::decode(&bumped), Err(CheckpointError::BadVersion(9)));
        let single = encode_single(true, 3, 0, 1, |e| e.raw(&[5, 6]));
        let one = Frame {
            base: true,
            seq: 3,
            parent: 0,
            epoch: 1,
            shards: vec![&[5, 6]],
            tail: &[],
        };
        assert_eq!(single, one.encode());
        let empty = Frame {
            shards: Vec::new(),
            ..f
        };
        assert!(matches!(
            Frame::decode(&empty.encode()),
            Err(CheckpointError::Corrupt(_))
        ));
    }
}
