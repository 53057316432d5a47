//! The unified snapshot API: one [`Snapshot`] trait for every layer
//! that can checkpoint itself, a typed [`Checkpoint`] handle that peeks
//! chain metadata (kind, epoch, version, fingerprint, chain position)
//! without a full decode, and a [`CheckpointStore`] abstraction
//! ([`MemStore`], [`DirStore`]) managing base+delta chains and
//! compaction GC.
//!
//! A *chain* is one base record (a full snapshot) followed by zero or
//! more contiguous delta records, each carrying only the state touched
//! since its parent. Restoring a chain is byte-identical to restoring a
//! single full checkpoint taken at the same cut — and to never having
//! stopped at all (`tests/delta_checkpoint.rs`). Byte layouts live in
//! `docs/checkpoint-format.md`.
//!
//! # Kill, restore, continue — through a store
//!
//! ```
//! use hamlet_core::{CheckpointStore, CutKind, EngineConfig, HamletEngine, MemStore, Snapshot};
//! use hamlet_query::parse_query;
//! use hamlet_types::{EventBuilder, TypeRegistry};
//! use std::sync::Arc;
//!
//! let mut reg = TypeRegistry::new();
//! let a = reg.register("A", &[]);
//! let b = reg.register("B", &[]);
//! let reg = Arc::new(reg);
//! let q = parse_query(&reg, 1, "RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 10").unwrap();
//! let mk = || HamletEngine::new(reg.clone(), vec![q.clone()], EngineConfig::default()).unwrap();
//! let ev = |ty, t| EventBuilder::new(&reg, ty, t).build();
//!
//! // A reference engine that never stops.
//! let mut oracle = mk();
//!
//! // The "production" engine cuts a chain into a store as it runs:
//! // a full base first, then cheap deltas.
//! let store = MemStore::new();
//! let mut eng = mk();
//! for (ty, t) in [(a, 0), (b, 1)] {
//!     eng.process(&ev(ty, t));
//!     oracle.process(&ev(ty, t));
//! }
//! store.append(&eng.cut(CutKind::Full).unwrap()).unwrap();
//! eng.process(&ev(b, 2));
//! oracle.process(&ev(b, 2));
//! let delta = eng.cut(CutKind::Delta).unwrap();
//! assert!(delta.is_delta());
//! store.append(&delta).unwrap();
//! drop(eng); // kill -9
//!
//! // Revive from the store: base + delta replay...
//! let mut revived = mk();
//! revived.restore_chain(&store.load_chain().unwrap()).unwrap();
//! // ...and the stream continues exactly where it left off.
//! assert_eq!(revived.process(&ev(b, 3)), oracle.process(&ev(b, 3)));
//! assert_eq!(revived.flush(), oracle.flush());
//! ```

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::checkpoint::{CheckpointError, Dec, Frame};
use crate::executor::HamletEngine;

/// What kind of chain record to ask a [`Snapshot::cut`] for. `Delta`
/// is a *request*: a layer that cannot prove a sound delta (first cut,
/// post-churn) silently promotes it to a full base — check
/// [`Checkpoint::is_delta`] on the result for the truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CutKind {
    /// Snapshot everything: starts a new chain.
    Full,
    /// Snapshot only what changed since the previous cut.
    Delta,
}

/// What a [`Checkpoint`] actually holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointKind {
    /// A complete snapshot: starts a chain.
    Full,
    /// An incremental record, meaningful only on top of its parent.
    Delta,
}

/// A typed handle on one checkpoint record: the raw bytes plus the
/// metadata every store and resume path needs — kind, workload epoch,
/// chain position, fingerprint — read from the frame header without
/// decoding the state payloads. The record's structure (every shard
/// payload and the tail) is validated on construction.
///
/// For a shard-set record the fingerprint is the first shard's:
/// coordinated cuts stamp every shard with the same kind, seq, and
/// epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    bytes: Vec<u8>,
    kind: CheckpointKind,
    epoch: u64,
    seq: u64,
    parent: Option<u64>,
    fingerprint: Vec<u8>,
}

impl Checkpoint {
    /// Wraps raw record bytes, parsing and validating the frame (magic,
    /// version, shard payloads, tail) without decoding the state
    /// payloads.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Checkpoint, CheckpointError> {
        let f = Frame::decode(&bytes)?;
        // Every engine payload opens with its workload fingerprint.
        let fingerprint = Dec::new(f.shards[0]).bytes()?.to_vec();
        let (kind, parent) = if f.base {
            (CheckpointKind::Full, None)
        } else {
            (CheckpointKind::Delta, Some(f.parent))
        };
        let (epoch, seq) = (f.epoch, f.seq);
        Ok(Checkpoint {
            bytes,
            kind,
            epoch,
            seq,
            parent,
            fingerprint,
        })
    }

    /// Packs the single-shard records a shard set's engines cut at one
    /// barrier — one per shard, in shard order — into one record that
    /// carries `tail` after the shard payloads. The parts must agree on
    /// kind, chain position and epoch, as lockstep cuts always do.
    pub fn join(parts: &[Checkpoint], tail: &[u8]) -> Result<Checkpoint, CheckpointError> {
        let frames = parts
            .iter()
            .map(|p| Frame::decode(p.as_bytes()))
            .collect::<Result<Vec<_>, _>>()?;
        let Some(first) = frames.first() else {
            return Err(CheckpointError::Corrupt("no shard records to join".into()));
        };
        let mut shards = Vec::with_capacity(frames.len());
        for f in &frames {
            let lockstep = (f.base, f.seq, f.parent, f.epoch)
                == (first.base, first.seq, first.parent, first.epoch);
            if !lockstep || f.shards.len() != 1 || !f.tail.is_empty() {
                return Err(CheckpointError::Corrupt(
                    "shard records to join were not cut in lockstep".into(),
                ));
            }
            shards.push(f.shards[0]);
        }
        let joined = Frame {
            shards,
            tail,
            ..first.clone()
        };
        Checkpoint::from_bytes(joined.encode())
    }

    /// What this record holds: a full snapshot or an incremental delta.
    pub fn kind(&self) -> CheckpointKind {
        self.kind
    }

    /// True when this record is an incremental delta, meaningful only
    /// on top of the chain ending at [`parent`](Self::parent).
    pub fn is_delta(&self) -> bool {
        self.kind == CheckpointKind::Delta
    }

    /// The workload epoch the record was cut at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Chain sequence number (the first cut of an engine is 1).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The chain seq this delta applies on top of; `None` for full
    /// records, which start a chain.
    pub fn parent(&self) -> Option<u64> {
        self.parent
    }

    /// The workload fingerprint stamped into the record (for a shard
    /// set: the first shard's).
    pub fn fingerprint(&self) -> &[u8] {
        &self.fingerprint
    }

    /// The raw record bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Unwraps into the raw record bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Size of the record in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when the record is empty (never, for a valid record).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

/// Parses the live part of an ordered chain — its last full record and
/// the deltas after it (earlier records are obsolete history a store
/// may legitimately still hold) — and validates it: contiguous linkage
/// (`parent` == predecessor `seq`) and one workload epoch.
pub(crate) fn live_frames(chain: &[Checkpoint]) -> Result<Vec<Frame<'_>>, CheckpointError> {
    let Some(base_idx) = chain.iter().rposition(|c| !c.is_delta()) else {
        return Err(CheckpointError::Corrupt(if chain.is_empty() {
            "empty checkpoint chain".into()
        } else {
            "checkpoint chain has no base record".into()
        }));
    };
    let live = &chain[base_idx..];
    for w in live.windows(2) {
        if w[1].epoch != live[0].epoch {
            return Err(CheckpointError::WorkloadMismatch(format!(
                "delta seq {} was cut at workload epoch {} but the chain base is at \
                 epoch {} — the query set churned mid-chain",
                w[1].seq, w[1].epoch, live[0].epoch
            )));
        }
        if w[1].parent != Some(w[0].seq) {
            return Err(CheckpointError::Corrupt(format!(
                "broken checkpoint chain: record seq {} expects parent seq {:?} but \
                 follows seq {}",
                w[1].seq, w[1].parent, w[0].seq
            )));
        }
    }
    live.iter().map(|c| Frame::decode(c.as_bytes())).collect()
}

/// The one checkpoint surface every layer implements — the engine
/// ([`HamletEngine`]), the parallel shard set
/// ([`crate::parallel::ParallelEngine`]), and the live pipeline
/// (`hamlet_pipeline::PipelineHandle`). `cut` emits the next record of
/// the layer's chain; `restore_chain` replays an ordered chain (as
/// loaded by [`CheckpointStore::load_chain`]) into a freshly built
/// layer over the same workload.
pub trait Snapshot {
    /// Cuts the next chain record. A `Delta` request is promoted to a
    /// full base whenever a sound delta cannot be proven (first cut,
    /// after runtime churn).
    fn cut(&mut self, kind: CutKind) -> Result<Checkpoint, CheckpointError>;

    /// Restores state from an ordered chain: the last full record in
    /// the slice and its contiguous deltas. The layer adopts the chain's
    /// workload epoch. Validates linkage, epoch uniformity, and workload
    /// fingerprints, and decodes every record, before committing any
    /// state: on error the layer is unchanged.
    fn restore_chain(&mut self, chain: &[Checkpoint]) -> Result<(), CheckpointError>;
}

impl Snapshot for HamletEngine {
    fn cut(&mut self, kind: CutKind) -> Result<Checkpoint, CheckpointError> {
        Checkpoint::from_bytes(self.cut_record(kind))
    }

    /// A sharded engine (`EngineConfig::shard` = `(i, n)`) restores
    /// shard `i`'s payload from `n`-shard records, so each engine of a
    /// shard set can restore itself from the set's chain.
    fn restore_chain(&mut self, chain: &[Checkpoint]) -> Result<(), CheckpointError> {
        let staged = self.stage_chain(&live_frames(chain)?)?;
        self.commit_chain(staged);
        Ok(())
    }
}

/// Durable home for a checkpoint chain. Implementations keep exactly
/// one live chain: appending a full record starts a new chain and may
/// garbage-collect the old one (compaction).
pub trait CheckpointStore: Send + Sync {
    /// Appends one record, validating chain order: its `seq()` must be
    /// above the stored tip's (a stale record is
    /// [`CheckpointError::Corrupt`]), and a delta must extend the tip
    /// (`parent()` == tip `seq()`). A full record starts a new chain.
    fn append(&self, ck: &Checkpoint) -> Result<(), CheckpointError>;

    /// Loads the live chain in replay order — the most recent full
    /// record first, then its contiguous deltas. Empty if nothing was
    /// ever appended.
    fn load_chain(&self) -> Result<Vec<Checkpoint>, CheckpointError>;
}

/// The order check both stores apply on append, against the stored
/// tip's seq: no delta without a base, no stale record, and a delta
/// must extend the tip.
fn check_append(ck: &Checkpoint, tip_seq: Option<u64>) -> Result<(), CheckpointError> {
    let Some(tip_seq) = tip_seq else {
        if ck.is_delta() {
            return Err(CheckpointError::Corrupt(
                "delta record appended to an empty store (no base to extend)".into(),
            ));
        }
        return Ok(());
    };
    if ck.seq() <= tip_seq {
        return Err(CheckpointError::Corrupt(format!(
            "stale record: seq {} is not above the stored tip's seq {tip_seq}",
            ck.seq()
        )));
    }
    if ck.is_delta() && ck.parent() != Some(tip_seq) {
        return Err(CheckpointError::Corrupt(format!(
            "delta seq {} expects parent seq {:?} but the stored tip is seq {tip_seq}",
            ck.seq(),
            ck.parent(),
        )));
    }
    Ok(())
}

/// An in-memory [`CheckpointStore`], for tests, benches, and processes
/// that only want crash-consistency within their own lifetime.
#[derive(Debug, Default)]
pub struct MemStore {
    chain: Mutex<Vec<Checkpoint>>,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> MemStore {
        MemStore::default()
    }
}

fn lock_err<T>(_: T) -> CheckpointError {
    CheckpointError::Io("checkpoint store mutex poisoned".into())
}

impl CheckpointStore for MemStore {
    fn append(&self, ck: &Checkpoint) -> Result<(), CheckpointError> {
        let mut chain = self.chain.lock().map_err(lock_err)?;
        check_append(ck, chain.last().map(Checkpoint::seq))?;
        // The tip is at hand here, so a cross-epoch delta is refused at
        // append too (restore_chain refuses such a chain either way).
        if let Some(tip) = chain.last().filter(|_| ck.is_delta()) {
            if ck.epoch() != tip.epoch() {
                return Err(CheckpointError::WorkloadMismatch(format!(
                    "delta cut at workload epoch {} appended to a chain at epoch {}",
                    ck.epoch(),
                    tip.epoch()
                )));
            }
        }
        if !ck.is_delta() {
            // A full record starts a new chain; the old one is
            // compacted away.
            chain.clear();
        }
        chain.push(ck.clone());
        Ok(())
    }

    fn load_chain(&self) -> Result<Vec<Checkpoint>, CheckpointError> {
        Ok(self.chain.lock().map_err(lock_err)?.clone())
    }
}

/// A directory-backed [`CheckpointStore`]: one file per record, named
/// `ck-<seq padded to 20>-<base|delta>.hmck`, written via a temp file +
/// `sync_all` + atomic rename so a crash mid-append never leaves a
/// torn record in the chain. Appending a base garbage-collects every
/// earlier record (compaction); `load_chain` reads from the newest
/// base and ignores stray temp files and foreign names.
#[derive(Debug)]
pub struct DirStore {
    dir: PathBuf,
}

/// `(seq, is_base)` parsed from a `DirStore` record file name, or
/// `None` for foreign/temp files.
fn parse_record_name(name: &str) -> Option<(u64, bool)> {
    let rest = name.strip_prefix("ck-")?;
    let rest = rest.strip_suffix(".hmck")?;
    let (seq, kind) = rest.split_once('-')?;
    if seq.len() != 20 || !seq.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let seq: u64 = seq.parse().ok()?;
    let base = match kind {
        "base" => true,
        "delta" => false,
        _ => return None,
    };
    Some((seq, base))
}

fn io_err(op: &str, path: &Path, e: std::io::Error) -> CheckpointError {
    CheckpointError::Io(format!("{op} {}: {e}", path.display()))
}

impl DirStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<DirStore, CheckpointError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| io_err("create", &dir, e))?;
        Ok(DirStore { dir })
    }

    /// The directory this store writes into.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// Sorted `(seq, is_base)` listing of the record files on disk.
    fn listing(&self) -> Result<Vec<(u64, bool)>, CheckpointError> {
        let mut out = Vec::new();
        let rd = std::fs::read_dir(&self.dir).map_err(|e| io_err("read", &self.dir, e))?;
        for entry in rd {
            let entry = entry.map_err(|e| io_err("read", &self.dir, e))?;
            if let Some(parsed) = entry.file_name().to_str().and_then(parse_record_name) {
                out.push(parsed);
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    fn record_path(&self, seq: u64, base: bool) -> PathBuf {
        let kind = if base { "base" } else { "delta" };
        self.dir.join(format!("ck-{seq:020}-{kind}.hmck"))
    }
}

impl CheckpointStore for DirStore {
    fn append(&self, ck: &Checkpoint) -> Result<(), CheckpointError> {
        let listing = self.listing()?;
        check_append(ck, listing.last().map(|&(seq, _)| seq))?;
        let base = !ck.is_delta();
        let final_path = self.record_path(ck.seq(), base);
        let tmp_path = self.dir.join(format!(".tmp-ck-{:020}", ck.seq()));
        {
            let mut f =
                std::fs::File::create(&tmp_path).map_err(|e| io_err("create", &tmp_path, e))?;
            f.write_all(ck.as_bytes())
                .map_err(|e| io_err("write", &tmp_path, e))?;
            f.sync_all().map_err(|e| io_err("sync", &tmp_path, e))?;
        }
        std::fs::rename(&tmp_path, &final_path).map_err(|e| io_err("rename", &tmp_path, e))?;
        if base {
            // Compaction GC: the new base obsoletes everything before
            // it. Best-effort — a leftover file is skipped by
            // load_chain's last-base rule anyway.
            for (seq, old_base) in listing {
                let _ = std::fs::remove_file(self.record_path(seq, old_base));
            }
        }
        Ok(())
    }

    fn load_chain(&self) -> Result<Vec<Checkpoint>, CheckpointError> {
        let listing = self.listing()?;
        let Some(base_idx) = listing.iter().rposition(|&(_, base)| base) else {
            if listing.is_empty() {
                return Ok(Vec::new());
            }
            return Err(CheckpointError::Corrupt(
                "checkpoint directory holds deltas but no base record".into(),
            ));
        };
        let mut chain = Vec::with_capacity(listing.len() - base_idx);
        for &(seq, base) in &listing[base_idx..] {
            let path = self.record_path(seq, base);
            let bytes = std::fs::read(&path).map_err(|e| io_err("read", &path, e))?;
            let ck = Checkpoint::from_bytes(bytes)?;
            if ck.seq() != seq || ck.is_delta() == base {
                return Err(CheckpointError::Corrupt(format!(
                    "record file {} disagrees with its frame header (seq {}, delta {})",
                    path.display(),
                    ck.seq(),
                    ck.is_delta()
                )));
            }
            if let Some(prev) = chain.last() {
                let prev: &Checkpoint = prev;
                if ck.parent() != Some(prev.seq()) {
                    return Err(CheckpointError::Corrupt(format!(
                        "broken chain on disk: seq {} expects parent {:?} after seq {}",
                        ck.seq(),
                        ck.parent(),
                        prev.seq()
                    )));
                }
            }
            chain.push(ck);
        }
        Ok(chain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::EngineConfig;
    use hamlet_query::parse_query;
    use hamlet_types::{Event, TypeRegistry};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn setup() -> (Arc<TypeRegistry>, Vec<hamlet_query::Query>) {
        let mut reg = TypeRegistry::new();
        reg.register("A", &["g"]);
        reg.register("B", &["g"]);
        let reg = Arc::new(reg);
        let q1 = parse_query(
            &reg,
            1,
            "RETURN COUNT(*) PATTERN SEQ(A, B+) GROUP BY g WITHIN 20 SLIDE 10",
        )
        .expect("parse");
        let q2 = parse_query(
            &reg,
            2,
            "RETURN COUNT(*) PATTERN SEQ(B, A+) GROUP BY g WITHIN 20 SLIDE 10",
        )
        .expect("parse");
        (reg, vec![q1, q2])
    }

    fn events(_reg: &TypeRegistry, n: u64) -> Vec<Event> {
        (0..n)
            .map(|i| {
                let ty = hamlet_types::EventTypeId((i % 2) as u16);
                Event::new(
                    hamlet_types::Ts(i),
                    ty,
                    vec![hamlet_types::AttrValue::Int((i % 3) as i64)],
                )
            })
            .collect()
    }

    fn engine(reg: &Arc<TypeRegistry>, qs: &[hamlet_query::Query]) -> HamletEngine {
        HamletEngine::new(reg.clone(), qs.to_vec(), EngineConfig::default()).expect("build")
    }

    #[test]
    fn chain_restore_matches_full_and_uninterrupted() {
        let (reg, qs) = setup();
        let evs = events(&reg, 60);
        let mut oracle = engine(&reg, &qs);
        let mut cutter = engine(&reg, &qs);
        let store = MemStore::new();
        let mut oracle_out = Vec::new();
        let mut cutter_out = Vec::new();
        for (i, e) in evs.iter().enumerate() {
            oracle_out.extend(oracle.process(e));
            cutter_out.extend(cutter.process(e));
            if (i + 1) % 10 == 0 {
                let ck = cutter.cut(CutKind::Delta).expect("cut");
                assert_eq!(ck.is_delta(), i + 1 > 10, "first cut promotes to base");
                store.append(&ck).expect("append");
            }
        }
        let mut revived = engine(&reg, &qs);
        revived
            .restore_chain(&store.load_chain().expect("load"))
            .expect("restore");
        // Chain restore is byte-identical to the cutter at the cut:
        // both describe the same state, so their next full cuts agree...
        let at_cut = cutter.cut(CutKind::Full).expect("cut");
        assert_eq!(revived.cut(CutKind::Full).expect("cut"), at_cut);
        // ...and to a restore of that one full record.
        let mut full = engine(&reg, &qs);
        full.restore_chain(&[at_cut]).expect("full restore");
        assert_eq!(
            full.cut(CutKind::Full).expect("cut"),
            revived.cut(CutKind::Full).expect("cut")
        );
        // The uninterrupted engine and the cutter agree on all output.
        assert_eq!(oracle_out, cutter_out);
        assert_eq!(oracle.flush(), revived.flush());
    }

    #[test]
    fn delta_records_stay_small() {
        let (reg, qs) = setup();
        let evs = events(&reg, 400);
        let mut eng = engine(&reg, &qs);
        let mut full_len = 0usize;
        let mut delta_len = usize::MAX;
        for (i, e) in evs.iter().enumerate() {
            eng.process(e);
            if (i + 1) % 100 == 0 {
                let ck = eng.cut(CutKind::Delta).expect("cut");
                if ck.is_delta() {
                    delta_len = delta_len.min(ck.len());
                } else {
                    full_len = ck.len();
                }
            }
        }
        assert!(delta_len < usize::MAX, "no delta was ever cut");
        assert!(full_len > 0, "no base was ever cut");
    }

    #[test]
    fn cross_epoch_delta_rejected() {
        let (reg, qs) = setup();
        let evs = events(&reg, 30);
        let mut eng = engine(&reg, &qs);
        for e in &evs {
            eng.process(e);
        }
        let base = eng.cut(CutKind::Full).expect("base");
        for e in &evs {
            eng.process(e);
        }
        let delta = eng.cut(CutKind::Delta).expect("delta");
        assert!(delta.is_delta());
        // Hand-build a chain whose delta claims a different epoch.
        let f = Frame::decode(delta.as_bytes()).expect("frame");
        let forged = Frame { epoch: 7, ..f }.encode();
        let forged = Checkpoint::from_bytes(forged).expect("peek");
        let mut fresh = engine(&reg, &qs);
        let err = fresh.restore_chain(&[base, forged]);
        assert!(matches!(err, Err(CheckpointError::WorkloadMismatch(_))));
    }

    #[test]
    fn truncated_chain_rejected() {
        let (reg, qs) = setup();
        let evs = events(&reg, 90);
        let mut eng = engine(&reg, &qs);
        let mut records = Vec::new();
        for (i, e) in evs.iter().enumerate() {
            eng.process(e);
            if (i + 1) % 15 == 0 {
                records.push(eng.cut(CutKind::Delta).expect("cut"));
            }
        }
        assert!(records.len() >= 4);
        // Drop a middle delta: linkage must break loudly.
        let truncated: Vec<Checkpoint> =
            vec![records[0].clone(), records[1].clone(), records[3].clone()];
        let mut fresh = engine(&reg, &qs);
        let err = fresh.restore_chain(&truncated);
        assert!(matches!(err, Err(CheckpointError::Corrupt(_))));
        // A chain with no base at all is also rejected.
        let mut fresh = engine(&reg, &qs);
        let err = fresh.restore_chain(&records[1..]);
        assert!(matches!(err, Err(CheckpointError::Corrupt(_))));
    }

    #[test]
    fn mem_store_validates_appends() {
        let (reg, qs) = setup();
        let mut eng = engine(&reg, &qs);
        for e in events(&reg, 20) {
            eng.process(&e);
        }
        let store = MemStore::new();
        let base = eng.cut(CutKind::Full).expect("base");
        for e in events(&reg, 20) {
            eng.process(&e);
        }
        let delta = eng.cut(CutKind::Delta).expect("delta");
        // Delta into an empty store: no base to extend.
        assert!(matches!(
            store.append(&delta),
            Err(CheckpointError::Corrupt(_))
        ));
        store.append(&base).expect("append base");
        store.append(&delta).expect("append delta");
        // Appending the same delta twice is a stale record.
        assert!(matches!(
            store.append(&delta),
            Err(CheckpointError::Corrupt(_))
        ));
        // So is the older base: it would shadow the newer chain.
        assert!(matches!(
            store.append(&base),
            Err(CheckpointError::Corrupt(_))
        ));
        assert_eq!(store.load_chain().expect("load").len(), 2);
        // A new full cut compacts the chain back to one record.
        let full = eng.cut(CutKind::Full).expect("full");
        store.append(&full).expect("append full");
        let chain = store.load_chain().expect("load");
        assert_eq!(chain.len(), 1);
        assert!(!chain[0].is_delta());
    }

    /// A unique-per-test temp dir without wall-clock naming (the
    /// workspace lint forbids `SystemTime` outside metrics/bench).
    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "hamlet-store-{}-{}-{n}-{tag}",
            std::process::id(),
            std::thread::current()
                .name()
                .unwrap_or("t")
                .replace("::", "-"),
        ))
    }

    #[test]
    fn dir_store_round_trips_and_compacts() {
        let (reg, qs) = setup();
        let dir = temp_dir("roundtrip");
        let store = DirStore::open(&dir).expect("open");
        let mut eng = engine(&reg, &qs);
        let evs = events(&reg, 80);
        for (i, e) in evs.iter().enumerate() {
            eng.process(e);
            if (i + 1) % 20 == 0 {
                store
                    .append(&eng.cut(CutKind::Delta).expect("cut"))
                    .expect("append");
            }
        }
        // Re-open fresh (a new process would) and restore.
        let store2 = DirStore::open(&dir).expect("reopen");
        let chain = store2.load_chain().expect("load");
        assert_eq!(chain.len(), 4);
        assert!(!chain[0].is_delta());
        assert!(chain[1..].iter().all(Checkpoint::is_delta));
        let mut revived = engine(&reg, &qs);
        revived.restore_chain(&chain).expect("restore");
        let full = eng.cut(CutKind::Full).expect("full");
        assert_eq!(revived.cut(CutKind::Full).expect("full"), full);
        // A full cut compacts the directory down to one base file.
        store2.append(&full).expect("append");
        let chain = store2.load_chain().expect("load");
        assert_eq!(chain.len(), 1);
        assert_eq!(store2.listing().expect("listing").len(), 1);
        // A stale record — an earlier cut, or another engine's first —
        // is refused instead of shadowing the stored tip.
        let mut other = engine(&reg, &qs);
        for e in &evs {
            other.process(e);
        }
        let first = other.cut(CutKind::Full).expect("cut");
        assert!(matches!(
            store2.append(&first),
            Err(CheckpointError::Corrupt(m)) if m.contains("stale")
        ));
        assert_eq!(store2.load_chain().expect("load"), vec![full]);
        // A stray temp file (a crash mid-append) is invisible.
        std::fs::write(dir.join(".tmp-ck-garbage"), b"torn").expect("write");
        assert_eq!(store2.load_chain().expect("load").len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_peeks_without_decode() {
        let (reg, qs) = setup();
        let mut eng = engine(&reg, &qs);
        for e in events(&reg, 25) {
            eng.process(&e);
        }
        // Chain records carry seq/parent; the first cut is seq 1.
        let base = eng.cut(CutKind::Full).expect("base");
        assert_eq!(base.kind(), CheckpointKind::Full);
        assert_eq!(base.seq(), 1);
        assert_eq!(base.parent(), None);
        assert_eq!(base.epoch(), 0);
        for e in events(&reg, 5) {
            eng.process(&e);
        }
        let delta = eng.cut(CutKind::Delta).expect("delta");
        assert!(delta.is_delta());
        assert_eq!(delta.seq(), 2);
        assert_eq!(delta.parent(), Some(1));
        assert_eq!(delta.fingerprint(), base.fingerprint());
        // (At this toy scale every partition is dirty, so the delta is
        // not materially smaller; fig_checkpoint gates size at 10⁴ keys.)
        assert!(Checkpoint::from_bytes(b"nope".to_vec()).is_err());
    }

    #[test]
    fn join_packs_lockstep_shards_and_refuses_others() {
        let (reg, qs) = setup();
        let mut a = engine(&reg, &qs);
        let mut b = engine(&reg, &qs);
        let (ca, cb) = (
            a.cut(CutKind::Full).expect("a"),
            b.cut(CutKind::Full).expect("b"),
        );
        let joined = Checkpoint::join(&[ca.clone(), cb.clone()], b"tail").expect("join");
        let f = Frame::decode(joined.as_bytes()).expect("frame");
        assert_eq!(f.shards.len(), 2);
        assert_eq!(f.tail, b"tail");
        assert_eq!((joined.seq(), joined.parent()), (1, None));
        // Out of lockstep: b has moved on to seq 2.
        let cb2 = b.cut(CutKind::Full).expect("b");
        assert!(Checkpoint::join(&[ca, cb2], &[]).is_err());
        assert!(Checkpoint::join(&[], &[]).is_err());
        // An engine refuses a record with the wrong shard count.
        let mut fresh = engine(&reg, &qs);
        assert!(matches!(
            fresh.restore_chain(&[joined]),
            Err(CheckpointError::WorkloadMismatch(_))
        ));
    }
}
