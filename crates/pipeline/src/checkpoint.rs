//! Pipeline-level checkpoints: everything a live pipeline must persist
//! to resume after a crash or planned restart.
//!
//! A pipeline's durable state spans three layers:
//!
//! 1. **Engines** — one engine-state payload per shard worker (open
//!    windows, snapshot tables, watermark, counters);
//! 2. **Reorder buffer** — events the ingest stage pulled but had not
//!    yet released past the watermark;
//! 3. **Source cursor** — how many events were pulled from the source,
//!    so a replayable source can be repositioned, plus the maximum event
//!    time observed (the watermark seed for the resumed policy).
//!
//! All three travel in one shard-set record — the same `HMDL` frame
//! every layer writes ([`hamlet_core::checkpoint::Frame`]): the shard
//! payloads, then layers 2 and 3 (plus counters and run time) as the
//! frame's tail. Cadence cuts, on-demand [`Snapshot::cut`]s and the
//! consuming [`PipelineHandle::checkpoint`](crate::PipelineHandle::checkpoint)
//! all produce such records, numbered along one chain;
//! [`PipelineBuilder::resume_from`](crate::PipelineBuilder::resume_from)
//! restores from a chain of them.
//!
//! [`Snapshot::cut`]: hamlet_core::Snapshot::cut

use hamlet_core::checkpoint::{CheckpointError, Dec, Enc, Frame};
use hamlet_core::Checkpoint;
use hamlet_types::{Event, Ts};
use std::time::Duration;

/// The pipeline's own state at a barrier — the tail of its records.
pub(crate) struct PipelineTail {
    /// Reorder-buffer events not yet released, in `(time, arrival)`
    /// order.
    pub(crate) buffered: Vec<Event>,
    /// Events pulled from the source before the barrier (the cursor a
    /// replayable source must skip to on resume — late drops included).
    pub(crate) events_pulled: u64,
    /// Maximum event time observed — seeds the resumed watermark policy.
    pub(crate) max_seen: Option<Ts>,
    /// Counter continuity: ingested / late / released / results at the
    /// barrier, carried into the resumed pipeline's metrics.
    pub(crate) counters: [u64; 4],
    /// Wall time the logical run had accumulated at the barrier (this
    /// incarnation plus any it resumed from) — carried so the resumed
    /// pipeline's `elapsed` keeps counting instead of restarting.
    pub(crate) elapsed: Duration,
}

impl PipelineTail {
    /// Serializes the tail.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.usize(self.buffered.len());
        for ev in &self.buffered {
            e.event(ev);
        }
        e.u64(self.events_pulled);
        match self.max_seen {
            None => e.some(false),
            Some(t) => {
                e.some(true);
                e.u64(t.ticks());
            }
        }
        for c in self.counters {
            e.u64(c);
        }
        e.duration(self.elapsed);
        e.finish()
    }

    /// Mirror of [`encode`](Self::encode).
    pub(crate) fn decode(bytes: &[u8]) -> Result<PipelineTail, CheckpointError> {
        if bytes.is_empty() {
            return Err(CheckpointError::Corrupt(
                "record carries no pipeline state (it was not cut by a pipeline)".into(),
            ));
        }
        let mut d = Dec::new(bytes);
        let n_buf = d.seq_len()?;
        let mut buffered = Vec::with_capacity(n_buf);
        for _ in 0..n_buf {
            buffered.push(d.event()?);
        }
        let events_pulled = d.u64()?;
        let max_seen = if d.some()? { Some(Ts(d.u64()?)) } else { None };
        let mut counters = [0u64; 4];
        for c in &mut counters {
            *c = d.u64()?;
        }
        let elapsed = d.duration()?;
        d.expect_end()?;
        Ok(PipelineTail {
            buffered,
            events_pulled,
            max_seen,
            counters,
            elapsed,
        })
    }
}

/// Durable state of a quiesced pipeline (see the module docs for the
/// three layers): each shard's record, cut at one barrier, plus the
/// pipeline's tail. Obtain one via
/// [`PipelineHandle::checkpoint`](crate::PipelineHandle::checkpoint), or
/// read the tip of a stored chain with [`from_bytes`](Self::from_bytes);
/// [`to_bytes`](Self::to_bytes) packs it into one shard-set record.
pub struct PipelineCheckpoint {
    /// One single-shard record per shard (index = shard), all cut in
    /// lockstep.
    shards: Vec<Checkpoint>,
    pub(crate) tail: PipelineTail,
}

impl PipelineCheckpoint {
    /// The records the shard engines cut at one barrier, with the
    /// pipeline's tail.
    pub(crate) fn assemble(
        shards: Vec<Checkpoint>,
        tail: PipelineTail,
    ) -> Result<PipelineCheckpoint, CheckpointError> {
        let position = |c: &Checkpoint| (c.kind(), c.seq(), c.parent(), c.epoch());
        let Some(first) = shards.first().map(position) else {
            return Err(CheckpointError::Corrupt("a pipeline of no shards".into()));
        };
        if shards.iter().any(|c| position(c) != first) {
            return Err(CheckpointError::Corrupt(
                "shard records were not cut in lockstep".into(),
            ));
        }
        Ok(PipelineCheckpoint { shards, tail })
    }

    /// A pipeline record's worker count and tail, read without copying
    /// the shard payloads.
    pub(crate) fn peek(record: &Checkpoint) -> Result<(u32, PipelineTail), CheckpointError> {
        let f = Frame::decode(record.as_bytes())?;
        let workers = u32::try_from(f.shards.len())
            .map_err(|_| CheckpointError::Corrupt("shard count overflows".into()))?;
        Ok((workers, PipelineTail::decode(f.tail)?))
    }

    /// Worker count the checkpoint was taken under. A checkpoint only
    /// resumes under the same sharding (partition ownership depends on
    /// it); this is validated on resume.
    pub fn workers(&self) -> u32 {
        self.shards.len() as u32
    }

    /// Events pulled from the source before the barrier. On resume,
    /// hand [`PipelineBuilder::resume_from`](crate::PipelineBuilder::resume_from)
    /// a source positioned *after* these events (e.g. a
    /// [`ReplaySource`](crate::ReplaySource) over `events[cursor..]`);
    /// the events the barrier caught in the reorder buffer travel inside
    /// the checkpoint and are re-injected automatically.
    pub fn events_pulled(&self) -> u64 {
        self.tail.events_pulled
    }

    /// Events frozen inside the reorder buffer.
    pub fn buffered_len(&self) -> usize {
        self.tail.buffered.len()
    }

    /// Serialized size of the per-shard engine state, in bytes.
    pub fn engine_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|c| Frame::decode(c.as_bytes()).map_or(0, |f| f.shards[0].len()))
            .sum()
    }

    /// Wall time the logical run had accumulated when the checkpoint was
    /// taken.
    pub fn elapsed(&self) -> Duration {
        self.tail.elapsed
    }

    /// Packs the shards' records and the tail into one shard-set
    /// record, for a [`Checkpoint`] or a file.
    pub fn to_bytes(&self) -> Vec<u8> {
        Checkpoint::join(&self.shards, &self.tail.encode())
            // hamlet-lint: allow(panic-hygiene) -- assemble and from_bytes admit only lockstep single-shard records, which always join
            .expect("lockstep shard records join")
            .into_bytes()
    }

    /// Parses a pipeline record (as written by
    /// [`to_bytes`](Self::to_bytes) or appended to a store by a running
    /// pipeline).
    pub fn from_bytes(bytes: &[u8]) -> Result<PipelineCheckpoint, CheckpointError> {
        let f = Frame::decode(bytes)?;
        let tail = PipelineTail::decode(f.tail)?;
        let shards = f
            .shards
            .iter()
            .map(|p| {
                let part = Frame {
                    shards: vec![p],
                    tail: &[],
                    ..f.clone()
                };
                Checkpoint::from_bytes(part.encode())
            })
            .collect::<Result<Vec<_>, _>>()?;
        PipelineCheckpoint::assemble(shards, tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamlet_core::{CutKind, EngineConfig, HamletEngine, ParallelEngine, Snapshot};
    use hamlet_query::parse_query;
    use hamlet_types::{AttrValue, EventTypeId, TypeRegistry};
    use std::sync::Arc;

    fn tail() -> PipelineTail {
        PipelineTail {
            buffered: vec![Event::new(Ts(9), EventTypeId(1), vec![])],
            events_pulled: 42,
            max_seen: Some(Ts(11)),
            counters: [42, 1, 40, 7],
            elapsed: Duration::from_millis(1234),
        }
    }

    /// A two-query grouped workload and a stream over three keys.
    fn workload() -> (Arc<TypeRegistry>, Vec<hamlet_query::Query>, Vec<Event>) {
        let mut reg = TypeRegistry::new();
        let a = reg.register("A", &["g"]);
        let b = reg.register("B", &["g"]);
        let reg = Arc::new(reg);
        let queries = vec![
            parse_query(
                &reg,
                1,
                "RETURN COUNT(*) PATTERN SEQ(A, B+) GROUP BY g WITHIN 20",
            )
            .unwrap(),
            parse_query(
                &reg,
                2,
                "RETURN COUNT(*) PATTERN SEQ(B, A+) GROUP BY g WITHIN 30",
            )
            .unwrap(),
        ];
        let events = (0..60u64)
            .map(|t| {
                let ty = if t % 3 == 0 { a } else { b };
                Event::new(Ts(t), ty, vec![AttrValue::Int((t % 3) as i64)])
            })
            .collect();
        (reg, queries, events)
    }

    #[test]
    fn record_round_trips() {
        let (reg, queries, events) = workload();
        let mut shards = Vec::new();
        for idx in 0..2u32 {
            let cfg = EngineConfig {
                shard: Some((idx, 2)),
                ..EngineConfig::default()
            };
            let mut eng = HamletEngine::new(reg.clone(), queries.clone(), cfg).unwrap();
            eng.process_batch(&events);
            shards.push(eng.cut(CutKind::Full).unwrap());
        }
        let ck = PipelineCheckpoint::assemble(shards, tail()).unwrap();
        let blob = ck.to_bytes();
        let back = PipelineCheckpoint::from_bytes(&blob).unwrap();
        assert_eq!(back.workers(), 2);
        assert_eq!(back.events_pulled(), 42);
        assert_eq!(back.buffered_len(), 1);
        assert_eq!(back.tail.buffered, tail().buffered);
        assert_eq!(back.tail.max_seen, Some(Ts(11)));
        assert_eq!(back.tail.counters, [42, 1, 40, 7]);
        assert_eq!(back.elapsed(), Duration::from_millis(1234));
        assert!(back.engine_bytes() > 0);
        assert!(back.engine_bytes() < blob.len());
        assert_eq!(back.to_bytes(), blob);
    }

    /// Every proper prefix of a base and a delta record — engine-level
    /// and shard-set (`ParallelEngine` and pipeline) — is refused
    /// cleanly, never a panic; so is every proper prefix of each shard
    /// payload re-framed into an otherwise well-formed record, which
    /// reaches the state decoder itself.
    #[test]
    fn garbage_and_truncation_fail_cleanly() {
        assert!(matches!(
            PipelineCheckpoint::from_bytes(b"????"),
            Err(CheckpointError::BadMagic)
        ));
        let (reg, queries, events) = workload();
        let mk = || HamletEngine::new(reg.clone(), queries.clone(), EngineConfig::default());
        let mut eng = mk().unwrap();
        eng.process_batch(&events[..40]);
        let e_base = eng.cut(CutKind::Full).unwrap();
        eng.process_batch(&events[40..]);
        let e_delta = eng.cut(CutKind::Delta).unwrap();
        assert!(e_delta.is_delta());

        let mk_par =
            || ParallelEngine::new(reg.clone(), queries.clone(), EngineConfig::default(), 2);
        let mut sess = mk_par().unwrap();
        sess.process(&events[..40]);
        let s_base = sess.cut(CutKind::Full).unwrap();
        sess.process(&events[40..]);
        let s_delta = sess.cut(CutKind::Delta).unwrap();
        assert!(s_delta.is_delta());
        let p_delta = Checkpoint::from_bytes(
            Frame {
                tail: &tail().encode(),
                ..Frame::decode(s_delta.as_bytes()).unwrap()
            }
            .encode(),
        )
        .unwrap();
        assert!(PipelineCheckpoint::from_bytes(p_delta.as_bytes()).is_ok());

        let cases: [(&Checkpoint, Option<&Checkpoint>, bool); 5] = [
            (&e_base, None, false),
            (&e_delta, Some(&e_base), false),
            (&s_base, None, true),
            (&s_delta, Some(&s_base), true),
            (&p_delta, Some(&s_base), true),
        ];
        // A failed restore leaves its target untouched, so one of each
        // serves every attempt.
        let (mut target_eng, mut target_sess) = (mk().unwrap(), mk_par().unwrap());
        for (rec, parent, sharded) in cases {
            let bytes = rec.as_bytes();
            for cut in 0..bytes.len() {
                let prefix = &bytes[..cut];
                assert!(
                    Checkpoint::from_bytes(prefix.to_vec()).is_err(),
                    "prefix {cut}"
                );
                assert!(
                    PipelineCheckpoint::from_bytes(prefix).is_err(),
                    "prefix {cut}"
                );
            }
            let f = Frame::decode(bytes).unwrap();
            for (idx, payload) in f.shards.iter().enumerate() {
                for cut in 0..payload.len() {
                    let mut shards = f.shards.clone();
                    shards[idx] = &payload[..cut];
                    let Ok(short) = Checkpoint::from_bytes(
                        Frame {
                            shards,
                            ..f.clone()
                        }
                        .encode(),
                    ) else {
                        continue; // refused at the fingerprint peek
                    };
                    let chain: Vec<Checkpoint> =
                        parent.into_iter().cloned().chain([short]).collect();
                    let res = if sharded {
                        target_sess.restore_chain(&chain)
                    } else {
                        target_eng.restore_chain(&chain)
                    };
                    assert!(res.is_err(), "payload {cut}");
                }
            }
        }
    }
}
