//! The HAMLET repository benchmark: three workloads driven through the
//! public APIs (`HamletEngine`, `Snapshot`/`CheckpointStore`,
//! `Pipeline`/`Source`/`Sink`), every output checked against a
//! reference, end-to-end metrics from untraced runs and per-layer
//! metrics from a traced run. See `perfbench/README.md`.

pub mod check;
pub mod report;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;
