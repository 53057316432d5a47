//! # hamlet-stream
//!
//! Bursty event stream generators and query-workload builders mirroring the
//! four data sets of the HAMLET evaluation (§6.1):
//!
//! * [`ridesharing`] — the paper's synthetic ridesharing stream (20 event
//!   types, 10K events/minute default);
//! * [`nyc_taxi`] — NYC-taxi-like trips (200 events/minute default);
//! * [`smart_home`] — DEBS-2014-like plug measurements (20K events/minute);
//! * [`stock`] — stock-transaction-like ticks (4.5K events/minute).
//!
//! The real data sets are not redistributable; these generators reproduce
//! their published stream statistics — schemas, default rates, type mixes —
//! and add explicit *burstiness* control (mean same-type run length), which
//! is the stream property HAMLET's dynamic optimizer reacts to
//! (documented substitution, see DESIGN.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
pub mod nyc_taxi;
pub mod ridesharing;
pub mod smart_home;
pub mod stock;
pub mod zipf;

pub use common::{bounded_delay_shuffle, max_observed_lateness, GenConfig};
