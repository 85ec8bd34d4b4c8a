//! # gtt-metrics — measurement plane for the GT-TSCH experiments
//!
//! Every figure in the paper's evaluation (§VIII) reports six series as a
//! function of the sweep variable:
//!
//! 1. packet delivery ratio (%),
//! 2. average end-to-end delay per packet (ms),
//! 3. average number of lost packets (packets/minute),
//! 4. average radio duty cycle per node (%),
//! 5. average queue loss per node (packets),
//! 6. received packets per minute (throughput).
//!
//! This crate provides the bookkeeping to produce them:
//! [`PacketTracker`] follows every application packet from generation to
//! root delivery (or loss), [`FigureRow`] is one measured point of all six
//! series, and [`stats`] holds Jain's fairness index over per-node
//! deliveries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod row;
pub mod stats;
pub mod tracker;

pub use row::FigureRow;
pub use stats::jain_index;
pub use tracker::{DelayStats, PacketTracker, TrackerFootprint, DELAY_BINS};
