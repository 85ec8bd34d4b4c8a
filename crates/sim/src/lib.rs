//! # gtt-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the lowest layer of the GT-TSCH reproduction. It provides
//! the building blocks every other crate relies on:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution simulation time,
//! * [`Pcg32`] / [`SplitMix64`] — small, fast, *fully deterministic* PRNGs
//!   whose streams never change between releases (unlike `rand`'s
//!   `SmallRng`), so every experiment in the paper reproduction is exactly
//!   replayable from a seed,
//! * [`Timer`] — a periodic or one-shot timer whose deadline tells the
//!   engine which slot to wake next.
//!
//! # Example
//!
//! ```
//! use gtt_sim::{Pcg32, SimDuration, SimTime, Timer};
//!
//! let mut eb = Timer::periodic(SimTime::ZERO, SimDuration::from_secs(2));
//! let mut dio = Timer::one_shot(SimTime::ZERO + SimDuration::from_millis(15));
//! // The engine sleeps until the earliest deadline, then fires it.
//! let next = [eb.deadline(), dio.deadline()].into_iter().flatten().min();
//! assert_eq!(next, Some(SimTime::from_millis(15)));
//! assert!(dio.fire_due(SimTime::from_millis(15)));
//! assert!(!eb.fire_due(SimTime::from_millis(15)));
//! assert_eq!(dio.deadline(), None, "a one-shot disarms when it fires");
//!
//! // Same seed, same stream: runs replay exactly.
//! let (mut a, mut b) = (Pcg32::new(7), Pcg32::new(7));
//! assert_eq!(a.gen_range_u32(0, 100), b.gen_range_u32(0, 100));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rng;
pub mod time;
pub mod timer;

pub use rng::{Pcg32, SplitMix64};
pub use time::{SimDuration, SimTime};
pub use timer::Timer;
