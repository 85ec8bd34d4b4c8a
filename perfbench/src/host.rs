//! Host-speed reference.
//!
//! The benchmark runs on shared machines whose speed drifts by tens of
//! percent within minutes, which would swamp any change worth measuring.
//! Every [`PERIOD`] of a run, between cells and between measured windows,
//! the benchmark times a fixed kernel of its own (hashing and random
//! read-modify-writes over 8 MB, like the simulator's mix of arithmetic
//! and scattered memory access). Every reported time is scaled to a host
//! on which that kernel takes [`NOMINAL_S`]. The kernel is the
//! benchmark's code, not the program's, so no change to the program
//! moves it; the time spent in it is excluded from every measurement.

use std::time::{Duration, Instant};

use crate::stats::{median, SplitMix};

/// Kernel time on the reference host, seconds.
pub const NOMINAL_S: f64 = 0.01;

/// Wall time between two kernel samples.
const PERIOD: Duration = Duration::from_millis(500);

/// Words in the kernel's buffer.
const WORDS: usize = 1 << 20;

/// The kernel's buffer, resident for the whole run: peak-RSS readings
/// subtract it.
pub const BUFFER_MB: f64 = (WORDS * 8) as f64 / (1024.0 * 1024.0);

/// The kernel, its buffer and its samples.
pub struct Host {
    buf: Vec<u64>,
    samples: Vec<f64>,
    next: Instant,
}

impl Host {
    /// A reference with its buffer allocated and its first sample due.
    pub fn new() -> Host {
        Host {
            buf: (0..WORDS as u64).collect(),
            samples: Vec::new(),
            next: Instant::now(),
        }
    }

    /// Times the kernel once if a sample is due; returns the wall time
    /// spent here, which the caller excludes from its own measurement.
    pub fn sample_if_due(&mut self) -> Duration {
        let start = Instant::now();
        if start < self.next {
            return Duration::ZERO;
        }
        let mut rng = SplitMix::new(7, 7);
        let mut acc = 0u64;
        for _ in 0..1_000_000 {
            let z = rng.next_u64();
            let i = z as usize & (WORDS - 1);
            self.buf[i] = self.buf[i].wrapping_add(z);
            acc = if self.buf[i] & 1 == 0 {
                acc.wrapping_add(self.buf[i ^ 1])
            } else {
                acc ^ z
            };
        }
        std::hint::black_box(acc);
        let t1 = Instant::now();
        self.samples.push((t1 - start).as_secs_f64());
        self.next = t1 + PERIOD;
        t1 - start
    }

    /// Factor that scales this run's times to the reference host.
    pub fn scale(&self) -> f64 {
        NOMINAL_S / median(&self.samples)
    }

    /// One line saying how times were scaled.
    pub fn describe(&self) -> String {
        format!(
            "host reference kernel: median {:.3} ms over {} samples, nominal {} ms; times scaled by {:.4}",
            median(&self.samples) * 1e3,
            self.samples.len(),
            NOMINAL_S * 1e3,
            self.scale()
        )
    }
}
