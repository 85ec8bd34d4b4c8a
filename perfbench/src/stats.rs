//! Small numeric helpers: order statistics, the simulated-outcome
//! aggregate, report fingerprints and the seed mixer.

use gtt_engine::NetworkReport;
use gtt_metrics::DELAY_BINS;

/// Median of `xs` (mean of the two middle values for even lengths).
/// `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank `p`-th percentile of `xs` (`0 < p <= 100`). `NaN` when
/// empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// FNV-1a 64 fed by `fmt::Write`, so hashing a `Debug` string never
/// materializes it (a city-10k report prints to megabytes).
struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// FNV-1a 64 of a report's `Debug` string: equal fingerprints mean
/// byte-identical reports (up to hash collisions).
pub fn fingerprint(report: &NetworkReport) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    std::fmt::Write::write_fmt(&mut h, format_args!("{report:?}")).expect("hashing cannot fail");
    h.0
}

/// SplitMix64: derives every generated input from the workload seed.
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream keyed by `seed` and a per-purpose `stream` constant.
    pub fn new(seed: u64, stream: u64) -> SplitMix {
        SplitMix(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Upper edge, in microseconds, of bin `b` of the report's fixed delay
/// histogram: bins 0..8 are exact microseconds, then every power-of-two
/// octave splits into four sub-bins. [`SimOutcome::add`] checks this
/// against `DelayStats::percentile_ms`, so a layout change in the
/// program fails the benchmark instead of skewing it.
fn bin_upper_us(b: usize) -> f64 {
    if b < 8 {
        return (b + 1) as f64;
    }
    let k = (b - 8) as u32;
    let o = 3 + k / 4;
    let sub = f64::from(k % 4);
    2f64.powi(o as i32) + (sub + 1.0) * 2f64.powi(o as i32 - 2)
}

/// The simulated outcomes of a set of cells, merged: delivery counts,
/// the summed delay histogram and the mean duty cycle.
#[derive(Clone)]
pub struct SimOutcome {
    generated: u64,
    delivered: u64,
    bins: Vec<u64>,
    duty_sum: f64,
    delay_sum_ms: f64,
    cells: u64,
}

impl Default for SimOutcome {
    fn default() -> Self {
        SimOutcome {
            generated: 0,
            delivered: 0,
            bins: vec![0; DELAY_BINS],
            duty_sum: 0.0,
            delay_sum_ms: 0.0,
            cells: 0,
        }
    }
}

impl SimOutcome {
    /// Folds one report in. Errors when the bin layout assumed by
    /// [`bin_upper_us`] no longer matches the report's own percentiles.
    pub fn add(&mut self, report: &NetworkReport) -> Result<(), String> {
        let mut own = SimOutcome::default();
        own.bins.copy_from_slice(report.delay.bins());
        for p in [50.0, 99.0] {
            let ours = own.bin_edge_percentile_us(p);
            let theirs = report.delay.percentile_ms(p) * 1e3;
            if report.delay.count() > 0 && (ours - theirs).abs() > 1e-6 {
                return Err(format!(
                    "delay histogram layout changed: p{p} edge {ours} us vs report {theirs} us"
                ));
            }
        }
        self.generated += report.generated;
        self.delivered += report.delivered;
        for (s, b) in self.bins.iter_mut().zip(report.delay.bins()) {
            *s += b;
        }
        self.duty_sum += report.row.duty_cycle_percent;
        self.delay_sum_ms += report.delay.mean_ms() * report.delay.count() as f64;
        self.cells += 1;
        Ok(())
    }

    /// Mean delay of delivered packets, ms.
    pub fn delay_mean_ms(&self) -> f64 {
        self.delay_sum_ms / self.bins.iter().sum::<u64>().max(1) as f64
    }

    fn rank(&self, p: f64) -> (u64, u64) {
        let count: u64 = self.bins.iter().sum();
        let rank = ((p / 100.0) * count as f64).ceil().max(1.0) as u64;
        (count, rank)
    }

    /// The report's own percentile rule: upper edge of the matched bin.
    fn bin_edge_percentile_us(&self, p: f64) -> f64 {
        let (_, rank) = self.rank(p);
        let mut cum = 0;
        for (b, &n) in self.bins.iter().enumerate() {
            cum += n;
            if cum >= rank {
                return bin_upper_us(b);
            }
        }
        0.0
    }

    /// Delivered share of generated packets, percent.
    pub fn pdr_pct(&self) -> f64 {
        100.0 * self.delivered as f64 / self.generated.max(1) as f64
    }

    /// The `p`-th delay percentile in milliseconds, interpolated linearly
    /// by rank inside the matched histogram bin (the bin edge alone
    /// moves in 25% steps).
    pub fn delay_ms(&self, p: f64) -> f64 {
        let (count, rank) = self.rank(p);
        if count == 0 {
            return f64::NAN;
        }
        let mut cum = 0;
        for (b, &n) in self.bins.iter().enumerate() {
            if n > 0 && cum + n >= rank {
                let lower = if b == 0 { 0.0 } else { bin_upper_us(b - 1) };
                let frac = (rank - cum) as f64 / n as f64;
                return (lower + frac * (bin_upper_us(b) - lower)) / 1e3;
            }
            cum += n;
        }
        f64::NAN
    }

    /// Mean radio duty cycle over the cells, percent.
    pub fn duty_pct(&self) -> f64 {
        self.duty_sum / self.cells.max(1) as f64
    }
}
