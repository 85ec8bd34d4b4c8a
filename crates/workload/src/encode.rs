//! Canonical byte encoding of [`Experiment`] values.
//!
//! The workspace has no serialization framework (see `crates/compat`),
//! so the wire format is hand-rolled: a fixed-layout, little-endian,
//! tag-discriminated encoding with a schema version up front. It is
//! *canonical* — equal experiments encode to identical bytes, floats
//! round-trip by exact bit pattern (`f64::to_bits`, including `-0.0`
//! and NaN payloads), and there is no map/hash iteration anywhere — so
//! the bytes are a portable identity of the run and, hex-armored
//! ([`Experiment::encode_hex`]), a one-line reproducible bug report.
//!
//! Schema evolution: bump [`ENCODING_VERSION`] whenever the layout *or
//! the meaning* of any encoded field changes; decoders reject foreign
//! versions, so an old encoding is never misread as a new one.
//!
//! Decoding is total: a value a constructor would reject with a panic
//! is a [`DecodeError::BadValue`], found by that constructor's check.

use std::fmt;

use gtt_net::{LinkModel, NodeId, Position, TopologyBuilder};
use gtt_orchestra::OrchestraConfig;
use gtt_sim::SimDuration;

use gt_tsch::{GameWeights, GtTschConfig};

use crate::overlay::{self, DutyCycleBudget, NoiseBurst, Overlay, StepMobility, WaypointHop};
use crate::scenario::Scenario;
use crate::spec::ScenarioSpec;
use crate::{Experiment, RunSpec, SchedulerKind};

/// Version of the canonical encoding. Part of every encoded experiment.
/// Version 3 dropped the link-model override and the scheduler settings
/// that became constants.
pub const ENCODING_VERSION: u16 = 3;

/// Leading magic of every encoded experiment.
const MAGIC: &[u8; 4] = b"GTTX";

/// Why a byte string failed to decode as an [`Experiment`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Ran out of bytes mid-field.
    Truncated,
    /// The input does not start with the experiment magic.
    BadMagic,
    /// The input was produced by a different schema version.
    UnsupportedVersion(u16),
    /// An enum discriminant byte had no matching variant.
    BadTag {
        /// Which discriminated field was being read.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A number lies outside what its field accepts (a crafted or
    /// corrupted encoding: [`Experiment::encode`] never writes one).
    BadValue {
        /// Which field was being read.
        what: &'static str,
    },
    /// Bytes remained after the experiment was fully decoded.
    TrailingBytes,
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8,
    /// Hex armor contained a non-hex character or odd length.
    BadHex,
}

/// A [`DecodeError::BadValue`] naming `what` unless `ok`.
fn ensure(ok: bool, what: &'static str) -> Result<(), DecodeError> {
    if ok {
        Ok(())
    } else {
        Err(DecodeError::BadValue { what })
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated experiment encoding"),
            DecodeError::BadMagic => write!(f, "not an encoded experiment (bad magic)"),
            DecodeError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported encoding schema version {v} (this build: {ENCODING_VERSION})"
                )
            }
            DecodeError::BadTag { what, tag } => write!(f, "invalid {what} tag {tag:#04x}"),
            DecodeError::BadValue { what } => write!(f, "invalid {what} value"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes after experiment"),
            DecodeError::BadUtf8 => write!(f, "non-UTF-8 string field"),
            DecodeError::BadHex => write!(f, "invalid hex armor"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Little-endian byte sink.
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// `usize` fields travel as `u64` so the encoding is identical on
    /// every platform.
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    /// Exact bit pattern — `-0.0`, infinities and NaN payloads all
    /// round-trip.
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn duration(&mut self, v: SimDuration) {
        self.u64(v.as_micros());
    }
    fn str(&mut self, v: &str) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v.as_bytes());
    }
}

/// Little-endian byte source.
struct Dec<'a> {
    rest: &'a [u8],
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.rest.len() < n {
            return Err(DecodeError::Truncated);
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }
    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }
    fn bool(&mut self) -> Result<bool, DecodeError> {
        Ok(self.u8()? != 0)
    }
    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }
    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }
    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
    fn usize(&mut self) -> Result<usize, DecodeError> {
        Ok(self.u64()? as usize)
    }
    fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn duration(&mut self) -> Result<SimDuration, DecodeError> {
        Ok(SimDuration::from_micros(self.u64()?))
    }
    fn str(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }
    /// A safe `Vec` pre-allocation for `n` declared elements of at
    /// least `min_elem` bytes each: a corrupted length prefix must
    /// surface as [`DecodeError::Truncated`] a few elements in, not as
    /// a multi-gigabyte `with_capacity` abort before any byte is read.
    fn capacity_for(&self, n: usize, min_elem: usize) -> usize {
        n.min(self.rest.len() / min_elem.max(1))
    }
}

fn enc_link_model(e: &mut Enc, m: &LinkModel) {
    match *m {
        LinkModel::Perfect => e.u8(0),
        LinkModel::DistanceFalloff { plateau, edge_prr } => {
            e.u8(1);
            e.f64(plateau);
            e.f64(edge_prr);
        }
        LinkModel::Fixed(p) => {
            e.u8(2);
            e.f64(p);
        }
    }
}

fn dec_link_model(d: &mut Dec) -> Result<LinkModel, DecodeError> {
    Ok(match d.u8()? {
        0 => LinkModel::Perfect,
        1 => LinkModel::DistanceFalloff {
            plateau: d.f64()?,
            edge_prr: d.f64()?,
        },
        2 => LinkModel::Fixed(d.f64()?),
        tag => {
            return Err(DecodeError::BadTag {
                what: "link model",
                tag,
            })
        }
    })
}

fn enc_scenario_spec(e: &mut Enc, s: &ScenarioSpec) {
    match s {
        ScenarioSpec::SingleDodag { n } => {
            e.u8(0);
            e.usize(*n);
        }
        ScenarioSpec::TwoDodag { nodes_per_dodag } => {
            e.u8(1);
            e.usize(*nodes_per_dodag);
        }
        ScenarioSpec::Line { n, spacing } => {
            e.u8(2);
            e.usize(*n);
            e.f64(*spacing);
        }
        ScenarioSpec::Star { leaves } => {
            e.u8(3);
            e.usize(*leaves);
        }
        ScenarioSpec::Grid {
            cols,
            rows,
            spacing,
        } => {
            e.u8(4);
            e.usize(*cols);
            e.usize(*rows);
            e.f64(*spacing);
        }
        ScenarioSpec::LargeGrid => e.u8(5),
        ScenarioSpec::LargeStar => e.u8(6),
        ScenarioSpec::Random { n, side, seed } => {
            e.u8(8);
            e.usize(*n);
            e.f64(*side);
            e.u64(*seed);
        }
        ScenarioSpec::Custom(scenario) => {
            e.u8(9);
            e.str(&scenario.name);
            let topo = &scenario.topology;
            e.f64(topo.range());
            e.f64(topo.interference_factor());
            enc_link_model(e, &topo.link_model());
            e.u32(topo.len() as u32);
            for id in topo.node_ids() {
                let p = topo.position(id);
                e.f64(p.x);
                e.f64(p.y);
            }
            let overrides: Vec<_> = topo.prr_overrides().collect();
            e.u32(overrides.len() as u32);
            for ((a, b), prr) in overrides {
                e.u16(a.raw());
                e.u16(b.raw());
                e.f64(prr);
            }
            e.u32(scenario.roots.len() as u32);
            for r in &scenario.roots {
                e.u16(r.raw());
            }
        }
        ScenarioSpec::City {
            dodags,
            nodes_per_dodag,
        } => {
            e.u8(10);
            e.usize(*dodags);
            e.usize(*nodes_per_dodag);
        }
    }
}

fn dec_scenario_spec(d: &mut Dec) -> Result<ScenarioSpec, DecodeError> {
    Ok(match d.u8()? {
        0 => ScenarioSpec::SingleDodag { n: d.usize()? },
        1 => ScenarioSpec::TwoDodag {
            nodes_per_dodag: d.usize()?,
        },
        2 => ScenarioSpec::Line {
            n: d.usize()?,
            spacing: d.f64()?,
        },
        3 => ScenarioSpec::Star { leaves: d.usize()? },
        4 => ScenarioSpec::Grid {
            cols: d.usize()?,
            rows: d.usize()?,
            spacing: d.f64()?,
        },
        5 => ScenarioSpec::LargeGrid,
        6 => ScenarioSpec::LargeStar,
        // Tag 7 named the 120-node grid a second time until schema v3.
        8 => ScenarioSpec::Random {
            n: d.usize()?,
            side: d.f64()?,
            seed: d.u64()?,
        },
        9 => {
            let name = d.str()?;
            // `TopologyBuilder` asserts these three; a crafted encoding
            // must get an error, not a panic.
            let range = d.f64()?;
            ensure(
                TopologyBuilder::is_valid_range(range),
                "communication range",
            )?;
            let factor = d.f64()?;
            ensure(
                TopologyBuilder::is_valid_interference_factor(factor),
                "interference factor",
            )?;
            let link_model = dec_link_model(d)?;
            let n = d.u32()? as usize;
            let mut builder = TopologyBuilder::new(range)
                .interference_factor(factor)
                .link_model(link_model);
            for _ in 0..n {
                builder = builder.node(Position::new(d.f64()?, d.f64()?));
            }
            let n_overrides = d.u32()? as usize;
            for _ in 0..n_overrides {
                let a = NodeId::new(d.u16()?);
                let b = NodeId::new(d.u16()?);
                let prr = d.f64()?;
                ensure(TopologyBuilder::is_valid_prr(prr), "link PRR")?;
                builder = builder.link_prr(a, b, prr);
            }
            let n_roots = d.u32()? as usize;
            let mut roots = Vec::with_capacity(d.capacity_for(n_roots, 2));
            for _ in 0..n_roots {
                roots.push(NodeId::new(d.u16()?));
            }
            ScenarioSpec::Custom(Box::new(Scenario {
                name,
                topology: builder.build(),
                roots,
            }))
        }
        // Tag 10 (`City`) is new in schema v2; v1 streams can never
        // carry it because `Experiment::decode` rejects foreign versions
        // before any tag is read.
        10 => ScenarioSpec::City {
            dodags: d.usize()?,
            nodes_per_dodag: d.usize()?,
        },
        tag => {
            return Err(DecodeError::BadTag {
                what: "topology",
                tag,
            })
        }
    })
}

fn enc_scheduler(e: &mut Enc, s: &SchedulerKind) {
    match s {
        SchedulerKind::GtTsch(cfg) => {
            e.u8(0);
            e.u16(cfg.slotframe_len);
            e.f64(cfg.weights.alpha);
            e.f64(cfg.weights.beta);
            e.f64(cfg.weights.gamma);
            e.bool(cfg.hash_channels);
        }
        SchedulerKind::Orchestra(cfg) => {
            e.u8(1);
            e.u16(cfg.unicast_len);
            e.bool(cfg.sender_based);
        }
        SchedulerKind::Minimal { slotframe_len } => {
            e.u8(2);
            e.u16(*slotframe_len);
        }
    }
}

fn dec_scheduler(d: &mut Dec) -> Result<SchedulerKind, DecodeError> {
    Ok(match d.u8()? {
        0 => SchedulerKind::GtTsch(GtTschConfig {
            slotframe_len: d.u16()?,
            weights: GameWeights {
                alpha: d.f64()?,
                beta: d.f64()?,
                gamma: d.f64()?,
            },
            hash_channels: d.bool()?,
        }),
        1 => SchedulerKind::Orchestra(OrchestraConfig {
            unicast_len: d.u16()?,
            sender_based: d.bool()?,
        }),
        2 => SchedulerKind::Minimal {
            slotframe_len: d.u16()?,
        },
        tag => {
            return Err(DecodeError::BadTag {
                what: "scheduler",
                tag,
            })
        }
    })
}

fn enc_overlay(e: &mut Enc, o: &Overlay) {
    match o {
        Overlay::Noise(n) => {
            e.u8(0);
            e.duration(n.quiet);
            e.duration(n.burst);
            e.f64(n.prr_factor);
        }
        Overlay::Mobility(m) => {
            e.u8(1);
            e.u32(m.hops.len() as u32);
            for h in &m.hops {
                e.duration(h.at);
                e.u16(h.node.raw());
                e.f64(h.to.x);
                e.f64(h.to.y);
            }
        }
        Overlay::DutyCycle(b) => {
            e.u8(2);
            e.duration(b.window);
            e.duration(b.check);
            e.f64(b.max_duty_percent);
        }
    }
}

fn dec_overlay(d: &mut Dec) -> Result<Overlay, DecodeError> {
    Ok(match d.u8()? {
        0 => Overlay::Noise(NoiseBurst {
            quiet: d.duration()?,
            burst: d.duration()?,
            prr_factor: d.f64()?,
        }),
        1 => {
            let n = d.u32()? as usize;
            let mut hops = Vec::with_capacity(d.capacity_for(n, 26));
            for _ in 0..n {
                hops.push(WaypointHop {
                    at: d.duration()?,
                    node: NodeId::new(d.u16()?),
                    to: Position::new(d.f64()?, d.f64()?),
                });
            }
            Overlay::Mobility(StepMobility { hops })
        }
        2 => Overlay::DutyCycle(DutyCycleBudget {
            window: d.duration()?,
            check: d.duration()?,
            max_duty_percent: d.f64()?,
        }),
        tag => {
            return Err(DecodeError::BadTag {
                what: "overlay",
                tag,
            })
        }
    })
}

impl Experiment {
    /// Encodes the experiment into its canonical byte form.
    ///
    /// Equal experiments produce identical bytes (there is no ambient
    /// state, no map iteration, no pointer-dependent ordering), so the
    /// result is a stable wire format. Floats are stored as exact bit
    /// patterns.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_with_version(ENCODING_VERSION)
    }

    /// [`Experiment::encode`] with an explicit schema version, for
    /// schema-evolution tests (the decoder must reject a foreign
    /// version).
    fn encode_with_version(&self, version: u16) -> Vec<u8> {
        let mut e = Enc {
            buf: Vec::with_capacity(128),
        };
        e.buf.extend_from_slice(MAGIC);
        e.u16(version);
        enc_scenario_spec(&mut e, &self.scenario);
        enc_scheduler(&mut e, &self.scheduler);
        let RunSpec {
            traffic_ppm,
            warmup_secs,
            measure_secs,
            seed,
            low_power,
        } = self.run;
        e.f64(traffic_ppm);
        e.u64(warmup_secs);
        e.u64(measure_secs);
        e.u64(seed);
        e.bool(low_power);
        e.u32(self.overlays.len() as u32);
        for o in &self.overlays {
            enc_overlay(&mut e, o);
        }
        e.buf
    }

    /// Decodes an experiment from its canonical byte form, rejecting
    /// foreign schema versions and trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Experiment, DecodeError> {
        let mut d = Dec { rest: bytes };
        if d.take(MAGIC.len())? != MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let version = d.u16()?;
        if version != ENCODING_VERSION {
            return Err(DecodeError::UnsupportedVersion(version));
        }
        let scenario = dec_scenario_spec(&mut d)?;
        let scheduler = dec_scheduler(&mut d)?;
        let run = RunSpec {
            traffic_ppm: d.f64()?,
            warmup_secs: d.u64()?,
            measure_secs: d.u64()?,
            seed: d.u64()?,
            low_power: d.bool()?,
        };
        let n = d.u32()? as usize;
        let mut overlays = Vec::with_capacity(d.capacity_for(n, 25));
        for _ in 0..n {
            overlays.push(dec_overlay(&mut d)?);
        }
        if !d.rest.is_empty() {
            return Err(DecodeError::TrailingBytes);
        }
        // The checks building and running the experiment assert.
        ensure(scenario.is_valid(), "scenario")?;
        ensure(scheduler.is_valid(), "scheduler settings")?;
        ensure(run.is_valid(), "run spec")?;
        let nodes = scenario.node_count();
        let end_us = run.end_us().expect("a valid run spec ends");
        ensure(
            overlays.iter().all(|o| o.is_valid(nodes, end_us)),
            "overlay",
        )?;
        ensure(overlay::stacks(&overlays), "overlay combination")?;
        Ok(Experiment {
            scenario,
            scheduler,
            run,
            overlays,
        })
    }

    /// The canonical encoding as lowercase hex — the one-line text form
    /// of an experiment, e.g. in a bug report.
    pub fn encode_hex(&self) -> String {
        let bytes = self.encode();
        let mut out = String::with_capacity(bytes.len() * 2);
        for b in bytes {
            out.push(char::from_digit((b >> 4) as u32, 16).expect("nibble"));
            out.push(char::from_digit((b & 0xf) as u32, 16).expect("nibble"));
        }
        out
    }

    /// Decodes the hex form produced by [`Experiment::encode_hex`].
    pub fn decode_hex(hex: &str) -> Result<Experiment, DecodeError> {
        let hex = hex.trim();
        if hex.len() % 2 != 0 {
            return Err(DecodeError::BadHex);
        }
        let mut bytes = Vec::with_capacity(hex.len() / 2);
        let digits = hex.as_bytes();
        for pair in digits.chunks_exact(2) {
            let hi = (pair[0] as char).to_digit(16).ok_or(DecodeError::BadHex)?;
            let lo = (pair[1] as char).to_digit(16).ok_or(DecodeError::BadHex)?;
            bytes.push(((hi << 4) | lo) as u8);
        }
        Experiment::decode(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Overlay;

    /// An experiment touching every encoder branch at once, with floats
    /// picked to catch any bit-pattern sloppiness.
    fn kitchen_sink() -> Experiment {
        let custom = Scenario {
            name: "diamond".into(),
            topology: TopologyBuilder::new(40.0)
                .interference_factor(1.5)
                .link_model(LinkModel::DistanceFalloff {
                    plateau: 0.6,
                    edge_prr: 0.8,
                })
                .node(Position::new(0.0, -0.0))
                .node(Position::new(30.0, 18.0))
                .node(Position::new(30.0, -18.0))
                .link_prr(NodeId::new(0), NodeId::new(2), 0.1 + 0.2) // 0.30000000000000004
                .build(),
            roots: vec![NodeId::new(0)],
        };
        Experiment {
            scenario: ScenarioSpec::custom(custom),
            scheduler: SchedulerKind::GtTsch(GtTschConfig {
                weights: GameWeights {
                    alpha: 1.0,
                    beta: f64::MIN_POSITIVE,
                    gamma: -0.0,
                },
                ..GtTschConfig::paper_default()
            }),
            run: RunSpec {
                traffic_ppm: 60.0 / 7.0,
                warmup_secs: 1,
                // The longest window whose end, in µs, leaves room on a
                // u64 clock for the longest overlay duration below (the
                // 60 s duty window).
                measure_secs: u64::MAX / 1_000_000 - 61,
                seed: 0x0123_4567_89ab_cdef,
                low_power: true,
            },
            overlays: vec![
                Overlay::Noise(NoiseBurst::wifi_like()),
                Overlay::Mobility(StepMobility::new().hop(
                    SimDuration::from_millis(1_500),
                    NodeId::new(2),
                    Position::new(-1.0, f64::MAX),
                )),
                Overlay::DutyCycle(DutyCycleBudget {
                    window: SimDuration::from_secs(60),
                    check: SimDuration::from_secs(5),
                    max_duty_percent: 2.5,
                }),
            ],
        }
    }

    #[test]
    fn round_trip_is_exact() {
        let exp = kitchen_sink();
        let decoded = Experiment::decode(&exp.encode()).expect("decodes");
        assert_eq!(decoded, exp);
        // Exact f64 bits, not just PartialEq (which -0.0 == 0.0 would
        // satisfy): re-encoding the decoded value must be byte-identical.
        assert_eq!(decoded.encode(), exp.encode());
        // Hex armor round-trips too.
        assert_eq!(Experiment::decode_hex(&exp.encode_hex()).unwrap(), exp);
    }

    #[test]
    fn negative_zero_survives() {
        let decoded = Experiment::decode(&kitchen_sink().encode()).unwrap();
        let SchedulerKind::GtTsch(cfg) = decoded.scheduler else {
            panic!("{:?}", decoded.scheduler);
        };
        assert_eq!(cfg.weights.gamma.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn every_builtin_topology_round_trips() {
        let specs = [
            ScenarioSpec::single_dodag(7),
            ScenarioSpec::two_dodag(6),
            ScenarioSpec::line(5, 30.0),
            ScenarioSpec::star(6),
            ScenarioSpec::grid(3, 4, 30.0),
            ScenarioSpec::large_grid(),
            ScenarioSpec::large_star(),
            ScenarioSpec::random(10, 120.0, 5),
            ScenarioSpec::city(4, 25),
            ScenarioSpec::custom(Scenario::star(2).with_link_model(LinkModel::Fixed(0.75))),
        ];
        for spec in specs {
            let exp = crate::Experiment::new(spec, SchedulerKind::orchestra_default());
            assert_eq!(Experiment::decode(&exp.encode()).unwrap(), exp);
        }
    }

    #[test]
    fn city_spec_is_rejected_from_older_version_streams() {
        // `City` (tag 10) arrived with schema v2, and v3 dropped fields
        // from the scenario and scheduler layouts. An older decoder
        // would misparse such bytes, so the version gate — checked
        // before any tag — must wholesale-reject streams stamped with
        // an older version rather than attempt tag-level decoding.
        let exp = crate::Experiment::new(ScenarioSpec::city(10, 100), SchedulerKind::minimal(8));
        for old in 1..ENCODING_VERSION {
            assert_eq!(
                Experiment::decode(&exp.encode_with_version(old)),
                Err(DecodeError::UnsupportedVersion(old))
            );
        }
    }

    #[test]
    fn custom_topology_rebuilds_identically() {
        let exp = kitchen_sink();
        let decoded = Experiment::decode(&exp.encode()).unwrap();
        // The rebuilt Scenario must be equal in full — positions, link
        // model, overrides, audibility — not just spec-equal.
        assert_eq!(decoded.scenario.build(), exp.scenario.build());
    }

    #[test]
    fn foreign_version_is_rejected() {
        let exp = kitchen_sink();
        let bumped = exp.encode_with_version(ENCODING_VERSION + 1);
        assert_eq!(
            Experiment::decode(&bumped),
            Err(DecodeError::UnsupportedVersion(ENCODING_VERSION + 1))
        );
    }

    #[test]
    fn corruption_is_detected() {
        let exp = kitchen_sink();
        let bytes = exp.encode();
        assert_eq!(Experiment::decode(&bytes[..3]), Err(DecodeError::Truncated));
        assert_eq!(
            Experiment::decode(&bytes[..bytes.len() - 1]),
            Err(DecodeError::Truncated)
        );
        let mut extended = bytes.clone();
        extended.push(0);
        assert_eq!(
            Experiment::decode(&extended),
            Err(DecodeError::TrailingBytes)
        );
        let mut wrong_magic = bytes;
        wrong_magic[0] = b'X';
        assert_eq!(Experiment::decode(&wrong_magic), Err(DecodeError::BadMagic));
        // Values the topology builder would assert on.
        for (old, new, what) in [
            (40.0, 0.0, "communication range"),
            (1.5, 0.5, "interference factor"),
            (0.1 + 0.2, 2.0, "link PRR"),
            (0.1 + 0.2, f64::NAN, "link PRR"),
        ] {
            let mut bytes = kitchen_sink().encode();
            let pattern = f64::to_le_bytes(old);
            let at: Vec<usize> = (0..=bytes.len() - 8)
                .filter(|&i| bytes[i..i + 8] == pattern)
                .collect();
            assert_eq!(at.len(), 1, "{old} is encoded exactly once");
            bytes[at[0]..at[0] + 8].copy_from_slice(&new.to_le_bytes());
            assert_eq!(
                Experiment::decode(&bytes),
                Err(DecodeError::BadValue { what }),
                "{what} = {new}"
            );
        }
        // Values an experiment's constructors would assert on: generator
        // sizes out of range (a star needs a leaf, a random placement a
        // node; node ids are `u16`s, also when the size overflows), a
        // rootless custom scenario, and a noise burst's PRR factor
        // outside [0, 1].
        let mut rootless = Scenario::line(3, 25.0);
        rootless.roots.clear();
        for spec in [
            ScenarioSpec::star(0),
            ScenarioSpec::random(0, 120.0, 5),
            ScenarioSpec::grid(usize::MAX, 2, 30.0),
            ScenarioSpec::city(700, 100),
            ScenarioSpec::custom(rootless),
        ] {
            let exp = crate::Experiment::new(spec, SchedulerKind::minimal(8));
            assert_eq!(
                Experiment::decode(&exp.encode()),
                Err(DecodeError::BadValue { what: "scenario" })
            );
        }
        let mut bytes = kitchen_sink().encode();
        let pattern = f64::to_le_bytes(NoiseBurst::wifi_like().prr_factor);
        let at = (0..=bytes.len() - 8)
            .find(|&i| bytes[i..i + 8] == pattern)
            .expect("prr_factor encoded");
        bytes[at..at + 8].copy_from_slice(&1.5f64.to_le_bytes());
        assert_eq!(
            Experiment::decode(&bytes),
            Err(DecodeError::BadValue { what: "overlay" })
        );
        // A mobility hop naming a node outside the 3-node scenario.
        let mut far_hop = kitchen_sink();
        far_hop.overlays[1] = Overlay::Mobility(StepMobility::new().hop(
            SimDuration::from_secs(1),
            NodeId::new(3),
            Position::ORIGIN,
        ));
        assert_eq!(
            Experiment::decode(&far_hop.encode()),
            Err(DecodeError::BadValue { what: "overlay" })
        );
        // Overlay durations the driver would add to an instant near the
        // run's end: one per kind, each 1 µs longer than the end leaves
        // room for (at that room exactly, each decodes).
        let room = u64::MAX - kitchen_sink().run.end_us().expect("the run ends");
        let kinds = |d: u64| {
            let d = SimDuration::from_micros(d);
            [
                Overlay::Noise(NoiseBurst {
                    quiet: d,
                    ..NoiseBurst::wifi_like()
                }),
                Overlay::Mobility(StepMobility::new().hop(d, NodeId::new(2), Position::ORIGIN)),
                Overlay::DutyCycle(DutyCycleBudget {
                    window: d,
                    check: SimDuration::from_secs(5),
                    max_duty_percent: 2.5,
                }),
            ]
        };
        for (i, (fits, overflows)) in kinds(room).into_iter().zip(kinds(room + 1)).enumerate() {
            let mut exp = kitchen_sink();
            exp.overlays[i] = fits;
            assert!(
                Experiment::decode(&exp.encode()).is_ok(),
                "{:?}",
                exp.overlays[i]
            );
            exp.overlays[i] = overflows;
            assert_eq!(
                Experiment::decode(&exp.encode()),
                Err(DecodeError::BadValue { what: "overlay" }),
                "{:?}",
                exp.overlays[i]
            );
        }
        // Run windows `Experiment::run` would panic on: an empty one, and
        // one whose end in µs overflows.
        for measure_secs in [0, u64::MAX / 1_000_000] {
            let mut exp = kitchen_sink();
            exp.run.measure_secs = measure_secs;
            assert_eq!(
                Experiment::decode(&exp.encode()),
                Err(DecodeError::BadValue { what: "run spec" }),
                "measure_secs = {measure_secs}"
            );
        }
        assert_eq!(Experiment::decode_hex("abc"), Err(DecodeError::BadHex));
        assert_eq!(Experiment::decode_hex("zz"), Err(DecodeError::BadHex));
    }

    #[test]
    fn no_single_byte_mutation_panics() {
        // Decoding is total: whatever a byte becomes, the result is an
        // error, or an experiment whose network builds without a panic.
        let bytes = kitchen_sink().encode();
        for at in 0..bytes.len() {
            for value in 0..=u8::MAX {
                let mut mutated = bytes.clone();
                mutated[at] = value;
                if let Ok(exp) = Experiment::decode(&mutated) {
                    let built = std::panic::catch_unwind(|| exp.build_network());
                    assert!(
                        built.is_ok(),
                        "byte {at} = {value:#04x} decodes to {}, which panics in build",
                        exp.encode_hex()
                    );
                }
            }
        }
    }

    #[test]
    fn corrupted_length_prefix_fails_cleanly() {
        // A flipped hop-count byte must surface as `Truncated`, not as
        // a multi-gigabyte pre-allocation abort: hex encodings travel
        // as plain text, torn lines happen.
        let exp = crate::Experiment::new(ScenarioSpec::star(2), SchedulerKind::minimal(8))
            .with_overlay(Overlay::Mobility(StepMobility::new().hop(
                SimDuration::from_secs(1),
                NodeId::new(1),
                Position::ORIGIN,
            )));
        let mut bytes = exp.encode();
        // The single hop (26 bytes) is the tail; the u32 hop count sits
        // immediately before it.
        let count_at = bytes.len() - 26 - 4;
        assert_eq!(bytes[count_at], 1, "hop count located");
        bytes[count_at..count_at + 4].copy_from_slice(&0xffff_fff0u32.to_le_bytes());
        assert_eq!(Experiment::decode(&bytes), Err(DecodeError::Truncated));
    }

    /// Pins the encoding's bytes: equal experiments encode identically
    /// across runs, processes and hosts, so this literal changes only
    /// when the layout does — which must come with an
    /// [`ENCODING_VERSION`] bump.
    #[test]
    fn golden_encoding_is_stable() {
        let exp = crate::Experiment::new(ScenarioSpec::star(2), SchedulerKind::minimal(8))
            .with_run(RunSpec {
                traffic_ppm: 10.0,
                warmup_secs: 20,
                measure_secs: 30,
                seed: 1,
                ..RunSpec::default()
            });
        let golden = "475454580300030200000000000000020800000000000000244014000000000000001e00\
                      00000000000001000000000000000000000000";
        assert_eq!(exp.encode_hex(), golden);
        assert_eq!(Experiment::decode_hex(golden).unwrap(), exp);
    }

    #[test]
    fn encoding_is_canonical_across_equal_values() {
        // Two independently-constructed equal experiments byte-match.
        assert_eq!(kitchen_sink().encode(), kitchen_sink().encode());
        // And a semantic difference anywhere changes the bytes.
        let mut other = kitchen_sink();
        other.run.seed += 1;
        assert_ne!(other.encode(), kitchen_sink().encode());
    }
}
