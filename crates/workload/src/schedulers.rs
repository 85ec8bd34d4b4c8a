//! Scheduler selection for experiments.

use gt_tsch::{GtTschConfig, GtTschSf};
use gtt_engine::{MinimalSchedule, SchedulingFunction};
use gtt_net::NodeId;
use gtt_orchestra::{OrchestraConfig, OrchestraSf};

/// Which scheduling function an experiment runs.
///
/// This is the factory the harness and examples hand to
/// [`Network::builder`](gtt_engine::Network) — cloneable and serializable
/// enough to appear in experiment specs.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedulerKind {
    /// The paper's contribution.
    GtTsch(GtTschConfig),
    /// The Orchestra baseline.
    Orchestra(OrchestraConfig),
    /// RFC 8180-style minimal configuration (extra comparison point).
    Minimal {
        /// Slotframe length.
        slotframe_len: u16,
    },
}

impl SchedulerKind {
    /// GT-TSCH with the paper's Table II configuration.
    pub fn gt_tsch_default() -> Self {
        SchedulerKind::GtTsch(GtTschConfig::paper_default())
    }

    /// Orchestra with the paper's comparison configuration.
    pub fn orchestra_default() -> Self {
        SchedulerKind::Orchestra(OrchestraConfig::paper_default())
    }

    /// Minimal-configuration scheduler.
    pub fn minimal(slotframe_len: u16) -> Self {
        SchedulerKind::Minimal { slotframe_len }
    }

    /// Short name for tables. The ablation variants of one scheduler
    /// (hash-based GT-TSCH channels, sender-based Orchestra cells) get
    /// their own name, so a table can show them beside the default.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerKind::GtTsch(cfg) if cfg.hash_channels => "gt-tsch-hash",
            SchedulerKind::GtTsch(_) => "gt-tsch",
            SchedulerKind::Orchestra(cfg) if cfg.sender_based => "orchestra-sb",
            SchedulerKind::Orchestra(_) => "orchestra",
            SchedulerKind::Minimal { .. } => "minimal",
        }
    }

    /// True if the settings are ones the scheduler's constructor
    /// accepts.
    pub(crate) fn is_valid(&self) -> bool {
        match self {
            SchedulerKind::GtTsch(cfg) => cfg.is_valid(),
            SchedulerKind::Orchestra(cfg) => cfg.is_valid(),
            SchedulerKind::Minimal { slotframe_len } => {
                *slotframe_len >= MinimalSchedule::MIN_SLOTFRAME_LEN
            }
        }
    }

    /// Builds the per-node scheduling function.
    pub fn instantiate(&self, _id: NodeId, _is_root: bool) -> Box<dyn SchedulingFunction> {
        match self {
            SchedulerKind::GtTsch(cfg) => Box::new(GtTschSf::new(cfg.clone())),
            SchedulerKind::Orchestra(cfg) => Box::new(OrchestraSf::new(cfg.clone())),
            SchedulerKind::Minimal { slotframe_len } => {
                Box::new(MinimalSchedule::new(*slotframe_len))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(SchedulerKind::gt_tsch_default().name(), "gt-tsch");
        assert_eq!(SchedulerKind::orchestra_default().name(), "orchestra");
        assert_eq!(SchedulerKind::minimal(8).name(), "minimal");
        let hash = GtTschConfig {
            hash_channels: true,
            ..GtTschConfig::paper_default()
        };
        assert_eq!(SchedulerKind::GtTsch(hash).name(), "gt-tsch-hash");
        let sender_based = OrchestraConfig {
            sender_based: true,
            ..OrchestraConfig::paper_default()
        };
        assert_eq!(
            SchedulerKind::Orchestra(sender_based).name(),
            "orchestra-sb"
        );
    }

    #[test]
    fn instantiate_produces_matching_sf() {
        let sf = SchedulerKind::gt_tsch_default().instantiate(NodeId::new(1), false);
        assert_eq!(sf.name(), "gt-tsch");
        let sf = SchedulerKind::orchestra_default().instantiate(NodeId::new(1), false);
        assert_eq!(sf.name(), "orchestra");
    }
}
