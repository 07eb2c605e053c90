//! Workflow-level fault-tolerance protocols and their rollback semantics.
//!
//! The evaluation compares five schemes (Figure 9's legend):
//!
//! * **Ds** — failure-free baseline, no logging, no checkpoints;
//! * **Co** — global coordinated C/R: one global period, barriers around the
//!   snapshot, and on any failure *every* component rolls back;
//! * **Un** — the paper's uncoordinated C/R + data logging: per-component
//!   periods, only the failed component rolls back, staging replays;
//! * **Hy** — hybrid: some components use process replication instead of
//!   C/R; replicated components never roll back at all;
//! * **In** — individual C/R *without* logging: only the failed component
//!   rolls back, consistency is (incorrectly) assumed — the theoretical
//!   lower bound on execution time.

use serde::{Deserialize, Serialize};

/// Per-component fault-tolerance scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FtScheme {
    /// Periodic checkpoint/restart every `period` time steps.
    CheckpointRestart {
        /// Steps between checkpoints.
        period: u32,
    },
    /// Process replication: a failure costs a fail-over to the replica,
    /// never a rollback.
    Replication,
}

impl FtScheme {
    /// Does a failed component under this scheme roll back (vs. fail-over)?
    pub fn rolls_back(&self) -> bool {
        matches!(self, FtScheme::CheckpointRestart { .. })
    }

    /// Checkpoint period, if the scheme checkpoints.
    pub fn period(&self) -> Option<u32> {
        match self {
            FtScheme::CheckpointRestart { period } => Some(*period),
            FtScheme::Replication => None,
        }
    }
}

/// Workflow-level protocol tying the components' schemes together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkflowProtocol {
    /// Failure-free baseline (Ds): no checkpointing, no logging.
    FailureFree,
    /// Global coordinated checkpoint/restart (Co): no logging needed.
    Coordinated,
    /// Uncoordinated C/R with data logging (Un) — the paper's scheme.
    Uncoordinated,
    /// Hybrid C/R + replication with data logging (Hy) — the paper's scheme.
    Hybrid,
    /// Individual C/R, no logging, no consistency guarantee (In).
    Individual,
}

impl WorkflowProtocol {
    /// Does this protocol run the data/event logging backend in staging?
    pub fn uses_logging(&self) -> bool {
        matches!(self, WorkflowProtocol::Uncoordinated | WorkflowProtocol::Hybrid)
    }

    /// Are checkpoints coordinated across components (global period plus
    /// cross-component barrier)?
    pub fn coordinated_checkpoints(&self) -> bool {
        matches!(self, WorkflowProtocol::Coordinated)
    }

    /// Short label used in reports (matches the paper's legend).
    pub fn label(&self) -> &'static str {
        match self {
            WorkflowProtocol::FailureFree => "Ds",
            WorkflowProtocol::Coordinated => "Co",
            WorkflowProtocol::Uncoordinated => "Un",
            WorkflowProtocol::Hybrid => "Hy",
            WorkflowProtocol::Individual => "In",
        }
    }

    /// All five evaluated protocols in the paper's presentation order.
    pub fn all() -> [WorkflowProtocol; 5] {
        [
            WorkflowProtocol::FailureFree,
            WorkflowProtocol::Coordinated,
            WorkflowProtocol::Uncoordinated,
            WorkflowProtocol::Hybrid,
            WorkflowProtocol::Individual,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logging_flags() {
        assert!(WorkflowProtocol::Uncoordinated.uses_logging());
        assert!(WorkflowProtocol::Hybrid.uses_logging());
        assert!(!WorkflowProtocol::Coordinated.uses_logging());
        assert!(!WorkflowProtocol::Individual.uses_logging());
        assert!(!WorkflowProtocol::FailureFree.uses_logging());
    }

    #[test]
    fn scheme_properties() {
        assert!(FtScheme::CheckpointRestart { period: 4 }.rolls_back());
        assert!(!FtScheme::Replication.rolls_back());
        assert_eq!(FtScheme::CheckpointRestart { period: 4 }.period(), Some(4));
        assert_eq!(FtScheme::Replication.period(), None);
    }

    #[test]
    fn labels_match_paper() {
        let labels: Vec<&str> = WorkflowProtocol::all().iter().map(|p| p.label()).collect();
        assert_eq!(labels, vec!["Ds", "Co", "Un", "Hy", "In"]);
    }
}
