//! Log events: the unit the staging area records and replays.

use staging::geometry::BBox;
use staging::proto::{AppId, ObjDesc, VarId, Version};

/// Approximate in-staging footprint of one event record (descriptor, ids,
/// digest, queue linkage). Charged to staging memory per logged event.
pub const EVENT_BYTES: u64 = 64;

/// One entry in an application's event queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogEvent {
    /// A data write that flowed through staging.
    Put {
        /// Writing component.
        app: AppId,
        /// What was written.
        desc: ObjDesc,
        /// Payload size.
        bytes: u64,
        /// Payload digest (for redundant-write verification during replay).
        digest: u64,
    },
    /// A data read served by staging.
    Get {
        /// Reading component.
        app: AppId,
        /// Variable read.
        var: VarId,
        /// Version the application asked for.
        requested: Version,
        /// Version staging actually served (differs from `requested` only in
        /// exotic configurations; recorded because replay must reproduce it).
        served: Version,
        /// Region read.
        bbox: BBox,
        /// Bytes served.
        bytes: u64,
        /// Digest of the served data.
        digest: u64,
    },
    /// A `workflow_check()` notification: the component durably checkpointed
    /// everything up to and including `upto_version`.
    Checkpoint {
        /// Checkpointing component.
        app: AppId,
        /// The paper's globally unique checkpoint event id.
        w_chk_id: u64,
        /// Highest version covered by the checkpoint.
        upto_version: Version,
    },
    /// A `workflow_restart()` notification: the component rolled back and
    /// resumes after `resume_version`.
    Recovery {
        /// Recovering component.
        app: AppId,
        /// Version of the restored checkpoint.
        resume_version: Version,
    },
}

impl LogEvent {
    /// The component this event belongs to.
    pub fn app(&self) -> AppId {
        match *self {
            LogEvent::Put { app, .. }
            | LogEvent::Get { app, .. }
            | LogEvent::Checkpoint { app, .. }
            | LogEvent::Recovery { app, .. } => app,
        }
    }

    /// The data version this event concerns (checkpoint/recovery events
    /// report their boundary version).
    pub fn version(&self) -> Version {
        match *self {
            LogEvent::Put { desc, .. } => desc.version,
            LogEvent::Get { served, .. } => served,
            LogEvent::Checkpoint { upto_version, .. } => upto_version,
            LogEvent::Recovery { resume_version, .. } => resume_version,
        }
    }

    /// Is this a data-transport event (put/get) as opposed to a control
    /// marker?
    pub fn is_transport(&self) -> bool {
        matches!(self, LogEvent::Put { .. } | LogEvent::Get { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(version: Version) -> ObjDesc {
        ObjDesc { var: 0, version, bbox: BBox::d1(0, 9) }
    }

    #[test]
    fn accessors() {
        let p = LogEvent::Put { app: 2, desc: desc(7), bytes: 10, digest: 1 };
        assert_eq!(p.app(), 2);
        assert_eq!(p.version(), 7);
        assert!(p.is_transport());

        let g = LogEvent::Get {
            app: 1,
            var: 0,
            requested: 7,
            served: 6,
            bbox: BBox::d1(0, 9),
            bytes: 10,
            digest: 2,
        };
        assert_eq!(g.version(), 6);
        assert!(g.is_transport());

        let c = LogEvent::Checkpoint { app: 0, w_chk_id: 5, upto_version: 4 };
        assert_eq!(c.version(), 4);
        assert!(!c.is_transport());

        let r = LogEvent::Recovery { app: 0, resume_version: 4 };
        assert_eq!(r.version(), 4);
        assert!(!r.is_transport());
    }
}
