//! Wire-level protocol types shared by the DES and threaded staging servers.
//!
//! The wire vocabulary is two types: everything a client sends a staging
//! server is a [`Request`], everything a server answers is a [`Reply`]. The
//! per-kind structs below are their variants' bodies; no endpoint accepts one
//! outside its envelope.
//!
//! Identity model: a workflow is composed of *application components*
//! (simulation, analytics, ...) identified by [`AppId`]; each component has
//! many ranks, but the staging protocol only needs the component identity —
//! per-component event queues are the unit of the paper's consistency
//! algorithm. Variables are dense [`VarId`]s.

use crate::geometry::BBox;
use crate::payload::Payload;
use obs::TraceCtx;
use serde::{Deserialize, Serialize};

/// Variable identifier.
pub type VarId = u32;
/// Data version; the synthetic workflows use the coupling time step.
pub type Version = u32;
/// Application component identifier (simulation = 0, analytics = 1, ...).
pub type AppId = u32;

/// Approximate wire size of a request/response header.
pub const HEADER_BYTES: u64 = 64;

/// The identity the workflow director sends control under: it is no
/// application component, so its `(app, seq)` dedup namespace must not
/// collide with any component's. Its sequence number counts control rounds.
pub const DIRECTOR_APP: AppId = AppId::MAX;

/// Descriptor of a staged object: *which* variable, *which* version, *where*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ObjDesc {
    /// Variable.
    pub var: VarId,
    /// Version (time step).
    pub version: Version,
    /// Region covered.
    pub bbox: BBox,
}

/// A write of one (block-aligned) piece of a variable version.
#[derive(Debug, Clone)]
pub struct PutRequest {
    /// Issuing application component.
    pub app: AppId,
    /// Object being written.
    pub desc: ObjDesc,
    /// The data.
    pub payload: Payload,
    /// Client-side sequence number for matching responses.
    pub seq: u64,
    /// Causal trace context ([`TraceCtx::NONE`] when tracing is off):
    /// server-side work for this request parents under the client span that
    /// issued it.
    pub tctx: TraceCtx,
}

/// Outcome of a put.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PutStatus {
    /// Stored as new data.
    Stored,
    /// Recognized as a redundant re-write from a rolled-back component and
    /// absorbed (the paper's write-deduplication during replay).
    Absorbed,
}

/// Server reply to a [`PutRequest`].
#[derive(Debug, Clone)]
pub struct PutResponse {
    /// Echoed descriptor.
    pub desc: ObjDesc,
    /// Echoed client sequence number.
    pub seq: u64,
    /// What happened.
    pub status: PutStatus,
}

/// A read of a region of a variable version.
#[derive(Debug, Clone)]
pub struct GetRequest {
    /// Issuing application component.
    pub app: AppId,
    /// Variable to read.
    pub var: VarId,
    /// Version requested by the application. During replay the server may
    /// serve a *different* stored version (the one the original execution
    /// observed); the response records what was actually served.
    pub version: Version,
    /// Region requested.
    pub bbox: BBox,
    /// Client-side sequence number.
    pub seq: u64,
    /// Causal trace context ([`TraceCtx::NONE`] when tracing is off).
    pub tctx: TraceCtx,
}

/// One piece of a get result.
#[derive(Debug, Clone)]
pub struct GetPiece {
    /// Sub-region this piece covers (intersection of the stored block and
    /// the request bbox).
    pub bbox: BBox,
    /// Version actually served.
    pub version: Version,
    /// Stored payload of the containing block.
    pub payload: Payload,
}

/// Server reply to a [`GetRequest`].
#[derive(Debug, Clone)]
pub struct GetResponse {
    /// Echoed request identity.
    pub var: VarId,
    /// Echoed requested version.
    pub version: Version,
    /// Echoed client sequence number.
    pub seq: u64,
    /// Pieces intersecting the requested region (may be empty if nothing is
    /// stored there).
    pub pieces: Vec<GetPiece>,
}

/// Control messages from the workflow-level framework to staging servers
/// (the paper's `workflow_check` / `workflow_restart` notifications).
/// Serializable so the durable store journal can record them verbatim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CtlRequest {
    /// `workflow_check()`: the component finished a checkpoint covering all
    /// versions `<= upto_version`.
    Checkpoint {
        /// Component that checkpointed.
        app: AppId,
        /// Highest version captured by the checkpoint.
        upto_version: Version,
    },
    /// `workflow_restart()`: the component rolled back to its last checkpoint
    /// and will re-execute from `resume_version + 1`.
    Recovery {
        /// Component that failed and restarted.
        app: AppId,
        /// Version of its restored checkpoint.
        resume_version: Version,
    },
    /// Global coordinated rollback (the Co baseline): the whole workflow
    /// returns to `to_version`, and staging discards every newer version so
    /// that re-execution re-populates it exactly like the first execution.
    GlobalReset {
        /// Version of the global coordinated checkpoint.
        to_version: Version,
    },
}

/// Server acknowledgement of a [`CtlRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtlResponse {
    /// Echoed control request.
    pub req: CtlRequest,
    /// Number of replayable log events now pending for the app (recovery
    /// only; zero otherwise). Diagnostic, used by tests.
    pub pending_replay: u64,
}

/// A [`CtlRequest`] wrapped with a client identity and sequence number.
///
/// Control requests are not idempotent (a duplicated `GlobalReset` delivered
/// after re-execution started would discard re-executed data), so control
/// always travels in this envelope; the server dedups on `(app, seq)` and
/// replays the recorded acknowledgement for duplicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtlMsg {
    /// Issuing component (the dedup namespace; `GlobalReset` carries no app
    /// of its own).
    pub app: AppId,
    /// Client-side sequence number, unique per app.
    pub seq: u64,
    /// The wrapped control request.
    pub req: CtlRequest,
    /// Causal trace context ([`TraceCtx::NONE`] when tracing is off). Rides
    /// the envelope, *not* [`CtlRequest`] itself: the bare request is
    /// journaled verbatim by the durable store and its format must not
    /// change.
    pub tctx: TraceCtx,
}

/// Server acknowledgement of a [`CtlMsg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtlAck {
    /// Echoed client sequence number.
    pub seq: u64,
    /// The underlying control response.
    pub resp: CtlResponse,
}

/// Everything a client sends a staging server.
#[derive(Debug, Clone)]
pub enum Request {
    /// Write one block.
    Put(PutRequest),
    /// Read one block-aligned region.
    Get(GetRequest),
    /// Workflow control (`workflow_check` / `workflow_restart` / reset).
    Ctl(CtlMsg),
}

impl Request {
    /// Issuing identity (the dedup namespace).
    pub fn app(&self) -> AppId {
        match self {
            Request::Put(r) => r.app,
            Request::Get(r) => r.app,
            Request::Ctl(m) => m.app,
        }
    }

    /// Client-side sequence number; the [`Reply`] echoes it.
    pub fn seq(&self) -> u64 {
        match self {
            Request::Put(r) => r.seq,
            Request::Get(r) => r.seq,
            Request::Ctl(m) => m.seq,
        }
    }

    /// Causal trace context of the client span that issued the request.
    pub fn tctx(&self) -> TraceCtx {
        match self {
            Request::Put(r) => r.tctx,
            Request::Get(r) => r.tctx,
            Request::Ctl(m) => m.tctx,
        }
    }

    /// Size the request declares to the network: a header, plus the data a
    /// put carries.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            Request::Put(r) => HEADER_BYTES + r.payload.accounted_len(),
            Request::Get(_) | Request::Ctl(_) => HEADER_BYTES,
        }
    }
}

/// Everything a staging server answers; the variant matches the
/// [`Request`]'s.
#[derive(Debug, Clone)]
pub enum Reply {
    /// Answer to [`Request::Put`].
    Put(PutResponse),
    /// Answer to [`Request::Get`].
    Get(GetResponse),
    /// Answer to [`Request::Ctl`].
    Ctl(CtlAck),
}

impl Reply {
    /// Echoed client sequence number.
    pub fn seq(&self) -> u64 {
        match self {
            Reply::Put(r) => r.seq,
            Reply::Get(r) => r.seq,
            Reply::Ctl(a) => a.seq,
        }
    }

    /// Size the reply declares to the network: a header, plus the data a
    /// get returns.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            Reply::Get(r) => {
                HEADER_BYTES + r.pieces.iter().map(|p| p.payload.accounted_len()).sum::<u64>()
            }
            Reply::Put(_) | Reply::Ctl(_) => HEADER_BYTES,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn desc_equality_by_value() {
        let a = ObjDesc { var: 1, version: 2, bbox: BBox::d1(0, 9) };
        let b = ObjDesc { var: 1, version: 2, bbox: BBox::d1(0, 9) };
        assert_eq!(a, b);
    }
}
