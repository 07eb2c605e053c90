//! Runtime backend selection: plain staging (Ds/Co/In) vs. logging staging
//! (Un/Hy), behind one concrete type so the server actor stays monomorphic.

use staging::proto::{CtlRequest, CtlResponse, GetPiece, GetRequest, PutRequest, PutStatus};
use staging::service::{JournalStats, OpStats, PlainBackend, StoreBackend};
use wfcr::backend::LoggingBackend;
use wfcr::protocol::WorkflowProtocol;

/// Versions per variable the plain backend retains: the latest couple.
const PLAIN_MAX_VERSIONS: usize = 2;

/// Either staging backend, chosen by protocol.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // one long-lived instance per server actor
pub enum AnyBackend {
    /// Baseline staging (bounded version retention, no logging).
    Plain(PlainBackend),
    /// Crash-consistency logging staging.
    Logging(LoggingBackend),
}

impl AnyBackend {
    /// Build the backend a protocol requires. `apps` pre-registers the
    /// workflow components with the logging backend's GC; `gc_enabled`
    /// false turns collection off (the GC ablation's unbounded log growth).
    pub fn for_protocol(protocol: WorkflowProtocol, apps: &[u32], gc_enabled: bool) -> AnyBackend {
        if protocol.uses_logging() {
            let mut b = LoggingBackend::new();
            for &a in apps {
                b.register_app(a);
            }
            b.set_gc_enabled(gc_enabled);
            AnyBackend::Logging(b)
        } else {
            AnyBackend::Plain(PlainBackend::new(PLAIN_MAX_VERSIONS))
        }
    }

    /// The logging backend, if that is what this is.
    pub fn as_logging(&self) -> Option<&LoggingBackend> {
        match self {
            AnyBackend::Logging(b) => Some(b),
            AnyBackend::Plain(_) => None,
        }
    }

    /// The logging backend, mutably: the only backend that journals, so
    /// durable wiring, cold restart and journal harvest go through here.
    pub fn as_logging_mut(&mut self) -> Option<&mut LoggingBackend> {
        match self {
            AnyBackend::Logging(b) => Some(b),
            AnyBackend::Plain(_) => None,
        }
    }

    /// Gets served a version other than the requested one (plain backend
    /// only; the logging backend never serves unverified stale data).
    pub fn stale_gets(&self) -> u64 {
        match self {
            AnyBackend::Plain(b) => b.stale_gets(),
            AnyBackend::Logging(_) => 0,
        }
    }
}

impl StoreBackend for AnyBackend {
    fn put(&mut self, req: &PutRequest) -> (PutStatus, OpStats) {
        match self {
            AnyBackend::Plain(b) => b.put(req),
            AnyBackend::Logging(b) => b.put(req),
        }
    }

    fn get(&mut self, req: &GetRequest) -> (Vec<GetPiece>, OpStats) {
        match self {
            AnyBackend::Plain(b) => b.get(req),
            AnyBackend::Logging(b) => b.get(req),
        }
    }

    fn control(&mut self, req: CtlRequest) -> (CtlResponse, OpStats) {
        match self {
            AnyBackend::Plain(b) => b.control(req),
            AnyBackend::Logging(b) => b.control(req),
        }
    }

    fn get_ready(&self, req: &GetRequest) -> bool {
        match self {
            AnyBackend::Plain(b) => b.get_ready(req),
            AnyBackend::Logging(b) => b.get_ready(req),
        }
    }

    fn bytes_resident(&self) -> u64 {
        match self {
            AnyBackend::Plain(b) => b.bytes_resident(),
            AnyBackend::Logging(b) => b.bytes_resident(),
        }
    }

    fn journal_stats(&self) -> JournalStats {
        self.as_logging().map_or_else(JournalStats::default, LoggingBackend::journal_stats)
    }

    fn live_log_events(&self) -> u64 {
        match self {
            AnyBackend::Plain(b) => b.live_log_events(),
            AnyBackend::Logging(b) => b.live_log_events(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_selection_by_protocol() {
        for p in WorkflowProtocol::all() {
            let b = AnyBackend::for_protocol(p, &[0, 1], true);
            match (p.uses_logging(), &b) {
                (true, AnyBackend::Logging(_)) => {}
                (false, AnyBackend::Plain(_)) => {}
                _ => panic!("wrong backend for {p:?}"),
            }
        }
    }

    #[test]
    fn accessors() {
        let p = AnyBackend::for_protocol(WorkflowProtocol::Coordinated, &[], true);
        assert!(p.as_logging().is_none());
        let l = AnyBackend::for_protocol(WorkflowProtocol::Uncoordinated, &[0], true);
        assert!(l.as_logging().is_some());
    }

    #[test]
    fn delegation_works() {
        use staging::geometry::BBox;
        use staging::payload::Payload;
        use staging::proto::ObjDesc;
        let mut b = AnyBackend::for_protocol(WorkflowProtocol::Uncoordinated, &[0], true);
        let req = PutRequest {
            app: 0,
            desc: ObjDesc { var: 0, version: 1, bbox: BBox::d1(0, 9) },
            payload: Payload::virtual_from(10, &[1]),
            seq: 0,
            tctx: obs::TraceCtx::NONE,
        };
        let (status, stats) = b.put(&req);
        assert_eq!(status, PutStatus::Stored);
        assert_eq!(stats.log_events, 1, "logging backend logs");
        assert!(b.bytes_resident() > 0);
    }
}
