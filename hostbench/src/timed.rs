//! Decorators on the program's public seams. `Timed*` record spans and exist
//! only in traced rounds; [`MeteredMedia`] counts bytes and emulates the
//! power cut of a cold restart, and sits under every durable fleet.

use crate::span::{Kind, OpKey, Recorder};
use logstore::{BatchRecord, Journal, Media};
use staging::proto::{CtlRequest, CtlResponse, GetPiece, GetRequest, PutRequest, PutStatus};
use staging::service::{OpStats, StoreBackend};
use std::collections::BTreeMap;
use std::io;
use std::sync::{Arc, Mutex};

/// One server thread's recorder, shared by the three decorators stacked
/// inside that server (never contended: they run on the one thread).
pub type SharedRecorder = Arc<Mutex<Recorder>>;

fn begin(rec: &SharedRecorder, name: &'static str, key: Option<OpKey>) -> usize {
    rec.lock().expect("recorder lock").begin(name, key, false)
}

fn end(rec: &SharedRecorder, index: usize) {
    rec.lock().expect("recorder lock").end(index);
}

/// Link key of a control request: the version it names.
fn ctl_key(req: &CtlRequest) -> OpKey {
    let (app, version) = match *req {
        CtlRequest::Checkpoint { app, upto_version } => (app, upto_version),
        CtlRequest::Recovery { app, resume_version } => (app, resume_version),
        CtlRequest::GlobalReset { to_version } => (0, to_version),
    };
    OpKey { app, var: 0, version, kind: Kind::Ctl }
}

/// Spans every `StoreBackend` call and samples occupancy after each.
pub struct TimedBackend<B> {
    inner: B,
    rec: SharedRecorder,
    resident_peak: u64,
    live_events_peak: u64,
}

impl<B: StoreBackend> TimedBackend<B> {
    pub fn new(inner: B, rec: SharedRecorder) -> Self {
        TimedBackend { inner, rec, resident_peak: 0, live_events_peak: 0 }
    }

    pub fn inner_mut(&mut self) -> &mut B {
        &mut self.inner
    }

    pub fn resident_peak(&self) -> u64 {
        self.resident_peak
    }

    pub fn live_events_peak(&self) -> u64 {
        self.live_events_peak
    }

    fn sample(&mut self) {
        self.resident_peak = self.resident_peak.max(self.inner.bytes_resident());
        self.live_events_peak = self.live_events_peak.max(self.inner.live_log_events());
    }
}

impl<B: StoreBackend> StoreBackend for TimedBackend<B> {
    fn put(&mut self, req: &PutRequest) -> (PutStatus, OpStats) {
        let key =
            OpKey { app: req.app, var: req.desc.var, version: req.desc.version, kind: Kind::Put };
        let span = begin(&self.rec, "backend.put", Some(key));
        let out = self.inner.put(req);
        end(&self.rec, span);
        self.sample();
        out
    }

    fn get(&mut self, req: &GetRequest) -> (Vec<GetPiece>, OpStats) {
        let key = OpKey { app: req.app, var: req.var, version: req.version, kind: Kind::Get };
        let span = begin(&self.rec, "backend.get", Some(key));
        let out = self.inner.get(req);
        end(&self.rec, span);
        self.sample();
        out
    }

    fn control(&mut self, req: CtlRequest) -> (CtlResponse, OpStats) {
        let span = begin(&self.rec, "backend.ctl", Some(ctl_key(&req)));
        let out = self.inner.control(req);
        end(&self.rec, span);
        self.sample();
        out
    }

    fn get_ready(&self, req: &GetRequest) -> bool {
        self.inner.get_ready(req)
    }

    fn bytes_resident(&self) -> u64 {
        self.inner.bytes_resident()
    }

    fn journal_bytes_flushed(&self) -> u64 {
        self.inner.journal_bytes_flushed()
    }

    fn journal_segments_compacted(&self) -> u64 {
        self.inner.journal_segments_compacted()
    }

    fn journal_group_commits(&self) -> u64 {
        self.inner.journal_group_commits()
    }

    fn journal_records_batched(&self) -> u64 {
        self.inner.journal_records_batched()
    }

    fn live_log_events(&self) -> u64 {
        self.inner.live_log_events()
    }
}

/// Spans every `logstore::Journal` call that does work.
pub struct TimedJournal<J> {
    inner: J,
    rec: SharedRecorder,
}

impl<J: Journal> TimedJournal<J> {
    pub fn new(inner: J, rec: SharedRecorder) -> Self {
        TimedJournal { inner, rec }
    }

    fn spanned<T>(&mut self, name: &'static str, f: impl FnOnce(&mut J) -> T) -> T {
        let span = begin(&self.rec, name, None);
        let out = f(&mut self.inner);
        end(&self.rec, span);
        out
    }
}

impl<J: Journal> Journal for TimedJournal<J> {
    fn append(&mut self, watermark: u64, payload: &[u8]) -> io::Result<()> {
        self.spanned("journal.append", |j| j.append(watermark, payload))
    }

    fn append_parts(&mut self, watermark: u64, parts: &[&[u8]]) -> io::Result<()> {
        self.spanned("journal.append", |j| j.append_parts(watermark, parts))
    }

    fn append_batch(&mut self, batch: &[BatchRecord<'_>]) -> io::Result<()> {
        self.spanned("journal.append", |j| j.append_batch(batch))
    }

    fn flush(&mut self) -> io::Result<()> {
        self.spanned("journal.flush", |j| j.flush())
    }

    fn compact_below(&mut self, floor: u64) -> io::Result<usize> {
        self.spanned("journal.compact", |j| j.compact_below(floor))
    }

    fn bytes_flushed(&self) -> u64 {
        self.inner.bytes_flushed()
    }

    fn segments_compacted(&self) -> u64 {
        self.inner.segments_compacted()
    }

    fn group_commits(&self) -> u64 {
        self.inner.group_commits()
    }

    fn records_batched(&self) -> u64 {
        self.inner.records_batched()
    }
}

/// Spans the `logstore::Media` calls that move or persist bytes.
pub struct TimedMedia<M> {
    inner: M,
    rec: SharedRecorder,
}

impl<M: Media> TimedMedia<M> {
    pub fn new(inner: M, rec: SharedRecorder) -> Self {
        TimedMedia { inner, rec }
    }
}

impl<M: Media> Media for TimedMedia<M> {
    fn append(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        let span = begin(&self.rec, "media.write", None);
        let out = self.inner.append(name, data);
        end(&self.rec, span);
        out
    }

    fn append_vectored(&mut self, name: &str, parts: &[&[u8]]) -> io::Result<()> {
        let span = begin(&self.rec, "media.write", None);
        let out = self.inner.append_vectored(name, parts);
        end(&self.rec, span);
        out
    }

    fn sync(&mut self, name: &str) -> io::Result<()> {
        let span = begin(&self.rec, "media.sync", None);
        let out = self.inner.sync(name);
        end(&self.rec, span);
        out
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        let span = begin(&self.rec, "media.read", None);
        let out = self.inner.read(name);
        end(&self.rec, span);
        out
    }

    fn truncate(&mut self, name: &str, len: u64) -> io::Result<()> {
        self.inner.truncate(name, len)
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        self.inner.remove(name)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }
}

/// Byte accounting of one media directory.
#[derive(Debug, Default, Clone)]
pub struct Meter {
    /// Per file: bytes appended, and how many of them a `sync` has covered.
    files: BTreeMap<String, (u64, u64)>,
    live: u64,
    pub peak_live: u64,
    pub writes: u64,
    pub syncs: u64,
    pub bytes_written: u64,
}

impl Meter {
    /// Cut the power: whatever no `sync` covered is gone. The process is not
    /// really killed, so the operating system would otherwise keep the
    /// unsynced tail; truncating every file to its synced length makes the
    /// cold restart see only bytes the media had been told to persist.
    pub fn crash(&mut self, media: &mut dyn Media) -> io::Result<u64> {
        let mut lost = 0;
        for (name, (len, synced)) in self.files.iter_mut() {
            if *synced < *len {
                media.truncate(name, *synced)?;
                lost += *len - *synced;
                self.live -= *len - *synced;
                *len = *synced;
            }
        }
        Ok(lost)
    }
}

pub type SharedMeter = Arc<Mutex<Meter>>;

/// Counts what passes to the media and tracks which bytes were synced.
pub struct MeteredMedia<M> {
    inner: M,
    meter: SharedMeter,
}

impl<M: Media> MeteredMedia<M> {
    pub fn new(inner: M, meter: SharedMeter) -> Self {
        MeteredMedia { inner, meter }
    }

    fn wrote(&self, name: &str, bytes: u64) {
        let mut m = self.meter.lock().expect("meter lock");
        m.writes += 1;
        m.bytes_written += bytes;
        m.live += bytes;
        m.peak_live = m.peak_live.max(m.live);
        if let Some(f) = m.files.get_mut(name) {
            f.0 += bytes;
        } else {
            m.files.insert(name.to_string(), (bytes, 0));
        }
    }
}

impl<M: Media> Media for MeteredMedia<M> {
    fn append(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        self.inner.append(name, data)?;
        self.wrote(name, data.len() as u64);
        Ok(())
    }

    fn append_vectored(&mut self, name: &str, parts: &[&[u8]]) -> io::Result<()> {
        self.inner.append_vectored(name, parts)?;
        self.wrote(name, parts.iter().map(|p| p.len() as u64).sum());
        Ok(())
    }

    fn sync(&mut self, name: &str) -> io::Result<()> {
        self.inner.sync(name)?;
        let mut m = self.meter.lock().expect("meter lock");
        m.syncs += 1;
        if let Some(f) = m.files.get_mut(name) {
            f.1 = f.0;
        }
        Ok(())
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.inner.read(name)
    }

    fn truncate(&mut self, name: &str, len: u64) -> io::Result<()> {
        self.inner.truncate(name, len)?;
        let mut m = self.meter.lock().expect("meter lock");
        if let Some(f) = m.files.get_mut(name) {
            let cut = f.0.saturating_sub(len);
            f.0 -= cut;
            f.1 = f.1.min(len);
            m.live -= cut;
        }
        Ok(())
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        self.inner.remove(name)?;
        let mut m = self.meter.lock().expect("meter lock");
        if let Some((len, _)) = m.files.remove(name) {
            m.live -= len;
        }
        Ok(())
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logstore::MemMedia;

    #[test]
    fn meter_counts_and_crash_keeps_only_synced_bytes() {
        let mem = MemMedia::new();
        let meter = SharedMeter::default();
        let mut media = MeteredMedia::new(mem.clone(), Arc::clone(&meter));
        media.append("a", &[1; 100]).unwrap();
        media.sync("a").unwrap();
        media.append_vectored("a", &[&[2; 30], &[3; 20]]).unwrap();
        media.append("b", &[4; 10]).unwrap();
        {
            let m = meter.lock().unwrap();
            assert_eq!((m.writes, m.syncs, m.bytes_written, m.peak_live), (3, 1, 160, 160));
        }
        let lost = meter.lock().unwrap().crash(&mut mem.clone()).unwrap();
        assert_eq!(lost, 60);
        assert_eq!(media.read("a").unwrap().len(), 100);
        assert_eq!(media.read("b").unwrap().len(), 0);
        media.remove("a").unwrap();
        assert_eq!(meter.lock().unwrap().live, 0);
    }
}
