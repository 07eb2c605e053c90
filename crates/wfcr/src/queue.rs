//! Per-application event queues — the data structure at the heart of the
//! paper's "queue based data consistency algorithm".
//!
//! The staging area keeps one queue per application component. Every data
//! transport request is pushed as it is served; `workflow_check()` pushes a
//! checkpoint marker. On failure, the events *after* the last checkpoint
//! marker form the replay script; at checkpoint boundaries the prefix that no
//! rollback can need anymore is discarded ("at the end of checkpoint cycle,
//! data staging will clean the event queue").
//!
//! # Index structure
//!
//! Transport events (put/get) and control markers (checkpoint/recovery) are
//! kept in two separate streams. Transport versions are monotonic per run —
//! a component's steps only move forward, and absorbed replays are never
//! re-logged — so the transport stream stays sorted by [`LogEvent::version`]
//! with O(1) appends (a stable binary insertion covers the rare out-of-order
//! arrival, e.g. a get served from an older version). That invariant turns
//! the two hot operations into range lookups:
//!
//! * [`EventQueue::replay_script`] — the replay window for a rollback to
//!   `resume` is the suffix after `partition_point(version <= resume)`:
//!   O(log n + k) for a k-event script instead of a full scan.
//! * [`EventQueue::truncate_through`] — GC drops the prefix up to the
//!   boundary as one `drain` of an index range instead of a linear `retain`.
//!
//! # Peek-before-commit
//!
//! Supervised restarts need a guarantee that in-flight work is never lost
//! while a consumer is down: a restart reads the replay window
//! ([`EventQueue::replay_script`]) without consuming it, and events
//! only leave the queue when a checkpoint boundary *commits* them via
//! [`EventQueue::truncate_through`]. The queue counts both sides —
//! [`EventQueue::appended_transport`] and [`EventQueue::committed`] — so an
//! oracle can check the no-lost-event invariant
//! `appended_transport == committed + retained` at any point in a schedule.

use crate::event::{LogEvent, EVENT_BYTES};
use staging::proto::Version;

/// Event queue for one application component.
#[derive(Debug, Default, Clone, serde::Serialize, serde::Deserialize)]
pub struct EventQueue {
    /// Transport events in non-decreasing `version()` order (stable, so
    /// same-version events keep their append order).
    transport: Vec<LogEvent>,
    /// Control markers (checkpoint/recovery) in append order.
    markers: Vec<LogEvent>,
    /// Version covered by the newest checkpoint marker seen (low-water mark
    /// for rollback: the app can never resume from before this).
    ckpt_version: Option<Version>,
    /// `w_chk_id` of the newest checkpoint marker.
    last_w_chk_id: Option<u64>,
    /// Events ever appended (diagnostics).
    appended: u64,
    /// Transport events ever appended (no-lost-event accounting).
    #[serde(default)]
    appended_transport: u64,
    /// Transport events committed out of the queue by checkpoint-boundary
    /// truncation. Invariant: `appended_transport == committed +
    /// transport.len()` — nothing leaves the queue except through a commit.
    #[serde(default)]
    committed: u64,
}

impl EventQueue {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an event. Checkpoint markers update the low-water mark.
    pub fn push(&mut self, ev: LogEvent) {
        self.appended += 1;
        if let LogEvent::Checkpoint { w_chk_id, upto_version, .. } = ev {
            self.ckpt_version = Some(match self.ckpt_version {
                Some(v) => v.max(upto_version),
                None => upto_version,
            });
            self.last_w_chk_id = Some(w_chk_id);
        }
        if !ev.is_transport() {
            self.markers.push(ev);
            return;
        }
        self.appended_transport += 1;
        let v = ev.version();
        match self.transport.last() {
            // Monotonic fast path: versions never regress in a normal run.
            Some(last) if last.version() > v => {
                let idx = self.transport.partition_point(|e| e.version() <= v);
                self.transport.insert(idx, ev);
            }
            _ => self.transport.push(ev),
        }
    }

    /// The version of the newest checkpoint (rollback target), if any.
    pub fn checkpoint_version(&self) -> Option<Version> {
        self.ckpt_version
    }

    /// The most recent checkpoint marker's id.
    pub fn last_w_chk_id(&self) -> Option<u64> {
        self.last_w_chk_id
    }

    /// Build the replay script for a rollback to `resume_version`: all
    /// transport events recorded *after* that version, in original order.
    /// These are the operations the recovering component will re-issue and
    /// that staging must reproduce.
    ///
    /// The transport stream is version-sorted, so the script is the suffix
    /// past the binary-searched window boundary — O(log n + k).
    pub fn replay_script(&self, resume_version: Version) -> Vec<LogEvent> {
        self.peek_since(resume_version).to_vec()
    }

    /// Peek at the replay window without consuming or copying it: every
    /// transport event recorded after `resume_version`, in order, as a
    /// borrowed slice. The events stay queued until
    /// [`EventQueue::truncate_through`] commits them at a checkpoint
    /// boundary.
    fn peek_since(&self, resume_version: Version) -> &[LogEvent] {
        let start = self.transport.partition_point(|ev| ev.version() <= resume_version);
        &self.transport[start..]
    }

    /// Drop every event at or before `boundary` *provided* it precedes the
    /// newest checkpoint marker covering `boundary` (garbage collection).
    /// Returns the number of events discarded.
    pub fn truncate_through(&mut self, boundary: Version) -> usize {
        let Some(ckpt) = self.ckpt_version else { return 0 };
        let boundary = boundary.min(ckpt);
        // The collectible transport events are a contiguous sorted prefix.
        let cut = self.transport.partition_point(|ev| ev.version() <= boundary);
        self.transport.drain(..cut);
        self.committed += cut as u64;
        // Retain the newest checkpoint marker itself (so replay_script can
        // still find its anchor) and markers newer than the boundary.
        let last_id = self.last_w_chk_id;
        let markers_before = self.markers.len();
        self.markers.retain(|ev| match ev {
            LogEvent::Checkpoint { w_chk_id, .. } => Some(*w_chk_id) == last_id,
            ev => ev.version() > boundary,
        });
        cut + (markers_before - self.markers.len())
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.transport.len() + self.markers.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.transport.is_empty() && self.markers.is_empty()
    }

    /// Staging memory charged to this queue.
    pub fn bytes(&self) -> u64 {
        self.len() as u64 * EVENT_BYTES
    }

    /// Total events ever appended.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Transport events ever appended (the "in" side of peek-before-commit).
    pub fn appended_transport(&self) -> u64 {
        self.appended_transport
    }

    /// Transport events committed out by checkpoint-boundary truncation (the
    /// "out" side of peek-before-commit).
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Transport events currently retained.
    pub fn transport_len(&self) -> usize {
        self.transport.len()
    }

    /// Iterate retained events in version order (transport events before
    /// markers of the same version), oldest-first — the shape of the paper's
    /// Figure 5 queue printouts.
    pub fn iter(&self) -> impl Iterator<Item = &LogEvent> {
        let mut merged: Vec<&LogEvent> = self.transport.iter().chain(self.markers.iter()).collect();
        merged.sort_by_key(|ev| ev.version());
        merged.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use staging::geometry::BBox;
    use staging::proto::ObjDesc;

    fn put(app: u32, version: Version) -> LogEvent {
        LogEvent::Put {
            app,
            desc: ObjDesc { var: 0, version, bbox: BBox::d1(0, 9) },
            bytes: 10,
            digest: version as u64,
        }
    }

    fn get(app: u32, version: Version) -> LogEvent {
        LogEvent::Get {
            app,
            var: 0,
            requested: version,
            served: version,
            bbox: BBox::d1(0, 9),
            bytes: 10,
            digest: version as u64,
        }
    }

    fn ckpt(app: u32, id: u64, upto: Version) -> LogEvent {
        LogEvent::Checkpoint { app, w_chk_id: id, upto_version: upto }
    }

    #[test]
    fn replay_script_after_checkpoint() {
        // Mirrors Figure 5: checkpoints at ts4; failure rolls back to ts4;
        // replay covers ts5..=ts7.
        let mut q = EventQueue::new();
        for v in 1..=4 {
            q.push(put(1, v));
        }
        q.push(ckpt(1, 100, 4));
        for v in 5..=7 {
            q.push(put(1, v));
        }
        let script = q.replay_script(4);
        assert_eq!(script.len(), 3);
        assert!(script.iter().all(|e| e.version() > 4));
        assert_eq!(script[0].version(), 5);
        assert_eq!(script[2].version(), 7);
    }

    #[test]
    fn replay_script_without_checkpoint_replays_from_start() {
        let mut q = EventQueue::new();
        for v in 1..=3 {
            q.push(get(1, v));
        }
        let script = q.replay_script(0);
        assert_eq!(script.len(), 3);
    }

    #[test]
    fn replay_script_empty_when_nothing_after_marker() {
        let mut q = EventQueue::new();
        q.push(put(0, 1));
        q.push(ckpt(0, 7, 1));
        assert!(q.replay_script(1).is_empty());
    }

    #[test]
    fn multiple_checkpoints_pick_latest_applicable() {
        let mut q = EventQueue::new();
        q.push(put(0, 1));
        q.push(ckpt(0, 1, 1));
        q.push(put(0, 2));
        q.push(ckpt(0, 2, 2));
        q.push(put(0, 3));
        // Rollback to 2 replays only version 3.
        assert_eq!(q.replay_script(2).len(), 1);
        // Rollback to 1 replays versions 2 and 3.
        assert_eq!(q.replay_script(1).len(), 2);
    }

    #[test]
    fn checkpoint_version_tracks_max() {
        let mut q = EventQueue::new();
        assert_eq!(q.checkpoint_version(), None);
        q.push(ckpt(0, 1, 4));
        q.push(ckpt(0, 2, 8));
        assert_eq!(q.checkpoint_version(), Some(8));
        assert_eq!(q.last_w_chk_id(), Some(2));
    }

    #[test]
    fn truncate_respects_checkpoint_low_water() {
        let mut q = EventQueue::new();
        for v in 1..=4 {
            q.push(put(0, v));
        }
        q.push(ckpt(0, 9, 4));
        for v in 5..=6 {
            q.push(put(0, v));
        }
        // Boundary above the checkpoint is clamped to it: events 1..=4 go,
        // the marker stays, 5..=6 stay.
        let dropped = q.truncate_through(10);
        assert_eq!(dropped, 4);
        assert_eq!(q.len(), 3);
        assert_eq!(q.replay_script(4).len(), 2);
    }

    #[test]
    fn truncate_without_checkpoint_is_noop() {
        let mut q = EventQueue::new();
        q.push(put(0, 1));
        assert_eq!(q.truncate_through(5), 0);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn bytes_accounting() {
        let mut q = EventQueue::new();
        assert_eq!(q.bytes(), 0);
        q.push(put(0, 1));
        q.push(put(0, 2));
        assert_eq!(q.bytes(), 2 * EVENT_BYTES);
        assert_eq!(q.appended(), 2);
        q.push(ckpt(0, 1, 2));
        q.truncate_through(2);
        assert_eq!(q.bytes(), EVENT_BYTES); // marker retained
        assert_eq!(q.appended(), 3);
    }

    #[test]
    fn replay_after_truncate_still_correct() {
        let mut q = EventQueue::new();
        for v in 1..=4 {
            q.push(put(0, v));
            q.push(get(0, v));
        }
        q.push(ckpt(0, 1, 4));
        for v in 5..=7 {
            q.push(put(0, v));
            q.push(get(0, v));
        }
        q.truncate_through(4);
        let script = q.replay_script(4);
        assert_eq!(script.len(), 6);
        let versions: Vec<Version> = script.iter().map(|e| e.version()).collect();
        assert_eq!(versions, vec![5, 5, 6, 6, 7, 7]);
    }

    #[test]
    fn out_of_order_served_version_stays_findable() {
        // A get served from an older version (stale fallback) arrives after
        // newer events; the sorted insert keeps every replay window exact.
        let mut q = EventQueue::new();
        q.push(put(0, 2));
        q.push(put(0, 5));
        q.push(get(0, 3)); // served=3, logged after version 5
        let script = q.replay_script(2);
        let versions: Vec<Version> = script.iter().map(|e| e.version()).collect();
        assert_eq!(versions, vec![3, 5]);
        assert_eq!(q.replay_script(4).len(), 1);
        assert_eq!(q.appended(), 3);
    }

    #[test]
    fn peek_before_commit_conserves_events() {
        let mut q = EventQueue::new();
        for v in 1..=4 {
            q.push(put(0, v));
        }
        // Peek is non-consuming and zero-copy.
        assert_eq!(q.peek_since(2).len(), 2);
        assert_eq!(q.peek_since(2).len(), 2, "peek again, nothing consumed");
        assert_eq!(q.appended_transport(), 4);
        assert_eq!(q.committed(), 0);
        assert_eq!(q.transport_len(), 4);
        // Commit happens only at a checkpoint boundary.
        q.push(ckpt(0, 1, 3));
        q.truncate_through(3);
        assert_eq!(q.committed(), 3);
        assert_eq!(q.transport_len(), 1);
        // No-lost-event invariant: in == out + retained.
        assert_eq!(q.appended_transport(), q.committed() + q.transport_len() as u64);
        // Markers never count against the transport conservation law.
        assert_eq!(q.appended(), 5);
    }

    #[test]
    fn iter_merges_markers_in_version_order() {
        let mut q = EventQueue::new();
        q.push(put(0, 1));
        q.push(put(0, 2));
        q.push(ckpt(0, 1, 2));
        q.push(put(0, 3));
        let kinds: Vec<Version> = q.iter().map(|e| e.version()).collect();
        assert_eq!(kinds, vec![1, 2, 2, 3]);
        assert!(matches!(q.iter().nth(2), Some(LogEvent::Checkpoint { .. })));
    }
}
