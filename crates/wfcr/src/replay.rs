//! Replay mode: reproducing a rolled-back component's data-transport history.
//!
//! When `workflow_restart()` arrives for a component, staging builds its
//! replay script (the logged transport events since its restored checkpoint)
//! and enters replay mode for that component. Each subsequent request from
//! the component is matched against the script:
//!
//! * a matching logged `Put` ⇒ the write is **absorbed** (Figure 2, case 2 —
//!   the redundant re-write must not clobber or duplicate staged data);
//!   the payload digest is compared with the logged digest as a safety net —
//!   deterministic re-execution from the checkpointed RNG state must
//!   reproduce identical bytes;
//! * a matching logged `Get` ⇒ staging serves the **logged version** (Figure
//!   2, case 1 — the consumer must re-observe the data the original
//!   execution observed, not whatever is newest);
//! * when every script entry has been consumed — or the component issues a
//!   request for a version beyond the script — replay ends and the component
//!   "reaches a state compatible with the other components" (paper §III-A).
//!
//! A request matches the *first unconsumed* entry that fits it. The script is
//! consumed through a cursor — every entry before it is consumed — so a
//! re-execution in logged order matches at the cursor and costs O(1) a
//! request; a request out of logged order, or one the script does not hold,
//! scans the unconsumed tail.

use crate::event::LogEvent;
use staging::geometry::BBox;
use staging::proto::{AppId, ObjDesc, VarId, Version};
use std::collections::BTreeMap;

/// Decision for an incoming put.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PutDecision {
    /// Redundant re-write: do not store. `digest_ok` is the verification
    /// outcome against the logged digest.
    Absorb {
        /// Did the re-executed payload match the original bytes?
        digest_ok: bool,
    },
    /// Not part of a replay: store normally and log.
    Store,
}

/// Decision for an incoming get.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GetDecision {
    /// Replay: serve this logged version and verify against this digest.
    Replay {
        /// Version the original execution observed.
        version: Version,
        /// Digest of the originally served data.
        digest: u64,
    },
    /// Not part of a replay: resolve and log normally.
    Normal,
}

#[cfg(test)]
thread_local! {
    /// Script entries [`ReplayState::take`] has looked at on this thread: the
    /// tests count the search's cost instead of timing it.
    static EXAMINED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Per-component replay progress.
#[derive(Debug)]
struct ReplayState {
    script: Vec<LogEvent>,
    consumed: Vec<bool>,
    /// Every entry before `cursor` is consumed, so no search looks there.
    cursor: usize,
    /// Entries not yet consumed.
    left: usize,
    resume_version: Version,
    /// Highest version any script entry *asked* for; requests beyond it end
    /// the replay.
    max_version: Version,
}

impl ReplayState {
    /// The one matching search: consume the first unconsumed entry `pick`
    /// accepts and return what it extracted. An out-of-order or unmatched
    /// request scans the unconsumed tail past the cursor.
    fn take<T>(&mut self, pick: impl Fn(&LogEvent) -> Option<T>) -> Option<T> {
        let (i, picked) = (self.cursor..self.script.len()).find_map(|i| {
            #[cfg(test)]
            EXAMINED.with(|n| n.set(n.get() + 1));
            if self.consumed[i] {
                return None;
            }
            pick(&self.script[i]).map(|t| (i, t))
        })?;
        self.consumed[i] = true;
        self.left -= 1;
        while self.consumed.get(self.cursor) == Some(&true) {
            self.cursor += 1;
        }
        Some(picked)
    }
}

/// Tracks which components are replaying and matches their requests.
#[derive(Debug, Default)]
pub struct ReplayManager {
    // BTreeMap so `active_floor` and any future sweep iterate apps in a
    // platform-independent order.
    states: BTreeMap<AppId, ReplayState>,
    /// Digest mismatches observed (should stay zero for deterministic apps).
    mismatches: u64,
    /// Requests that found no matching script entry while replaying.
    unmatched: u64,
    /// Replays completed.
    completed: u64,
}

impl ReplayManager {
    /// Fresh manager with no active replays.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enter replay mode for `app` with the given script. An empty script
    /// completes immediately.
    pub fn begin(&mut self, app: AppId, resume_version: Version, script: Vec<LogEvent>) -> usize {
        let n = script.len();
        if n == 0 {
            self.completed += 1;
            self.states.remove(&app);
            return 0;
        }
        // What each entry was asked for, not what it was served: a get that
        // fell back to an older version is still re-issued for the newer one.
        let asked = |ev: &LogEvent| match *ev {
            LogEvent::Get { requested, .. } => requested,
            _ => ev.version(),
        };
        let max_version = script.iter().map(asked).max().unwrap_or(resume_version);
        let consumed = vec![false; n];
        let state =
            ReplayState { script, consumed, cursor: 0, left: n, resume_version, max_version };
        self.states.insert(app, state);
        n
    }

    /// Is `app` currently in replay mode?
    pub fn is_replaying(&self, app: AppId) -> bool {
        self.states.contains_key(&app)
    }

    /// Script entries not yet consumed for `app`.
    pub fn pending(&self, app: AppId) -> usize {
        self.states.get(&app).map_or(0, |s| s.left)
    }

    /// Classify an incoming put.
    pub fn on_put(&mut self, app: AppId, desc: &ObjDesc, digest: u64) -> PutDecision {
        let Some(st) = self.states.get_mut(&app) else { return PutDecision::Store };
        if desc.version > st.max_version {
            // The component has caught up past its logged history.
            self.finish(app);
            return PutDecision::Store;
        }
        // The first unconsumed logged Put matching this descriptor.
        let logged = st.take(|ev| match ev {
            LogEvent::Put { desc: d, digest, .. } if d == desc => Some(*digest),
            _ => None,
        });
        match logged {
            Some(logged_digest) => {
                let digest_ok = logged_digest == digest;
                if !digest_ok {
                    self.mismatches += 1;
                }
                self.maybe_finish(app);
                PutDecision::Absorb { digest_ok }
            }
            None => {
                // Replaying but this exact write was never logged (e.g. the
                // failure hit mid-step, after the checkpoint but before this
                // put reached staging): store it normally.
                self.unmatched += 1;
                PutDecision::Store
            }
        }
    }

    /// Classify an incoming get.
    pub fn on_get(
        &mut self,
        app: AppId,
        var: VarId,
        requested: Version,
        bbox: &BBox,
    ) -> GetDecision {
        let Some(st) = self.states.get_mut(&app) else { return GetDecision::Normal };
        if requested > st.max_version {
            self.finish(app);
            return GetDecision::Normal;
        }
        let logged = st.take(|ev| match ev {
            LogEvent::Get { var: v, requested: r, served, bbox: b, digest, .. }
                if *v == var && *r == requested && b == bbox =>
            {
                Some((*served, *digest))
            }
            _ => None,
        });
        match logged {
            Some((version, digest)) => {
                self.maybe_finish(app);
                GetDecision::Replay { version, digest }
            }
            None => {
                self.unmatched += 1;
                GetDecision::Normal
            }
        }
    }

    /// Record a verification failure discovered downstream (served data's
    /// digest differed from the logged digest).
    pub fn record_mismatch(&mut self) {
        self.mismatches += 1;
    }

    fn maybe_finish(&mut self, app: AppId) {
        if self.states.get(&app).is_some_and(|s| s.left == 0) {
            self.finish(app);
        }
    }

    fn finish(&mut self, app: AppId) {
        if self.states.remove(&app).is_some() {
            self.completed += 1;
        }
    }

    /// Digest mismatches seen so far.
    pub fn mismatches(&self) -> u64 {
        self.mismatches
    }

    /// Unmatched in-replay requests seen so far.
    pub fn unmatched(&self) -> u64 {
        self.unmatched
    }

    /// Completed replays.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Lowest resume version across active replays (GC must not collect
    /// anything newer than this floor while a replay is active).
    pub fn active_floor(&self) -> Option<Version> {
        self.states.values().map(|s| s.resume_version).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put_ev(app: u32, version: Version) -> LogEvent {
        LogEvent::Put { app, desc: desc(version), bytes: 10, digest: 100 + version as u64 }
    }

    fn get_ev(app: u32, version: Version) -> LogEvent {
        LogEvent::Get {
            app,
            var: 0,
            requested: version,
            served: version,
            bbox: BBox::d1(0, 9),
            bytes: 10,
            digest: 200 + version as u64,
        }
    }

    fn desc(version: Version) -> ObjDesc {
        ObjDesc { var: 0, version, bbox: BBox::d1(0, 9) }
    }

    #[test]
    fn empty_script_completes_immediately() {
        let mut rm = ReplayManager::new();
        assert_eq!(rm.begin(0, 4, vec![]), 0);
        assert!(!rm.is_replaying(0));
        assert_eq!(rm.completed(), 1);
    }

    #[test]
    fn puts_absorbed_in_order() {
        let mut rm = ReplayManager::new();
        rm.begin(0, 4, vec![put_ev(0, 5), put_ev(0, 6), put_ev(0, 7)]);
        for v in 5..=7 {
            let d = rm.on_put(0, &desc(v), 100 + v as u64);
            assert_eq!(d, PutDecision::Absorb { digest_ok: true }, "v={v}");
        }
        assert!(!rm.is_replaying(0), "all consumed ⇒ replay over");
        assert_eq!(rm.completed(), 1);
        // Next put is normal.
        assert_eq!(rm.on_put(0, &desc(8), 0), PutDecision::Store);
    }

    #[test]
    fn digest_mismatch_flagged_but_absorbed() {
        let mut rm = ReplayManager::new();
        rm.begin(0, 0, vec![put_ev(0, 1)]);
        let d = rm.on_put(0, &desc(1), 999);
        assert_eq!(d, PutDecision::Absorb { digest_ok: false });
        assert_eq!(rm.mismatches(), 1);
    }

    #[test]
    fn get_served_logged_version() {
        let mut rm = ReplayManager::new();
        rm.begin(1, 4, vec![get_ev(1, 5), get_ev(1, 6)]);
        let d = rm.on_get(1, 0, 5, &BBox::d1(0, 9));
        assert_eq!(d, GetDecision::Replay { version: 5, digest: 205 });
        assert_eq!(rm.pending(1), 1);
        let d = rm.on_get(1, 0, 6, &BBox::d1(0, 9));
        assert_eq!(d, GetDecision::Replay { version: 6, digest: 206 });
        assert!(!rm.is_replaying(1));
    }

    #[test]
    fn version_beyond_script_ends_replay() {
        let mut rm = ReplayManager::new();
        rm.begin(0, 4, vec![put_ev(0, 5)]);
        // Component skipped ahead (e.g. replay partially served elsewhere).
        assert_eq!(rm.on_put(0, &desc(9), 0), PutDecision::Store);
        assert!(!rm.is_replaying(0));
    }

    #[test]
    fn unmatched_request_counted_and_stored() {
        let mut rm = ReplayManager::new();
        rm.begin(0, 4, vec![put_ev(0, 5), put_ev(0, 6)]);
        // A put for version 5 but a different region: not in the script.
        let other = ObjDesc { var: 0, version: 5, bbox: BBox::d1(50, 59) };
        assert_eq!(rm.on_put(0, &other, 0), PutDecision::Store);
        assert_eq!(rm.unmatched(), 1);
        assert!(rm.is_replaying(0), "replay continues");
    }

    #[test]
    fn out_of_order_replay_tolerated() {
        let mut rm = ReplayManager::new();
        rm.begin(0, 0, vec![put_ev(0, 1), put_ev(0, 2)]);
        assert!(matches!(rm.on_put(0, &desc(2), 102), PutDecision::Absorb { .. }));
        assert!(matches!(rm.on_put(0, &desc(1), 101), PutDecision::Absorb { .. }));
        assert!(!rm.is_replaying(0));
    }

    #[test]
    fn get_served_an_older_version_does_not_end_the_replay_early() {
        // The second get asked for 6 and was served 5: the script's bound is
        // what was asked, so its re-issue is still inside the replay.
        let lagging = LogEvent::Get {
            app: 1,
            var: 0,
            requested: 6,
            served: 5,
            bbox: BBox::d1(0, 9),
            bytes: 10,
            digest: 205,
        };
        let mut rm = ReplayManager::new();
        rm.begin(1, 4, vec![get_ev(1, 5), lagging]);
        let d = rm.on_get(1, 0, 5, &BBox::d1(0, 9));
        assert_eq!(d, GetDecision::Replay { version: 5, digest: 205 });
        let d = rm.on_get(1, 0, 6, &BBox::d1(0, 9));
        assert_eq!(d, GetDecision::Replay { version: 5, digest: 205 });
        assert_eq!((rm.completed(), rm.unmatched()), (1, 0));
    }

    /// Entries `take` examined while `replay` ran.
    fn examined(replay: impl FnOnce()) -> usize {
        EXAMINED.with(|n| n.set(0));
        replay();
        EXAMINED.with(|n| n.get())
    }

    #[test]
    fn replay_cost_is_counted_not_timed() {
        let n: Version = 300;
        let script: Vec<LogEvent> = (1..=n).map(|v| put_ev(0, v)).collect();
        let absorbed = PutDecision::Absorb { digest_ok: true };

        // In logged order every request matches at the cursor: n entries
        // examined for an n-entry script.
        let mut rm = ReplayManager::new();
        rm.begin(0, 0, script.clone());
        let in_order = examined(|| {
            for v in 1..=n {
                assert_eq!(rm.on_put(0, &desc(v), 100 + v as u64), absorbed);
            }
        });
        assert_eq!(in_order, n as usize);
        assert_eq!(rm.completed(), 1);

        // Fully reversed, the cursor cannot move until the last request: the
        // cost is the scan-from-zero's, n + (n - 1) + ... + 1, and no more.
        rm.begin(0, 0, script.clone());
        let reversed = examined(|| {
            for v in (1..=n).rev() {
                assert_eq!(rm.on_put(0, &desc(v), 100 + v as u64), absorbed);
            }
        });
        assert_eq!(reversed, (n * (n + 1) / 2) as usize);
        assert_eq!(rm.completed(), 2);

        // An unmatched request scans the unconsumed tail, nothing before it.
        rm.begin(0, 0, script);
        for v in 1..=100 {
            rm.on_put(0, &desc(v), 100 + v as u64);
        }
        let other = ObjDesc { var: 7, version: 1, bbox: BBox::d1(0, 9) };
        let unmatched = examined(|| assert_eq!(rm.on_put(0, &other, 0), PutDecision::Store));
        assert_eq!((unmatched, rm.unmatched(), rm.pending(0)), (200, 1, 200));
    }

    #[test]
    fn independent_apps_do_not_interfere() {
        let mut rm = ReplayManager::new();
        rm.begin(0, 0, vec![put_ev(0, 1)]);
        // App 1 is not replaying.
        assert_eq!(rm.on_put(1, &desc(1), 0), PutDecision::Store);
        assert!(rm.is_replaying(0));
        assert_eq!(rm.active_floor(), Some(0));
    }

    #[test]
    fn mixed_put_get_script() {
        let mut rm = ReplayManager::new();
        rm.begin(2, 4, vec![put_ev(2, 5), get_ev(2, 5), put_ev(2, 6), get_ev(2, 6)]);
        assert!(matches!(rm.on_put(2, &desc(5), 105), PutDecision::Absorb { .. }));
        assert!(matches!(
            rm.on_get(2, 0, 5, &BBox::d1(0, 9)),
            GetDecision::Replay { version: 5, .. }
        ));
        assert!(matches!(rm.on_put(2, &desc(6), 106), PutDecision::Absorb { .. }));
        assert!(matches!(
            rm.on_get(2, 0, 6, &BBox::d1(0, 9)),
            GetDecision::Replay { version: 6, .. }
        ));
        assert_eq!(rm.completed(), 1);
    }
}
