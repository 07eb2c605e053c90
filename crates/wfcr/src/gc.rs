//! Garbage collection of logged data (paper §III-A.2).
//!
//! "Data staging servers periodically delete logged data which are related
//! with previous checkpoint periods without data dependency to other
//! application components, and only keep the latest version of data in
//! staging area."
//!
//! The rule implemented here: a logged version `v` of a variable is
//! collectible when
//!
//! 1. every registered component has checkpointed through `v` (no possible
//!    rollback can replay a read of `v`), **and**
//! 2. no replay is currently active with a resume version `< v`, **and**
//! 3. `v` is not the newest stored version of its variable (ongoing coupling
//!    still reads the latest data).
//!
//! The GC floor is therefore `min(per-app checkpoint marks, active replay
//! floors)`; see the safety property test in `tests/` which exercises random
//! failure/checkpoint schedules.

use staging::proto::{AppId, Version};
use staging::store::VersionedStore;
use std::collections::BTreeMap;

/// Tracks per-component checkpoint progress and computes the GC floor.
#[derive(Debug, Default, Clone)]
pub struct GcState {
    // BTreeMap keeps mark iteration (floor computation) deterministic
    // across hosts.
    marks: BTreeMap<AppId, Version>,
    /// Bytes reclaimed over the store's lifetime.
    reclaimed: u64,
    /// GC passes executed.
    passes: u64,
}

impl GcState {
    /// Fresh GC state; components register implicitly at first checkpoint,
    /// or explicitly via [`GcState::register`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a component before its first checkpoint (its mark starts at
    /// 0, pinning the log until it checkpoints — conservative and safe).
    pub fn register(&mut self, app: AppId) {
        self.marks.entry(app).or_insert(0);
    }

    /// Record that `app` checkpointed through `upto` (marks only advance).
    pub fn mark_checkpoint(&mut self, app: AppId, upto: Version) {
        let m = self.marks.entry(app).or_insert(0);
        if upto > *m {
            *m = upto;
        }
    }

    /// The checkpoint mark of `app` (0 if unregistered).
    pub fn mark(&self, app: AppId) -> Version {
        self.marks.get(&app).copied().unwrap_or(0)
    }

    /// The collection floor: nothing at or below this version may be needed
    /// by any rollback. `replay_floor` is the lowest resume version among
    /// active replays, if any.
    pub fn floor(&self, replay_floor: Option<Version>) -> Version {
        let mark_floor = self.marks.values().copied().min().unwrap_or(0);
        match replay_floor {
            Some(r) => mark_floor.min(r),
            None => mark_floor,
        }
    }

    /// [`GcState::floor`] as it reads once `app` has checkpointed through
    /// `upto`, computed without recording the mark.
    pub(crate) fn floor_after(
        &self,
        app: AppId,
        upto: Version,
        replay_floor: Option<Version>,
    ) -> Version {
        let others = self.marks.iter().filter(|&(&a, _)| a != app).map(|(_, &m)| m);
        let mark_floor = others.fold(self.mark(app).max(upto), Version::min);
        replay_floor.map_or(mark_floor, |r| mark_floor.min(r))
    }

    /// Run a collection pass over `store`: for every variable, delete
    /// versions `<= floor` except the newest stored version. Returns bytes
    /// freed.
    pub fn collect(&mut self, store: &mut VersionedStore, replay_floor: Option<Version>) -> u64 {
        let floor = self.floor(replay_floor);
        let mut freed = 0;
        for var in store.vars() {
            let Some(newest) = store.newest_version(var) else { continue };
            // The collectible versions — everything `<= floor` except the
            // newest — form a contiguous prefix of the version map; drop it
            // as one range instead of removing version by version.
            let keep_from = newest.min(floor.saturating_add(1));
            freed += store.remove_older_than(var, keep_from);
        }
        self.reclaimed += freed;
        self.passes += 1;
        freed
    }

    /// Bytes reclaimed across all passes.
    pub fn reclaimed(&self) -> u64 {
        self.reclaimed
    }

    /// Collection passes executed.
    pub fn passes(&self) -> u64 {
        self.passes
    }

    /// Registered components.
    pub fn apps(&self) -> Vec<AppId> {
        let mut v: Vec<AppId> = self.marks.keys().copied().collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use staging::geometry::BBox;
    use staging::payload::Payload;
    use staging::proto::ObjDesc;

    fn fill(store: &mut VersionedStore, var: u32, versions: std::ops::RangeInclusive<u32>) {
        for v in versions {
            store.put(
                ObjDesc { var, version: v, bbox: BBox::d1(0, 9) },
                Payload::virtual_from(100, &[var as u64, v as u64]),
            );
        }
    }

    #[test]
    fn floor_after_reads_the_floor_the_mark_will_give() {
        // Mutants caught: the app's own old mark kept in the minimum, an
        // unregistered app left out, a mark moved backwards, the replay
        // floor ignored.
        let mut gc = GcState::new();
        gc.mark_checkpoint(0, 4);
        gc.mark_checkpoint(1, 6);
        for (app, upto, replay) in
            [(0, 4, None), (0, 9, None), (1, 3, None), (2, 2, None), (0, 9, Some(5))]
        {
            let predicted = gc.floor_after(app, upto, replay);
            let mut marked = gc.clone();
            marked.mark_checkpoint(app, upto);
            assert_eq!(predicted, marked.floor(replay), "app {app} upto {upto} replay {replay:?}");
        }
    }

    #[test]
    fn floor_is_min_mark() {
        let mut gc = GcState::new();
        gc.register(0);
        gc.register(1);
        assert_eq!(gc.floor(None), 0);
        gc.mark_checkpoint(0, 8);
        assert_eq!(gc.floor(None), 0, "app 1 has not checkpointed");
        gc.mark_checkpoint(1, 5);
        assert_eq!(gc.floor(None), 5);
        assert_eq!(gc.mark(0), 8);
    }

    #[test]
    fn marks_never_regress() {
        let mut gc = GcState::new();
        gc.mark_checkpoint(0, 8);
        gc.mark_checkpoint(0, 3);
        assert_eq!(gc.mark(0), 8);
    }

    #[test]
    fn replay_floor_pins_collection() {
        let mut gc = GcState::new();
        gc.mark_checkpoint(0, 10);
        gc.mark_checkpoint(1, 10);
        assert_eq!(gc.floor(Some(4)), 4);
        assert_eq!(gc.floor(None), 10);
    }

    #[test]
    fn collect_deletes_below_floor_keeps_latest() {
        let mut store = VersionedStore::unbounded();
        fill(&mut store, 0, 1..=6);
        let mut gc = GcState::new();
        gc.mark_checkpoint(0, 4);
        gc.mark_checkpoint(1, 4);
        let freed = gc.collect(&mut store, None);
        assert_eq!(freed, 400); // versions 1..=4 removed
        assert_eq!(store.versions(0), vec![5, 6]);
        assert_eq!(gc.reclaimed(), 400);
        assert_eq!(gc.passes(), 1);
    }

    #[test]
    fn collect_keeps_latest_even_below_floor() {
        let mut store = VersionedStore::unbounded();
        fill(&mut store, 0, 1..=3);
        let mut gc = GcState::new();
        gc.mark_checkpoint(0, 10);
        gc.collect(&mut store, None);
        assert_eq!(store.versions(0), vec![3], "latest version survives");
    }

    #[test]
    fn unregistered_apps_pin_nothing_until_registered() {
        let mut store = VersionedStore::unbounded();
        fill(&mut store, 0, 1..=5);
        let mut gc = GcState::new();
        gc.mark_checkpoint(0, 5);
        // Only app 0 known: floor = 5.
        gc.collect(&mut store, None);
        assert_eq!(store.versions(0), vec![5]);
    }

    #[test]
    fn registered_but_never_checkpointed_pins_everything() {
        let mut store = VersionedStore::unbounded();
        fill(&mut store, 0, 1..=5);
        let mut gc = GcState::new();
        gc.register(0);
        gc.register(1);
        gc.mark_checkpoint(0, 5);
        let freed = gc.collect(&mut store, None);
        assert_eq!(freed, 0, "app 1's mark is 0");
        assert_eq!(store.versions(0).len(), 5);
    }

    #[test]
    fn multiple_vars_collected_independently() {
        let mut store = VersionedStore::unbounded();
        fill(&mut store, 0, 1..=4);
        fill(&mut store, 1, 3..=6);
        let mut gc = GcState::new();
        gc.mark_checkpoint(0, 4);
        gc.collect(&mut store, None);
        assert_eq!(store.versions(0), vec![4]);
        assert_eq!(store.versions(1), vec![5, 6]);
    }
}
