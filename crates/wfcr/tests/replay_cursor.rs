//! The replay cursor against the scan it replaced: `ReplayManager` consumes
//! its script from a cursor; the reference here searches from index 0 and
//! counts the unconsumed flags, as the manager did before. Every decision
//! and every counter must agree, whatever order the requests come in.

use proptest::prelude::*;
use staging::geometry::BBox;
use staging::proto::{ObjDesc, VarId, Version};
use wfcr::event::LogEvent;
use wfcr::replay::{GetDecision, PutDecision, ReplayManager};

const APP: u32 = 0;

/// The scan-from-zero replay matcher for one app.
#[derive(Default)]
struct ScanReplay {
    /// Script, consumed flags, highest version any entry asked for.
    state: Option<(Vec<LogEvent>, Vec<bool>, Version)>,
    mismatches: u64,
    unmatched: u64,
    completed: u64,
}

impl ScanReplay {
    fn begin(&mut self, script: Vec<LogEvent>) {
        let consumed = vec![false; script.len()];
        self.state = script.iter().map(asked).max().map(|max| (script, consumed, max));
        self.completed += u64::from(self.state.is_none());
    }

    fn pending(&self) -> usize {
        self.state.as_ref().map_or(0, |(_, consumed, _)| consumed.iter().filter(|c| !**c).count())
    }

    /// Consume the first unconsumed entry `is_match` accepts.
    fn on(&mut self, version: Version, is_match: impl Fn(&LogEvent) -> bool) -> Option<LogEvent> {
        let (script, consumed, max) = self.state.as_mut()?;
        if version > *max {
            self.state = None;
            self.completed += 1;
            return None;
        }
        let found = script.iter().enumerate().find(|(i, ev)| !consumed[*i] && is_match(ev));
        let Some((i, ev)) = found.map(|(i, ev)| (i, *ev)) else {
            self.unmatched += 1;
            return None;
        };
        consumed[i] = true;
        if self.pending() == 0 {
            self.state = None;
            self.completed += 1;
        }
        Some(ev)
    }

    fn on_put(&mut self, desc: &ObjDesc, digest: u64) -> PutDecision {
        match self.on(desc.version, |ev| matches!(ev, LogEvent::Put { desc: d, .. } if d == desc)) {
            Some(LogEvent::Put { digest: logged, .. }) => {
                self.mismatches += u64::from(logged != digest);
                PutDecision::Absorb { digest_ok: logged == digest }
            }
            _ => PutDecision::Store,
        }
    }

    fn on_get(&mut self, var: VarId, requested: Version, bbox: &BBox) -> GetDecision {
        let is_match = |ev: &LogEvent| {
            matches!(ev, LogEvent::Get { var: v, requested: r, bbox: b, .. }
                if *v == var && *r == requested && b == bbox)
        };
        match self.on(requested, is_match) {
            Some(LogEvent::Get { served, digest, .. }) => {
                GetDecision::Replay { version: served, digest }
            }
            _ => GetDecision::Normal,
        }
    }
}

fn asked(ev: &LogEvent) -> Version {
    match *ev {
        LogEvent::Get { requested, .. } => requested,
        _ => ev.version(),
    }
}

/// One script entry or request over a small pool of descriptors, so that
/// duplicates, near-misses and digest mismatches are all common:
/// `(is_put, var, version, box, lag, digest)`.
type Spec = (bool, u32, u32, u64, u32, u64);

fn arb_spec() -> impl Strategy<Value = Spec> {
    (any::<bool>(), 0u32..2, 1u32..5, 0u64..2, 0u32..3, 0u64..3)
}

fn bbox_of(&(_, _, _, b, _, _): &Spec) -> BBox {
    BBox::d1(b * 10, b * 10 + 9)
}

fn event_of(spec: &Spec) -> LogEvent {
    let &(is_put, var, version, _, lag, digest) = spec;
    let bbox = bbox_of(spec);
    if is_put {
        LogEvent::Put { app: APP, desc: ObjDesc { var, version, bbox }, bytes: 10, digest }
    } else {
        // A lagging get was served an older version than it asked for.
        let served = version.saturating_sub(lag);
        LogEvent::Get { app: APP, var, requested: version, served, bbox, bytes: 10, digest }
    }
}

#[derive(Debug, Clone)]
enum Step {
    Request(Spec),
    Begin(Vec<Spec>),
}

/// A script and a run of steps against it: the script's own requests in
/// logged order (`order` 0), nudged a few places (1) or shuffled (2), with
/// requests that may not be in the script, possibly one beyond its newest
/// version, and possibly a second `begin`, spliced in anywhere.
fn arb_run() -> impl Strategy<Value = (Vec<Spec>, Vec<Step>)> {
    let script = prop::collection::vec(arb_spec(), 0..40);
    let keys = prop::collection::vec(0usize..1000, 40..41);
    let strays = prop::collection::vec((0usize..64, arb_spec()), 0..8);
    let beyond = prop::option::of((0usize..64, any::<bool>()));
    let rebegin = prop::option::of((0usize..64, prop::collection::vec(arb_spec(), 0..12)));
    (script, 0u32..3, keys, strays, beyond, rebegin).prop_map(
        |(script, order, keys, strays, beyond, rebegin)| {
            let mut idx: Vec<usize> = (0..script.len()).collect();
            idx.sort_by_key(|&i| match order {
                0 => i,
                1 => i * 4 + keys[i] % 12,
                _ => keys[i],
            });
            let mut steps: Vec<Step> = idx.into_iter().map(|i| Step::Request(script[i])).collect();
            let mut splice = |at: usize, step: Step| steps.insert(at % (steps.len() + 1), step);
            for (at, spec) in strays {
                splice(at, Step::Request(spec));
            }
            if let Some((at, is_put)) = beyond {
                splice(at, Step::Request((is_put, 0, 9, 0, 0, 0)));
            }
            if let Some((at, second)) = rebegin {
                splice(at, Step::Begin(second));
            }
            (script, steps)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn cursor_decides_as_the_scan_did((script, steps) in arb_run()) {
        let mut cursor = ReplayManager::new();
        let mut scan = ScanReplay::default();
        let begin = |cursor: &mut ReplayManager, scan: &mut ScanReplay, specs: &[Spec]| {
            let script: Vec<LogEvent> = specs.iter().map(event_of).collect();
            let n = cursor.begin(APP, 0, script.clone());
            scan.begin(script);
            (n, scan.pending())
        };
        let (n, pending) = begin(&mut cursor, &mut scan, &script);
        prop_assert_eq!(n, pending);
        for (at, step) in steps.iter().enumerate() {
            match step {
                Step::Begin(second) => {
                    let (n, pending) = begin(&mut cursor, &mut scan, second);
                    prop_assert_eq!(n, pending, "step {}", at);
                }
                Step::Request(spec) => {
                    let &(is_put, var, version, _, _, digest) = spec;
                    let bbox = bbox_of(spec);
                    if is_put {
                        let desc = ObjDesc { var, version, bbox };
                        let got = cursor.on_put(APP, &desc, digest);
                        prop_assert_eq!(got, scan.on_put(&desc, digest), "step {}", at);
                    } else {
                        let got = cursor.on_get(APP, var, version, &bbox);
                        prop_assert_eq!(got, scan.on_get(var, version, &bbox), "step {}", at);
                    }
                }
            }
            let state = (
                cursor.pending(APP),
                cursor.is_replaying(APP),
                cursor.mismatches(),
                cursor.unmatched(),
                cursor.completed(),
            );
            let want =
                (scan.pending(), scan.state.is_some(), scan.mismatches, scan.unmatched, scan.completed);
            prop_assert_eq!(state, want, "after step {}", at);
        }
    }
}
