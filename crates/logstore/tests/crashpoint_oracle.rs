//! The crash-point oracle: for an arbitrary record stream written through an
//! arbitrary flush policy and segment size, cut the media at **every** byte
//! offset (and, separately, flip one byte per segment), then reopen. Recovery
//! must always produce a checksum-clean *prefix* of the original record
//! stream — never garbage, never a reordered or gappy subset, and for cuts in
//! the fsynced region never less than what was synced before the cut.
//!
//! This mirrors `staging/tests/store_index_oracle.rs`: an exhaustive
//! adversary over a generated workload, checking a single crisp invariant.
//!
//! `append`, `append_parts` and `append_batch` are one write path that frames
//! a run at once, CRCs four abreast, so comparing them with one another
//! shows nothing. What pins the bytes is `reference_segments`: the frame
//! format written out one record after another, sharing only the one-shot
//! `crc32` with the store. The streams it is held against are wide enough to
//! reach the abreast loop — runs of 1 to 17 records, 0–3 parts of unequal
//! length up to ~700 B, rotations in mid-group — and the comparison must be
//! able to fail: a framer that hands each CRC of a chunk to the neighbouring
//! lane has to be refuted within a bounded number of cases.

use logstore::checksum::crc32;
use logstore::{BatchRecord, FlushPolicy, LogConfig, LogStore, Media, MemMedia};
use proptest::prelude::*;
use proptest::test_runner::Rng;

/// The segment header and the bytes of a frame before its payload, spelled
/// here and not imported: the reference framer pins the format.
const MAGIC: [u8; 8] = *b"LSEG\x01\0\0\0";
const HEADER: usize = 4 + 8 + 8 + 4;

fn arb_records() -> impl Strategy<Value = Vec<(u64, Vec<u8>)>> {
    prop::collection::vec((0u64..50, prop::collection::vec(any::<u8>(), 0..40)), 1..25)
}

fn arb_config() -> impl Strategy<Value = LogConfig> {
    let policy = prop_oneof![
        Just(FlushPolicy::PerRecord),
        (1usize..6).prop_map(|records| FlushPolicy::PerBatch { records }),
        (1usize..6).prop_map(|records| FlushPolicy::Grouped { records }),
    ];
    (64u64..512, policy).prop_map(|(segment_bytes, flush)| LogConfig { segment_bytes, flush })
}

/// Write `records` through a fresh log; leave whatever the policy flushed on
/// the media. Returns the media.
fn write_stream(records: &[(u64, Vec<u8>)], cfg: LogConfig) -> MemMedia {
    let mem = MemMedia::new();
    let mut log = LogStore::open(Box::new(mem.clone()), cfg).unwrap();
    for (wm, payload) in records {
        log.append(*wm, payload).unwrap();
    }
    log.flush().unwrap();
    mem
}

/// Run lengths around the write path's four lanes: alone, short of a chunk,
/// one over it, a journal group, one over that.
const RUN_LENGTHS: [usize; 6] = [1, 2, 3, 5, 16, 17];

/// One `append_batch` hand-off as generated — per record a watermark and the
/// lengths of its 0–3 parts, the bytes filled in from `fill` — so a failing
/// case prints shapes, not payloads.
#[derive(Debug, Clone)]
struct GroupShape {
    records: Vec<(u64, Vec<usize>)>,
    fill: u64,
}

/// A record as the log is handed it: watermark and scattered payload.
type Rec = (u64, Vec<Vec<u8>>);

fn arb_groups() -> impl Strategy<Value = Vec<GroupShape>> {
    // Empty, at most one 8-byte step, or many.
    let part = prop_oneof![Just(0usize), 1usize..14, 14usize..700];
    let record = (0u64..50, prop::collection::vec(part, 0..4));
    let group =
        (0..RUN_LENGTHS.len(), any::<bool>(), prop::collection::vec(record, 17..18), any::<u64>())
            .prop_map(|(run, uniform, mut records, fill)| {
                records.truncate(RUN_LENGTHS[run]);
                if uniform {
                    // A journal group: every record has the first one's shape.
                    let shape = records[0].1.clone();
                    records.iter_mut().for_each(|r| r.1.clone_from(&shape));
                }
                GroupShape { records, fill }
            });
    prop::collection::vec(group, 1..4)
}

/// Segments a frame or two long up to ones that hold several groups, and
/// policy thresholds on either side of a group.
fn arb_wide_config() -> impl Strategy<Value = LogConfig> {
    let policy = prop_oneof![
        Just(FlushPolicy::PerRecord),
        (1usize..24).prop_map(|records| FlushPolicy::PerBatch { records }),
        (1usize..24).prop_map(|records| FlushPolicy::Grouped { records }),
    ];
    (prop_oneof![64u64..2_048, 2_048u64..32_768], policy)
        .prop_map(|(segment_bytes, flush)| LogConfig { segment_bytes, flush })
}

fn materialise(shapes: &[GroupShape]) -> Vec<Vec<Rec>> {
    let mut groups = Vec::new();
    for shape in shapes {
        let mut rng = shape.fill | 1;
        let mut part = |&len: &usize| -> Vec<u8> {
            let byte = |_| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                (rng >> 24) as u8
            };
            (0..len).map(byte).collect()
        };
        let record = |(wm, lens): &(u64, Vec<usize>)| (*wm, lens.iter().map(&mut part).collect());
        groups.push(shape.records.iter().map(record).collect());
    }
    groups
}

/// The stream as `assert_clean_prefix` wants it: payloads assembled.
fn assembled(groups: &[Vec<Rec>]) -> Vec<(u64, Vec<u8>)> {
    groups.iter().flatten().map(|(wm, parts)| (*wm, parts.concat())).collect()
}

/// The ways into the log.
#[derive(Debug, Clone, Copy)]
enum Path {
    Append,
    AppendParts,
    AppendBatch,
}

/// Write `groups` through a fresh log by `path`, a group a hand-off where
/// the path has hand-offs, and flush. Returns the media.
fn write_groups(groups: &[Vec<Rec>], cfg: LogConfig, path: Path) -> MemMedia {
    let mem = MemMedia::new();
    let mut log = LogStore::open(Box::new(mem.clone()), cfg).unwrap();
    for group in groups {
        let parts: Vec<Vec<&[u8]>> =
            group.iter().map(|(_, p)| p.iter().map(Vec::as_slice).collect()).collect();
        let batch: Vec<BatchRecord<'_>> = group
            .iter()
            .zip(&parts)
            .map(|((wm, _), parts)| BatchRecord { watermark: *wm, parts })
            .collect();
        match path {
            Path::Append => {
                for (wm, p) in group {
                    log.append(*wm, &p.concat()).unwrap();
                }
            }
            Path::AppendParts => {
                for r in &batch {
                    log.append_parts(r.watermark, r.parts).unwrap();
                }
            }
            Path::AppendBatch => log.append_batch(&batch).unwrap(),
        }
    }
    log.flush().unwrap();
    mem
}

/// Which frame of a chunk of four each CRC lands in.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Lanes {
    Straight,
    /// The mutant: every CRC handed to the lane beside its own.
    RotatedByOne,
}

/// The segments a flushed log must hold, written out one record after
/// another: `len ‖ seq ‖ watermark ‖ crc ‖ payload`, the CRC taken in one
/// call over `seq ‖ watermark ‖ payload` assembled contiguously, and a frame
/// opening a new segment when it would overflow one that already holds a
/// frame.
fn reference_segments(groups: &[Vec<Rec>], segment_bytes: u64, lanes: Lanes) -> Vec<Vec<u8>> {
    let mut segments = vec![MAGIC.to_vec()];
    let mut seq = 0u64..;
    for group in groups {
        let covered: Vec<Vec<u8>> = group
            .iter()
            .zip(&mut seq)
            .map(|((wm, parts), seq)| {
                [&seq.to_le_bytes()[..], &wm.to_le_bytes(), &parts.concat()].concat()
            })
            .collect();
        let mut crcs: Vec<u32> = covered.iter().map(|c| crc32(c)).collect();
        if lanes == Lanes::RotatedByOne {
            crcs.chunks_mut(4).for_each(|chunk| chunk.rotate_left(1));
        }
        for (covered, crc) in covered.iter().zip(crcs) {
            let (seeded, payload) = covered.split_at(16);
            let len = payload.len() as u32;
            let frame = [&len.to_le_bytes()[..], seeded, &crc.to_le_bytes(), payload].concat();
            let active = segments.last().unwrap();
            if active.len() > MAGIC.len() && (active.len() + frame.len()) as u64 > segment_bytes {
                segments.push(MAGIC.to_vec());
            }
            segments.last_mut().unwrap().extend(frame);
        }
    }
    segments
}

/// Every way into the log leaves `lanes`' reference bytes on the media.
fn matches_reference(groups: &[Vec<Rec>], cfg: LogConfig, lanes: Lanes) -> Result<(), String> {
    let want = reference_segments(groups, cfg.segment_bytes, lanes);
    for path in [Path::Append, Path::AppendParts, Path::AppendBatch] {
        let mem = write_groups(groups, cfg, path);
        let names = mem.list().unwrap();
        if names.len() != want.len() {
            return Err(format!("{path:?}: {} segments, reference {}", names.len(), want.len()));
        }
        for (i, (name, want)) in names.iter().zip(&want).enumerate() {
            if *name != format!("seg-{i:08}.log") || mem.read(name).unwrap() != *want {
                return Err(format!("{path:?}: {name} is not the reference's segment {i}"));
            }
        }
    }
    Ok(())
}

/// Where each frame of a clean segment ends, by its length fields.
fn frame_ends(segment: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut at = MAGIC.len();
    while at < segment.len() {
        let len = u32::from_le_bytes(segment[at..at + 4].try_into().unwrap());
        at += HEADER + len as usize;
        ends.push(at);
    }
    ends
}

/// The first generated case on which the media and `lanes`' reference
/// disagree, looking at no more than `limit`.
fn refuted_within(lanes: Lanes, limit: u32) -> Option<u32> {
    let (groups, configs) = (arb_groups(), arb_wide_config());
    (0..limit).find(|&case| {
        let rng = &mut Rng::for_case(case);
        let (shapes, cfg) = (groups.generate(rng), configs.generate(rng));
        matches_reference(&materialise(&shapes), cfg, lanes).is_err()
    })
}

/// Assert the reopened log yields a prefix of `written` and report its
/// length. The first `read_all` after an open is answered from the recovery
/// scan's own buffers, so `survivors` is that retained view — straight after
/// whatever damage the caller did to the media.
fn assert_clean_prefix(mem: &MemMedia, cfg: LogConfig, written: &[(u64, Vec<u8>)]) -> usize {
    let log = LogStore::open(Box::new(mem.clone()), cfg).unwrap();
    let survivors = log.read_all().unwrap();
    assert_eq!(survivors.len() as u64, log.recovered_records());
    assert!(
        survivors.len() <= written.len(),
        "recovery invented records: {} > {}",
        survivors.len(),
        written.len()
    );
    for (i, rec) in survivors.iter().enumerate() {
        assert_eq!(
            (rec.watermark, &rec.payload[..]),
            (written[i].0, written[i].1.as_slice()),
            "record {i} is not a faithful prefix element"
        );
    }
    // Recovery must be idempotent: a second open sees a clean log with the
    // same contents — from its scan, and again when re-read from the media.
    let again = LogStore::open(Box::new(mem.clone()), cfg).unwrap();
    assert!(again.was_clean(), "recovered log must reopen clean");
    assert_eq!(again.read_all().unwrap(), survivors);
    assert_eq!(again.read_all().unwrap(), survivors, "re-read differs from the retained scan");
    survivors.len()
}

/// Flip one byte of each segment in turn — one deterministic position a
/// segment (full sweeps are the truncation tests' job; corruption detection
/// is positionless, the CRC covers every byte equally) — and require a clean
/// prefix every time.
fn flip_each_segment(pristine: &MemMedia, cfg: LogConfig, written: &[(u64, Vec<u8>)], seed: u64) {
    for name in pristine.list().unwrap() {
        let seg_len = pristine.read(&name).unwrap().len();
        let mem = pristine.clone_deep();
        mem.flip_byte(&name, (seed as usize) % seg_len);
        assert_clean_prefix(&mem, cfg, written);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Truncate the written log at every byte offset of every segment; each
    /// cut must recover to a clean prefix, monotone in the cut offset within
    /// a segment.
    #[test]
    fn every_truncation_recovers_a_clean_prefix(
        records in arb_records(),
        cfg in arb_config(),
    ) {
        let pristine = write_stream(&records, cfg);
        let total = pristine.total_bytes();
        // The stream was fully flushed, so a full-length "cut" keeps it all.
        prop_assert_eq!(
            assert_clean_prefix(&pristine, cfg, &records),
            records.len()
        );
        for name in pristine.list().unwrap() {
            let seg_len = pristine.read(&name).unwrap().len();
            let mut prev = usize::MAX;
            for cut in (0..seg_len).rev() {
                let mem = pristine.clone_deep();
                mem.chop(&name, cut);
                let kept = assert_clean_prefix(&mem, cfg, &records);
                prop_assert!(
                    kept <= prev,
                    "shrinking a cut in {} grew the prefix: {} then {}", name, prev, kept
                );
                prev = kept;
            }
        }
        let _ = total;
    }

    /// Flip one byte (every bit position probed via the oracle's single-bit
    /// flip) in each segment; the corrupt record and everything after it must
    /// vanish, everything before must survive verbatim.
    #[test]
    fn every_single_byte_flip_recovers_a_clean_prefix(
        records in arb_records(),
        cfg in arb_config(),
        seed in any::<u64>(),
    ) {
        flip_each_segment(&write_stream(&records, cfg), cfg, &records, seed);
    }

    /// The same over the wide streams, written through `append_batch`: a
    /// frame checksummed abreast with three others is as sensitive to one
    /// flipped byte as a frame checksummed alone.
    #[test]
    fn a_byte_flip_in_a_batched_flush_recovers_a_clean_prefix(
        shapes in arb_groups(),
        cfg in arb_wide_config(),
        seed in any::<u64>(),
    ) {
        let groups = materialise(&shapes);
        let pristine = write_groups(&groups, cfg, Path::AppendBatch);
        flip_each_segment(&pristine, cfg, &assembled(&groups), seed);
    }

    /// A batched multi-record group commit, torn: the wide streams are
    /// written through `append_batch` (vectored multi-part records, whole
    /// groups landing under one fsync) and cut at a bounded sample of
    /// offsets — anywhere, or on and beside a frame's edge. Each cut must
    /// recover exactly the frames that lie wholly before it: a torn group
    /// loses only its torn suffix, never a middle record. (Every offset of
    /// a stream is the property above's job; the media does not remember
    /// which way in its bytes took — see the property below.)
    #[test]
    fn every_truncation_of_a_batched_flush_recovers_a_clean_prefix(
        shapes in arb_groups(),
        cfg in arb_wide_config(),
        cuts in prop::collection::vec((any::<u64>(), any::<u64>(), 0usize..4), 24..25),
    ) {
        let groups = materialise(&shapes);
        let written = assembled(&groups);
        let pristine = write_groups(&groups, cfg, Path::AppendBatch);
        prop_assert_eq!(assert_clean_prefix(&pristine, cfg, &written), written.len());
        let names = pristine.list().unwrap();
        let ends: Vec<Vec<usize>> =
            names.iter().map(|n| frame_ends(&pristine.read(n).unwrap())).collect();
        for (segment, offset, beside) in cuts {
            let s = (segment % names.len() as u64) as usize;
            let seg_len = *ends[s].last().unwrap();
            let cut = match beside {
                // One byte short of a frame's edge, on it, one byte past it
                // (the segment's own end is no cut at all).
                1..=3 => ends[s][(offset % ends[s].len() as u64) as usize] + beside - 2,
                _ => (offset % seg_len as u64) as usize,
            }
            .min(seg_len - 1);
            let mem = pristine.clone_deep();
            mem.chop(&names[s], cut);
            let whole: usize = ends[..s].iter().map(Vec::len).sum();
            prop_assert_eq!(
                assert_clean_prefix(&mem, cfg, &written),
                whole + ends[s].iter().filter(|&&end| end <= cut).count(),
                "{} cut at {} of {}", names[s], cut, seg_len
            );
        }
    }

    /// Every way into the log leaves the bytes the serial reference framer
    /// leaves, under every flush policy: the frame format depends neither on
    /// how records were handed over nor on how many were checksummed at once.
    #[test]
    fn batched_writes_match_per_record_bytes(
        shapes in arb_groups(),
        cfg in arb_wide_config(),
    ) {
        prop_assert_eq!(matches_reference(&materialise(&shapes), cfg, Lanes::Straight), Ok(()));
    }

    /// Whatever was fsynced before a crash must survive it: run with a
    /// batching policy, crash (drop unsynced bytes), and check the synced
    /// record count lower-bounds recovery.
    #[test]
    fn crash_preserves_all_synced_records(
        records in arb_records(),
        batch in 1usize..6,
        grouped in any::<bool>(),
    ) {
        // Grouped staging appends bytes unsynced; a crash must drop them
        // exactly like buffered ones — `read_all` (the durable set) and
        // post-crash recovery must agree either way.
        let flush = if grouped {
            FlushPolicy::Grouped { records: batch }
        } else {
            FlushPolicy::PerBatch { records: batch }
        };
        let cfg = LogConfig { segment_bytes: 256, flush };
        let mem = MemMedia::new();
        let mut log = LogStore::open(Box::new(mem.clone()), cfg).unwrap();
        for (wm, payload) in &records {
            log.append(*wm, payload).unwrap();
        }
        // What the store itself claims is durable right now (read_all only
        // sees flushed frames; the batching policy and rotation decide how
        // many that is).
        let synced = log.read_all().unwrap().len();
        drop(log);
        mem.crash();
        let kept = assert_clean_prefix(&mem, cfg, &records);
        prop_assert_eq!(
            kept, synced,
            "crash changed the durable set: kept {} vs claimed {}", kept, synced
        );
    }
}

/// The comparison can fail: the reference with each chunk's CRCs one lane
/// over is refuted, the reference as it stands never is.
#[test]
fn crcs_handed_to_the_neighbouring_lane_are_caught() {
    assert_eq!(refuted_within(Lanes::Straight, 40), None);
    let case = refuted_within(Lanes::RotatedByOne, 40);
    assert!(case.is_some(), "40 streams and no frame missed its own CRC");
}

/// The generator reaches what the reference is for: chunks of four whose
/// parts share many 8-byte steps, chunks that do not, short last chunks,
/// empty parts and records, and groups a rotation splits.
#[test]
fn the_streams_reach_the_abreast_loop_and_rotate_in_mid_group() {
    let (groups, configs) = (arb_groups(), arb_wide_config());
    let (mut abreast, mut ragged, mut short, mut empty, mut split) = (0, 0, 0, 0, 0);
    for case in 0..100 {
        let rng = &mut Rng::for_case(case);
        let (shapes, cfg) = (groups.generate(rng), configs.generate(rng));
        let stream = materialise(&shapes);
        for chunk in shapes.iter().flat_map(|g| g.records.chunks(4)) {
            let common = |part: usize| chunk.iter().map(|r| *r.1.get(part).unwrap_or(&0)).min();
            short += usize::from(chunk.len() < 4);
            abreast += usize::from(chunk.len() == 4 && (0..3).any(|p| common(p) >= Some(64)));
            ragged += usize::from(chunk.iter().any(|r| r.1 != chunk[0].1));
            empty += usize::from(chunk.iter().any(|r| r.1.is_empty() || r.1.contains(&0)));
        }
        // Records before each rotation, against where the groups end.
        let segments = reference_segments(&stream, cfg.segment_bytes, Lanes::Straight);
        let (mut handed, mut records) = (0, 0);
        let group_ends: Vec<usize> = stream
            .iter()
            .map(|g| {
                handed += g.len();
                handed
            })
            .collect();
        for segment in &segments[..segments.len() - 1] {
            records += frame_ends(segment).len();
            split += usize::from(!group_ends.contains(&records));
        }
    }
    for (what, n) in [
        ("abreast", abreast),
        ("ragged", ragged),
        ("short", short),
        ("empty", empty),
        ("split", split),
    ] {
        assert!(n >= 20, "{what}: {n} in 100 streams");
    }
}
