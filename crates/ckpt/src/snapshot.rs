//! Component checkpoint snapshots.
//!
//! The synthetic workloads' process state is fully characterized by logical
//! progress: the next time step to execute, the RNG state driving workload
//! jitter, and bookkeeping counters. A snapshot records that progress plus
//! `state_bytes`, the size of the process image the snapshot stands for —
//! the quantity every storage-cost model charges.

use serde::{Deserialize, Serialize};

/// A point-in-time checkpoint of one application component.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Component that took the checkpoint.
    pub app: u32,
    /// Monotonic checkpoint id within the component (the paper's
    /// `W_Chk_ID` is derived from `(app, ckpt_id)`).
    pub ckpt_id: u64,
    /// First time step to execute after restoring this snapshot.
    pub resume_step: u32,
    /// RNG state of the component at checkpoint time (so re-execution is
    /// bit-identical to the original execution — required for the paper's
    /// redundant-write absorption to be semantically safe).
    pub rng_state: [u64; 4],
    /// Size of the process state this snapshot stands for, bytes.
    pub state_bytes: u64,
    /// Opaque user payload (e.g. serialized solver state in examples).
    #[serde(default)]
    pub user_data: Vec<u8>,
    /// Integrity checksum over the logical content, written last by a
    /// completed save ([`Snapshot::seal`]); `0` until then. A torn write
    /// leaves a checksum that does not match the content, which
    /// [`Snapshot::is_intact`] detects at restore time.
    pub checksum: u64,
}

impl Snapshot {
    /// Create a snapshot with no user payload.
    pub fn new(
        app: u32,
        ckpt_id: u64,
        resume_step: u32,
        rng_state: [u64; 4],
        state_bytes: u64,
    ) -> Self {
        Snapshot {
            app,
            ckpt_id,
            resume_step,
            rng_state,
            state_bytes,
            user_data: Vec::new(),
            checksum: 0,
        }
    }

    /// FNV-1a over every content field (everything except `checksum`),
    /// computed with the shared [`logstore::checksum`] primitives so the
    /// snapshot seal and the durable log's record framing cannot drift apart.
    pub fn computed_checksum(&self) -> u64 {
        let mut h = logstore::checksum::Fnv1a::new();
        h.update_u64(u64::from(self.app));
        h.update_u64(self.ckpt_id);
        h.update_u64(u64::from(self.resume_step));
        for w in self.rng_state {
            h.update_u64(w);
        }
        h.update_u64(self.state_bytes);
        h.update_u64(self.user_data.len() as u64);
        h.update(&self.user_data);
        h.finish()
    }

    /// Stamp the checksum, marking the snapshot as completely written.
    pub fn seal(&mut self) {
        self.checksum = self.computed_checksum();
    }

    /// Does the checksum match the content? An unsealed snapshot does not.
    pub fn is_intact(&self) -> bool {
        self.checksum == self.computed_checksum()
    }

    /// The paper's globally unique checkpoint event id for this snapshot.
    pub fn w_chk_id(&self) -> u64 {
        ((self.app as u64) << 48) | (self.ckpt_id & 0xFFFF_FFFF_FFFF)
    }

    /// Total bytes written when persisting this snapshot.
    pub fn persisted_bytes(&self) -> u64 {
        self.state_bytes + self.user_data.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn w_chk_id_unique_per_app_and_id() {
        let a = Snapshot::new(0, 1, 4, [1, 2, 3, 4], 100);
        let b = Snapshot::new(1, 1, 4, [1, 2, 3, 4], 100);
        let c = Snapshot::new(0, 2, 8, [1, 2, 3, 4], 100);
        assert_ne!(a.w_chk_id(), b.w_chk_id());
        assert_ne!(a.w_chk_id(), c.w_chk_id());
    }

    #[test]
    fn persisted_bytes_includes_user_data() {
        let mut s = Snapshot::new(0, 1, 4, [0, 0, 0, 1], 1000);
        assert_eq!(s.persisted_bytes(), 1000);
        s.user_data = vec![0u8; 24];
        assert_eq!(s.persisted_bytes(), 1024);
    }

    #[test]
    fn serde_round_trip() {
        let s = Snapshot {
            app: 3,
            ckpt_id: 9,
            resume_step: 17,
            rng_state: [5, 6, 7, 8],
            state_bytes: 4096,
            user_data: vec![1, 2, 3],
            checksum: 0,
        };
        let json = serde_json::to_string(&s).unwrap();
        let back: Snapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn seal_and_detect_torn_content() {
        let mut s = Snapshot::new(0, 1, 4, [1, 2, 3, 4], 100);
        assert!(!s.is_intact(), "an unsealed snapshot is not intact");
        s.seal();
        assert!(s.is_intact());
        s.state_bytes += 1; // torn write: content changed after the seal
        assert!(!s.is_intact());
        s.seal();
        assert!(s.is_intact());
    }

    #[test]
    fn checksum_unchanged_by_shared_hasher_refactor() {
        // The seal must stay byte-compatible with the original in-crate
        // FNV-1a loop: snapshots sealed before the extraction to
        // `logstore::checksum` must still verify.
        let mut s = Snapshot::new(3, 9, 17, [5, 6, 7, 8], 4096);
        s.user_data = vec![1, 2, 3];
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let word = |h: &mut u64, w: u64| {
            for b in w.to_le_bytes() {
                *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        word(&mut h, 3);
        word(&mut h, 9);
        word(&mut h, 17);
        for w in [5u64, 6, 7, 8] {
            word(&mut h, w);
        }
        word(&mut h, 4096);
        word(&mut h, 3);
        for b in [1u8, 2, 3] {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        assert_eq!(s.computed_checksum(), h);
    }
}
