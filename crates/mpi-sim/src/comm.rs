//! Communicator state machine with ULFM-style fault handling.
//!
//! A [`Communicator`] tracks `size` application ranks plus a pool of spare
//! processes. Fail-stop failures mark ranks failed; the ULFM-style repair
//! sequence is:
//!
//! 1. `revoke()` — the communicator becomes unusable for collectives
//!    (MPI_Comm_revoke);
//! 2. `repair()` — failed ranks are replaced from the spare pool if
//!    available, otherwise the communicator *shrinks* (MPI_Comm_shrink);
//!    the epoch increments and the communicator is valid again;
//! 3. `agree()` — all alive ranks reach agreement (MPI_Comm_agree), which
//!    simply requires a valid (non-revoked) communicator here.

use serde::{Deserialize, Serialize};

/// Liveness of one rank slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RankState {
    /// Participating normally.
    Alive,
    /// Fail-stop failed, not yet repaired.
    Failed,
}

/// Errors from communicator operations.
#[derive(Debug, PartialEq, Eq)]
pub enum CommError {
    /// Operation attempted on a revoked communicator.
    Revoked,
    /// Operation attempted while failed ranks are unrepaired.
    HasFailures {
        /// Number of failed, unrepaired ranks.
        failed: usize,
    },
    /// Rank index out of range.
    BadRank,
}

/// A simulated MPI communicator with a spare-process pool.
///
/// ```
/// use mpi_sim::comm::Communicator;
///
/// let mut comm = Communicator::new(16, 2);
/// comm.fail(3).unwrap();
/// comm.revoke();
/// assert!(!comm.usable());
/// let (replaced, shrunk) = comm.repair();
/// assert_eq!((replaced, shrunk), (1, 0)); // a spare took over rank 3
/// assert!(comm.agree().is_ok());
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Communicator {
    ranks: Vec<RankState>,
    spares: usize,
    revoked: bool,
    epoch: u32,
    /// Ranks replaced from spares over the communicator's lifetime.
    replaced_total: u64,
}

impl Communicator {
    /// Create a communicator of `size` ranks with `spares` spare processes.
    pub fn new(size: usize, spares: usize) -> Self {
        assert!(size > 0, "empty communicator");
        Communicator {
            ranks: vec![RankState::Alive; size],
            spares,
            revoked: false,
            epoch: 0,
            replaced_total: 0,
        }
    }

    /// Current size (shrinks reduce it).
    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    /// Alive ranks.
    pub fn alive(&self) -> usize {
        self.ranks.iter().filter(|r| **r == RankState::Alive).count()
    }

    /// Failed, unrepaired ranks.
    pub fn failed(&self) -> usize {
        self.ranks.iter().filter(|r| **r == RankState::Failed).count()
    }

    /// Remaining spare processes.
    pub fn spares(&self) -> usize {
        self.spares
    }

    /// Epoch, incremented by every successful repair.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Has the communicator been revoked (and not yet repaired)?
    pub fn is_revoked(&self) -> bool {
        self.revoked
    }

    /// Total ranks ever replaced from the spare pool.
    pub fn replaced_total(&self) -> u64 {
        self.replaced_total
    }

    /// Mark `rank` fail-stop failed. Idempotent for already-failed ranks.
    pub fn fail(&mut self, rank: usize) -> Result<(), CommError> {
        if rank >= self.ranks.len() {
            return Err(CommError::BadRank);
        }
        self.ranks[rank] = RankState::Failed;
        Ok(())
    }

    /// Revoke the communicator (MPI_Comm_revoke). Idempotent.
    pub fn revoke(&mut self) {
        self.revoked = true;
    }

    /// Is a collective currently possible? (Not revoked, no known failures.)
    pub fn usable(&self) -> bool {
        !self.revoked && self.failed() == 0
    }

    /// Attempt a collective; models MPI returning `MPI_ERR_PROC_FAILED` /
    /// `MPI_ERR_REVOKED`.
    pub fn collective(&self) -> Result<(), CommError> {
        if self.revoked {
            return Err(CommError::Revoked);
        }
        let failed = self.failed();
        if failed > 0 {
            return Err(CommError::HasFailures { failed });
        }
        Ok(())
    }

    /// Repair after failures: replace failed ranks from the spare pool where
    /// possible, shrink away the remainder. Clears revocation, bumps the
    /// epoch. Returns `(replaced, shrunk)`.
    pub fn repair(&mut self) -> (usize, usize) {
        let failed_idx: Vec<usize> = self
            .ranks
            .iter()
            .enumerate()
            .filter(|(_, r)| **r == RankState::Failed)
            .map(|(i, _)| i)
            .collect();
        let mut replaced = 0;
        let mut to_shrink = Vec::new();
        for i in failed_idx {
            if self.spares > 0 {
                self.spares -= 1;
                self.ranks[i] = RankState::Alive;
                replaced += 1;
            } else {
                to_shrink.push(i);
            }
        }
        let shrunk = to_shrink.len();
        // Remove shrunk slots from the back to keep indices valid.
        for &i in to_shrink.iter().rev() {
            self.ranks.remove(i);
        }
        self.replaced_total += replaced as u64;
        self.revoked = false;
        if replaced + shrunk > 0 {
            self.epoch += 1;
        }
        (replaced, shrunk)
    }

    /// ULFM agreement: succeeds on any valid (repaired) communicator.
    pub fn agree(&self) -> Result<u32, CommError> {
        self.collective()?;
        Ok(self.epoch)
    }

    /// Add spare processes to the pool (e.g. job scheduler grows the pool).
    pub fn add_spares(&mut self, n: usize) {
        self.spares += n;
    }

    /// Grow the communicator by `n` freshly spawned alive ranks (the
    /// "spawn new processes instead of using a spare pool" alternative the
    /// paper mentions when the job scheduler supports it).
    pub fn grow(&mut self, n: usize) {
        self.ranks.extend(std::iter::repeat_n(RankState::Alive, n));
        if n > 0 {
            self.epoch += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_communicator_usable() {
        let c = Communicator::new(8, 2);
        assert_eq!(c.size(), 8);
        assert_eq!(c.alive(), 8);
        assert_eq!(c.failed(), 0);
        assert_eq!(c.spares(), 2);
        assert_eq!(c.epoch(), 0);
        assert!(c.usable());
        assert_eq!(c.agree(), Ok(0));
    }

    #[test]
    fn failure_blocks_collectives() {
        let mut c = Communicator::new(4, 1);
        c.fail(2).unwrap();
        assert_eq!(c.collective(), Err(CommError::HasFailures { failed: 1 }));
        assert!(!c.usable());
    }

    #[test]
    fn revoke_blocks_even_without_failures() {
        let mut c = Communicator::new(4, 1);
        c.revoke();
        assert_eq!(c.collective(), Err(CommError::Revoked));
    }

    #[test]
    fn repair_replaces_from_spares() {
        let mut c = Communicator::new(4, 2);
        c.fail(1).unwrap();
        c.revoke();
        let (replaced, shrunk) = c.repair();
        assert_eq!((replaced, shrunk), (1, 0));
        assert_eq!(c.size(), 4);
        assert_eq!(c.spares(), 1);
        assert_eq!(c.epoch(), 1);
        assert!(c.usable());
        assert_eq!(c.agree(), Ok(1));
        assert_eq!(c.replaced_total(), 1);
    }

    #[test]
    fn repair_shrinks_without_spares() {
        let mut c = Communicator::new(4, 0);
        c.fail(0).unwrap();
        c.fail(3).unwrap();
        let (replaced, shrunk) = c.repair();
        assert_eq!((replaced, shrunk), (0, 2));
        assert_eq!(c.size(), 2);
        assert_eq!(c.alive(), 2);
        assert!(c.usable());
    }

    #[test]
    fn mixed_replace_and_shrink() {
        let mut c = Communicator::new(6, 1);
        c.fail(1).unwrap();
        c.fail(4).unwrap();
        let (replaced, shrunk) = c.repair();
        assert_eq!(replaced, 1);
        assert_eq!(shrunk, 1);
        assert_eq!(c.size(), 5);
        assert_eq!(c.spares(), 0);
    }

    #[test]
    fn repair_without_failures_is_noop_epoch() {
        let mut c = Communicator::new(4, 1);
        let (r, s) = c.repair();
        assert_eq!((r, s), (0, 0));
        assert_eq!(c.epoch(), 0);
    }

    #[test]
    fn double_failure_same_rank_idempotent() {
        let mut c = Communicator::new(4, 2);
        c.fail(1).unwrap();
        c.fail(1).unwrap();
        assert_eq!(c.failed(), 1);
        let (replaced, _) = c.repair();
        assert_eq!(replaced, 1);
    }

    #[test]
    fn bad_rank_rejected() {
        let mut c = Communicator::new(4, 0);
        assert_eq!(c.fail(4), Err(CommError::BadRank));
    }

    #[test]
    fn spares_can_grow() {
        let mut c = Communicator::new(2, 0);
        c.fail(0).unwrap();
        c.add_spares(5);
        let (replaced, shrunk) = c.repair();
        assert_eq!((replaced, shrunk), (1, 0));
        assert_eq!(c.spares(), 4);
    }

    #[test]
    fn repeated_failures_accumulate_epochs() {
        let mut c = Communicator::new(4, 10);
        for round in 1..=3 {
            c.fail(0).unwrap();
            c.revoke();
            c.repair();
            assert_eq!(c.epoch(), round);
        }
        assert_eq!(c.replaced_total(), 3);
    }
}
