//! Capped-exponential restart backoff.
//!
//! A domain that dies once restarts after [`BACKOFF_BASE_NS`]. Consecutive
//! deaths (no recovery between them) double the delay up to
//! [`BACKOFF_CAP_NS`]; a recovery starts the next outage at the base again.
//! Times are nanoseconds of the caller's clock (virtual time under the DES).

/// Delay before the first restart of an outage: 50 ms.
pub const BACKOFF_BASE_NS: u64 = 50_000_000;

/// Ceiling on the per-restart delay: 800 ms.
pub const BACKOFF_CAP_NS: u64 = 800_000_000;

/// The delay before restart attempt `attempt` (1-based) of one outage.
pub(crate) fn delay_ns(attempt: u32) -> u64 {
    // Shifting by at most the leading zeros cannot overflow.
    let doublings = attempt.saturating_sub(1).min(BACKOFF_BASE_NS.leading_zeros());
    (BACKOFF_BASE_NS << doublings).min(BACKOFF_CAP_NS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_caps() {
        const MS: u64 = 1_000_000;
        assert_eq!(delay_ns(0), 50 * MS);
        assert_eq!(delay_ns(1), 50 * MS);
        assert_eq!(delay_ns(2), 100 * MS);
        assert_eq!(delay_ns(3), 200 * MS);
        assert_eq!(delay_ns(4), 400 * MS);
        assert_eq!(delay_ns(5), 800 * MS);
        assert_eq!(delay_ns(6), 800 * MS, "capped");
        assert_eq!(delay_ns(u32::MAX), 800 * MS, "shift saturates");
    }
}
