//! Hybrid checkpointing (paper §III-B): checkpoint/restart for the
//! simulation, process replication for the analytics.
//!
//! Demonstrates the asymmetry the hybrid scheme exploits: analytics failures
//! are absorbed by failing over to the replica (no rollback, no staging
//! recovery), while simulation failures take the normal rollback-and-replay
//! path with the log keeping the coupled data consistent.
//!
//! Run with:
//! ```text
//! cargo run --release --example hybrid_replication
//! ```

use sim_core::time::SimTime;
use wfcr::protocol::WorkflowProtocol;
use workflow::config::{tiny, FailureSpec};
use workflow::runner::run;

fn main() {
    println!("== Hybrid workflow, failure in the REPLICATED analytics ==");
    let cfg = tiny(WorkflowProtocol::Hybrid)
        .with_failures(vec![FailureSpec::At { at: SimTime::from_millis(700), app: 1 }]);
    let r = run(&cfg);
    println!(
        "total {:.3}s | rollbacks {} failovers {} replayed-gets {} absorbed-puts {}",
        r.total_time_s,
        r.recoveries(),
        r.failovers(),
        r.replayed_gets,
        r.absorbed_puts
    );
    assert_eq!(r.recoveries(), 0, "replication absorbs the failure");
    assert_eq!(r.failovers(), 1);
    println!("-> replica took over; nothing rolled back, staging untouched\n");

    println!("== Hybrid workflow, failure in the CHECKPOINTED simulation ==");
    let cfg = tiny(WorkflowProtocol::Hybrid)
        .with_failures(vec![FailureSpec::At { at: SimTime::from_millis(700), app: 0 }]);
    let r = run(&cfg);
    println!(
        "total {:.3}s | rollbacks {} failovers {} replayed-gets {} absorbed-puts {}",
        r.total_time_s,
        r.recoveries(),
        r.failovers(),
        r.replayed_gets,
        r.absorbed_puts
    );
    assert_eq!(r.recoveries(), 1, "C/R component rolls back");
    assert_eq!(r.failovers(), 0);
    assert!(r.absorbed_puts > 0, "its re-writes are absorbed by the log");
    assert_eq!(r.digest_mismatches, 0);
    println!("-> simulation rolled back; the log absorbed its redundant re-writes\n");

    println!("== Same failures under pure uncoordinated C/R (for contrast) ==");
    for victim in [1u32, 0] {
        let cfg = tiny(WorkflowProtocol::Uncoordinated)
            .with_failures(vec![FailureSpec::At { at: SimTime::from_millis(700), app: victim }]);
        let r = run(&cfg);
        println!(
            "victim app {}: total {:.3}s | rollbacks {} replayed-gets {} absorbed-puts {}",
            victim,
            r.total_time_s,
            r.recoveries(),
            r.replayed_gets,
            r.absorbed_puts
        );
        assert_eq!(r.recoveries(), 1);
    }
    println!("\nOK: hybrid = C/R where rollback is cheap, replication where it is not.");
}
