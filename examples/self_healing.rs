//! Self-healing supervised run: automatic restarts, backoff across a
//! crash during recovery, and poison quarantine end to end.
//!
//! Runs the Table-II tiny workflow under the uncoordinated protocol three
//! times, each under supervision:
//!
//! 1. a single mid-run consumer crash, healed by an automatic restart from
//!    its checkpoint;
//! 2. a second blow landing *during* the first recovery — the outage
//!    extends (growing backoff) instead of deadlocking;
//! 3. a poison put that kills the consumer on every attempt — after
//!    `supervise::POISON_THRESHOLD` deaths the consumer quarantines the
//!    step and the rest of the run completes without its input.
//!
//! Run with:
//! ```text
//! cargo run --example self_healing
//! ```
//!
//! Each run prints its summary line (note the `rst=…`/`quar=…`/`mttr=…`
//! supervision counters) followed by the machine-readable report line.

use sim_core::time::SimTime;
use wfcr::protocol::WorkflowProtocol;
use workflow::config::{tiny, FailureSpec};
use workflow::runner::run;

fn main() {
    let base = tiny(WorkflowProtocol::Uncoordinated).with_supervision();

    println!("-- single crash, healed by restart --");
    let crash = base.with_failures(vec![FailureSpec::At {
        at: SimTime::from_millis(700),
        app: 1, // the analytics consumer fails mid-run
    }]);
    let rep = run(&crash);
    println!("{}", rep.summary());
    println!("{}", rep.to_json_line());

    println!("-- crash during recovery: one outage, growing backoff --");
    let redeath = base.with_failures(vec![
        FailureSpec::At { at: SimTime::from_millis(700), app: 1 },
        FailureSpec::At { at: SimTime::from_millis(780), app: 1 }, // 80 ms into recovery
    ]);
    let rep = run(&redeath);
    println!("{}", rep.summary());
    println!("{}", rep.to_json_line());

    println!("-- poison put: step quarantined after poison_threshold deaths --");
    let poison = base.with_failures(vec![FailureSpec::PoisonPut { victim: 1, step: 3 }]);
    let rep = run(&poison);
    println!("{}", rep.summary());
    println!(
        "quarantined {} step(s) after {} restart(s); mean time to repair {:.3}s",
        rep.quarantined(),
        rep.restarts(),
        rep.mttr_mean_s()
    );
    println!("{}", rep.to_json_line());
}
