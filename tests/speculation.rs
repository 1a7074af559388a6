//! Speculation slice of the differential harness (`tests/harness`):
//! speculative lookahead, commit or rollback, is unobservable on every
//! bus an NI can sit on, with and without processor-cache snarfing.

mod harness;

use harness::{Batch, Evidence};

/// Every NI kind on every valid bus (`CNI16Qm` with and without snarfing),
/// with drawn workloads, shard counts and pacer tunings, fault-free or
/// lossy; speculation both committed and rolled back.
#[test]
fn differential_speculation_is_unobservable() {
    let mut batch = Batch::new("speculation", "differential_speculation_is_unobservable");
    batch.every_bus();
    batch.require(&[Evidence::Commits, Evidence::Rollbacks]);
}
