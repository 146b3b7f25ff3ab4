//! Crash-consistency tests for append-only spec segments (PR 7).
//!
//! `TaskTable::record_many` group-commits a whole batch of task specs
//! as one immutable segment appended under a single shard lock. That
//! single-append commit point is what these tests pin down:
//!
//! - a concurrent reader can never observe a *torn* batch — it sees
//!   none of a batch's specs or all of them;
//! - losing a node mid-submission (including a striped ingest target
//!   with batches still in its mailbox) never loses a committed spec,
//!   and lineage replay still produces every value.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use rtml::common::ids::{DriverId, FunctionId, TaskId};
use rtml::common::task::{ArgSpec, TaskSpec, TaskState};
use rtml::kv::{KvStore, TaskTable};
use rtml::prelude::*;
use rtml::sched::SpillMode;

fn spec(root: TaskId, batch: u64, i: u64) -> TaskSpec {
    TaskSpec::simple(
        root.child(batch * 1000 + i),
        FunctionId::from_name("seg_f"),
        vec![ArgSpec::Value(Bytes::from(vec![batch as u8, i as u8]))],
    )
}

/// A reader scanning a batch's ids in commit order must never observe
/// `present` followed by `absent`: the segment append is one atomic
/// publication, so visibility jumps from "none" to "all". A per-entry
/// insert loop (the pre-segment implementation) fails this under the
/// same schedule — the reader can overtake the writer mid-batch.
#[test]
fn record_many_is_all_or_nothing_for_concurrent_readers() {
    const BATCHES: u64 = 64;
    const BATCH: u64 = 16;

    let kv = KvStore::new(4);
    let writer_table = TaskTable::new(kv.clone());
    // The reader uses an *independent* handle over the same kv — its
    // own lazy index, rebuilt from the log, exactly like a recovering
    // process.
    let reader_table = TaskTable::new(kv.clone());
    let root = TaskId::driver_root(DriverId::from_index(40));
    let done = Arc::new(AtomicBool::new(false));

    let writer = std::thread::spawn({
        let done = done.clone();
        move || {
            for b in 0..BATCHES {
                let specs: Vec<TaskSpec> = (0..BATCH).map(|i| spec(root, b, i)).collect();
                writer_table.record_many(&specs, &TaskState::Submitted);
                std::thread::yield_now();
            }
            done.store(true, Ordering::Release);
        }
    });

    let reader = std::thread::spawn({
        let done = done.clone();
        move || {
            let mut torn = 0usize;
            let mut passes = 0usize;
            while !done.load(Ordering::Acquire) || passes == 0 {
                for b in 0..BATCHES {
                    let mut seen_present = false;
                    for i in 0..BATCH {
                        let present = reader_table.get_spec(root.child(b * 1000 + i)).is_some();
                        if seen_present && !present {
                            torn += 1;
                        }
                        seen_present |= present;
                    }
                }
                passes += 1;
            }
            (torn, passes)
        }
    });

    writer.join().unwrap();
    let (torn, passes) = reader.join().unwrap();
    assert_eq!(torn, 0, "observed {torn} torn batches over {passes} passes");

    // After the writer finishes, every committed spec must be readable
    // and bit-identical through a third, completely fresh handle.
    let fresh = TaskTable::new(kv);
    for b in 0..BATCHES {
        for i in 0..BATCH {
            let got = fresh
                .get_spec(root.child(b * 1000 + i))
                .unwrap_or_else(|| panic!("spec ({b}, {i}) lost after commit"));
            assert_eq!(got, spec(root, b, i));
        }
    }
}

/// Striping sends whole submission batches to remote ingest nodes; a
/// stripe target can die holding batches that were *sent* (they sit in
/// its scheduler's mailbox) but not yet ingested. The specs were group-
/// committed durably by the caller before routing, so the kill repair
/// must recover every task: all specs stay readable and every future
/// resolves to the right value through lineage replay.
#[test]
fn striped_submission_survives_stripe_target_loss() {
    let config = ClusterConfig {
        nodes: (0..3).map(|_| NodeConfig::cpu_only(2)).collect(),
        spill: SpillMode::NeverSpill, // ingest target keeps its batches
        ..ClusterConfig::default()
    }
    .with_submit_striping(3);
    let cluster = Cluster::start(config).unwrap();
    let f = cluster.register_fn1("seg_mul", |x: i64| Ok(x * 11));
    let driver = cluster.driver();

    // Six batches round-robin over the three nodes: two land on the
    // victim. Kill it immediately so batches are still in its mailbox.
    let mut futs = Vec::new();
    for wave in 0..6i64 {
        futs.extend(driver.submit_many(&f, wave * 8..wave * 8 + 8).unwrap());
    }
    cluster.kill_node(NodeId(2)).unwrap();

    // Every spec must still be readable — group commit happened on the
    // driver before any frame was routed, and segments are immutable.
    let tasks = &driver.services().tasks;
    for fut in &futs {
        let task = fut.id().producer_task().expect("driver-submitted task");
        assert!(
            tasks.get_spec(task).is_some(),
            "spec for {task:?} lost after stripe-target kill"
        );
    }

    // And every value must come back (survivors execute or replay).
    for (i, fut) in futs.iter().enumerate() {
        assert_eq!(
            driver.get_timeout(fut, Duration::from_secs(30)).unwrap(),
            i as i64 * 11,
            "future {i}"
        );
    }
    cluster.shutdown();
}
