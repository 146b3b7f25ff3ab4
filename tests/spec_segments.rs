//! Crash-consistency of append-only spec segments.
//!
//! `TaskTable::record_many` group-commits a whole batch of task specs
//! as one immutable segment appended under a single shard lock, so a
//! concurrent reader can never observe a *torn* batch: it sees none of
//! a batch's specs or all of them.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use rtml::common::ids::{DriverId, FunctionId, TaskId};
use rtml::common::task::{ArgSpec, TaskSpec, TaskState};
use rtml::kv::{KvStore, TaskTable};

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
