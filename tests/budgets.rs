//! Per-operation budgets: what one operation may cost in counted units
//! (kv locks, heap bytes retained, heap allocations, spec- and
//! state-index entries, node-loop wake-ups, fabric frames), checked on every
//! `cargo test` rather than left to a benchmark. Real threads race, so
//! a count jitters: each budget sits above the worst run seen, by the
//! margin its constant states, and only ever goes down. A change that
//! lowers a count lowers its budget with it.
//!
//! The binary counts the heap with its own global allocator, and every
//! test takes [`SERIAL`] first, so the heap counts belong to the test
//! that reads them. The two heap budgets, on a 1×2 cluster after 200
//! warm-up round trips, over 2 000 lone `submit1` + `get` round trips:
//!
//! - retained heap: ≤ [`RETAINED_BYTES`] a round trip. Each round trip
//!   leaves its task's control-plane records (spec segment, state,
//!   object record, event frames) and its sealed result behind for the
//!   life of the cluster. ≈ 1 335 B before kv logs packed their records
//!   into shared blocks, when four event frames alone held ≈ 620 B.
//! - allocations: ≤ [`ALLOCS`] a round trip, whichever thread makes
//!   them (the submitter, the scheduler, the workers, background
//!   writers).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use rtml::common::codec::{encode_to_bytes, Codec, Reader};
use rtml::common::ids::DriverId;
use rtml::common::task::{ArgSpec, TaskState};
use rtml::kv::tables::task_table::STATE_LOG_KEY;
use rtml::prelude::*;
use rtml::runtime::TaskRequest;

/// Bytes currently allocated, process-wide.
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
/// Allocations made (`alloc` and `realloc` calls), process-wide.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting live bytes and allocations.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`, and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Taken by every test in this binary, so no other test's cluster runs
/// beside the one being counted.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A test that failed while holding the lock leaves nothing behind
    // that the next one reads.
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Most heap a lone round trip may leave live: the worst of 20 runs on a
/// 2-vCPU host (682 B) plus 10 %. They read 631, 636, 637, 638, 639,
/// 641, 642, 645, 647, 647, 648, 648, 649, 650, 651, 653, 654, 657, 660
/// and 682 B once events went to a node buffer flushed on the loop's
/// tick — one frame a stream a tick, not one a component a task — and
/// an admitted task's `Queued` rode its spec segment. Earlier: 748–772 B
/// (1 326–1 348 B before kv logs packed their records), then 710–718 B
/// once task states were records of one log.
const RETAINED_BYTES: f64 = 750.0;

/// Most allocations a lone round trip may make: the worst of 20 runs on
/// a 2-vCPU host (46.7) plus 10 %. They read 40.0, 43.3, 45.6, 46.1,
/// 46.1, 46.1, 46.2 (6 runs), 46.3 (3), 46.4 (2), 46.5 and 46.7 once
/// events were encoded into a node buffer in place, with no key or
/// frame per event, and an admitted task's `Queued` rode its spec
/// segment. They read 75–87 while a `get` that found the result missing
/// built a resolver and an object-table subscription, 60.9–67.2 once the
/// store's local-seal table kept a plain list per object, 58.5–65.1
/// once task states were appends to one log, and 63.7–66.0 before the
/// event buffer (budget 72.6).
const ALLOCS: f64 = 51.4;

/// What `rounds` lone `submit1` + `get` round trips on a 1×2 cluster
/// leave live and allocate, per round trip, after 200 warm-up ones.
fn heap_per_round_trip(rounds: u64) -> (f64, f64) {
    let cluster = Cluster::start(ClusterConfig::local(1, 2)).unwrap();
    let inc = cluster.register_fn1("heap_inc", |x: u64| Ok(x + 1));
    let driver = cluster.driver();
    let round_trip = |x: u64| {
        let fut = driver.submit1(&inc, x).unwrap();
        assert_eq!(driver.get(&fut).unwrap(), x + 1);
    };
    (0..200).for_each(round_trip);
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    (200..200 + rounds).for_each(round_trip);
    let retained = (LIVE_BYTES.load(Ordering::Relaxed) - live) as f64 / rounds as f64;
    let allocs = (ALLOCATIONS.load(Ordering::Relaxed) - allocations) as f64 / rounds as f64;
    cluster.shutdown();
    (retained, allocs)
}

#[test]
fn a_lone_round_trip_retains_under_800_bytes_of_heap() {
    let _serial = serial();
    let (retained, allocs) = heap_per_round_trip(2_000);
    println!("a lone round trip: {retained:.0} B retained, {allocs:.1} allocations");
    assert!(
        retained <= RETAINED_BYTES,
        "{retained:.0} B retained a round trip, budget {RETAINED_BYTES}"
    );
}

#[test]
fn a_lone_round_trip_makes_no_more_allocations_than_its_budget() {
    let _serial = serial();
    let (retained, allocs) = heap_per_round_trip(2_000);
    println!("a lone round trip: {retained:.0} B retained, {allocs:.1} allocations");
    assert!(
        allocs <= ALLOCS,
        "{allocs:.1} allocations a round trip, budget {ALLOCS}"
    );
}

/// The cluster's kv lock count.
fn kv_locks(cluster: &Cluster) -> u64 {
    cluster.counters().get("kv.locks").unwrap()
}

/// Most kv locks a task of a 256-task burst may cost on a 2×2 cluster:
/// the worst of 20 runs on a 2-vCPU host (1.21 locks a task, read
/// 1.00–1.21) plus 10 %. A burst's `Queued`, and each worker batch's
/// `Running` and `Finished`, is one append to the state log; as point
/// keys they took a lock per shard touched, and the budget was 2.37
/// (1.77–2.15). With the appends, but a worker that held results
/// against its `Running` commit's time alone, it read 1.15–1.48. A
/// burst whose measured work drains within a round trip stays on its
/// node and skips the spill and placement commits; in a debug build
/// only some do. Before workers took batches a task cost 8.6, and 2.45
/// before a wait stopped reading its producers' lineage.
const BURST_LOCKS_PER_TASK: f64 = 1.33;

/// What a lone `submit1` + `get` of a sealed result costs in kv locks
/// on one node of two workers: the submission's spec segment, which
/// carries its `Queued`; the worker's `Running`, the result's location
/// and `Finished`. 20 runs on a 2-vCPU host read 4, two of them 3 (the
/// `Finished` can land after `get` returns). Its events go to the node's
/// event buffer, which the loop appends on its load tick, beside the
/// round trip and not in it: one frame a stream a tick, for every task
/// the tick covers. It cost 9 while the submission's state and four
/// event frames (the driver's, the admission's, the worker's and the
/// store's) were kv appends of their own, and 10 before a lone task's
/// two worker events shared a frame.
const LONE_LOCKS: u64 = 4;

/// What a lone `submit1` + `get` costs in kv locks when the `get` finds
/// the result missing and waits for its seal, on one node of two
/// workers: what a lone round trip costs. The wait is at home — its
/// task is the node's own — and takes no object-table subscription,
/// which cost two more (registering with the record's read, and
/// withdrawing). 20 runs on a 2-vCPU host read 6 each: the round trip's
/// 4, and the load tick that the millisecond task spans appends the
/// submission's and the admission's buffered events, two frames. They
/// read 6–9 while events were kv appends of their own.
const BLOCKED_LONE_LOCKS: u64 = 6;

/// Most kv locks a task of a 4096-task batch may cost to be submitted
/// and ingested: the batch's specs are one group-committed segment, its
/// states and events one write each, so a task's share is a few
/// thousandths of a lock (≈ 0.004 on a 2-vCPU host).
const INGEST_LOCKS_PER_TASK: f64 = 0.01;

#[test]
fn a_burst_spends_under_three_kv_locks_a_task() {
    let _serial = serial();
    let cluster = Cluster::start(ClusterConfig::local(2, 2)).unwrap();
    let inc = cluster.register_fn1("budget_inc", |x: u64| Ok(x + 1));
    let driver = cluster.driver();
    const ROUNDS: u64 = 8;
    const TASKS: u64 = 256;
    let before = kv_locks(&cluster);
    for round in 0..ROUNDS {
        let args = round * TASKS..(round + 1) * TASKS;
        let futs = driver.submit_many(&inc, args.clone()).unwrap();
        let values = driver.get_many(&futs).unwrap();
        assert!(values.iter().zip(args).all(|(v, x)| *v == x + 1));
    }
    let per_task = (kv_locks(&cluster) - before) as f64 / (ROUNDS * TASKS) as f64;
    println!("{per_task:.2} kv locks a task");
    assert!(
        per_task <= BURST_LOCKS_PER_TASK,
        "{per_task:.2} kv locks a task, budget {BURST_LOCKS_PER_TASK}"
    );
    cluster.shutdown();
}

#[test]
fn a_lone_round_trip_spends_no_more_kv_locks_than_before_batching() {
    let _serial = serial();
    let cluster = Cluster::start(ClusterConfig::local(1, 2)).unwrap();
    let inc = cluster.register_fn1("lone_inc", |x: u64| Ok(x + 1));
    let driver = cluster.driver();
    // The result is sealed by the time `get` asks (a `get` that finds it
    // missing waits for the seal), and background writes (the telemetry
    // sample, the loop's event flush) land beside some round trips: the
    // cost of one is the least any of them paid.
    let store = cluster.services().store(NodeId(0)).unwrap();
    let mut costs: Vec<u64> = (0..64u64)
        .map(|x| {
            let before = kv_locks(&cluster);
            let fut = driver.submit1(&inc, x).unwrap();
            while !store.contains(fut.id()) {
                std::thread::yield_now();
            }
            assert_eq!(driver.get(&fut).unwrap(), x + 1);
            kv_locks(&cluster) - before
        })
        .collect();
    costs.sort();
    println!("a lone round trip: {} kv locks (all: {costs:?})", costs[0]);
    assert!(
        costs[0] <= LONE_LOCKS,
        "{costs:?} kv locks, budget {LONE_LOCKS}"
    );
    cluster.shutdown();
}

#[test]
fn a_blocked_lone_round_trip_spends_at_most_9_kv_locks() {
    let _serial = serial();
    // No telemetry: its samples are kv writes that would land beside
    // most round trips that wait.
    let cluster = Cluster::start(ClusterConfig::local(1, 2).without_telemetry()).unwrap();
    // Slower than a `get` takes to register, far quicker than a tick.
    let inc = cluster.register_fn1("blocked_inc", |x: u64| {
        std::thread::sleep(Duration::from_millis(1));
        Ok(x + 1)
    });
    let driver = cluster.driver();
    // `get` right after `submit1`: it finds the result missing and waits
    // for the seal at home, which reads no lineage and subscribes to no
    // record. Before waits stopped nudging reconstruction this cost 13:
    // two more for the object's record and its producer's state; 11
    // while the wait subscribed to the record. Background writes land beside
    // some round trips: the cost of one is the least any of them paid.
    let mut costs: Vec<u64> = (0..64u64)
        .map(|x| {
            let before = kv_locks(&cluster);
            let fut = driver.submit1(&inc, x).unwrap();
            assert_eq!(driver.get(&fut).unwrap(), x + 1);
            kv_locks(&cluster) - before
        })
        .collect();
    costs.sort();
    println!(
        "a blocked lone round trip: {} kv locks (all: {costs:?})",
        costs[0]
    );
    assert!(
        costs[0] <= BLOCKED_LONE_LOCKS,
        "{costs:?} kv locks, budget {BLOCKED_LONE_LOCKS}"
    );
    cluster.shutdown();
}

#[test]
fn an_rtt_local_run_of_ten_times_its_ops_keeps_the_event_buffers_flat() {
    let _serial = serial();
    // Lone round trips back to back, as the ledger's `rtt_local` runs
    // them: the node's loop appends its event buffer every load tick,
    // so what the buffers hold — their allocations' high-water mark —
    // is a tick's worth of events, whatever the run's length. A host
    // that stalls the loop grows it (10 debug runs read 5.9–14.7 KiB
    // after 1 000 round trips and 7.4–35 KiB after 10 000), up to the
    // bound: at most `BUFFER` events held, a lone task's under 64 B
    // each, on its 4 streams, each allocation at most double its use.
    let cluster = Cluster::start(ClusterConfig::local(1, 2)).unwrap();
    let inc = cluster.register_fn1("flat_inc", |x: u64| Ok(x + 1));
    let driver = cluster.driver();
    let round_trip = |x: u64| {
        let fut = driver.submit1(&inc, x).unwrap();
        assert_eq!(driver.get(&fut).unwrap(), x + 1);
    };
    let events = &cluster.services().events;
    const ROUNDS: u64 = 1_000;
    (0..ROUNDS).for_each(round_trip);
    let warm = events.buffered_bytes();
    (ROUNDS..11 * ROUNDS).for_each(round_trip);
    let after = events.buffered_bytes();
    println!("event buffers: {warm} B after {ROUNDS} round trips, {after} B after 10x more");
    assert!(warm > 0, "no event was buffered");
    const BOUND: usize = 4 * 2 * 64 * rtml::kv::EventLog::BUFFER;
    assert!(after <= BOUND, "{warm} B grew to {after} B, bound {BOUND}");
    assert!(events.buffered() <= rtml::kv::EventLog::BUFFER);
    cluster.shutdown();
}

/// Most times a lone `submit1` + `get` may wake its node's loop. The
/// round trip is the submitter's and a worker's: the loop takes no part
/// in it, and 21 runs on a 2-vCPU host read 0. It read ≈ 1 while a
/// worker that parked woke the loop for an empty turn.
const LONE_WAKE_UPS: f64 = 0.1;

/// The times another thread woke the node loops on `cluster`, summed:
/// their turns less the ones their own tick took.
fn loop_wake_ups(cluster: &Cluster) -> u64 {
    let counters = cluster.counters();
    counters.get("sched.turns").unwrap() - counters.get("sched.ticks").unwrap()
}

#[test]
fn a_lone_round_trip_wakes_the_node_loop_a_tenth_of_a_time_at_most() {
    let _serial = serial();
    // No telemetry: its samples are taken on the loop, on a timer.
    let cluster = Cluster::start(ClusterConfig::local(1, 2).without_telemetry()).unwrap();
    let inc = cluster.register_fn1("wake_inc", |x: u64| Ok(x + 1));
    let driver = cluster.driver();
    let round_trip = |x: u64| {
        let fut = driver.submit1(&inc, x).unwrap();
        assert_eq!(driver.get(&fut).unwrap(), x + 1);
    };
    (0..200).for_each(round_trip);
    const ROUNDS: u64 = 2_000;
    let before = loop_wake_ups(&cluster);
    (200..200 + ROUNDS).for_each(round_trip);
    let per_round_trip = (loop_wake_ups(&cluster) - before) as f64 / ROUNDS as f64;
    println!("a lone round trip: {per_round_trip:.3} loop wake-ups");
    assert!(
        per_round_trip <= LONE_WAKE_UPS,
        "{per_round_trip:.3} loop wake-ups a round trip, budget {LONE_WAKE_UPS}"
    );
    cluster.shutdown();
}

/// Most threads a lone `submit1` + `get` may put to sleep: worker
/// condvar waits (`sched.worker_sleeps`) plus a `get`'s sleeps at home
/// (its blocked waits no spin caught). The worst of 20 runs of this
/// debug build on a 2-vCPU host (1.571) plus 10 %; they read 1.048,
/// 1.049, 1.052, 1.075, 1.079, 1.089, 1.113, 1.114, 1.115, 1.127,
/// 1.156, 1.159, 1.174, 1.178, 1.200, 1.238, 1.266, 1.359, 1.532 and
/// 1.571. With no spin both sides sleep on each round trip: 1.86–2.19
/// in 6 of 7 runs, 1.66 in one. A release build reads ≈ 0.08. The
/// debug reading stays near 1 because the driver resubmits while the
/// worker that ran the last task is still publishing, so the push goes
/// to the other worker, asleep, and the two workers take turns: each
/// idle spell is two round trips long, past what the queue spins for.
const LONE_SLEEPS: f64 = 1.73;

/// Worker and `get` sleeps on `cluster`, summed.
fn sleeps(cluster: &Cluster) -> u64 {
    let counters = cluster.counters();
    let count = |name| counters.get(name).unwrap();
    count("sched.worker_sleeps") + count("runtime.blocked_waits") - count("runtime.get_spin_hits")
}

#[test]
fn a_lone_round_trip_puts_few_threads_to_sleep() {
    let _serial = serial();
    let cluster = Cluster::start(ClusterConfig::local(1, 2)).unwrap();
    let inc = cluster.register_fn1("sleep_inc", |x: u64| Ok(x + 1));
    let driver = cluster.driver();
    let round_trip = |x: u64| {
        let fut = driver.submit1(&inc, x).unwrap();
        assert_eq!(driver.get(&fut).unwrap(), x + 1);
    };
    (0..200).for_each(round_trip);
    const ROUNDS: u64 = 2_000;
    let before = sleeps(&cluster);
    (200..200 + ROUNDS).for_each(round_trip);
    let per_round_trip = (sleeps(&cluster) - before) as f64 / ROUNDS as f64;
    println!("a lone round trip: {per_round_trip:.3} sleeps");
    assert!(
        per_round_trip <= LONE_SLEEPS,
        "{per_round_trip:.3} sleeps a round trip, budget {LONE_SLEEPS}"
    );
    cluster.shutdown();
}

#[test]
fn a_burst_wakes_the_node_loop_for_none_of_its_worker_parks() {
    let _serial = serial();
    // A burst kept whole on the node is admitted on the driver's thread
    // and taken by the workers, which park when it is done: the loop
    // has nothing to do. A worker that parked used to wake it each time.
    let cluster = Cluster::start(
        ClusterConfig {
            spill: SpillMode::NeverSpill,
            ..ClusterConfig::local(1, 2)
        }
        .without_telemetry(),
    )
    .unwrap();
    let inc = cluster.register_fn1("burst_wake_inc", |x: u64| Ok(x + 1));
    let driver = cluster.driver();
    let parks = || cluster.counters().get("sched.worker_parks").unwrap();
    const ROUNDS: u64 = 32;
    const TASKS: u64 = 256;
    let (before, parks_before) = (loop_wake_ups(&cluster), parks());
    for round in 0..ROUNDS {
        let args = round * TASKS..(round + 1) * TASKS;
        let futs = driver.submit_many(&inc, args.clone()).unwrap();
        let values = driver.get_many(&futs).unwrap();
        assert!(values.iter().zip(args).all(|(v, x)| *v == x + 1));
    }
    let wake_ups = loop_wake_ups(&cluster) - before;
    let parks = parks() - parks_before;
    println!("{ROUNDS} bursts: {wake_ups} loop wake-ups, {parks} worker parks");
    assert!(parks >= ROUNDS, "the workers ran dry {parks} times");
    assert!(
        wake_ups == 0,
        "{wake_ups} loop wake-ups for {ROUNDS} bursts and {parks} worker parks"
    );
    cluster.shutdown();
}

/// Most publishes — one `Finished` append each — a warm 256-task burst
/// may make on one worker: its 16 batches publish once each, and a task
/// the host preempts can run longer than a publish takes, so three more
/// are allowed. Held against the batch's `Running` commit alone — one
/// append to the state log — a debug build read 20–34. They were counted
/// as worker-stream frames while each publish appended one.
const BURST_PUBLISHES: usize = 19;

/// The state log's records that name any of `tasks`, as their states:
/// each record is `varint(count)`, the state, then `count` task ids of
/// 16 bytes.
fn state_records(cluster: &Cluster, tasks: &[TaskId]) -> Vec<TaskState> {
    let ids: std::collections::HashSet<u128> = tasks.iter().map(|t| t.unique().as_u128()).collect();
    let records = cluster.services().kv.read_log(STATE_LOG_KEY);
    let decode = |record: &bytes::Bytes| {
        let mut r = Reader::new(record);
        r.take_varint().unwrap();
        let state = TaskState::decode(&mut r).unwrap();
        let named = record[record.len() - r.remaining()..]
            .chunks_exact(16)
            .any(|id| ids.contains(&u128::from_le_bytes(id.try_into().unwrap())));
        named.then_some(state)
    };
    records.iter().filter_map(decode).collect()
}

#[test]
fn a_warm_worker_publishes_a_batch_of_short_tasks_once() {
    let _serial = serial();
    // One worker: a 256-task burst is 16 batches of 16. An `x + 1` runs
    // shorter than a publish takes, so each batch's results are held to
    // its end: one publish, and so one `Finished` append, a batch.
    let cluster = Cluster::start(ClusterConfig::local(1, 1)).unwrap();
    let inc = cluster.register_fn1("publish_inc", |x: u64| Ok(x + 1));
    let driver = cluster.driver();
    let burst = |round: u64| {
        let args = round * 256..(round + 1) * 256;
        let futs = driver.submit_many(&inc, args.clone()).unwrap();
        let values = driver.get_many(&futs).unwrap();
        assert!(values.iter().zip(args).all(|(v, x)| *v == x + 1));
        let task = |f: &ObjectRef<u64>| f.id().producer_task().unwrap();
        futs.iter().map(task).collect::<Vec<TaskId>>()
    };
    // Warm-up: the worker has timed a publish.
    burst(0);
    burst(1);
    let tasks = burst(2);
    // Every task's `Finished` lands before the worker takes its next
    // batch, so the last one is in by the time the worker parks.
    let deadline = Instant::now() + Duration::from_secs(5);
    let finished = || {
        let states = cluster.services().tasks.get_states_many(&tasks);
        states.iter().all(|s| *s == Some(TaskState::Finished))
    };
    while !finished() {
        assert!(Instant::now() < deadline, "the burst never finished");
        std::thread::sleep(Duration::from_millis(1));
    }
    let records = state_records(&cluster, &tasks);
    let count = |state: fn(&TaskState) -> bool| records.iter().filter(|s| state(s)).count();
    let publishes = count(|s| *s == TaskState::Finished);
    let running = count(|s| matches!(s, TaskState::Running(_)));
    println!("16 batches: {publishes} publishes, {running} `Running` commits");
    assert!(
        publishes <= BURST_PUBLISHES,
        "{publishes} publishes for 16 batches, budget {BURST_PUBLISHES}"
    );
    // Each batch's `Running`; the burst's `Queued` rode its specs'
    // segment.
    assert!(running <= 16, "{running} `Running` commits");
    assert_eq!(records.len(), publishes + running, "{records:?}");
    cluster.shutdown();
}

/// Most times a 256-task burst's `get_many` may put its caller to
/// sleep when the burst was admitted on the driver's thread. Its tasks
/// are then held by the node's run queue, so the call waits on the
/// store alone and is woken when the last result seals: once, or twice
/// when it looked in just as the last one sealed. Each worker publish
/// batch woke it (12–23 times a burst) while every result went through
/// the resolver. A burst the spill rule sends through the node loop is
/// not held when the call looks and still goes through the resolver:
/// under the default `Hybrid` spill a 1×2 cluster once spilled most of
/// each burst to the global scheduler and back, and its worst burst
/// read 2–3 blocks in 10 runs on a 2-vCPU host, 163 in an earlier one.
/// A node alone now keeps every burst.
const BURST_GET_BLOCKS: u64 = 2;

#[test]
fn a_burst_get_many_blocks_its_caller_at_most_twice() {
    let _serial = serial();
    // Under the default spill rule: a node with no other node alive
    // keeps every burst whole, so each is admitted on the driver's
    // thread.
    let cluster = Cluster::start(ClusterConfig::local(1, 2)).unwrap();
    let inc = cluster.register_fn1("burst_block_inc", |x: u64| Ok(x + 1));
    let driver = cluster.driver();
    let blocks = || cluster.counters().get("runtime.blocked_waits").unwrap();
    const WARM_UP: u64 = 8;
    const ROUNDS: u64 = 32;
    const TASKS: u64 = 256;
    let mut per_round = Vec::new();
    for round in 0..WARM_UP + ROUNDS {
        let args = round * TASKS..(round + 1) * TASKS;
        let futs = driver.submit_many(&inc, args.clone()).unwrap();
        let before = blocks();
        let values = driver.get_many(&futs).unwrap();
        assert!(values.iter().zip(args).all(|(v, x)| *v == x + 1));
        if round >= WARM_UP {
            per_round.push(blocks() - before);
        }
    }
    println!("a burst's get_many blocked its caller {per_round:?} times");
    let worst = per_round.iter().copied().max().unwrap();
    assert!(
        worst <= BURST_GET_BLOCKS,
        "{per_round:?} blocks a burst, budget {BURST_GET_BLOCKS}"
    );
    cluster.shutdown();
}

/// Most fabric frames a remote round trip may send: `submit1` on node
/// 0, pinned by a custom resource to node 1, then `get` on node 0. The
/// task spills to the global scheduler in one frame, is placed on node
/// 1 in one, and its result is pushed back to node 0 in one; load
/// reports land beside some round trips. The worst of 20 runs on a
/// 2-vCPU host (4.02 frames; they read 3.50–4.02) plus 10 %: a second
/// frame per spill reads ≥ 4.5.
const REMOTE_FRAMES: f64 = 4.42;

/// What `count` reads across 2 000 remote round trips on a 1+1 cluster,
/// per round trip, after 200 warm-up ones: each task pinned to the
/// second node by a custom resource only it has, submitted and waited
/// for by a driver on the first.
fn per_remote_round_trip(count: impl Fn(&Cluster) -> u64) -> f64 {
    let cluster = Cluster::start(ClusterConfig {
        nodes: vec![
            NodeConfig::cpu_only(1),
            NodeConfig::cpu_only(1).with_custom("pin", 1.0),
        ],
        ..ClusterConfig::default()
    })
    .unwrap();
    let inc = cluster.register_fn1("remote_inc", |x: u64| Ok(x + 1));
    let driver = cluster.driver();
    let pinned = || TaskOptions::resources(Resources::cpu(1.0).with_custom("pin", 1.0));
    let round_trip = |x: u64| {
        let fut = driver.submit1_opts(&inc, x, pinned()).unwrap();
        assert_eq!(driver.get(&fut).unwrap(), x + 1);
    };
    (0..200).for_each(round_trip);
    const ROUNDS: u64 = 2_000;
    let before = count(&cluster);
    (200..200 + ROUNDS).for_each(round_trip);
    let per_round_trip = (count(&cluster) - before) as f64 / ROUNDS as f64;
    cluster.shutdown();
    per_round_trip
}

#[test]
fn a_remote_round_trip_sends_no_more_frames_than_its_budget() {
    let _serial = serial();
    let per_round_trip = per_remote_round_trip(|c| c.counters().get("fabric.sent").unwrap());
    println!("a remote round trip: {per_round_trip:.3} frames");
    assert!(
        per_round_trip <= REMOTE_FRAMES,
        "{per_round_trip:.3} frames a remote round trip, budget {REMOTE_FRAMES}"
    );
}

/// Most kv locks a remote round trip may cost on the rig of
/// [`REMOTE_FRAMES`], background writes included (telemetry samples and
/// the loops' event flushes): the worst of 20 runs on a 2-vCPU host
/// (12.347) plus 10 %. They read 11.563, 11.594, 11.600, 11.617, 11.680,
/// 11.702, 11.705, 11.706, 11.710, 11.751, 11.781, 11.806, 11.817,
/// 11.861, 11.886, 12.114, 12.134, 12.237, 12.252 and 12.347. The
/// ledger's `rtt_remote` read 16.1 while every component's events were a
/// kv append each.
const REMOTE_LOCKS: f64 = 13.6;

#[test]
fn a_remote_round_trip_spends_no_more_kv_locks_than_its_budget() {
    let _serial = serial();
    let per_round_trip = per_remote_round_trip(kv_locks);
    println!("a remote round trip: {per_round_trip:.3} kv locks");
    assert!(
        per_round_trip <= REMOTE_LOCKS,
        "{per_round_trip:.3} kv locks a remote round trip, budget {REMOTE_LOCKS}"
    );
}

#[test]
fn nested_round_trips_never_build_the_spec_index() {
    let _serial = serial();
    // A task's nested submission gets fresh child ids: a first attempt
    // has no earlier submission to find, so it reads no task state —
    // where a read that missed folded the whole spec log into the index.
    let cluster = Cluster::start(ClusterConfig::local(1, 4)).unwrap();
    let inc = cluster.register_fn1("nested_inc", |x: u64| Ok(x + 1));
    let parent = cluster.register_fn1_ctx("nested_parent", move |ctx, x: u64| {
        let fut = ctx.submit1(&inc, x)?;
        ctx.get(&fut)
    });
    let driver = cluster.driver();
    for x in 0..200u64 {
        let fut = driver.submit1(&parent, x).unwrap();
        assert_eq!(driver.get(&fut).unwrap(), x + 1);
    }
    let entries = cluster.counters().get("kv.spec_index_entries").unwrap();
    assert_eq!(entries, 0, "a nested submission read a spec");
    cluster.shutdown();
}

/// Sleeps `micros`, then mixes `x`: a stand-in for a sensor reading.
fn sense(x: u64, micros: u64) -> u64 {
    std::thread::sleep(Duration::from_micros(micros));
    x.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

#[test]
fn fault_free_waits_never_build_the_spec_index() {
    let _serial = serial();
    // Nodes 1 and 2 can run the pinned task, so its replay has a place
    // to go when one of them dies.
    let pinnable = || NodeConfig::cpu_only(4).with_custom("index_pin", 1.0);
    let cluster = Cluster::start(ClusterConfig {
        nodes: vec![NodeConfig::cpu_only(4), pinnable(), pinnable()],
        ..ClusterConfig::default()
    })
    .unwrap();
    let sensor = cluster.register_fn1("index_sense", |x: u64| Ok(sense(x, 200)));
    let fuse = cluster.register_fn2("index_fuse", |a: u64, b: u64| Ok(a.rotate_left(7) ^ b));
    let driver = cluster.driver();
    let entries = || cluster.counters().get("kv.spec_index_entries").unwrap();
    let states = || cluster.counters().get("kv.state_index_entries").unwrap();
    // Stream-shaped windows: four sensor tasks fused by a tree of
    // futures, whose fusions wait on their inputs and whose result the
    // driver waits on.
    for w in 0..500u64 {
        let s: Vec<_> = (0..4)
            .map(|k| driver.submit1(&sensor, w * 4 + k).unwrap())
            .collect();
        let left = driver.submit2(&fuse, s[0], s[1]).unwrap();
        let right = driver.submit2(&fuse, s[2], s[3]).unwrap();
        let fused = driver.submit2(&fuse, left, right).unwrap();
        let x = |k: u64| sense(w * 4 + k, 0);
        let expect = (x(0).rotate_left(7) ^ x(1)).rotate_left(7) ^ (x(2).rotate_left(7) ^ x(3));
        assert_eq!(driver.get(&fused).unwrap(), expect);
    }
    assert_eq!(entries(), 0, "a fault-free wait read a spec");
    assert_eq!(states(), 0, "a fault-free wait built the state index");

    // A copy lost with its node is replayed from its producer's spec. A
    // result over the push limit stays on the node that made it.
    let block = cluster.register_fn1("index_block", |n: u64| Ok(vec![7u8; n as usize]));
    let pinned = TaskOptions::resources(Resources::cpu(1.0).with_custom("index_pin", 1.0));
    let lost = driver.submit1_opts(&block, 64 * 1024, pinned).unwrap();
    let (ready, _) = driver.wait(std::slice::from_ref(&lost), 1, Duration::from_secs(30));
    assert_eq!(ready.len(), 1);
    let holders = cluster.services().objects.get(lost.id()).unwrap().locations;
    assert_eq!(entries(), 0);
    cluster.kill_node(holders[0]).unwrap();
    assert_eq!(driver.get(&lost).unwrap().len(), 64 * 1024);
    assert!(cluster.reconstructions() >= 1);
    assert!(entries() > 0, "the replay read no spec");
    cluster.shutdown();
}

#[test]
fn fault_free_bursts_and_round_trips_never_build_the_state_index() {
    let _serial = serial();
    // Only node 1 can run the pinned task.
    let cluster = Cluster::start(ClusterConfig {
        nodes: vec![
            NodeConfig::cpu_only(2),
            NodeConfig::cpu_only(2).with_custom("state_pin", 1.0),
        ],
        ..ClusterConfig::default()
    })
    .unwrap();
    let inc = cluster.register_fn1("state_inc", |x: u64| Ok(x + 1));
    let driver = cluster.driver();
    let entries = || cluster.counters().get("kv.state_index_entries").unwrap();
    // Every transition is appended to the state log, and nothing folds
    // the log into the index: a wait's nudge past a tick (a debug build's
    // spilled burst can take that long) asks the task table only whether
    // the producer was marked lost, and reads no task state.
    const TASKS: u64 = 256;
    for round in 0..16 {
        let args = round * TASKS..(round + 1) * TASKS;
        let futs = driver.submit_many(&inc, args.clone()).unwrap();
        let values = driver.get_many(&futs).unwrap();
        assert!(values.iter().zip(args).all(|(v, x)| *v == x + 1));
    }
    let pinned = || TaskOptions::resources(Resources::cpu(1.0).with_custom("state_pin", 1.0));
    for x in 0..500u64 {
        let lone = driver.submit1(&inc, x).unwrap();
        assert_eq!(driver.get(&lone).unwrap(), x + 1);
        let remote = driver.submit1_opts(&inc, x, pinned()).unwrap();
        assert_eq!(driver.get(&remote).unwrap(), x + 1);
    }
    assert_eq!(entries(), 0, "a fault-free run read a task state");
    // A node death's repair reads every task's state.
    cluster.kill_node(NodeId(1)).unwrap();
    assert!(entries() > 0, "the repair read no state");
    cluster.shutdown();
}

#[test]
fn a_4096_task_batch_is_ingested_for_a_hundredth_of_a_kv_lock_a_task() {
    let _serial = serial();
    // Four 4096-task batches on one node, every task gated on an object
    // that never seals, so nothing runs: the count is submission and
    // ingest alone, up to the last task reading `Queued`.
    const BATCH: usize = 4096;
    const BATCHES: usize = 4;
    let cluster = Cluster::start(ClusterConfig {
        spill: SpillMode::NeverSpill,
        ..ClusterConfig::local(1, 2)
    })
    .unwrap();
    let gated = cluster.register_fn2("budget_gated", |x: u64, _gate: u64| Ok(x));
    let driver = cluster.driver();
    let never = TaskId::driver_root(DriverId::from_index(u64::MAX))
        .child(0)
        .return_object(0);
    let payload = encode_to_bytes(&0u64);
    let batches: Vec<Vec<TaskRequest>> = (0..BATCHES)
        .map(|_| {
            let request = || TaskRequest {
                function: gated.id(),
                args: vec![ArgSpec::Value(payload.clone()), ArgSpec::ObjectRef(never)],
                num_returns: 1,
                resources: Resources::cpu(1.0),
            };
            (0..BATCH).map(|_| request()).collect()
        })
        .collect();

    let before = kv_locks(&cluster);
    let mut last = Vec::new();
    for batch in batches {
        last = driver.submit_raw_batch(batch).unwrap().pop().unwrap();
    }
    // Batches are ingested in order: the last task queued is the last
    // batch ingested. Wait on its state's subscription, not a poll, so
    // the wait adds no kv locks of its own — nor reads a spec: it
    // starts from no record, not from a `Submitted` read off the spec
    // log, which would fold all 16 384 specs into the index.
    let task = last[0].producer_task().unwrap();
    let (current, updates) = driver.services().tasks.subscribe_state(task);
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut state = current;
    while !matches!(state, Some(TaskState::Queued(_))) {
        assert!(Instant::now() < deadline, "never queued: {state:?}");
        state = updates.recv_timeout(Duration::from_secs(1)).or(state);
    }
    let per_task = (kv_locks(&cluster) - before) as f64 / (BATCH * BATCHES) as f64;
    println!("{per_task:.4} kv locks a task");
    let entries = cluster.counters().get("kv.spec_index_entries").unwrap();
    assert_eq!(entries, 0, "the wait read the spec log");
    assert!(
        per_task <= INGEST_LOCKS_PER_TASK,
        "{per_task:.4} kv locks a task, budget {INGEST_LOCKS_PER_TASK}"
    );
    cluster.shutdown();
}
