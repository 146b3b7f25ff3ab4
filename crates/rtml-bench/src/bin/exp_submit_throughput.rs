//! E10 — submission throughput vs batch size (R2), async vs barriered.
//!
//! The paper's headline requirement is *millions of fine-grained tasks
//! per second*; every per-task cost on the submit→ingest path (channel
//! sends, control-plane lock round trips, event-log appends, fabric
//! frames) caps that rate. This experiment measures, per batch size in
//! {1, 16, 256, 4096} and per driver behaviour — the cluster is
//! configured the same for both:
//!
//! - **async** (the paper's "submit returns a future immediately"): the
//!   driver never waits. Batches queue in the local scheduler's mailbox
//!   while the driver marshals the next one, so the driver's work on
//!   batch N+1 overlaps the scheduler's ingest of batch N. One drain
//!   barrier at the end.
//! - **barriered**: the driver waits for each batch to be fully
//!   ingested (state `Queued`) before submitting the next — no overlap
//!   anywhere, the strict back-to-back baseline.
//!
//! Reported per (size, arm): **tasks/sec** (wall clock from first
//! submit until the scheduler has queued the whole budget), **kv
//! locks/task** (control-plane lock acquisitions per task, the
//! structural quantity that group-committed spec segments amortize),
//! and **sched msgs**. The run also records the host's **core count**:
//! the driver and the scheduler only overlap with a core each and some
//! to spare for the rest of the cluster, so the async ≥ 1.5× barriered
//! self-check arms at four cores (a 2-vCPU host measures ≈ 0.9×). The
//! ratio and the core count are always printed and written.
//!
//! Every task is gated on a dependency that never seals, so the
//! measurement isolates the submission and ingest layers from task
//! execution. Spillover is disabled: this is a single-node submission
//! benchmark, not a load-balancing one.
//!
//! Run: `cargo run -p rtml-bench --bin exp_submit_throughput --release`
//!
//! Results are also written to `BENCH_submit_throughput.json` so CI can
//! track regressions mechanically. Its keys are the ones earlier runs
//! wrote: `tasks_per_sec` is the async curve, `serialized_tasks_per_sec`
//! the barriered one. The floors are this binary's own self-checks
//! (below), not a script's. `RTML_SUBMIT_TASKS` overrides the per-size
//! task budget (default 16384); `RTML_SUBMIT_REPS` the repetitions per
//! size (default 3, fresh cluster each, fastest kept — the standard
//! minimum-of-N estimator). `TaskRequest`s are marshalled before the
//! clock starts for both arms, so the comparison stays
//! apples-to-apples.

use std::time::{Duration, Instant};

use rtml_bench::{env_or, print_table};
use rtml_common::ids::{DriverId, TaskId};
use rtml_common::resources::Resources;
use rtml_common::task::{ArgSpec, TaskState};
use rtml_runtime::{Cluster, ClusterConfig, Driver, TaskRequest};
use rtml_sched::SpillMode;

const BATCH_SIZES: [usize; 4] = [1, 16, 256, 4096];
const DEFAULT_TASKS_PER_SIZE: usize = 16_384;
/// The overlap self-check: async over barriered at batch 4096, on
/// hosts with enough cores for the driver and the scheduler to overlap.
const OVERLAP_GAIN: f64 = 1.5;
const OVERLAP_MIN_CORES: usize = 4;
/// The floors at batch 4096: the async submission path must clear this
/// rate even on a single core (the PR-6 curve sat well above it), and
/// the segment group commit must keep kv locking amortized. A failure
/// is a submission hot-path regression even if every test is green.
const MIN_TASKS_PER_SEC: f64 = 400_000.0;
const MAX_KV_LOCKS_PER_TASK: f64 = 0.01;
/// The "rate rises with batch size" check compares two cells only when
/// each submitted at least this many batches.
const MIN_BATCHES_FOR_RATE: usize = 4;

/// What the driver does between batches.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Never waits.
    Async,
    /// Waits until the batch it just sent reads `Queued`.
    Barriered,
}

struct Measurement {
    batch: usize,
    total: usize,
    elapsed: Duration,
    rate: f64,
    kv_locks_per_task: f64,
    sched_msgs: usize,
}

fn main() {
    let tasks_per_size: usize = env_or("RTML_SUBMIT_TASKS", DEFAULT_TASKS_PER_SIZE);

    let reps: usize = env_or("RTML_SUBMIT_REPS", 3usize).max(1);

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // Interleave repetitions across batch sizes and arms (rep-major)
    // so a transient noisy window on the host degrades one rep of every
    // cell rather than every rep of one cell — the min-of-N estimator
    // then stays comparable across the whole grid.
    let mut best_async: Vec<Option<Measurement>> = (0..BATCH_SIZES.len()).map(|_| None).collect();
    let mut best_barriered: Vec<Option<Measurement>> =
        (0..BATCH_SIZES.len()).map(|_| None).collect();
    for _ in 0..reps {
        for (slot, &batch) in BATCH_SIZES.iter().enumerate() {
            for mode in [Mode::Async, Mode::Barriered] {
                let m = measure(batch, tasks_per_size, mode);
                let best = match mode {
                    Mode::Async => &mut best_async[slot],
                    Mode::Barriered => &mut best_barriered[slot],
                };
                if best.as_ref().is_none_or(|prev| m.elapsed < prev.elapsed) {
                    *best = Some(m);
                }
            }
        }
    }
    let async_arm: Vec<Measurement> = best_async
        .into_iter()
        .map(|m| m.expect("at least one repetition"))
        .collect();
    let barriered: Vec<Measurement> = best_barriered
        .into_iter()
        .map(|m| m.expect("at least one repetition"))
        .collect();

    let base_rate = async_arm[0].rate;
    let rows: Vec<Vec<String>> = async_arm
        .iter()
        .zip(&barriered)
        .map(|(p, s)| {
            vec![
                p.batch.to_string(),
                p.total.to_string(),
                format!("{:.0}", p.rate),
                format!("{:.0}", s.rate),
                format!("{:.2}x", p.rate / s.rate),
                format!("{:.1}x", p.rate / base_rate),
                format!("{:.3}", p.kv_locks_per_task),
                p.sched_msgs.to_string(),
            ]
        })
        .collect();

    print_table(
        &format!("E10: submission throughput, async vs barriered ({cores} core(s))"),
        &[
            "batch",
            "tasks",
            "async/s",
            "barriered/s",
            "overlap gain",
            "vs batch=1",
            "kv locks/task",
            "sched msgs",
        ],
        &rows,
    );
    println!(
        "\n(time from first submit until the local scheduler has queued every\n task; execution is gated out. Barriered = the driver waits for each\n batch to read Queued before sending the next — no driver/ingest\n overlap; the cluster is configured the same in both arms. Overlap\n gain on a 1-core host is expected to hover near 1x: there is no\n second core for the scheduler to run on)"
    );

    let a4096 = async_arm.iter().find(|m| m.batch == 4096).unwrap();
    let b4096 = barriered.iter().find(|m| m.batch == 4096).unwrap();
    let gain = a4096.rate / b4096.rate;

    // The measured ratio and the core count it was measured on are
    // printed and written before any check can fail.
    let json = render_json(tasks_per_size, cores, &async_arm, &barriered);
    let path = "BENCH_submit_throughput.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\nfailed to write {path}: {e}"),
    }
    println!(
        "batch=4096: async {:.0} tasks/s vs barriered {:.0} tasks/s ({gain:.2}x) on {cores} core(s); the >= {OVERLAP_GAIN}x overlap check {} (needs >= {OVERLAP_MIN_CORES} cores)",
        a4096.rate,
        b4096.rate,
        if cores >= OVERLAP_MIN_CORES { "is armed" } else { "is not armed" },
    );

    // Self-checks. The structural claims hold everywhere; the overlap
    // claim only where the hardware can express it.
    assert!(
        a4096.kv_locks_per_task <= MAX_KV_LOCKS_PER_TASK,
        "segment commit must keep batch-4096 ingest at or under {MAX_KV_LOCKS_PER_TASK} kv locks/task (got {:.4})",
        a4096.kv_locks_per_task
    );
    assert!(
        a4096.rate >= MIN_TASKS_PER_SEC,
        "batch-4096 submission throughput regressed: {:.0} tasks/sec < {MIN_TASKS_PER_SEC:.0} floor",
        a4096.rate
    );
    // Rising with batch size, with a small tolerance at the top of the
    // curve: on a 1-core host the 256→4096 step is already deep into
    // diminishing returns and OS scheduling noise between the driver
    // and scheduler threads can wiggle it a few percent either way.
    // A cell of fewer than `MIN_BATCHES_FOR_RATE` batches times a
    // message or two, not a rate, so a step that touches one is skipped.
    for w in async_arm.windows(2) {
        if w.iter()
            .all(|m| tasks_per_size / m.batch >= MIN_BATCHES_FOR_RATE)
        {
            assert!(
                w[1].rate > w[0].rate * 0.9,
                "async throughput must rise with batch size ({} -> {}: {:.0} -> {:.0} tasks/s)",
                w[0].batch,
                w[1].batch,
                w[0].rate,
                w[1].rate
            );
        } else {
            println!(
                "batch {} -> {}: rise not checked, under {MIN_BATCHES_FOR_RATE} batches at {tasks_per_size} tasks per size",
                w[0].batch, w[1].batch
            );
        }
    }
    if cores >= OVERLAP_MIN_CORES {
        assert!(
            gain >= OVERLAP_GAIN,
            "on a {cores}-core host, async submission must be >={OVERLAP_GAIN}x barriered at batch 4096 (got {gain:.2}x)"
        );
    }
}

/// Runs one (batch size, mode) cell on a fresh cluster so queue depths
/// start identical. Event logging stays ON (it is part of the per-task
/// cost story); the retention cap keeps the run's control-plane memory
/// bounded.
fn measure(batch: usize, tasks_per_size: usize, mode: Mode) -> Measurement {
    let cluster = Cluster::start(
        ClusterConfig {
            spill: SpillMode::NeverSpill,
            ..ClusterConfig::local(1, 2)
        }
        .with_event_log_retention(4096),
    )
    .unwrap();
    let gated = cluster.register_fn2("gated_submit", |x: u64, _gate: u64| Ok(x));
    let driver = cluster.driver();

    // A dependency that never seals: every task waits on it, so nothing
    // executes and the measurement covers submit + scheduler ingest.
    let never = TaskId::driver_root(DriverId::from_index(u64::MAX))
        .child(0)
        .return_object(0);
    // Marshal every request before the clock starts: argument encoding
    // is the benchmark client's cost, not the submission machinery's.
    // One payload is encoded once and its `Bytes` handle cloned per
    // task — the system still moves one value arg per task.
    let payload = rtml_common::codec::encode_to_bytes(&0u64);
    let request = || TaskRequest {
        function: gated.id(),
        args: vec![ArgSpec::Value(payload.clone()), ArgSpec::ObjectRef(never)],
        num_returns: 1,
        resources: Resources::cpu(1.0),
    };

    // Round the budget up to whole batches.
    let batches = tasks_per_size.div_ceil(batch);
    let total = batches * batch;
    let mut prebuilt: Vec<Vec<TaskRequest>> = (0..batches)
        .map(|_| (0..batch).map(|_| request()).collect())
        .collect();

    let locks_before = driver.services().kv.stats().total_locks();
    let start = Instant::now();
    let mut last_returns = Vec::new();
    if batch == 1 {
        for requests in prebuilt.drain(..) {
            for r in requests {
                last_returns = driver
                    .submit_raw(r.function, r.args, r.num_returns, r.resources)
                    .unwrap();
                if mode == Mode::Barriered {
                    wait_queued(&driver, &last_returns);
                }
            }
        }
    } else {
        for requests in prebuilt.drain(..) {
            let mut results = driver.submit_raw_batch(requests).unwrap();
            last_returns = results.pop().unwrap();
            if mode == Mode::Barriered {
                // The per-batch drain barrier that defines this arm:
                // submission resumes only after this batch is fully
                // ingested.
                wait_queued(&driver, &last_returns);
            }
        }
    }
    // The async arm's single drain barrier (a second wait in the
    // barriered arm is satisfied instantly). The scheduler ingests
    // batches in arrival order, so once the final task is queued the
    // whole budget has been ingested.
    wait_queued(&driver, &last_returns);
    let elapsed = start.elapsed();
    let locks = driver.services().kv.stats().total_locks() - locks_before;
    cluster.shutdown();
    Measurement {
        batch,
        total,
        elapsed,
        rate: total as f64 / elapsed.as_secs_f64(),
        kv_locks_per_task: locks as f64 / total as f64,
        sched_msgs: batches,
    }
}

/// Blocks until the task producing `returns[0]` reaches `Queued` —
/// event-driven (kv subscription), not a poll loop, so the barrier
/// itself does not steal scheduler cycles on small hosts.
fn wait_queued(driver: &Driver, returns: &[rtml_common::ids::ObjectId]) {
    let task = returns[0]
        .producer_task()
        .expect("return objects embed their producer");
    let (current, stream) = driver.services().tasks.subscribe_state(task);
    if matches!(current, Some(TaskState::Queued(_))) {
        return;
    }
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        match stream.recv_timeout(Duration::from_secs(1)) {
            Some(TaskState::Queued(_)) => return,
            _ => assert!(Instant::now() < deadline, "ingest never completed"),
        }
    }
}

/// Hand-rolled JSON: two decimal places, stable key order, no deps.
fn render_json(
    tasks_per_size: usize,
    cores: usize,
    async_arm: &[Measurement],
    barriered: &[Measurement],
) -> String {
    let base_rate = async_arm[0].rate;
    let field = |set: &[Measurement], f: &dyn Fn(&Measurement) -> String| -> String {
        set.iter()
            .map(|m| format!("\"{}\": {}", m.batch, f(m)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"tasks_per_size\": {tasks_per_size},\n"));
    out.push_str(&format!("  \"cores\": {cores},\n"));
    out.push_str("  \"modes\": [\"async\", \"barriered\"],\n");
    out.push_str("  \"batch_sizes\": [");
    out.push_str(
        &async_arm
            .iter()
            .map(|m| m.batch.to_string())
            .collect::<Vec<_>>()
            .join(", "),
    );
    out.push_str("],\n  \"tasks_per_sec\": {");
    out.push_str(&field(async_arm, &|m| format!("{:.2}", m.rate)));
    out.push_str("},\n  \"serialized_tasks_per_sec\": {");
    out.push_str(&field(barriered, &|m| format!("{:.2}", m.rate)));
    out.push_str("},\n  \"overlap_speedup\": {");
    let overlap: Vec<String> = async_arm
        .iter()
        .zip(barriered)
        .map(|(p, s)| format!("\"{}\": {:.2}", p.batch, p.rate / s.rate))
        .collect();
    out.push_str(&overlap.join(", "));
    out.push_str("},\n  \"speedup_vs_batch_1\": {");
    out.push_str(&field(async_arm, &|m| format!("{:.2}", m.rate / base_rate)));
    out.push_str("},\n  \"kv_locks_per_task\": {");
    out.push_str(&field(async_arm, &|m| {
        format!("{:.3}", m.kv_locks_per_task)
    }));
    out.push_str("},\n  \"sched_messages\": {");
    out.push_str(&field(async_arm, &|m| m.sched_msgs.to_string()));
    out.push_str("}\n}\n");
    out
}
