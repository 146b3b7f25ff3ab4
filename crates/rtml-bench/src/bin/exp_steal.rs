//! E13 — the steal plane: skewed-burst makespan (R2/R3).
//!
//! The paper's R2/R3 (millisecond scheduling of millions of dynamically
//! created tasks) hold in aggregate only if no core idles while a
//! peer's ready queue is deep. This experiment builds the worst case
//! push-based balancing cannot fix: a burst of tasks all submitted to
//! node 0 under `SpillMode::NeverSpill`, so spillover — decided once,
//! at ingest — never moves anything. With stealing **off**, the burst
//! drains serially on node 0's two workers while six other cores idle.
//! With stealing **on**, the idle nodes' local schedulers see node 0's
//! kv-published backlog, pull ready tasks in batches over the fabric,
//! and the burst spreads to every core.
//!
//! Locality: each task consumes one of six 32 KiB blocks that live
//! *only* on the thief nodes, so the victim's grant scoring (resident-
//! dependency bytes on the thief, one batched `get_many` sweep per
//! request) should hand tasks to the node that already holds their
//! input — measured as the locality-hit ratio.
//!
//! Self-asserted structural wins (the acceptance criteria):
//! - tasks stolen > 0, and every steal moved as a batch;
//! - makespan improves ≥ `MIN_SPEEDUP`x vs stealing off;
//! - per-node busy time tightens (no node hogs the burst);
//! - checksums identical on/off — stealing moves *where tasks run*,
//!   never values.
//!
//! Run: `cargo run -p rtml-bench --bin exp_steal --release`
//!
//! Results land in `BENCH_steal.json`. `RTML_STEAL_TASKS` overrides the
//! burst size (CI smoke uses a small value).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rtml_bench::{env_or, print_table};
use rtml_common::ids::NodeId;
use rtml_net::LatencyModel;
use rtml_runtime::{Cluster, ClusterConfig, NodeConfig};
use rtml_sched::{SpillMode, StealConfig};

/// Cluster size: one victim (node 0, the burst target) + three thieves.
const NODES: usize = 4;
const WORKERS_PER_NODE: u32 = 2;
/// Simulated per-task work (threads sleep, so this parallelizes across
/// workers regardless of host core count).
const TASK_COST: Duration = Duration::from_millis(4);
/// Dependency blocks, seeded round-robin onto the thief nodes only.
const BLOCKS: usize = 6;
const BLOCK_BYTES: usize = 32 * 1024;
const DEFAULT_TASKS: usize = 64;
/// Makespan must improve at least this much with stealing on.
const MIN_SPEEDUP: f64 = 1.5;
/// With stealing on, no node may carry more than this share of the
/// total busy time (off devolves to 1.0: everything runs on node 0).
const MAX_BUSY_SHARE: f64 = 0.6;

fn fnv(bytes: &[u8], mut state: u64) -> u64 {
    for &b in bytes {
        state ^= b as u64;
        state = state.wrapping_mul(0x0000_0100_0000_01b3);
    }
    state
}

struct RunResult {
    stealing: bool,
    makespan: Duration,
    checksum: u64,
    attempts: u64,
    grants: u64,
    empty_grants: u64,
    timeouts: u64,
    stolen: u64,
    locality_hits: u64,
    locality_rate: f64,
    steal_to_run_p50_us: u64,
    busy_micros: BTreeMap<u32, u64>,
}

impl RunResult {
    fn max_busy_share(&self) -> f64 {
        let total: u64 = self.busy_micros.values().sum();
        let max = self.busy_micros.values().copied().max().unwrap_or(0);
        if total == 0 {
            return 0.0;
        }
        max as f64 / total as f64
    }
}

fn run(stealing_on: bool, tasks: usize) -> RunResult {
    let stealing = if stealing_on {
        StealConfig {
            enabled: true,
            min_backlog: 2,
            max_tasks: 8,
            timeout: Duration::from_millis(100),
        }
    } else {
        StealConfig::disabled()
    };
    let cluster = Cluster::start(
        ClusterConfig {
            nodes: (0..NODES)
                .map(|_| NodeConfig::cpu_only(WORKERS_PER_NODE))
                .collect(),
            // The skew trap: the burst lands on node 0 and push-based
            // balancing is forbidden from touching it.
            spill: SpillMode::NeverSpill,
            ..ClusterConfig::default()
        }
        .with_latency(LatencyModel::Constant(Duration::from_micros(200)))
        .with_stealing(stealing),
    )
    .unwrap();
    let services = cluster.services().clone();
    // The burst is gated behind a prerequisite task so all of it turns
    // *ready* at one instant — the deep queue a real skewed burst
    // presents — instead of trickling in at driver-submission speed.
    let gate = cluster.register_fn0("steal_gate", || {
        std::thread::sleep(Duration::from_millis(10));
        Ok(1u8)
    });
    let work = cluster.register_fn3("steal_work", move |i: u64, block: Vec<u8>, _gate: u8| {
        std::thread::sleep(TASK_COST);
        let out: Vec<u8> = block.iter().take(32).map(|&b| b ^ (i as u8)).collect();
        Ok(out)
    });
    let driver = cluster.driver();

    // Seed the dependency blocks, then migrate each so it lives ONLY on
    // a thief node (1 + d % 3): the burst's inputs are all remote to
    // the victim, and each thief already holds a third of them.
    let blocks: Vec<_> = (0..BLOCKS)
        .map(|d| {
            let payload: Vec<u8> = (0..BLOCK_BYTES)
                .map(|i| ((i + d * 31) % 251) as u8)
                .collect();
            let fut = driver.put(&payload).unwrap();
            let target = NodeId(1 + (d as u32) % (NODES as u32 - 1));
            let raw = services.store(NodeId(0)).unwrap().get(fut.id()).unwrap();
            services
                .store(target)
                .unwrap()
                .put(fut.id(), raw.clone())
                .unwrap();
            services
                .objects
                .add_location(fut.id(), target, raw.len() as u64);
            services.store(NodeId(0)).unwrap().delete(fut.id());
            services.objects.remove_location(fut.id(), NodeId(0));
            fut
        })
        .collect();

    let started = Instant::now();
    let open = driver.submit0(&gate).unwrap();
    let futs: Vec<_> = (0..tasks as u64)
        .map(|i| {
            driver
                .submit3(&work, i, &blocks[i as usize % BLOCKS], &open)
                .unwrap()
        })
        .collect();
    let results = driver.get_many(&futs).unwrap();
    let makespan = started.elapsed();

    let mut checksum = 0xcbf2_9ce4_8422_2325u64;
    for result in &results {
        checksum = fnv(result, checksum);
    }

    let report = cluster.profile();
    let mut busy_micros: BTreeMap<u32, u64> = BTreeMap::new();
    for task in &report.tasks {
        if let (Some(worker), Some(micros)) = (task.worker, task.exec_micros) {
            *busy_micros.entry(worker.node.0).or_insert(0) += micros;
        }
    }
    cluster.shutdown();
    let count = |name: &str| report.counters.get(name).unwrap();
    let stolen = count("steal.tasks_stolen");
    let locality_hits = count("steal.locality_hits");
    RunResult {
        stealing: stealing_on,
        makespan,
        checksum,
        attempts: count("steal.attempts"),
        grants: count("steal.grants"),
        empty_grants: count("steal.empty_grants"),
        timeouts: count("steal.timeouts"),
        stolen,
        locality_hits,
        locality_rate: if stolen == 0 {
            0.0
        } else {
            locality_hits as f64 / stolen as f64
        },
        steal_to_run_p50_us: count("steal.steal_to_run.p50") / 1_000,
        busy_micros,
    }
}

fn main() {
    let tasks: usize = env_or("RTML_STEAL_TASKS", DEFAULT_TASKS);

    let off = run(false, tasks);
    let on = run(true, tasks);

    let rows: Vec<Vec<String>> = [&off, &on]
        .iter()
        .map(|r| {
            vec![
                if r.stealing { "on" } else { "off" }.to_string(),
                format!("{:.1} ms", r.makespan.as_secs_f64() * 1e3),
                r.stolen.to_string(),
                format!("{}/{}", r.grants, r.attempts),
                format!("{:.2}", r.locality_rate),
                format!("{} µs", r.steal_to_run_p50_us),
                format!("{:.2}", r.max_busy_share()),
                r.busy_micros.len().to_string(),
            ]
        })
        .collect();
    print_table(
        &format!(
            "E13: pull-based work stealing ({tasks} tasks to node 0/{NODES}, NeverSpill, {}ms/task)",
            TASK_COST.as_millis()
        ),
        &[
            "stealing",
            "makespan",
            "stolen",
            "grants/attempts",
            "locality",
            "steal->run p50",
            "max busy share",
            "busy nodes",
        ],
        &rows,
    );

    // Structural self-asserts (the acceptance criteria).
    assert_eq!(
        off.checksum, on.checksum,
        "stealing must not change computed values"
    );
    assert!(on.stolen > 0, "no tasks were stolen");
    assert!(
        on.stolen as f64 / on.grants.max(1) as f64 >= 2.0,
        "steals must travel as batches, not single tasks: {} tasks / {} grants",
        on.stolen,
        on.grants
    );
    assert_eq!(off.stolen, 0, "stealing off must not steal");
    let speedup = off.makespan.as_secs_f64() / on.makespan.as_secs_f64();
    assert!(
        speedup >= MIN_SPEEDUP,
        "makespan must improve >= {MIN_SPEEDUP}x with stealing on, got {speedup:.2}x \
         ({:?} -> {:?})",
        off.makespan,
        on.makespan
    );
    assert!(
        on.busy_micros.len() > off.busy_micros.len(),
        "stealing must put more nodes to work: {:?} vs {:?}",
        off.busy_micros,
        on.busy_micros
    );
    assert!(
        on.max_busy_share() <= MAX_BUSY_SHARE,
        "busy time must spread (max share {:.2} > {MAX_BUSY_SHARE}): {:?}",
        on.max_busy_share(),
        on.busy_micros
    );
    assert!(
        on.max_busy_share() < off.max_busy_share(),
        "busy-time spread must tighten vs stealing off"
    );
    assert!(
        on.locality_hits > 0,
        "no stolen task found its dependency local — locality scoring inert"
    );
    println!(
        "\n(the skewed burst drained {speedup:.2}x faster with stealing on: {} of {tasks}\n tasks were pulled off node 0 in {} grant batches, {:.0}% of them landing on\n a thief that already held their input block; per-node busy share fell\n {:.2} -> {:.2}; checksums identical, so stealing changed where tasks ran\n and nothing else)",
        on.stolen,
        on.grants,
        on.locality_rate * 100.0,
        off.max_busy_share(),
        on.max_busy_share(),
    );

    let json = render_json(tasks, &off, &on, speedup);
    let path = "BENCH_steal.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\nfailed to write {path}: {e}"),
    }
}

/// Hand-rolled JSON: stable key order, no deps.
fn render_json(tasks: usize, off: &RunResult, on: &RunResult, speedup: f64) -> String {
    let side = |r: &RunResult| {
        let busy: Vec<String> = r
            .busy_micros
            .iter()
            .map(|(n, b)| format!("\"{n}\": {b}"))
            .collect();
        format!(
            "{{\"makespan_ms\": {:.2}, \"stolen\": {}, \"grants\": {}, \"attempts\": {}, \"empty_grants\": {}, \"timeouts\": {}, \"locality_hits\": {}, \"locality_rate\": {:.3}, \"steal_to_run_p50_micros\": {}, \"max_busy_share\": {:.3}, \"busy_micros\": {{{}}}}}",
            r.makespan.as_secs_f64() * 1e3,
            r.stolen,
            r.grants,
            r.attempts,
            r.empty_grants,
            r.timeouts,
            r.locality_hits,
            r.locality_rate,
            r.steal_to_run_p50_us,
            r.max_busy_share(),
            busy.join(", "),
        )
    };
    format!(
        "{{\n  \"tasks\": {tasks},\n  \"nodes\": {NODES},\n  \"workers_per_node\": {WORKERS_PER_NODE},\n  \"task_cost_ms\": {},\n  \"speedup\": {speedup:.2},\n  \"checksums_match\": {},\n  \"off\": {},\n  \"on\": {}\n}}\n",
        TASK_COST.as_millis(),
        off.checksum == on.checksum,
        side(off),
        side(on),
    )
}
