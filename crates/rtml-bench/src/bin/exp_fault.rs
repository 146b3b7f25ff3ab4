//! E9 — R6 transparent fault tolerance: correctness and cost of lineage
//! replay under injected failures.
//!
//! Runs the §4.2 RL workload three times: failure-free, with a worker
//! killed mid-run, and with a whole node killed mid-run. All three must
//! produce the bit-identical final policy; the table reports the time
//! and replay overhead.
//!
//! Run: `cargo run -p rtml-bench --bin exp_fault --release`

use std::time::Duration;

use rtml_bench::{fmt_duration, print_table};
use rtml_common::ids::{NodeId, WorkerId};
use rtml_runtime::{Cluster, ClusterConfig, NodeConfig};
use rtml_workloads::rl::{self, RlConfig, RlFuncs};

fn config() -> RlConfig {
    RlConfig {
        rollouts: 16,
        frames_per_task: 20,
        frame_cost: Duration::from_millis(2), // 40 ms sim tasks
        iterations: 4,
        policy_kernel_cost: Duration::from_millis(2),
        ..RlConfig::default()
    }
}

fn cluster() -> Cluster {
    Cluster::start(ClusterConfig {
        nodes: vec![NodeConfig::cpu_only(4), NodeConfig::cpu_only(4)],
        // Spill eagerly so both nodes hold work and results — the node
        // kill then destroys objects the driver still needs.
        spill: rtml_sched::SpillMode::Hybrid { queue_threshold: 1 },
        ..ClusterConfig::default()
    })
    .unwrap()
}

enum Failure {
    None,
    Worker,
    Node,
}

fn run_with(failure: Failure) -> (rtml_workloads::rl::RlResult, u64, usize) {
    let cluster = cluster();
    let funcs = RlFuncs::register(&cluster);
    let driver = cluster.driver();
    let cfg = config();

    let result = std::thread::scope(|scope| {
        let run = scope.spawn(|| rl::run_rtml(&cfg, &driver, &funcs, false).unwrap());
        match failure {
            Failure::None => {}
            Failure::Worker => {
                // Mid sim-stage: every worker is busy with a 40 ms task.
                std::thread::sleep(Duration::from_millis(60));
                let _ = cluster.kill_worker(WorkerId::new(NodeId(0), 1));
            }
            Failure::Node => {
                std::thread::sleep(Duration::from_millis(60));
                let _ = cluster.kill_node(NodeId(1));
            }
        }
        run.join().expect("run thread")
    });
    let reconstructions = cluster.reconstructions();
    let report = cluster.profile();
    let lost = report.workers_lost + report.nodes_lost;
    if std::env::var("RTML_DEBUG").is_ok() {
        let counters = cluster.counters();
        let count = |name: &str| counters.get(name).unwrap();
        eprintln!(
            "debug: spills={} placements={} parked={} replays={reconstructions} lost={lost}",
            count("global.spills"),
            count("global.placements"),
            count("global.parked"),
        );
    }
    cluster.shutdown();
    (result, reconstructions, lost)
}

fn main() {
    let (clean, _, _) = run_with(Failure::None);
    let (worker_kill, worker_replays, _) = run_with(Failure::Worker);
    let (node_kill, node_replays, _) = run_with(Failure::Node);

    assert_eq!(
        clean.checksum, worker_kill.checksum,
        "worker-kill run diverged"
    );
    assert_eq!(clean.checksum, node_kill.checksum, "node-kill run diverged");

    let overhead = |wall: Duration| {
        format!(
            "{:+.0}%",
            (wall.as_secs_f64() / clean.wall.as_secs_f64() - 1.0) * 100.0
        )
    };
    let rows = vec![
        vec![
            "no failures".into(),
            fmt_duration(clean.wall),
            "-".into(),
            "0".into(),
            format!("{:016x}", clean.checksum),
        ],
        vec![
            "worker killed mid-run".into(),
            fmt_duration(worker_kill.wall),
            overhead(worker_kill.wall),
            worker_replays.to_string(),
            format!("{:016x}", worker_kill.checksum),
        ],
        vec![
            "node killed mid-run".into(),
            fmt_duration(node_kill.wall),
            overhead(node_kill.wall),
            node_replays.to_string(),
            format!("{:016x}", node_kill.checksum),
        ],
    ];
    print_table(
        "E9: fault tolerance — RL workload (4 iters x 16 rollouts of 40 ms), failures at t=60 ms",
        &[
            "scenario",
            "wall",
            "overhead",
            "lineage replays",
            "final policy checksum",
        ],
        &rows,
    );
    println!(
        "\n(all three checksums identical: deterministic lineage replay makes\n failures invisible to the application — the paper's R6. Replay\n count shows the recovery work actually performed.)"
    );
}
