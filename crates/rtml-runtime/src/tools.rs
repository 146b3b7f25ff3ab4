//! Cluster-state inspection: the textual equivalent of the paper's
//! "Web UI / Debugging Tools / Error Diagnosis" box (Figure 3, R7).
//!
//! The task, function and control-plane sections read only the
//! centralized control plane — which is the paper's point: because all
//! system state lives in one (logically-centralized) place, tooling
//! needs no cooperation from the data-path components. The node lines
//! read each node's last load report where its scheduler hands it as
//! it publishes: the health tracker.

use std::fmt::Write as _;

use rtml_common::task::TaskState;

use crate::services::Services;

/// A point-in-time textual dump of cluster state, assembled from
/// control-plane reads and the health tracker's load reports.
pub fn cluster_state(services: &Services) -> String {
    let mut out = String::new();

    // --- nodes and load ------------------------------------------------
    let _ = writeln!(out, "=== nodes ===");
    let nodes = services.alive_nodes();
    if nodes.is_empty() {
        let _ = writeln!(out, "(no nodes alive)");
    }
    for node in &nodes {
        match services.health.report(*node) {
            Some(load) => {
                let _ = writeln!(
                    out,
                    "{node}: ready {} | waiting {} | running {} | idle workers {} | avail {} / {}",
                    load.ready,
                    load.waiting,
                    load.running,
                    load.idle_workers,
                    load.available,
                    load.total,
                );
            }
            None => {
                let _ = writeln!(out, "{node}: (no load report yet)");
            }
        }
    }

    // --- tasks ----------------------------------------------------------
    let census = services.tasks.state_census();
    let _ = writeln!(out, "\n=== tasks ===");
    let _ = writeln!(
        out,
        "submitted {} | queued {} | spilled {} | running {} | finished {} | failed {} | lost {}",
        census.submitted,
        census.queued,
        census.spilled,
        census.running,
        census.finished,
        census.failed,
        census.lost,
    );

    // --- stuck / failed detail (error diagnosis) ------------------------
    let mut problems: Vec<String> = Vec::new();
    for (task, state) in services.tasks.scan_states() {
        match state {
            TaskState::Failed(message) => {
                let name = services
                    .tasks
                    .get_spec(task)
                    .and_then(|s| services.registry.name_of(s.function))
                    .unwrap_or_else(|| "?".into());
                problems.push(format!("{task} [{name}] FAILED: {message}"));
            }
            TaskState::Lost => problems.push(format!("{task} LOST (reconstructible)")),
            _ => {}
        }
    }
    if !problems.is_empty() {
        let _ = writeln!(out, "\n=== diagnosis ===");
        problems.sort();
        for p in problems.iter().take(20) {
            let _ = writeln!(out, "{p}");
        }
        if problems.len() > 20 {
            let _ = writeln!(out, "... and {} more", problems.len() - 20);
        }
    }

    // --- functions --------------------------------------------------------
    let mut functions = services.functions.list();
    functions.sort_by(|a, b| a.name.cmp(&b.name));
    let _ = writeln!(out, "\n=== functions ===");
    for f in functions {
        let _ = writeln!(out, "{} (arity {}) -> {}", f.name, f.arity, f.id);
    }

    // --- control plane ----------------------------------------------------
    let stats = services.kv.stats();
    let _ = writeln!(out, "\n=== control plane ===");
    let _ = writeln!(
        out,
        "{} shards | {} keys | {} ops | imbalance {:.2}",
        stats.ops_per_shard.len(),
        services.kv.len(),
        stats.total_ops(),
        stats.imbalance(),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig};

    #[test]
    fn dump_covers_sections() {
        let cluster = Cluster::start(ClusterConfig::local(2, 2)).unwrap();
        let f = cluster.register_fn1("tool_echo", |x: i64| Ok(x));
        let boom = cluster.register_fn0("tool_boom", || -> rtml_common::error::Result<i64> {
            Err(rtml_common::error::Error::InvalidArgument("nope".into()))
        });
        let driver = cluster.driver();
        let ok = driver.submit1(&f, 1).unwrap();
        let bad = driver.submit0(&boom).unwrap();
        let _ = driver.get(&ok);
        let _ = driver.get(&bad);

        let dump = cluster_state(driver.services());
        assert!(dump.contains("=== nodes ==="), "{dump}");
        assert!(dump.contains("=== tasks ==="), "{dump}");
        assert!(dump.contains("finished"), "{dump}");
        assert!(dump.contains("=== diagnosis ==="), "{dump}");
        assert!(dump.contains("FAILED"), "{dump}");
        assert!(dump.contains("tool_echo"), "{dump}");
        assert!(dump.contains("=== control plane ==="), "{dump}");
        cluster.shutdown();
    }

    #[test]
    fn dump_on_empty_cluster_is_sane() {
        let cluster = Cluster::start(ClusterConfig::local(1, 1)).unwrap();
        let driver = cluster.driver();
        let dump = cluster_state(driver.services());
        assert!(dump.contains("N0"), "{dump}");
        cluster.shutdown();
    }
}
