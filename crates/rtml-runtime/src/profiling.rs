//! Profiling and debugging tools over the event log (requirement R7).
//!
//! The paper's Figure 3 attaches profiling, debugging, and error-
//! diagnosis tools to the centralized control state. This module is that
//! box: it folds the event log into per-task timelines, summarizes
//! scheduling latency, and exports a Chrome-trace JSON
//! (`chrome://tracing` / Perfetto) of the whole run.

use rtml_common::collections::{IdMap, IdSet};
use rtml_common::event::{Event, EventKind};
use rtml_common::ids::{NodeId, TaskId, WorkerId};
use rtml_common::metrics::{fmt_nanos, Histogram, MetricsRegistry};

/// Per-task timeline assembled from the event log.
#[derive(Clone, Debug, Default)]
pub struct TaskProfile {
    /// Task identity.
    pub task: Option<TaskId>,
    /// When the task was submitted (nanos since epoch).
    pub submitted: Option<u64>,
    /// When a local scheduler queued it.
    pub queued: Option<u64>,
    /// The node whose scheduler queued it.
    pub queued_node: Option<NodeId>,
    /// Whether it took the spillover path.
    pub spilled: bool,
    /// When the global scheduler placed it (spilled tasks only).
    pub placed: Option<u64>,
    /// Where the global scheduler placed it.
    pub placed_node: Option<NodeId>,
    /// When a worker started it.
    pub started: Option<u64>,
    /// When it finished.
    pub finished: Option<u64>,
    /// Executor-measured run time in microseconds.
    pub exec_micros: Option<u64>,
    /// The worker that ran it.
    pub worker: Option<WorkerId>,
    /// Whether it failed.
    pub failed: bool,
    /// Reconstruction attempts observed.
    pub reconstructions: u32,
}

impl TaskProfile {
    /// Submit→start latency (the system overhead the paper's §4.1
    /// microbenchmarks measure), if both endpoints were recorded.
    pub fn scheduling_latency_nanos(&self) -> Option<u64> {
        Some(self.started?.saturating_sub(self.submitted?))
    }

    /// Queue→start (dispatch-to-run) latency: how long the task sat on
    /// its local scheduler between being queued and starting on a
    /// worker. For tasks with remote dependencies this includes the
    /// transfer wait — the quantity dispatch-time prefetch shrinks by
    /// overlapping transfer with queueing.
    pub fn dispatch_latency_nanos(&self) -> Option<u64> {
        Some(self.started?.saturating_sub(self.queued?))
    }
}

/// One plane-operation span folded from the event log. The emitting
/// events carry a duration and are stamped at span *end*, so the span
/// runs backwards from `end_nanos`.
#[derive(Clone, Debug)]
pub struct PlaneSpan {
    /// Which plane: `"control"`, `"ingest"`, `"placement"` or
    /// `"transfer"`.
    pub plane: &'static str,
    /// The node the span is attributed to (the receiver for transfers).
    pub node: NodeId,
    /// When the operation completed (nanos since epoch).
    pub end_nanos: u64,
    /// How long it took.
    pub micros: u64,
    /// Short human label ("segment 4096", "ingest batch", ...).
    pub label: String,
    /// Structured payload, rendered as Chrome-trace args.
    pub args: Vec<(&'static str, u64)>,
}

impl PlaneSpan {
    /// When the operation began.
    pub fn start_nanos(&self) -> u64 {
        self.end_nanos
            .saturating_sub(self.micros.saturating_mul(1_000))
    }
}

/// A point incident worth a marker on the timeline: task failures,
/// lineage reconstructions, node losses.
#[derive(Clone, Debug)]
pub struct Incident {
    /// When it happened (nanos since epoch).
    pub at_nanos: u64,
    /// `"task_failed"`, `"task_reconstructed"`, or `"node_lost"`.
    pub kind: &'static str,
    /// What it happened to (task or node).
    pub label: String,
    /// The node involved, when the event names one.
    pub node: Option<NodeId>,
}

/// A digest of one run's event log.
#[derive(Debug, Default)]
pub struct ProfileReport {
    /// Per-task timelines, ordered by submission time.
    pub tasks: Vec<TaskProfile>,
    /// Cross-node transfers completed.
    pub transfers: usize,
    /// Objects evicted.
    pub evictions: usize,
    /// Objects sealed.
    pub seals: usize,
    /// Workers lost.
    pub workers_lost: usize,
    /// Nodes lost.
    pub nodes_lost: usize,
    /// Dependencies proactively requested at task-queue time.
    pub prefetches_issued: usize,
    /// Prefetched dependencies that subsequently arrived on the
    /// requesting node (the transfer completed).
    pub prefetch_hits: usize,
    /// The cluster's live counters, read by their registered names
    /// ([`crate::Cluster::counters`], attached by
    /// [`crate::Cluster::profile`]; empty for raw event folds).
    pub counters: MetricsRegistry,
    /// Plane-operation spans (segment commits, placement batches, batch
    /// ingests, transfers), in log order.
    pub spans: Vec<PlaneSpan>,
    /// Failures, reconstructions, and node losses, in log order.
    pub incidents: Vec<Incident>,
    /// Event records the bounded log dropped to stay within retention
    /// (populated by [`crate::Cluster::profile`]; zero for raw event
    /// folds). When nonzero the report is partial: timelines may be
    /// missing their oldest edges.
    pub dropped_records: u64,
    /// Events killed nodes had buffered and never flushed to the log
    /// (populated by [`crate::Cluster::profile`]; zero for raw event
    /// folds). When nonzero the report is partial: those nodes'
    /// timelines end early.
    pub lost_records: u64,
    /// Whether retention dropped anything or a node's death lost
    /// anything (`dropped_records + lost_records > 0`).
    pub partial: bool,
}

impl ProfileReport {
    /// Folds a (time-sorted) event stream into a report.
    pub fn from_events(events: &[Event]) -> ProfileReport {
        let mut by_task: IdMap<TaskId, TaskProfile> = IdMap::default();
        let mut report = ProfileReport::default();
        let mut prefetched: IdSet<(rtml_common::ids::ObjectId, rtml_common::ids::NodeId)> =
            IdSet::default();
        let mut fed_by: IdMap<(rtml_common::ids::ObjectId, NodeId), NodeId> = IdMap::default();
        for event in events {
            match &event.kind {
                EventKind::ObjectSealed { .. } => report.seals += 1,
                EventKind::ObjectEvicted { .. } => report.evictions += 1,
                EventKind::TransferStarted { object, from, to } => {
                    fed_by.insert((*object, *to), *from);
                }
                EventKind::TransferFinished { object, to, micros } => {
                    report.transfers += 1;
                    if prefetched.remove(&(*object, *to)) {
                        report.prefetch_hits += 1;
                    }
                    // Who fed the bytes — the holder, or a relay still
                    // receiving them itself: following the labels back
                    // from node to node reads off a relay chain.
                    let from = fed_by.remove(&(*object, *to));
                    report.spans.push(PlaneSpan {
                        plane: "transfer",
                        node: *to,
                        end_nanos: event.at_nanos,
                        micros: *micros,
                        label: match from {
                            Some(from) => format!("{object} from node-{}", from.0),
                            None => format!("{object}"),
                        },
                        args: from
                            .map(|from| ("from", u64::from(from.0)))
                            .into_iter()
                            .collect(),
                    });
                }
                EventKind::PrefetchIssued { object, node } => {
                    report.prefetches_issued += 1;
                    prefetched.insert((*object, *node));
                }
                EventKind::WorkerLost { .. } => report.workers_lost += 1,
                EventKind::NodeLost { node } => {
                    report.nodes_lost += 1;
                    report.incidents.push(Incident {
                        at_nanos: event.at_nanos,
                        kind: "node_lost",
                        label: format!("node-{}", node.0),
                        node: Some(*node),
                    });
                }
                EventKind::SpecSegmentCommitted {
                    node,
                    seq,
                    tasks,
                    micros,
                } => report.spans.push(PlaneSpan {
                    plane: "control",
                    node: *node,
                    end_nanos: event.at_nanos,
                    micros: *micros,
                    label: format!("segment {seq}"),
                    args: vec![("tasks", u64::from(*tasks)), ("seq", *seq)],
                }),
                EventKind::PlacementBatch {
                    node,
                    tasks,
                    micros,
                } => report.spans.push(PlaneSpan {
                    plane: "placement",
                    node: *node,
                    end_nanos: event.at_nanos,
                    micros: *micros,
                    label: String::from("place batch"),
                    args: vec![("tasks", u64::from(*tasks))],
                }),
                EventKind::BatchIngested {
                    node,
                    tasks,
                    micros,
                } => report.spans.push(PlaneSpan {
                    plane: "ingest",
                    node: *node,
                    end_nanos: event.at_nanos,
                    micros: *micros,
                    label: String::from("ingest batch"),
                    args: vec![("tasks", u64::from(*tasks))],
                }),
                _ => {}
            }
            let Some(task) = event.kind.task() else {
                continue;
            };
            let profile = by_task.entry(task).or_default();
            profile.task = Some(task);
            match &event.kind {
                EventKind::TaskSubmitted { .. } => {
                    profile.submitted.get_or_insert(event.at_nanos);
                }
                EventKind::TaskQueuedLocal { node, .. } if profile.queued.is_none() => {
                    profile.queued = Some(event.at_nanos);
                    profile.queued_node = Some(*node);
                }
                EventKind::TaskSpilled { .. } => profile.spilled = true,
                EventKind::TaskPlaced { node, .. } if profile.placed.is_none() => {
                    profile.placed = Some(event.at_nanos);
                    profile.placed_node = Some(*node);
                }
                EventKind::TaskStarted { worker, .. } => {
                    profile.started.get_or_insert(event.at_nanos);
                    profile.worker = Some(*worker);
                }
                EventKind::TaskFinished { micros, .. } => {
                    profile.finished = Some(event.at_nanos);
                    profile.exec_micros = Some(*micros);
                }
                EventKind::TaskFailed { .. } => {
                    profile.failed = true;
                    report.incidents.push(Incident {
                        at_nanos: event.at_nanos,
                        kind: "task_failed",
                        label: format!("{task}"),
                        node: None,
                    });
                }
                EventKind::TaskReconstructed { .. } => {
                    profile.reconstructions += 1;
                    report.incidents.push(Incident {
                        at_nanos: event.at_nanos,
                        kind: "task_reconstructed",
                        label: format!("{task}"),
                        node: None,
                    });
                }
                _ => {}
            }
        }
        let mut tasks: Vec<TaskProfile> = by_task.into_values().collect();
        tasks.sort_by_key(|t| t.submitted.unwrap_or(u64::MAX));
        report.tasks = tasks;
        report
    }

    /// Histogram of submit→start scheduling latency.
    pub fn scheduling_latency(&self) -> Histogram {
        let hist = Histogram::new();
        for task in &self.tasks {
            if let Some(nanos) = task.scheduling_latency_nanos() {
                hist.record(nanos);
            }
        }
        hist
    }

    /// Histogram of queue→start (dispatch-to-run) latency — the window
    /// dispatch-time prefetch shrinks for remote-dependency tasks.
    pub fn dispatch_latency(&self) -> Histogram {
        let hist = Histogram::new();
        for task in &self.tasks {
            if let Some(nanos) = task.dispatch_latency_nanos() {
                hist.record(nanos);
            }
        }
        hist
    }

    /// Fraction of issued prefetches whose transfer completed on the
    /// requesting node (1.0 when every prefetch landed).
    pub fn prefetch_hit_rate(&self) -> f64 {
        if self.prefetches_issued == 0 {
            return 0.0;
        }
        self.prefetch_hits as f64 / self.prefetches_issued as f64
    }

    /// Number of tasks that took the spill path.
    pub fn spilled_count(&self) -> usize {
        self.tasks.iter().filter(|t| t.spilled).count()
    }

    /// Number of failed tasks.
    pub fn failed_count(&self) -> usize {
        self.tasks.iter().filter(|t| t.failed).count()
    }

    /// Human-readable multi-line summary.
    pub fn summary(&self) -> String {
        let latency = self.scheduling_latency().snapshot();
        let count = |name: &str| self.counters.get(name).unwrap_or(0);
        let retention = if self.partial {
            format!(
                "\nevent log: PARTIAL — {} records dropped by retention, {} lost with killed nodes; timeline edges may be missing",
                self.dropped_records, self.lost_records
            )
        } else {
            String::new()
        };
        format!(
            "tasks: {} ({} spilled, {} failed)\n\
             scheduling latency: p50 {} / p99 {} / max {}\n\
             objects sealed: {}, transfers: {}, evictions: {}\n\
             prefetch: {} issued, {} hits, {} skipped (capacity), {} deferred (priority); duplicates suppressed: {}\n\
             results pushed on seal: {} sent, {} received, {} pulled after the wait\n\
             failures injected: {} workers, {} nodes\n\
             chaos: {} drops, {} dups, {} delay spikes, {} gray injected; {} replays deferred{retention}",
            self.tasks.len(),
            self.spilled_count(),
            self.failed_count(),
            fmt_nanos(latency.p50()),
            fmt_nanos(latency.p99()),
            fmt_nanos(latency.max()),
            self.seals,
            self.transfers,
            self.evictions,
            self.prefetches_issued,
            self.prefetch_hits,
            count("sched.prefetch_skipped_capacity"),
            count("sched.prefetch_deferred_priority"),
            count("fetch.duplicates_suppressed"),
            count("transfer.pushed"),
            count("fetch.pushes_received"),
            count("objects.late_pushes"),
            self.workers_lost,
            self.nodes_lost,
            count("fabric.injected_drops"),
            count("fabric.injected_dups"),
            count("fabric.injected_delays"),
            count("fabric.injected_gray"),
            count("recon.deferred"),
        )
    }

    /// Chrome-trace JSON (the "trace event format"), loadable in
    /// `chrome://tracing` or Perfetto:
    ///
    /// - one complete (`ph:"X"`) slice per executed task, node as pid
    ///   and worker as tid — tasks whose start was never recorded (or
    ///   whose `TaskStarted` fell to retention) are skipped rather than
    ///   invented onto a fake worker;
    /// - per-plane duration slices on dedicated lanes (tid 1000+, named
    ///   via thread-name metadata): segment commits, batch ingests,
    ///   placement batches, transfers;
    /// - flow arrows (`ph:"s"`/`"t"`/`"f"`) stitching each task's
    ///   submit → queue → place → start across nodes;
    /// - instant markers (`ph:"i"`) for failures, reconstructions, and
    ///   node losses.
    pub fn chrome_trace(&self) -> String {
        // Lane tids per plane, well above any real worker index.
        const LANES: [(&str, u32); 4] = [
            ("control", 1000),
            ("ingest", 1001),
            ("placement", 1002),
            ("transfer", 1004),
        ];
        let lane = |plane: &str| -> u32 {
            LANES
                .iter()
                .find(|(name, _)| *name == plane)
                .map(|(_, tid)| *tid)
                .expect("every span plane has a lane")
        };
        let mut records: Vec<String> = Vec::new();

        // Thread-name metadata for each (node, plane) lane in use.
        let mut lanes_used: Vec<(NodeId, &'static str)> = self
            .spans
            .iter()
            .map(|span| (span.node, span.plane))
            .collect();
        lanes_used.sort_by_key(|(node, plane)| (node.0, lane(plane)));
        lanes_used.dedup();
        for (node, plane) in &lanes_used {
            records.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\"args\":{{\"name\":\"{plane}\"}}}}",
                node.0,
                lane(plane),
            ));
        }

        // Task slices, with flow arrows stitching the journey. The flow
        // id is the task's index in the (submission-ordered) report.
        for (index, task) in self.tasks.iter().enumerate() {
            let Some(id) = task.task else { continue };
            let name = escape_json(&format!("{id}"));
            let Some(started) = task.started else {
                continue;
            };
            let Some(worker) = task.worker else {
                continue;
            };
            let finished = task.finished.unwrap_or(started);
            records.push(format!(
                "{{\"name\":\"{name}\",\"cat\":\"task\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{}}}",
                started / 1_000,
                (finished.saturating_sub(started)) / 1_000,
                worker.node.0,
                worker.index,
            ));
            // Flow: start at submit (anchored on the queueing node's
            // control lane — TaskSubmitted does not name one), step at
            // queue, step at place, bind (`bp:"e"`) into the
            // task slice at start.
            let anchor = task.queued_node.unwrap_or(worker.node);
            let mut flow = |ph: &str, ts: u64, pid: u32, tid: u32, extra: &str| {
                records.push(format!(
                    "{{\"name\":\"{name}\",\"cat\":\"flow\",\"ph\":\"{ph}\",\"id\":{index},\"ts\":{},\"pid\":{pid},\"tid\":{tid}{extra}}}",
                    ts / 1_000,
                ));
            };
            if let Some(submitted) = task.submitted {
                flow("s", submitted, anchor.0, lane("control"), "");
            }
            if let Some(queued) = task.queued {
                flow("t", queued, anchor.0, lane("ingest"), "");
            }
            if let (Some(placed), Some(node)) = (task.placed, task.placed_node) {
                flow("t", placed, node.0, lane("placement"), "");
            }
            flow("f", started, worker.node.0, worker.index, ",\"bp\":\"e\"");
        }

        // Plane spans on their lanes.
        for span in &self.spans {
            let mut args = String::new();
            for (key, value) in &span.args {
                if !args.is_empty() {
                    args.push(',');
                }
                args.push_str(&format!("\"{key}\":{value}"));
            }
            records.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\"args\":{{{args}}}}}",
                escape_json(&span.label),
                span.plane,
                span.start_nanos() / 1_000,
                span.micros,
                span.node.0,
                lane(span.plane),
            ));
        }

        // Instant markers for incidents (process scope when the event
        // names a node, global otherwise).
        for incident in &self.incidents {
            let (scope, pid) = match incident.node {
                Some(node) => ("p", node.0),
                None => ("g", 0),
            };
            records.push(format!(
                "{{\"name\":\"{}: {}\",\"cat\":\"incident\",\"ph\":\"i\",\"s\":\"{scope}\",\"ts\":{},\"pid\":{pid},\"tid\":0}}",
                incident.kind,
                escape_json(&incident.label),
                incident.at_nanos / 1_000,
            ));
        }

        let mut out = String::from("[");
        out.push_str(&records.join(","));
        out.push(']');
        out
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtml_common::event::Component;
    use rtml_common::ids::{DriverId, NodeId};

    fn task_events() -> Vec<Event> {
        let root = TaskId::driver_root(DriverId::from_index(0));
        let t = root.child(0);
        let w = WorkerId::new(NodeId(0), 1);
        vec![
            Event {
                at_nanos: 100,
                component: Component::Driver,
                kind: EventKind::TaskSubmitted { task: t },
            },
            Event {
                at_nanos: 150,
                component: Component::LocalScheduler,
                kind: EventKind::TaskQueuedLocal {
                    task: t,
                    node: NodeId(0),
                },
            },
            Event {
                at_nanos: 200,
                component: Component::Worker,
                kind: EventKind::TaskStarted { task: t, worker: w },
            },
            Event {
                at_nanos: 900,
                component: Component::ObjectStore,
                kind: EventKind::ObjectSealed {
                    object: t.return_object(0),
                    node: NodeId(0),
                    size: 8,
                },
            },
            Event {
                at_nanos: 1000,
                component: Component::Worker,
                kind: EventKind::TaskFinished {
                    task: t,
                    worker: w,
                    micros: 1,
                },
            },
        ]
    }

    #[test]
    fn folds_task_timeline() {
        let report = ProfileReport::from_events(&task_events());
        assert_eq!(report.tasks.len(), 1);
        let t = &report.tasks[0];
        assert_eq!(t.submitted, Some(100));
        assert_eq!(t.queued, Some(150));
        assert_eq!(t.started, Some(200));
        assert_eq!(t.finished, Some(1000));
        assert_eq!(t.scheduling_latency_nanos(), Some(100));
        assert!(!t.spilled);
        assert!(!t.failed);
        assert_eq!(report.seals, 1);
    }

    #[test]
    fn latency_histogram_counts_tasks() {
        let report = ProfileReport::from_events(&task_events());
        assert_eq!(report.scheduling_latency().count(), 1);
    }

    #[test]
    fn summary_is_readable() {
        let report = ProfileReport::from_events(&task_events());
        let s = report.summary();
        assert!(s.contains("tasks: 1"), "{s}");
    }

    #[test]
    fn chrome_trace_is_json_array() {
        let report = ProfileReport::from_events(&task_events());
        let json = report.chrome_trace();
        assert!(json.starts_with('['), "{json}");
        assert!(json.ends_with(']'));
        assert!(json.contains("\"ph\":\"X\""));
    }

    #[test]
    fn prefetch_events_fold_into_hit_counts() {
        let root = TaskId::driver_root(DriverId::from_index(0));
        let o1 = root.child(0).return_object(0);
        let o2 = root.child(1).return_object(0);
        let n = NodeId(2);
        let events = vec![
            Event {
                at_nanos: 1,
                component: Component::LocalScheduler,
                kind: EventKind::PrefetchIssued {
                    object: o1,
                    node: n,
                },
            },
            Event {
                at_nanos: 2,
                component: Component::LocalScheduler,
                kind: EventKind::PrefetchIssued {
                    object: o2,
                    node: n,
                },
            },
            // o1 lands on the requesting node, relayed by node 5; o2's
            // transfer completes on a different node (not a hit for n).
            Event {
                at_nanos: 2,
                component: Component::FetchAgent,
                kind: EventKind::TransferStarted {
                    object: o1,
                    from: NodeId(5),
                    to: n,
                },
            },
            Event {
                at_nanos: 3,
                component: Component::ObjectStore,
                kind: EventKind::TransferFinished {
                    object: o1,
                    to: n,
                    micros: 5,
                },
            },
            Event {
                at_nanos: 4,
                component: Component::ObjectStore,
                kind: EventKind::TransferFinished {
                    object: o2,
                    to: NodeId(9),
                    micros: 5,
                },
            },
        ];
        let report = ProfileReport::from_events(&events);
        assert_eq!(report.prefetches_issued, 2);
        assert_eq!(report.prefetch_hits, 1);
        assert!((report.prefetch_hit_rate() - 0.5).abs() < 1e-9);
        assert_eq!(report.transfers, 2);
        // A transfer span names who fed it, when the log says.
        let labels: Vec<&str> = report.spans.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, [format!("{o1} from node-5"), format!("{o2}")]);
    }

    #[test]
    fn dispatch_latency_measures_queue_to_start() {
        let report = ProfileReport::from_events(&task_events());
        assert_eq!(report.tasks[0].dispatch_latency_nanos(), Some(50));
        assert_eq!(report.dispatch_latency().count(), 1);
    }

    #[test]
    fn empty_report_is_sane() {
        let report = ProfileReport::from_events(&[]);
        assert!(report.tasks.is_empty());
        assert_eq!(report.scheduling_latency().count(), 0);
        assert_eq!(report.chrome_trace(), "[]");
    }

    #[test]
    fn escape_json_handles_specials() {
        assert_eq!(escape_json("plain"), "plain");
        assert_eq!(escape_json("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape_json("x\ny\t"), "x\\ny\\t");
        assert_eq!(escape_json("\u{01}"), "\\u0001");
    }

    #[test]
    fn chrome_trace_has_flows_and_no_fake_workers() {
        let root = TaskId::driver_root(DriverId::from_index(0));
        let started = root.child(0);
        let never_started = root.child(1);
        let w = WorkerId::new(NodeId(3), 7);
        let events = vec![
            Event {
                at_nanos: 100,
                component: Component::Driver,
                kind: EventKind::TaskSubmitted { task: started },
            },
            Event {
                at_nanos: 150,
                component: Component::LocalScheduler,
                kind: EventKind::TaskQueuedLocal {
                    task: started,
                    node: NodeId(3),
                },
            },
            Event {
                at_nanos: 200,
                component: Component::Worker,
                kind: EventKind::TaskStarted {
                    task: started,
                    worker: w,
                },
            },
            Event {
                at_nanos: 900,
                component: Component::Worker,
                kind: EventKind::TaskFinished {
                    task: started,
                    worker: w,
                    micros: 1,
                },
            },
            // Submitted but never started (or its start fell to
            // retention): must not appear as a slice on worker (0,0).
            Event {
                at_nanos: 120,
                component: Component::Driver,
                kind: EventKind::TaskSubmitted {
                    task: never_started,
                },
            },
        ];
        let report = ProfileReport::from_events(&events);
        let json = report.chrome_trace();
        assert!(json.contains("\"ph\":\"s\""), "{json}");
        assert!(json.contains("\"ph\":\"f\""), "{json}");
        assert!(json.contains("\"bp\":\"e\""), "{json}");
        assert!(json.contains("\"pid\":3,\"tid\":7"), "{json}");
        assert!(
            !json.contains(&format!("\"name\":\"{never_started}\",\"cat\":\"task\"")),
            "workerless task must not be invented onto a fake worker: {json}"
        );
    }

    #[test]
    fn chrome_trace_renders_plane_spans_and_instants() {
        let root = TaskId::driver_root(DriverId::from_index(0));
        let t = root.child(0);
        let events = vec![
            Event {
                at_nanos: 5_000_000,
                component: Component::Driver,
                kind: EventKind::SpecSegmentCommitted {
                    node: NodeId(0),
                    seq: 1,
                    tasks: 64,
                    micros: 1_000,
                },
            },
            Event {
                at_nanos: 7_000_000,
                component: Component::LocalScheduler,
                kind: EventKind::BatchIngested {
                    node: NodeId(0),
                    tasks: 64,
                    micros: 500,
                },
            },
            Event {
                at_nanos: 8_000_000,
                component: Component::GlobalScheduler,
                kind: EventKind::PlacementBatch {
                    node: NodeId(0),
                    tasks: 32,
                    micros: 200,
                },
            },
            Event {
                at_nanos: 11_000_000,
                component: Component::Worker,
                kind: EventKind::TaskFailed {
                    task: t,
                    message: String::from("boom"),
                },
            },
            Event {
                at_nanos: 12_000_000,
                component: Component::Supervisor,
                kind: EventKind::NodeLost { node: NodeId(1) },
            },
        ];
        let report = ProfileReport::from_events(&events);
        let planes: std::collections::HashSet<&str> =
            report.spans.iter().map(|s| s.plane).collect();
        for plane in ["control", "ingest", "placement"] {
            assert!(planes.contains(plane), "missing plane {plane}");
        }
        assert_eq!(report.incidents.len(), 2);
        let json = report.chrome_trace();
        assert!(json.contains("\"name\":\"thread_name\""), "{json}");
        assert!(json.contains("\"name\":\"ingest batch\""), "{json}");
        assert!(json.contains("\"ph\":\"i\""), "{json}");
        assert!(json.contains("\"name\":\"segment 1\""), "{json}");
        assert!(json.contains("node_lost"), "{json}");
        // Span runs backwards from its end stamp: 5ms end, 1ms dur.
        assert!(json.contains("\"ts\":4000,\"dur\":1000"), "{json}");
    }

    #[test]
    fn summary_reports_retention_drops() {
        let mut report = ProfileReport::from_events(&task_events());
        assert!(!report.summary().contains("PARTIAL"));
        report.dropped_records = 17;
        report.partial = true;
        let s = report.summary();
        assert!(s.contains("PARTIAL"), "{s}");
        assert!(s.contains("17 records dropped"), "{s}");
    }
}
