//! Spillover policies: when does a local scheduler hand a task to the
//! global scheduler?
//!
//! The paper (§3.2.2): "Workers submit tasks to their local schedulers
//! which decide to either assign the tasks to other workers on the same
//! physical node or to 'spill over' the tasks to a global scheduler."
//! The decision rule is a knob: always spilling
//! recovers a fully-centralized scheduler (the Dask/CIEL architecture the
//! paper critiques); never spilling is pure node-local execution; the
//! hybrid threshold is the paper's proposal.
//!
//! The rule is met where a task becomes runnable: at ingest, or — for a
//! task submitted before its inputs existed — when its last input seals
//! here. A task the global scheduler placed never spills again, unless
//! the node can never fit it.
//!
//! Spilling is the only way work leaves a node: there is no work
//! stealing, so a task kept here runs here. The default threshold is 4
//! ready tasks, not 8 or 0. Measured on the perf ledger (15 s runs on a
//! 2-vCPU VM), against the work-stealing plane this scheduler once had:
//! at 8, `rl_broadcast` p50 was 6 % worse (0 of 6 pairs better), because
//! a 4-worker node kept up to twice its slots queued while its peers
//! idled; at 0, `shuffle_write` was 8 % worse (0 of 4 rounds), because
//! every task that could not start at once paid a global hop; at 4,
//! every workload's p50 was within 1.5 % of the stealing one. A
//! threshold derived from the node's slot count was not measured.
//!
//! # Short work stays
//!
//! A count says nothing of what the tasks cost: 256 tasks of a
//! microsecond are less work than one spill's round trip, yet the count
//! rule sent 251 of them to the global scheduler and back, and pulled
//! their results home again. So [`SpillMode::Hybrid`] keeps a task past
//! the threshold ([`Verdict::StayShort`], counted in
//! `sched.kept_short`) when the **work ahead** of it drains within one
//! **round trip** to another node:
//!
//! - *Work ahead* is the backlog's tasks' mean run times, summed, over
//!   the node's CPU slots. A worker times every task it runs and tells
//!   the run queue in the call it makes next anyway
//!   ([`RunQueue::start`](crate::RunQueue::start) or
//!   [`next`](crate::RunQueue::next)); the queue keeps a per-function
//!   moving average and the backlog's sum beside its depth, under its
//!   one lock ([`Backlog`]), and walks the rule over it there: one walk
//!   for all three places a task becomes runnable
//!   ([`RunQueue::reserve`](crate::RunQueue::reserve) and
//!   [`judge`](crate::RunQueue::judge)).
//! - *Round trip* is twice the moving average of the delay of the
//!   cross-node frames the node's endpoint received, from when a
//!   frame's last byte left its sender's link to its receipt
//!   ([`rtml_net::DelayEstimate`]; gauge `sched.round_trip_us`). A
//!   spilled task pays at least a hop out and its result a hop back;
//!   what bulk transfers queue on a busy link is not that cost (with it,
//!   `shuffle_write`'s round trip read several ms and its
//!   `peak_rss_mb` ×1.23).
//!
//! **Cold start is the count rule.** Until a node has received a frame
//! from another node, or while any task ahead is of a function that has
//! not run here, the count rule decides alone: a node cannot keep work
//! whose cost it has not seen. A task the global scheduler placed still
//! never re-spills, and a task the node can never fit still always does.
//!
//! **No setting.** Both sides of the comparison are measured on the
//! running node, so there is nothing to tune: the threshold keeps its
//! meaning (the backlog kept whatever it costs) and the exception only
//! widens it where moving a task would cost more than running it here.
//! This is the rule of Dask's work stealing: a task is not moved when
//! its run time is small next to the cost of moving it. On the ledger's
//! `burst_spill` (2 × 2 nodes, 256-task `x + 1` bursts) it is what keeps
//! a burst home; `rl_broadcast`'s 2–2.6 ms rollouts are long next to a
//! round trip, and the lone tasks of `rtt_*` never pass the threshold.

use std::time::Duration;

use rtml_common::codec::Codec;
use rtml_common::ids::TaskId;
use rtml_common::resources::Resources;
use rtml_common::task::{TaskSpec, TaskState};

use crate::local::Core;
use crate::runq::Runnable;
use crate::wire::SchedWire;

/// The spillover decision rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpillMode {
    /// Spill a task when the local backlog of runnable tasks it would
    /// join already exceeds `queue_threshold` (the paper's hybrid
    /// design) — unless the measured work of that backlog drains within
    /// one measured round trip to another node (see the module docs).
    Hybrid {
        /// The largest backlog a task is still kept behind by count: a
        /// task that finds `queue_threshold` tasks ahead of it stays, so
        /// up to `queue_threshold + 1` runnable tasks are kept locally
        /// whatever they cost. Past it, only the time exception keeps a
        /// task.
        queue_threshold: usize,
    },
    /// Spill every task: a fully-centralized scheduler (a baseline).
    AlwaysSpill,
    /// Keep every feasible task local: no load sharing (a baseline).
    /// Only a task this node can never fit leaves it.
    NeverSpill,
}

impl Default for SpillMode {
    fn default() -> Self {
        SpillMode::Hybrid { queue_threshold: 4 }
    }
}

/// The runnable backlog a task would join, as the spill rule reads it:
/// ready tasks, tasks held in a worker's batch and places reserved for
/// tasks being admitted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Backlog {
    /// How many tasks.
    pub tasks: usize,
    /// Their functions' mean run times, summed, in nanoseconds: the
    /// measured ones only.
    pub work_ns: u64,
    /// Those whose function has no measured run time yet.
    pub unmeasured: usize,
}

impl Backlog {
    /// One more task, of a function whose mean run time is `mean_ns`
    /// (`None`: not measured yet).
    pub fn add(&mut self, mean_ns: Option<u64>) {
        self.tasks += 1;
        match mean_ns {
            Some(ns) => self.work_ns += ns,
            None => self.unmeasured += 1,
        }
    }
}

/// What the spill rule decided for one task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Runs here.
    Stay,
    /// Runs here although the backlog is past `queue_threshold`: its
    /// measured work drains within one round trip
    /// (`sched.kept_short` counts these).
    StayShort,
    /// Goes to the global scheduler.
    Spill,
}

impl Verdict {
    /// Whether the task leaves the node.
    pub fn spills(self) -> bool {
        self == Verdict::Spill
    }
}

impl SpillMode {
    /// Decides whether `spec` spills to the global scheduler, given the
    /// `ahead` backlog on a node of capacity `node_total` and the node's
    /// measured `round_trip` to another node (`None` before any frame
    /// has crossed to it). The one rule of all three places a task
    /// becomes runnable — direct admission, ingest and a last input
    /// sealing — met in the run queue's one walk over its backlog
    /// ([`RunQueue::judge`](crate::RunQueue::judge)).
    ///
    /// On a node `alone` — no other node is alive — the hybrid rule
    /// keeps every task it can fit: the global scheduler could only
    /// place it back here, a round trip for nothing.
    ///
    /// Regardless of mode, a task whose demand can **never** be satisfied
    /// by this node (demand exceeds total capacity, e.g. a GPU task on a
    /// CPU-only node) must spill — only the global scheduler can see a
    /// node that fits it (R4 heterogeneity).
    pub fn decide(
        &self,
        spec: &TaskSpec,
        ahead: &Backlog,
        node_total: &Resources,
        round_trip: Option<Duration>,
        alone: bool,
    ) -> Verdict {
        if !node_total.fits(&spec.resources) {
            return Verdict::Spill;
        }
        match self {
            SpillMode::Hybrid { queue_threshold } if alone || ahead.tasks <= *queue_threshold => {
                Verdict::Stay
            }
            SpillMode::Hybrid { .. } if drains_within(ahead, node_total, round_trip) => {
                Verdict::StayShort
            }
            SpillMode::Hybrid { .. } | SpillMode::AlwaysSpill => Verdict::Spill,
            SpillMode::NeverSpill => Verdict::Stay,
        }
    }
}

/// Whether every task of `ahead` has a measured run time, a round trip
/// has been measured, and the work, spread over the node's CPU slots,
/// takes no longer than that round trip.
fn drains_within(ahead: &Backlog, node_total: &Resources, round_trip: Option<Duration>) -> bool {
    let Some(round_trip) = round_trip.filter(|_| ahead.unmeasured == 0) else {
        return false;
    };
    // work / (cpu_milli / 1000) <= round trip, in integers.
    let slots_milli = node_total.cpu_milli().max(1) as u128;
    ahead.work_ns as u128 * 1_000 <= round_trip.as_nanos() * slots_milli
}

/// The scheduler's side of a spill decision.
impl Core {
    /// Forwards a whole batch of spilling tasks to the global scheduler
    /// as one `SpillBatch` frame: one state group commit, one fabric
    /// hop. The tasks' `TaskSpilled` events are in the frame
    /// [`Core::on_submit_batch`] wrote for their batch, or in the one
    /// `on_sealed` wrote when they became runnable. The frame carries
    /// this node's load as of now, with the batch's accepted tasks in it
    /// and its spilled ones not, so the global scheduler places the
    /// batch against the sender's present load rather than its last
    /// published report.
    pub(crate) fn spill_batch(&mut self, specs: Vec<TaskSpec>) {
        let node = self.config.node;
        let ids: Vec<TaskId> = specs.iter().map(|s| s.task_id).collect();
        self.services
            .tasks
            .set_states_many(&ids, &TaskState::Spilled);
        // Pre-size the frame: ~96 bytes per spec avoids the doubling
        // series on large spilled bursts.
        let mut w = rtml_common::codec::Writer::with_capacity(96 + 96 * specs.len());
        let msg = SchedWire::SpillBatch {
            specs,
            load: self.load_report(),
            ingested: self.ingested,
        };
        msg.encode(&mut w);
        if self
            .services
            .fabric
            .send(self.address, self.services.global, w.into_bytes())
            .is_ok()
        {
            return;
        }
        // No global scheduler (shutdown race). Keep whatever work this
        // node can possibly run rather than losing it: one commit for
        // what stays, one for what is lost, one push.
        let SchedWire::SpillBatch { specs, .. } = msg else {
            unreachable!("constructed above")
        };
        let total = &self.config.total_resources;
        let (kept, lost): (Vec<TaskSpec>, Vec<TaskSpec>) = specs
            .into_iter()
            .partition(|spec| total.fits(&spec.resources));
        let tasks = &self.services.tasks;
        for (specs, state) in [(&kept, TaskState::Queued(node)), (&lost, TaskState::Lost)] {
            if !specs.is_empty() {
                let ids: Vec<TaskId> = specs.iter().map(|s| s.task_id).collect();
                tasks.set_states_many(&ids, &state);
            }
        }
        self.queue
            .push(kept.into_iter().map(Runnable::from).collect());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtml_common::ids::{DriverId, FunctionId, TaskId};

    fn spec(resources: Resources) -> TaskSpec {
        let root = TaskId::driver_root(DriverId::from_index(0));
        let mut s = TaskSpec::simple(root.child(0), FunctionId::from_name("f"), vec![]);
        s.resources = resources;
        s
    }

    /// A backlog of `tasks`, `unmeasured` of them with no mean, the
    /// rest measured at `each_us`.
    fn backlog(tasks: usize, each_us: u64, unmeasured: usize) -> Backlog {
        let mut ahead = Backlog::default();
        for i in 0..tasks {
            ahead.add((i >= unmeasured).then_some(each_us * 1_000));
        }
        ahead
    }

    const RT: Option<Duration> = Some(Duration::from_micros(200));

    #[test]
    fn infeasible_always_spills() {
        let node = Resources::cpu(4.0); // no GPU
        let gpu_task = spec(Resources::gpu(1.0));
        for mode in [
            SpillMode::Hybrid {
                queue_threshold: 100,
            },
            SpillMode::AlwaysSpill,
            SpillMode::NeverSpill,
        ] {
            for (ahead, rt) in [(Backlog::default(), None), (backlog(8, 1, 0), RT)] {
                for alone in [false, true] {
                    let verdict = mode.decide(&gpu_task, &ahead, &node, rt, alone);
                    assert_eq!(verdict, Verdict::Spill, "{mode:?}");
                }
            }
        }
    }

    #[test]
    fn hybrid_spills_past_threshold() {
        let node = Resources::cpu(4.0);
        let task = spec(Resources::cpu(1.0));
        let mode = SpillMode::Hybrid { queue_threshold: 3 };
        let by_count = |tasks| mode.decide(&task, &backlog(tasks, 1, tasks), &node, None, false);
        assert_eq!(by_count(0), Verdict::Stay);
        assert_eq!(by_count(3), Verdict::Stay);
        assert_eq!(by_count(4), Verdict::Spill);
    }

    #[test]
    fn a_cold_start_is_exactly_the_count_rule() {
        let node = Resources::cpu(4.0);
        let task = spec(Resources::cpu(1.0));
        let mode = SpillMode::Hybrid { queue_threshold: 3 };
        for tasks in 0..10 {
            let count_rule = if tasks > 3 {
                Verdict::Spill
            } else {
                Verdict::Stay
            };
            // No round trip measured, or no task ahead measured.
            let cold = [(backlog(tasks, 1, 0), None), (backlog(tasks, 1, tasks), RT)];
            for (ahead, rt) in cold {
                assert_eq!(
                    mode.decide(&task, &ahead, &node, rt, false),
                    count_rule,
                    "{ahead:?}"
                );
            }
        }
    }

    #[test]
    fn measured_short_work_is_kept_past_the_threshold() {
        let node = Resources::cpu(2.0);
        let task = spec(Resources::cpu(1.0));
        let mode = SpillMode::Hybrid { queue_threshold: 4 };
        // 256 tasks of 1 µs on 2 slots drain in 128 µs < 200 µs.
        let ahead = backlog(256, 1, 0);
        assert_eq!(
            mode.decide(&task, &ahead, &node, RT, false),
            Verdict::StayShort
        );
        // Exactly one round trip still drains within it: 400 × 1 µs / 2.
        let ahead = backlog(400, 1, 0);
        assert_eq!(
            mode.decide(&task, &ahead, &node, RT, false),
            Verdict::StayShort
        );
        // Up to the threshold the count rule keeps it, whatever it costs.
        let ahead = backlog(4, 10_000, 0);
        assert_eq!(mode.decide(&task, &ahead, &node, RT, false), Verdict::Stay);
    }

    #[test]
    fn long_work_or_one_unmeasured_task_ahead_falls_back_to_the_count_rule() {
        let node = Resources::cpu(2.0);
        let task = spec(Resources::cpu(1.0));
        let mode = SpillMode::Hybrid { queue_threshold: 4 };
        // One more µs of work than the round trip drains.
        let ahead = backlog(401, 1, 0);
        assert_eq!(mode.decide(&task, &ahead, &node, RT, false), Verdict::Spill);
        // Five 2 ms tasks on 2 slots: 5 ms against 200 µs.
        let ahead = backlog(5, 2_000, 0);
        assert_eq!(mode.decide(&task, &ahead, &node, RT, false), Verdict::Spill);
        // Short work, but one task ahead of a function never run here.
        let ahead = backlog(8, 1, 1);
        assert_eq!(mode.decide(&task, &ahead, &node, RT, false), Verdict::Spill);
        // More slots drain more: the same 401 µs on 4 slots.
        let ahead = backlog(401, 1, 0);
        let big = Resources::cpu(4.0);
        assert_eq!(
            mode.decide(&task, &ahead, &big, RT, false),
            Verdict::StayShort
        );
    }

    #[test]
    fn a_node_alone_keeps_every_task_it_fits_under_the_hybrid_rule() {
        let node = Resources::cpu(2.0);
        let task = spec(Resources::cpu(1.0));
        let hybrid = SpillMode::Hybrid { queue_threshold: 4 };
        // Past the threshold, unmeasured, long, or with no round trip:
        // the global scheduler could only place it back.
        for ahead in [backlog(256, 1, 256), backlog(256, 10_000, 0)] {
            for rt in [None, RT] {
                assert_eq!(hybrid.decide(&task, &ahead, &node, rt, true), Verdict::Stay);
            }
        }
        // The centralized baseline still spills everything.
        let ahead = backlog(8, 1, 0);
        let verdict = SpillMode::AlwaysSpill.decide(&task, &ahead, &node, RT, true);
        assert_eq!(verdict, Verdict::Spill);
    }

    #[test]
    fn always_spill_spills_feasible_tasks() {
        let node = Resources::cpu(4.0);
        let task = spec(Resources::cpu(1.0));
        let mode = SpillMode::AlwaysSpill;
        assert_eq!(
            mode.decide(&task, &Backlog::default(), &node, None, false),
            Verdict::Spill
        );
        // No exception: nothing is kept, however short.
        assert_eq!(
            mode.decide(&task, &backlog(8, 1, 0), &node, RT, false),
            Verdict::Spill
        );
    }

    #[test]
    fn never_spill_keeps_feasible_tasks() {
        let node = Resources::cpu(4.0);
        let task = spec(Resources::cpu(1.0));
        let ahead = backlog(10_000, 1_000, 0);
        let verdict = SpillMode::NeverSpill.decide(&task, &ahead, &node, RT, false);
        assert_eq!(verdict, Verdict::Stay);
    }

    #[test]
    fn default_is_hybrid() {
        assert_eq!(
            SpillMode::default(),
            SpillMode::Hybrid { queue_threshold: 4 }
        );
    }
}
