//! In-process messages to a local scheduler from its node's submitters and
//! the runtime, and the load report it publishes.

use rtml_common::ids::{NodeId, WorkerId};
use rtml_common::resources::Resources;
use rtml_common::task::TaskSpec;

/// Mailbox messages for a [`crate::local::LocalScheduler`].
#[derive(Debug)]
pub enum LocalMsg {
    /// A batch of task submissions, in submission order (one task is a
    /// batch of one), ingested as one message: one channel send, one
    /// spill/dependency scan, and group-committed control-plane writes
    /// for the whole batch (the hot-path amortization behind R2's
    /// millions of tasks per second). Sent by a
    /// [`crate::LocalSubmitter`] only, which counts it.
    SubmitBatch(Vec<TaskSpec>),
    /// Detach a worker (failure injection). Whatever it had taken from
    /// the run queue is marked lost.
    RemoveWorker(WorkerId),
    /// Stop scheduling: the loop takes its last periodic run, closes the
    /// run queue and drops its scheduling state, but keeps serving the
    /// node's object plane until its endpoint is withdrawn
    /// ([`crate::local::LocalSchedulerHandle::shutdown`], which also
    /// stops a loop that was never closed), so a worker still running
    /// finishes its fetches and peers still read the node's objects.
    Close,
}

/// A node's load, as published to the global scheduler and the health
/// tracker. This is the information basis for placement (paper §3.2.2:
/// "global information about factors including object locality and
/// resource availability").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoadReport {
    /// Reporting node.
    pub node: NodeId,
    /// Raw fabric address of the node's local scheduler
    /// ([`rtml_net::NetAddress::as_u64`]): the global scheduler places
    /// on the node only while the node table lists it at this address,
    /// so a report of a dead incarnation is never placed against.
    pub sched_address: u64,
    /// Tasks runnable now (dependencies satisfied) but not yet started.
    pub ready: u32,
    /// Tasks blocked on dependencies.
    pub waiting: u32,
    /// Tasks currently executing.
    pub running: u32,
    /// Idle workers.
    pub idle_workers: u32,
    /// Resources not currently allocated.
    pub available: Resources,
    /// The node's full capacity.
    pub total: Resources,
    /// Timestamp (nanos since process epoch).
    pub at_nanos: u64,
}

impl LoadReport {
    /// Everything a task placed here now would queue behind: runnable,
    /// running, and waiting work — the last includes tasks already
    /// placed here whose inputs are still inbound, which will take a
    /// slot as surely as the runnable ones.
    pub fn queue_depth(&self) -> u32 {
        self.ready + self.waiting + self.running
    }
}

rtml_common::impl_codec_struct!(LoadReport {
    node,
    sched_address,
    ready,
    waiting,
    running,
    idle_workers,
    available,
    total,
    at_nanos,
});

#[cfg(test)]
mod tests {
    use super::*;
    use rtml_common::codec::{decode_from_slice, encode_to_bytes};

    #[test]
    fn load_report_round_trips() {
        let report = LoadReport {
            node: NodeId(3),
            sched_address: 42,
            ready: 5,
            waiting: 2,
            running: 4,
            idle_workers: 0,
            available: Resources::cpu(1.0),
            total: Resources::new(4.0, 1.0),
            at_nanos: 12345,
        };
        let bytes = encode_to_bytes(&report);
        let back: LoadReport = decode_from_slice(&bytes).unwrap();
        assert_eq!(report, back);
        assert_eq!(report.queue_depth(), 11);
    }
}
