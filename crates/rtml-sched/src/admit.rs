//! Admission: the one function that makes a batch `Queued` on a node.
//! The node's loop calls it for the batches it ingests; a submitter on
//! the node (its worker, or the driver whose home it is) calls it on its
//! own thread for a batch the loop would accept whole and runnable —
//! every task keeps the spill rule, every argument is in the local
//! store — and skips the hop to the loop. It makes the loop's decisions:
//! the spill rule is met, all or nothing, in the run queue's one walk
//! over the node's backlog ([`RunQueue::reserve`]); `Queued(node)` is
//! committed before the push, so a worker's `Running` is never
//! overwritten; while a batch of the node's is in the loop's mailbox the
//! next ones follow it, so none is overtaken; and a queue closed
//! meanwhile (node killed or shutting down) hands the batch back for
//! failover, like a failed send to the loop.
//!
//! A submitter's own batch arrives unrecorded, and the submitter makes
//! it durable: admitted on its thread, the batch's spec segment carries
//! `Queued(node)` ([`TaskTable::record_many`]), one kv append for both,
//! in the order reserve, record, push — so a spec is durable before any
//! worker can take its task; sent to the mailbox, it is recorded
//! `Submitted` before the send. Either way its events go to the node's
//! event buffer, not to the kv ([`EventLog`]).

use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::Sender;

use rtml_common::event::{Component, Event, EventKind};
use rtml_common::ids::{NodeId, TaskId};
use rtml_common::task::{TaskSpec, TaskState};
use rtml_kv::{EventLog, TaskTable};
use rtml_store::{ObjectStore, TransferDirectory};

use crate::msg::LocalMsg;
use crate::runq::{RunQueue, Runnable};

/// What a node admits with, shared by its loop and its submitters.
pub(crate) struct Admission {
    pub(crate) node: NodeId,
    pub(crate) tasks: TaskTable,
    pub(crate) events: EventLog,
    pub(crate) store: Arc<ObjectStore>,
    /// The node table: whether any other node is alive.
    pub(crate) directory: Arc<TransferDirectory>,
    pub(crate) queue: Arc<RunQueue>,
    /// `SubmitBatch` messages sent to the loop and not yet ingested.
    pub(crate) in_mailbox: AtomicUsize,
}

impl Admission {
    /// No other node is listed in the node table: the spill rule then
    /// keeps every task the node fits ([`crate::SpillMode::decide`]).
    /// Read before the run queue's lock is taken.
    pub(crate) fn alone(&self) -> bool {
        !self.directory.lists_other_than(self.node)
    }

    /// Commits `Queued(node)` for `queued`, logs the batch's events
    /// (where each task went — `queued`, then `spilled` — and the span
    /// since `started`), and pushes `runnable`. A `direct` batch was
    /// reserved ([`RunQueue::reserve`]) and recorded `Queued(node)` with
    /// its specs on its submitter's thread: its push takes the places
    /// reserved, and hands the tasks back if the queue closed meanwhile.
    pub(crate) fn admit(
        &self,
        queued: &[TaskId],
        spilled: &[TaskId],
        runnable: Vec<Runnable>,
        started: Instant,
        direct: bool,
    ) -> Result<(), Vec<Runnable>> {
        let node = self.node;
        if !direct && !queued.is_empty() {
            self.tasks.set_states_many(queued, &TaskState::Queued(node));
        }
        let here = queued
            .iter()
            .map(|&task| EventKind::TaskQueuedLocal { task, node });
        let left = spilled
            .iter()
            .map(|&task| EventKind::TaskSpilled { task, from: node });
        let tasks = (queued.len() + spilled.len()) as u32;
        let micros = started.elapsed().as_micros() as u64;
        let span = EventKind::BatchIngested {
            node,
            tasks,
            micros,
        };
        let at_nanos = rtml_common::time::now_nanos();
        let component = Component::LocalScheduler;
        let frame = here.chain(left).chain([span]).map(|kind| Event {
            at_nanos,
            component,
            kind,
        });
        self.events.append_many(node, frame.collect());
        if !direct {
            self.queue.push(runnable);
            return Ok(());
        }
        self.queue.push_reserved(runnable)
    }
}

/// How a submitter hands a node's scheduler a batch (one task is a batch
/// of one). Cloning is cheap.
#[derive(Clone)]
pub struct LocalSubmitter {
    pub(crate) tx: Sender<LocalMsg>,
    pub(crate) admission: Option<Arc<Admission>>,
}

impl From<Sender<LocalMsg>> for LocalSubmitter {
    /// A submitter that only sends: every batch goes to the mailbox, and
    /// it records none.
    fn from(tx: Sender<LocalMsg>) -> LocalSubmitter {
        LocalSubmitter {
            tx,
            admission: None,
        }
    }
}

impl LocalSubmitter {
    /// Submits `specs`. With `own` — the caller is on this node (one of
    /// its workers, or the driver whose home it is) and the specs are
    /// not recorded yet — a batch the loop would accept whole and
    /// runnable is recorded `Queued(node)` and admitted on the calling
    /// thread, and anything else is recorded `Submitted` and goes to the
    /// loop's mailbox as one message (see the module docs). Without it
    /// the specs are recorded already, and go to the mailbox. The specs
    /// come back when the node is gone, for the caller to fail over.
    pub fn submit(&self, specs: Vec<TaskSpec>, own: bool) -> Result<(), Vec<TaskSpec>> {
        let Some(admission) = &self.admission else {
            return self.send(specs);
        };
        let started = Instant::now();
        let local = |spec: &TaskSpec| spec.dependencies().all(|o| admission.store.contains(o));
        if own
            && self.in_mailbox() == 0
            && specs.iter().all(local)
            && admission.queue.reserve(&specs, admission.alone())
        {
            let queued = TaskState::Queued(admission.node);
            admission.tasks.record_many(&specs, &queued);
            let ids: Vec<TaskId> = specs.iter().map(|s| s.task_id).collect();
            let runnable = specs.into_iter().map(Runnable::from).collect();
            let admitted = admission.admit(&ids, &[], runnable, started, true);
            if admitted.is_ok() {
                admission
                    .queue
                    .stats()
                    .admitted_direct
                    .add(ids.len() as u64);
            }
            return admitted.map_err(|back| back.into_iter().map(|r| r.spec).collect());
        }
        if own {
            admission.tasks.record_many(&specs, &TaskState::Submitted);
        }
        // Counted before it can be ingested, so no batch of this node is
        // admitted beside the loop until this one has been.
        admission.in_mailbox.fetch_add(1, SeqCst);
        self.send(specs).inspect_err(|_| {
            admission.in_mailbox.fetch_sub(1, SeqCst);
        })
    }

    /// The node's run queue, if this submitter admits batches itself.
    pub fn queue(&self) -> Option<&Arc<RunQueue>> {
        self.admission.as_ref().map(|admission| &admission.queue)
    }

    /// Batches of this node's sent to its loop and not yet ingested.
    pub fn in_mailbox(&self) -> usize {
        let count = |a: &Arc<Admission>| a.in_mailbox.load(SeqCst);
        self.admission.as_ref().map_or(0, count)
    }

    fn send(&self, specs: Vec<TaskSpec>) -> Result<(), Vec<TaskSpec>> {
        let failed = |e: crossbeam::channel::SendError<LocalMsg>| match e.0 {
            LocalMsg::SubmitBatch(specs) => specs,
            _ => unreachable!("send returns the message it failed to send"),
        };
        self.tx.send(LocalMsg::SubmitBatch(specs)).map_err(failed)
    }
}
