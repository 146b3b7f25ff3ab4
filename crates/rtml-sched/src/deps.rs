//! The scheduler's side of dependency resolution: what only it knows,
//! kept in front of the shared [`Resolver`](crate::resolve::Resolver)
//! rather than in a second mechanism.
//!
//! The resolver decides whom to ask, when to retry and when to
//! reconstruct for every object a queued task is short of. The scheduler
//! loop feeds it and adds, once per turn (`resolve_dependencies`): the
//! **admission budget** — an
//! object is requested only while it can become resident without
//! touching pinned bytes (`capacity − pinned`), claimed in submission
//! order within a pass; a refused object stays idle in the resolver, not
//! requested and, a copy existing, not reconstructed, and is offered
//! again on the next tick — and the `PrefetchIssued` and transfer
//! **events**. It also pins every arrived dependency on its task's
//! behalf; the pins ride with the task onto the run queue and are
//! released by the worker that finishes it. A task that becomes runnable
//! meets the spill rule then (`on_sealed`).

use std::time::Instant;

use rtml_common::event::{Component, Event, EventKind};
use rtml_common::ids::{NodeId, ObjectId};
use rtml_store::FetchResult;

use crate::local::{Core, Waiting};
use crate::runq::{Candidate, Runnable};

impl Core {
    /// Runs the resolver's decisions for this loop turn (see the module
    /// docs) and announces the requests that left for the first time.
    pub(crate) fn resolve_dependencies(&mut self) {
        let me = self.config.node;
        let (store, stats) = (&self.services.store, &self.stats);
        // What could become resident by evicting everything evictable.
        // Pinned bytes are running tasks' arguments — requests must not
        // thrash against them. Read when the first object is offered.
        let mut budget: Option<u64> = None;
        let mut admitted_bytes = 0u64;
        let mut admit = |_: ObjectId, size: u64, again: bool| {
            let budget = *budget.get_or_insert_with(|| {
                let pinned = store.pinned_bytes();
                store.capacity_bytes().saturating_sub(pinned)
            });
            let refused = if size > budget {
                // Could not become resident even with everything
                // evictable gone: requesting it would move bytes only
                // to fail the put.
                &stats.prefetch_skipped_capacity
            } else if admitted_bytes + size > budget {
                // Fits on its own, but objects offered earlier in this
                // pass claimed the budget first — prioritization under
                // a tight budget, not a capacity verdict.
                &stats.prefetch_deferred_priority
            } else {
                admitted_bytes += size;
                return true;
            };
            if !again {
                refused.inc();
            }
            false
        };
        let reconstruct = &*self.services.reconstruct;
        let requested = self.resolver.pump(Instant::now(), &mut admit, reconstruct);
        if requested.is_empty() {
            return;
        }
        let at_nanos = rtml_common::time::now_nanos();
        let events = requested
            .iter()
            .flat_map(|(_, objects)| objects)
            .map(|object| Event {
                at_nanos,
                component: Component::LocalScheduler,
                kind: EventKind::PrefetchIssued {
                    object: *object,
                    node: me,
                },
            })
            .collect();
        self.services.events.append_many(me, events);
    }

    /// Answers to the resolver's requests, and whatever the node's
    /// fetch agent sealed with nobody waiting for it: the resolver
    /// takes them all (the new locations and any eviction fallout reach
    /// the object table as one group commit when this turn's pump runs;
    /// an object its holder could not deliver goes to the next one), and
    /// each transfer that sealed new bytes is logged from the moment its
    /// request left — a result pushed by its producer from the moment
    /// its frame did. The tasks themselves were already woken by the
    /// seal.
    pub(crate) fn on_fetched(&mut self, answers: Vec<(ObjectId, FetchResult)>) {
        let me = self.config.node;
        let at_nanos = rtml_common::time::now_nanos();
        let mut events = Vec::new();
        for (object, result) in answers {
            // Only fetches that actually sealed new bytes here are
            // transfers; local hits moved nothing over the wire.
            let arrived = match &result {
                Ok((_, fetched)) if fetched.inserted => {
                    Some((fetched.from, fetched.pushed_at_nanos))
                }
                _ => None,
            };
            let requested_at_nanos = self.resolver.on_fetched(object, result);
            if let Some((from, pushed_at_nanos)) = arrived {
                if let Some(sent_at_nanos) = requested_at_nanos.or(pushed_at_nanos) {
                    events.extend(transfer_events(object, from, me, sent_at_nanos, at_nanos));
                }
            }
        }
        if !events.is_empty() {
            self.services.events.append_many(me, events);
        }
    }

    /// An object sealed in the local store: its waiting tasks are one
    /// dependency closer to runnable, and the resolver is done with it.
    /// The store announces only the objects registered for this loop's
    /// waiting tasks, each once.
    ///
    /// A task submitted here that becomes runnable now meets the spill
    /// rule now: the rule is about the runnable backlog, and at ingest
    /// this task was not part of it. Without this, every task submitted
    /// before its inputs exist (the next iteration's rollouts, gated on
    /// the policy update still running) would stay on its ingest node
    /// however deep the queue it lands in. A task the global scheduler
    /// placed here never spills again.
    pub(crate) fn on_sealed(&mut self, object: ObjectId) {
        let Some(tasks) = self.watchers.remove(&object) else {
            return;
        };
        self.resolver.retire(object);
        let mut ready: Vec<Waiting> = Vec::new();
        for task in tasks {
            let Some(waiting) = self.waiting.get_mut(&task) else {
                continue;
            };
            // Pin the arrived dependency on this task's behalf: LRU
            // eviction must not drop a fetched argument between arrival
            // and execution. Released by the run queue where the task
            // finishes.
            if self.services.store.pin(object) {
                waiting.pins.push(object);
            }
            waiting.missing -= 1;
            if waiting.missing == 0 {
                ready.push(self.waiting.remove(&task).expect("present"));
            }
        }
        if ready.is_empty() {
            return;
        }
        let candidates: Vec<Candidate> = ready
            .iter()
            .map(|waiting| Candidate {
                spec: &waiting.spec,
                runnable: true,
                placed: waiting.via_global,
            })
            .collect();
        let verdicts = self.queue.judge(&candidates, self.admission.alone());
        let (mut runnable, mut spilled) = (Vec::new(), Vec::new());
        for (Waiting { spec, pins, .. }, verdict) in ready.into_iter().zip(verdicts) {
            if verdict.spills() {
                // It leaves unrun: nothing here reads its inputs.
                for pin in pins {
                    self.services.store.unpin(pin);
                }
                spilled.push(spec);
            } else {
                runnable.push(Runnable { spec, pins });
            }
        }
        self.queue.push(runnable);
        if !spilled.is_empty() {
            let (node, at_nanos) = (self.config.node, rtml_common::time::now_nanos());
            let events = spilled.iter().map(|spec| Event {
                at_nanos,
                component: Component::LocalScheduler,
                kind: EventKind::TaskSpilled {
                    task: spec.task_id,
                    from: node,
                },
            });
            self.services.events.append_many(node, events.collect());
            self.spill_batch(spilled);
        }
    }
}

/// The event pair of one completed transfer onto `to`: started when the
/// request left, fed by `from` — the holder asked, or the relay it
/// handed the request to.
fn transfer_events(
    object: ObjectId,
    from: NodeId,
    to: NodeId,
    sent_at_nanos: u64,
    at_nanos: u64,
) -> [Event; 2] {
    [
        Event {
            at_nanos: sent_at_nanos,
            component: Component::FetchAgent,
            kind: EventKind::TransferStarted { object, from, to },
        },
        Event {
            at_nanos,
            component: Component::FetchAgent,
            kind: EventKind::TransferFinished {
                object,
                to,
                micros: at_nanos.saturating_sub(sent_at_nanos) / 1_000,
            },
        },
    ]
}
