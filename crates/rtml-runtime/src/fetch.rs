//! Blocking object access: `get`, `get_many`, `wait`, and a worker's
//! argument resolution.
//!
//! [`ensure_local`] implements the paper's `get` semantics for a batch
//! of any size (a plain `get` is the batch of one): return every value
//! as soon as a copy is in the caller's local store, transparently
//! pulling remote copies over the fabric, and invoking lineage
//! reconstruction when every copy has been lost (R6). [`wait_ready`]
//! implements `wait` (§3.1 item 5): completion-based readiness with a
//! count and a timeout, the primitive that lets applications trade
//! stragglers for latency (R1).
//!
//! # Work the caller's own node runs waits at home
//!
//! Most objects a driver blocks on are results of tasks its own node
//! runs. The node's run queue knows which: a task it holds — queued, in
//! a worker's batch, or run but not reported published — will seal its
//! results in this node's store, or its loss will be announced
//! ([`rtml_sched::RunQueue::split_held`]). Such an object **waits at
//! home**: on the store's local-seal table alone, with no resolver slot
//! and no object-table subscription, and a call that wants every object
//! wakes once, when the last of them seals. Whether an object is home
//! is decided subscribe-before-read: the queue's loss count is read,
//! the seals are registered, then the queue is asked which producers it
//! holds — so neither a seal nor a loss between those steps is missed.
//! Each pass after that takes what fired, which re-arms the wake-up,
//! before it reads the loss count again: a loss counted after that read
//! announces itself to an armed registration.
//!
//! An object leaves home for the resolver when:
//! - its producer is not held at the start: already published, still in
//!   the node loop's mailbox, waiting on dependencies (it may still
//!   spill), or placed on another node;
//! - the queue reports a loss (a worker killed, the queue closed, a
//!   result the store refused): the call wakes, and whatever the queue
//!   no longer holds goes over;
//! - it sealed but was evicted before the call took it: it is
//!   reconstructed as any lost copy is.
//!
//! # The resolver, for everything else
//!
//! The rest decides nothing here either. Whom to ask for an object, when
//! to give up on a holder, when to nudge or force reconstruction, how
//! answers are committed — all of that is the one
//! [`rtml_sched::Resolver`], the engine the node's scheduler gates task
//! dispatch with. This module is its **blocking shell**: one loop feeds
//! it object-table records, local seals and fetch answers and pumps it,
//! until enough is complete or time is up. With any object at the
//! resolver, every local seal wakes the call. Every registration ends
//! when the call returns. Remote pulls go through the node's persistent
//! [`rtml_store::FetchAgent`], so concurrent `get`s of one object from
//! any thread on the node share one transfer.

use std::cell::Cell;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, TryRecvError};

use rtml_common::collections::IdMap;
use rtml_common::error::{Error, Result};
use rtml_common::ids::{NodeId, ObjectId};
use rtml_common::spin::{self, SpinStats, Waits, SPIN};
use rtml_sched::{Goal, Replays, Resolver, Wiring, POLL_SLICE};
use rtml_store::{FetchAgent, ObjectStore};

use crate::lineage::ReconstructionManager;
use crate::services::Services;

/// Blocks until every object in `ids` is present in `node`'s store;
/// returns their sealed bytes in input order (duplicates allowed).
///
/// Resolution per object:
/// 1. local store hit;
/// 2. its producer is held by the node's run queue → waits for the
///    local seal (see the module docs);
/// 3. remote copy exists → pulled through the node's fetch agent,
///    batched per holder (and the new location recorded);
/// 4. no copy exists → the reconstruction manager replays lineage, and
///    the call keeps waiting for the replayed task to seal the object.
pub fn ensure_local(
    services: &Services,
    recon: &ReconstructionManager,
    node: NodeId,
    ids: &[ObjectId],
    deadline: Instant,
) -> Result<Vec<Bytes>> {
    let store = services.store(node).ok_or(Error::NodeDown(node))?;
    let mut values = store.get_many(ids);
    let missing: Vec<ObjectId> = ids
        .iter()
        .zip(&values)
        .filter_map(|(id, value)| value.is_none().then_some(*id))
        .collect();
    if !missing.is_empty() {
        let agent = services.fetch_agent(node).ok_or(Error::NodeDown(node))?;
        let wanted = missing.len();
        let store = Some(store);
        let waited = block_on(
            services,
            recon,
            node,
            store,
            Some(agent),
            missing,
            wanted,
            deadline,
        );
        waited.outcome.clone()?;
        for (value, &id) in values.iter_mut().zip(ids) {
            if value.is_none() {
                *value = waited.bytes(id);
            }
        }
    }
    Ok(values
        .into_iter()
        .map(|v| v.expect("every value resolved"))
        .collect())
}

/// Blocks until at least `num_ready` of `ids` are complete (their objects
/// sealed anywhere, including error seals) or `timeout` elapses. Returns
/// `(ready, pending)` preserving input order.
///
/// Matches the paper's `wait`: "returns the subset of futures whose tasks
/// have completed when the timeout occurs or the requested number have
/// completed." Readiness is *completion*, not residency: an object that
/// sealed once and was later evicted still counts (its task completed;
/// the value is reconstructible on demand).
pub fn wait_ready(
    services: &Services,
    recon: &ReconstructionManager,
    node: NodeId,
    ids: &[ObjectId],
    num_ready: usize,
    timeout: std::time::Duration,
) -> (Vec<ObjectId>, Vec<ObjectId>) {
    let (wanted, deadline) = (num_ready.min(ids.len()), Instant::now() + timeout);
    let store = services.store(node);
    // Running out of time is an answer here, not an error.
    let waited = block_on(
        services,
        recon,
        node,
        store,
        None,
        ids.to_vec(),
        wanted,
        deadline,
    );
    ids.iter().partition(|id| waited.is_done(**id))
}

/// What one blocking call resolved.
struct Waited {
    /// Objects complete in the local store, each with its bytes when the
    /// call wants them.
    sealed: IdMap<ObjectId, Option<Bytes>>,
    /// The resolver of what did not wait at home, if anything did not.
    away: Option<Resolver>,
    outcome: Result<()>,
}

impl Waited {
    fn is_done(&self, id: ObjectId) -> bool {
        self.sealed.contains_key(&id) || self.away.as_ref().is_some_and(|r| r.is_done(id))
    }

    fn bytes(&self, id: ObjectId) -> Option<Bytes> {
        match self.sealed.get(&id) {
            Some(bytes) => bytes.clone(),
            None => self.away.as_ref()?.bytes(id),
        }
    }
}

thread_local! {
    /// How long this thread's waits at home lasted of late.
    static HOME_WAITS: Cell<Waits> = Cell::new(Waits::default());
}

/// Waits for the store to wake a call that waits at home, for at most
/// `timeout`: first spinning on the channel ([`rtml_common::spin`]),
/// while this thread's recent waits at home were short and the call has
/// longer than a spin left, then asleep. A seal that comes within the
/// spin costs neither side a thread wake-up.
fn wait_at_home(
    stats: &SpinStats,
    wake: &Receiver<()>,
    timeout: Duration,
) -> std::result::Result<(), RecvTimeoutError> {
    let started = Instant::now();
    let mut woken = None;
    if timeout > SPIN && HOME_WAITS.get().spins() {
        spin::spin(stats, || {
            woken = match wake.try_recv() {
                Err(TryRecvError::Empty) => return false,
                Ok(()) => Some(Ok(())),
                Err(TryRecvError::Disconnected) => Some(Err(RecvTimeoutError::Disconnected)),
            };
            true
        });
    }
    let woken =
        woken.unwrap_or_else(|| wake.recv_timeout(timeout.saturating_sub(started.elapsed())));
    let mut waits = HOME_WAITS.get();
    waits.record(started.elapsed());
    HOME_WAITS.set(waits);
    woken
}

/// The one blocking loop: resolves `ids` — into the local store through
/// `agent`, or with none only as far as "sealed somewhere" — until
/// `wanted` of its positions are complete, the deadline passes, or the
/// node turns out to be dead. What waits at home and when it moves to
/// the resolver: the module docs.
#[allow(clippy::too_many_arguments)]
fn block_on(
    services: &Services,
    recon: &ReconstructionManager,
    node: NodeId,
    store: Option<Arc<ObjectStore>>,
    agent: Option<Arc<FetchAgent>>,
    ids: Vec<ObjectId>,
    wanted: usize,
    deadline: Instant,
) -> Waited {
    let started = Instant::now();
    let goal = match agent {
        Some(_) => Goal::Values,
        None => Goal::Count,
    };
    // Wanting every object, a call that waits only at home is woken
    // when the last one seals; with fewer wanted, or any object at the
    // resolver, at each seal.
    let every = wanted >= ids.len();
    let mut waited = Waited {
        sealed: IdMap::with_capacity_and_hasher(ids.len(), Default::default()),
        away: None,
        outcome: Ok(()),
    };
    let (wake_tx, wake) = unbounded();
    // The store's registration holds a `get`'s only sender, so a store
    // cleared under it (node crash) disconnects the call. A `wait`
    // counts seals anywhere, and outlives its node's store.
    let _open = (goal == Goal::Count).then(|| wake_tx.clone());
    let queue = store.as_ref().and_then(|_| services.run_queue(node));
    let mut losses = queue.as_ref().map(|queue| queue.losses());
    let threshold = if every { ids.len() } else { 1 };
    let mut seals =
        (store.as_ref()).map(|store| store.subscribe_local_many(&ids, threshold, wake_tx));
    // What the queue does not hold at the split and has not sealed by
    // the first take after it is the resolver's: a seal before the split
    // is in that take.
    let (mut home, mut unheld) = match &queue {
        Some(queue) => queue.split_held(ids),
        None => (Vec::new(), ids),
    };
    // Home positions complete so far.
    let mut home_done = 0;
    let (done_tx, done_rx) = unbounded();
    let mut done_tx = Some(done_tx);
    let mut send_away = |waited: &mut Waited, ids: &[ObjectId]| {
        let away = waited.away.get_or_insert_with(|| {
            Resolver::new(
                goal,
                Wiring {
                    node,
                    objects: services.objects.clone(),
                    store: store.clone(),
                    agent: agent.clone(),
                    answers: done_tx.take().expect("one resolver a call"),
                    health: services.health.clone(),
                    // A request is never given longer than the call itself has.
                    fetch_timeout: (services.config.fetch_timeout)
                        .min(deadline.saturating_duration_since(started)),
                },
            )
        });
        away.add(ids);
    };
    let replay = |replays: &Replays| recon.replay(replays);
    let mut next_liveness_check = started + POLL_SLICE;
    waited.outcome = loop {
        // What sealed here since the last pass, under one store lock.
        // The take re-arms the wake-up, so the loss count is read after
        // it: a loss counted later wakes the call.
        let mut evicted = Vec::new();
        if let Some(seals) = &mut seals {
            let threshold = match &waited.away {
                None if every => home.len().max(1),
                _ => 1,
            };
            let fired = match goal {
                Goal::Values => seals.take_values(threshold),
                Goal::Count => seals
                    .take(threshold)
                    .into_iter()
                    .map(|id| (id, None))
                    .collect(),
            };
            for (id, bytes) in fired {
                if let Some(resolver) = &mut waited.away {
                    resolver.on_sealed(id);
                }
                match (goal, bytes) {
                    (Goal::Values, None) => evicted.push(id),
                    (_, bytes) => {
                        waited.sealed.insert(id, bytes);
                    }
                }
            }
        }
        // A producer the queue held was lost: whatever it no longer
        // holds is the resolver's from here on.
        if let (Some(queue), Some(seen)) = (&queue, &mut losses) {
            let count = queue.losses();
            if count != *seen && !home.is_empty() {
                *seen = count;
                let (held, lost) = queue.split_held(std::mem::take(&mut home));
                home = held;
                unheld.extend(lost);
            }
        }
        for waiting in [&mut home, &mut unheld] {
            let before = waiting.len();
            waiting.retain(|id| !waited.sealed.contains_key(id));
            home_done += before - waiting.len();
        }
        let mut moved = std::mem::take(&mut unheld);
        // Sealed and evicted before it was taken: reconstructed as any
        // lost copy is, and registered again for its next seal.
        if !evicted.is_empty() {
            let (gone, stay) = home.into_iter().partition(|id| evicted.contains(id));
            home = stay;
            moved.extend::<Vec<ObjectId>>(gone);
            if let Some(seals) = &mut seals {
                seals.add(&evicted);
            }
        }
        if !moved.is_empty() {
            send_away(&mut waited, &moved);
            // Taken again at once, now woken at each seal.
            continue;
        }
        let now = Instant::now();
        if let Some(resolver) = &mut waited.away {
            // Whatever arrived is handled in the same pass, so one
            // wake-up commits and dispatches for all of it.
            let updates = resolver.updates().clone();
            updates.try_iter().for_each(|raw| resolver.on_update(raw));
            for (id, result) in done_rx.try_iter() {
                resolver.on_fetched(id, result);
            }
            resolver.pump(now, &mut |_, _, _| true, &replay);
        }
        let satisfied = home_done + waited.away.as_ref().map_or(0, Resolver::satisfied);
        if satisfied >= wanted {
            break Ok(());
        }
        if now >= deadline {
            break Err(Error::Timeout);
        }
        services.blocked_waits.inc();
        let Some(resolver) = &mut waited.away else {
            // Only the store can wake a call that waits at home: a seal,
            // a loss, or its clearing.
            let timeout = deadline.saturating_duration_since(now);
            match wait_at_home(&services.get_spin, &wake, timeout) {
                Err(RecvTimeoutError::Disconnected) => break Err(Error::NodeDown(node)),
                Ok(()) | Err(RecvTimeoutError::Timeout) => continue,
            }
        };
        // Only a call that wants bytes in its store cares whether the
        // store is still the node's.
        if let Some(store) = store.as_ref().filter(|_| goal == Goal::Values) {
            if now >= next_liveness_check {
                // A crashed node's store is detached (and emptied):
                // nothing will ever seal into it again.
                let attached = services.store(node);
                if !attached.is_some_and(|s| Arc::ptr_eq(&s, store)) {
                    break Err(Error::NodeDown(node));
                }
                next_liveness_check = now + POLL_SLICE;
            }
        }
        // The resolver's tick keeps the loop turning once a poll slice.
        let wake_at = resolver.next_wake().min(deadline);
        let updates = resolver.updates().clone();
        crossbeam::channel::select! {
            recv(updates) -> raw => match raw {
                Ok(raw) => resolver.on_update(raw),
                Err(_) => break Err(Error::ShuttingDown),
            },
            recv(wake) -> woken => {
                if woken.is_err() {
                    break Err(Error::NodeDown(node));
                }
            }
            recv(done_rx) -> answer => {
                if let Ok((id, result)) = answer {
                    resolver.on_fetched(id, result);
                }
            }
            default(wake_at.saturating_duration_since(now)) => {}
        }
    };
    // The local seal can let the caller go a step before the answer to
    // its own request is sent. Closing the channel through the agent
    // takes every answer sent so far — committed here — and leaves any
    // later one to the node's scheduler, so none is dropped unread with
    // the channel.
    if let Some(resolver) = waited.away.as_mut().filter(|r| r.has_requested()) {
        if let Some(agent) = &agent {
            for (id, result) in agent.close(done_rx) {
                resolver.on_fetched(id, result);
            }
            resolver.commit();
        }
    }
    waited
}
