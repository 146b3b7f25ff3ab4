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
//! Neither decides anything. Whom to ask for an object, when to give up
//! on a holder, when to nudge or force reconstruction, how answers are
//! committed — all of that is the one [`rtml_sched::Resolver`], the
//! engine the node's scheduler gates task dispatch with. This module is
//! its **blocking shell**: build a resolver over the call's ids, register
//! for local seals, and block on three channels — object-table records,
//! local seals, fetch answers — feeding what arrives to the resolver and
//! pumping it, until enough is complete or time is up. Both
//! registrations end when the call returns. Remote pulls go through the
//! node's persistent [`rtml_store::FetchAgent`], so concurrent `get`s of
//! one object from any thread on the node share one transfer.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::unbounded;

use rtml_common::error::{Error, Result};
use rtml_common::ids::{NodeId, ObjectId};
use rtml_sched::{Goal, Replays, Resolver, Wiring, POLL_SLICE};
use rtml_store::{FetchAgent, ObjectStore};

use crate::lineage::ReconstructionManager;
use crate::services::Services;

/// Blocks until every object in `ids` is present in `node`'s store;
/// returns their sealed bytes in input order (duplicates allowed).
///
/// Resolution per object:
/// 1. local store hit;
/// 2. remote copy exists → pulled through the node's fetch agent,
///    batched per holder (and the new location recorded);
/// 3. no copy exists → the reconstruction manager replays lineage, and
///    the call keeps waiting for the replayed task to seal the object.
pub fn ensure_local(
    services: &Services,
    recon: &ReconstructionManager,
    node: NodeId,
    ids: &[ObjectId],
    deadline: Instant,
) -> Result<Vec<Bytes>> {
    let store = services.store(node).ok_or(Error::NodeDown(node))?;
    let mut values: Vec<Option<Bytes>> = ids.iter().map(|&id| store.get(id)).collect();
    if values.iter().any(Option::is_none) {
        let agent = services.fetch_agent(node).ok_or(Error::NodeDown(node))?;
        let (resolver, outcome) = block_on(
            services,
            recon,
            node,
            Some(store),
            Some(agent),
            ids,
            ids.len(),
            deadline,
        );
        outcome?;
        values = ids.iter().map(|&id| resolver.bytes(id)).collect();
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
    timeout: Duration,
) -> (Vec<ObjectId>, Vec<ObjectId>) {
    let (wanted, deadline) = (num_ready.min(ids.len()), Instant::now() + timeout);
    let store = services.store(node);
    // Running out of time is an answer here, not an error.
    let (resolver, _) = block_on(services, recon, node, store, None, ids, wanted, deadline);
    ids.iter().partition(|id| resolver.is_done(**id))
}

/// The one blocking loop: resolves `ids` — into the local store through
/// `agent`, or with none only as far as "sealed somewhere" — until
/// `wanted` of its positions are complete, the deadline passes, or the
/// node turns out to be dead. Returns the resolver for the caller to
/// read the outcome off.
#[allow(clippy::too_many_arguments)]
fn block_on(
    services: &Services,
    recon: &ReconstructionManager,
    node: NodeId,
    store: Option<Arc<ObjectStore>>,
    agent: Option<Arc<FetchAgent>>,
    ids: &[ObjectId],
    wanted: usize,
    deadline: Instant,
) -> (Resolver, Result<()>) {
    // Local seals, table updates and fetch answers: one channel each,
    // however many objects are missing.
    let (seal_tx, seal_rx) = unbounded();
    let (done_tx, done_rx) = unbounded();
    let started = Instant::now();
    let goal = match agent {
        Some(_) => Goal::Values,
        None => Goal::Count,
    };
    let mut resolver = Resolver::new(
        goal,
        Wiring {
            node,
            objects: services.objects.clone(),
            store: store.clone(),
            agent: agent.clone(),
            answers: done_tx,
            health: services.health.clone(),
            // A request is never given longer than the call itself has.
            fetch_timeout: (services.config.fetch_timeout)
                .min(deadline.saturating_duration_since(started)),
        },
    );
    resolver.add(ids);
    // What `add` did not find in the store is announced here when it
    // seals (at once, if it sealed in between).
    let missing: Vec<ObjectId> = ids
        .iter()
        .copied()
        .filter(|id| !resolver.is_done(*id))
        .collect();
    let _local = (store.as_ref()).map(|store| store.subscribe_local_many(&missing, &seal_tx));
    let updates = resolver.updates().clone();
    let replay = |replays: &Replays| recon.replay(replays);
    // Only a call that wants bytes in its store cares whether the store
    // is still the node's.
    let own_store = store.as_ref().filter(|_| goal == Goal::Values);
    let mut next_liveness_check = started + POLL_SLICE;
    let outcome = loop {
        // Whatever arrived is handled in the same pass, so one wake-up
        // commits and dispatches for all of it.
        seal_rx.try_iter().for_each(|id| resolver.on_sealed(id));
        updates.try_iter().for_each(|raw| resolver.on_update(raw));
        for (id, result) in done_rx.try_iter() {
            resolver.on_fetched(id, result);
        }
        let now = Instant::now();
        resolver.pump(now, &mut |_, _, _| true, &replay);
        if resolver.satisfied() >= wanted {
            break Ok(());
        }
        if now >= deadline {
            break Err(Error::Timeout);
        }
        if let Some(store) = own_store.filter(|_| now >= next_liveness_check) {
            // A crashed node's store is detached (and emptied): nothing
            // will ever seal into it again.
            let attached = services.store(node);
            if !attached.is_some_and(|s| Arc::ptr_eq(&s, store)) {
                break Err(Error::NodeDown(node));
            }
            next_liveness_check = now + POLL_SLICE;
        }
        // The resolver's tick keeps the loop turning once a poll slice.
        let wake_at = resolver.next_wake().min(deadline);
        crossbeam::channel::select! {
            recv(updates) -> raw => match raw {
                Ok(raw) => resolver.on_update(raw),
                Err(_) => break Err(Error::ShuttingDown),
            },
            recv(seal_rx) -> id => {
                if let Ok(id) = id {
                    resolver.on_sealed(id);
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
    if let Some(agent) = agent.filter(|_| resolver.has_requested()) {
        for (id, result) in agent.close(done_rx) {
            resolver.on_fetched(id, result);
        }
        resolver.commit();
    }
    (resolver, outcome)
}
