//! Blocking object access: the one completion-driven engine behind
//! `get`, `get_many`, `wait`, and a worker's argument resolution.
//!
//! [`ensure_local`] implements the paper's `get` semantics for a batch
//! of any size (a plain `get` is the batch of one): return every value
//! as soon as a copy is in the caller's local store, transparently
//! pulling remote copies over the fabric, and invoking lineage
//! reconstruction when every copy has been lost (R6). [`wait_ready`]
//! implements `wait` (§3.1 item 5): completion-based readiness with a
//! count and a timeout, the primitive that lets applications trade
//! stragglers for latency (R1). Both run the same loop:
//!
//! 1. **Sweep** the local store; whatever is resident is done (a batch
//!    that is entirely local touches nothing else).
//! 2. **Register** the still-missing ids once: one multi-key object-table
//!    subscription ([`rtml_kv::ObjectTable::subscribe_many`]) that
//!    returns the current records atomically and delivers every later
//!    update on one channel, and one local-seal registration with the
//!    node's store on a second channel. Both are withdrawn when the
//!    call returns. Ids with no sealed copy anywhere get one
//!    reconstruction nudge here, and one more per 10 ms poll slice while
//!    they stay that way — not one per wake-up.
//! 3. **Loop** on those channels plus a third carrying fetch answers,
//!    doing O(1) work per message: an id that sealed locally is taken
//!    from the store; an id sealed on holder *h* joins *h*'s pending
//!    group. Every holder with a non-empty group and no request
//!    outstanding is sent **one** non-blocking
//!    [`rtml_store::FetchAgent::request_many`]. Results that seal while
//!    a holder's request is in flight accumulate into its next request,
//!    so request size follows load with no size or time knob, different
//!    holders are pulled concurrently, and transfer overlaps execution.
//!    Answers are committed to the object table as group commits
//!    ([`rtml_sched::commit_fetched`]). A failed or timed-out holder
//!    advances the object to its next rendezvous-ranked holder, at most
//!    `RetryPolicy::max_attempts` holders a sweep, with
//!    [`crate::health::HealthTracker`] evidence recorded per request;
//!    when a sweep is exhausted the producer is force-replayed.
//!
//! **A result already on its way is not asked for.** A worker pushes a
//! small result to the node that submitted its task and says so in the
//! commit that publishes the seal (see [`crate::worker`]). The engine
//! takes no notice of the announcement itself: it picks holders through
//! [`rtml_kv::ObjectInfo::holders_ranked`], which offers a reader on
//! the announced node none while the announcement is live, so the
//! object stays idle — no request leaves — and completes on the local
//! seal the engine listens for anyway: one fabric hop after the seal
//! instead of two. Should the frame be lost, the announcement expires
//! after the `fetch_timeout` a request would have been given, the next
//! tick's sweep is offered the holders, and the object is pulled as
//! above. The pushed copy's location is committed by the node's
//! scheduler, which owns whatever its fetch agent seals with no waiter
//! left. A request of this engine's can be overtaken too: the local
//! seal may complete the call a step before the answer is sent. On the
//! way out the engine therefore closes its answer channel through the
//! agent ([`rtml_store::FetchAgent::close`]): what was already sent is
//! committed here, what comes later goes to the scheduler, and nothing
//! is dropped unread.
//!
//! `wait` runs the loop in count mode: it stops at `num_ready`, fetches
//! nothing, and counts *completion* (sealed anywhere), not residency.
//!
//! All remote pulls go through the node's persistent
//! [`rtml_store::FetchAgent`], so concurrent `get`s of the same object
//! from any thread on the node are single-flighted into one transfer.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Sender};

use rtml_common::error::{Error, Result};
use rtml_common::ids::{NodeId, ObjectId};
use rtml_kv::ObjectInfo;
use rtml_store::{FetchAgent, FetchResult, ObjectStore};

use crate::lineage::ReconstructionManager;
use crate::services::Services;

/// How often a blocked call re-nudges reconstruction for ids that still
/// have no sealed copy, starts a new holder sweep for ids whose last one
/// was exhausted, and checks that its node is still alive.
const POLL_SLICE: Duration = Duration::from_millis(10);

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
    let mut engine = Engine::new(services, recon, node, Some(store), ids, Goal::Values);
    engine.run(deadline)?;
    Ok(engine
        .order
        .iter()
        .map(|&slot| engine.slots[slot].bytes.clone().expect("every slot done"))
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
    let goal = Goal::Count(num_ready.min(ids.len()));
    let mut engine = Engine::new(services, recon, node, services.store(node), ids, goal);
    // Running out of time is an answer here, not an error.
    let _ = engine.run(Instant::now() + timeout);
    let (mut ready, mut pending) = (Vec::new(), Vec::new());
    for (id, &slot) in ids.iter().zip(&engine.order) {
        if engine.slots[slot].phase == Phase::Done {
            ready.push(*id);
        } else {
            pending.push(*id);
        }
    }
    (ready, pending)
}

/// What the caller is blocked for.
#[derive(Clone, Copy)]
enum Goal {
    /// Every input position's bytes, resident locally.
    Values,
    /// This many input positions complete anywhere; nothing is fetched.
    Count(usize),
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting for a seal, or for the next holder sweep.
    Idle,
    /// In some holder's pending group.
    Queued,
    /// Named in an outstanding request.
    InFlight,
    Done,
}

/// One distinct object of the batch.
struct Slot {
    id: ObjectId,
    /// Input positions naming this object.
    positions: usize,
    phase: Phase,
    bytes: Option<Bytes>,
    /// Latest object-table record seen.
    info: Option<ObjectInfo>,
    /// Holder of the request this object is still unanswered in.
    asked: Option<NodeId>,
    /// Holders that failed in the current sweep.
    tried: Vec<NodeId>,
}

/// Per-holder batching state: at most one request outstanding; what
/// seals on the holder meanwhile waits in `pending` for the next one.
#[derive(Default)]
struct HolderGroup {
    pending: Vec<usize>,
    in_flight: Vec<usize>,
    unanswered: usize,
    fetched: usize,
    deadline: Option<Instant>,
}

struct Engine<'a> {
    services: &'a Services,
    recon: &'a ReconstructionManager,
    node: NodeId,
    store: Option<Arc<ObjectStore>>,
    goal: Goal,
    slots: Vec<Slot>,
    /// Slot of each distinct id; left empty for a batch of one.
    index: HashMap<ObjectId, usize>,
    /// Slot of each input position.
    order: Vec<usize>,
    /// Input positions satisfied so far.
    satisfied: usize,
    groups: BTreeMap<NodeId, HolderGroup>,
    /// Successful fetch answers not yet committed to the object table.
    uncommitted: Vec<(ObjectId, FetchResult)>,
}

impl<'a> Engine<'a> {
    /// Builds the batch and sweeps the local store.
    fn new(
        services: &'a Services,
        recon: &'a ReconstructionManager,
        node: NodeId,
        store: Option<Arc<ObjectStore>>,
        ids: &[ObjectId],
        goal: Goal,
    ) -> Self {
        let mut engine = Engine {
            services,
            recon,
            node,
            store,
            goal,
            slots: Vec::with_capacity(ids.len()),
            index: HashMap::new(),
            order: Vec::with_capacity(ids.len()),
            satisfied: 0,
            groups: BTreeMap::new(),
            uncommitted: Vec::new(),
        };
        if ids.len() > 1 {
            engine.index.reserve(ids.len());
        }
        for &id in ids {
            let next = engine.slots.len();
            let slot = match ids.len() {
                1 => 0,
                _ => *engine.index.entry(id).or_insert(next),
            };
            if slot == next {
                engine.slots.push(Slot {
                    id,
                    positions: 0,
                    phase: Phase::Idle,
                    bytes: None,
                    info: None,
                    asked: None,
                    tried: Vec::new(),
                });
            }
            engine.slots[slot].positions += 1;
            engine.order.push(slot);
        }
        for slot in 0..engine.slots.len() {
            engine.take_local(slot);
        }
        engine
    }

    fn slot_of(&self, id: ObjectId) -> usize {
        match self.slots.len() {
            1 => 0,
            _ => self.index[&id],
        }
    }

    fn finished(&self) -> bool {
        match self.goal {
            Goal::Values => self.satisfied == self.order.len(),
            Goal::Count(n) => self.satisfied >= n,
        }
    }

    fn complete(&mut self, slot: usize, bytes: Option<Bytes>) {
        let s = &mut self.slots[slot];
        s.phase = Phase::Done;
        s.bytes = bytes;
        self.satisfied += s.positions;
    }

    /// Completes `slot` from the local store if the object is there.
    fn take_local(&mut self, slot: usize) {
        let Some(store) = &self.store else { return };
        if self.slots[slot].phase == Phase::Done {
            return;
        }
        let id = self.slots[slot].id;
        match self.goal {
            Goal::Values => {
                if let Some(bytes) = store.get(id) {
                    self.complete(slot, Some(bytes));
                }
            }
            Goal::Count(_) => {
                if store.contains(id) {
                    self.complete(slot, None);
                }
            }
        }
    }

    /// Whether an object with this record still depends on its producer
    /// (re)running: nothing sealed anywhere — or, when the bytes are
    /// wanted, no copy left.
    fn needs_producer(&self, info: Option<&ObjectInfo>) -> bool {
        match self.goal {
            Goal::Values => !info.is_some_and(ObjectInfo::is_available),
            Goal::Count(_) => !info.is_some_and(|info| info.sealed),
        }
    }

    /// The one blocking loop.
    fn run(&mut self, deadline: Instant) -> Result<()> {
        if self.finished() {
            return Ok(());
        }
        let agent = match self.goal {
            Goal::Values => Some(
                self.services
                    .fetch_agent(self.node)
                    .ok_or(Error::NodeDown(self.node))?,
            ),
            Goal::Count(_) => None,
        };
        let missing_slots: Vec<usize> = (0..self.slots.len())
            .filter(|&slot| self.slots[slot].phase != Phase::Done)
            .collect();
        let missing: Vec<ObjectId> = missing_slots.iter().map(|&s| self.slots[s].id).collect();

        // Local seals, table updates and fetch answers: one channel
        // each, however many objects are missing. The two registrations
        // end when this function returns.
        let (seal_tx, seal_rx) = unbounded();
        let (done_tx, done_rx) = unbounded();
        let store = self.store.clone();
        let _local = store
            .as_ref()
            .map(|store| store.subscribe_local_many(&missing, &seal_tx));
        let (current, updates) = self.services.objects.subscribe_many(&missing);
        // Objects with no sealed copy: reconstruction is nudged for them
        // once now and once a tick — after the pass's requests are on
        // the wire, since only those are on anyone's critical path.
        let mut unsealed: Vec<ObjectId> = Vec::new();
        for ((id, &slot), info) in missing.iter().zip(&missing_slots).zip(current) {
            if self.needs_producer(info.as_ref()) {
                unsealed.push(*id);
            }
            if let Some(info) = info {
                self.on_record(slot, info);
            }
        }
        // A raw table update names its object by position in `missing`.
        // Most updates are echoes of this call's own location commits
        // for objects it already has: those are dropped undecoded.
        let on_update = |engine: &mut Self, raw: (usize, Bytes)| {
            let slot = missing_slots[raw.0];
            if engine.slots[slot].phase != Phase::Done {
                if let Some((_, info)) = updates.decode(raw) {
                    engine.on_record(slot, info);
                }
            }
        };

        let mut next_tick = Instant::now() + POLL_SLICE;
        let outcome = loop {
            if self.finished() {
                break Ok(());
            }
            let now = Instant::now();
            if now >= deadline {
                break Err(Error::Timeout);
            }
            self.expire_requests(now);
            if now >= next_tick {
                if let Err(node_down) = self.tick(&mut unsealed) {
                    break Err(node_down);
                }
                next_tick = now + POLL_SLICE;
            }
            if let Some(agent) = &agent {
                self.dispatch(agent, &done_tx, now, deadline);
            }
            for id in unsealed.drain(..) {
                self.recon.handle_missing(id);
            }
            let wake_at = self
                .groups
                .values()
                .filter_map(|g| g.deadline)
                .fold(next_tick.min(deadline), Instant::min);
            crossbeam::channel::select! {
                recv(updates.receiver()) -> msg => match msg {
                    Ok(raw) => on_update(self, raw),
                    Err(_) => break Err(Error::ShuttingDown),
                },
                recv(seal_rx) -> msg => {
                    if let Ok(id) = msg {
                        self.take_local(self.slot_of(id));
                    }
                }
                recv(done_rx) -> msg => {
                    if let Ok((id, result)) = msg {
                        self.on_fetched(id, result);
                    }
                }
                default(wake_at.saturating_duration_since(now)) => {}
            }
            // Whatever else arrived meanwhile is handled in the same
            // pass, so one wake-up commits and dispatches for all of it.
            for id in seal_rx.try_iter() {
                self.take_local(self.slot_of(id));
            }
            for raw in updates.receiver().try_iter() {
                on_update(self, raw);
            }
            for (id, result) in done_rx.try_iter() {
                self.on_fetched(id, result);
            }
            self.commit();
        };
        // The local seal can let the caller go a step before the answer
        // to its own request is sent. Closing the channel through the
        // agent takes every answer sent so far — committed here — and
        // leaves any later one to the node's scheduler, so none is
        // dropped unread with the channel.
        if let Some(agent) = agent.filter(|_| !self.groups.is_empty()) {
            for (id, result) in agent.close(done_rx) {
                self.on_fetched(id, result);
            }
            self.commit();
        }
        outcome
    }

    /// Commits what fetch answers brought to the object table, as one
    /// group commit.
    fn commit(&mut self) {
        if !self.uncommitted.is_empty() {
            rtml_sched::commit_fetched(&self.services.objects, self.node, &self.uncommitted);
            self.uncommitted.clear();
        }
    }

    /// A (new) object-table record for `slot`.
    fn on_record(&mut self, slot: usize, info: ObjectInfo) {
        if self.slots[slot].phase == Phase::Done {
            return;
        }
        match self.goal {
            Goal::Count(_) => {
                if info.sealed {
                    self.complete(slot, None);
                }
            }
            Goal::Values => {
                self.slots[slot].info = Some(info);
                if self.slots[slot].phase == Phase::Idle {
                    self.route(slot);
                }
            }
        }
    }

    /// Puts an idle `slot` whose record shows a sealed copy into the
    /// pending group of its next holder.
    fn route(&mut self, slot: usize) {
        let id = self.slots[slot].id;
        let listed_here = match &self.slots[slot].info {
            Some(info) if info.is_available() => info.locations.contains(&self.node),
            _ => return,
        };
        if listed_here {
            self.take_local(slot);
            if self.slots[slot].phase == Phase::Done {
                return;
            }
        }
        let info = self.slots[slot].info.as_ref().expect("checked above");
        // Rendezvous-ranked holders: the head is this reader's
        // deterministic pick (different readers of a replicated object
        // spread across holders), the tail is the retry order when
        // holders are dead or partitioned. Suspect holders sink to the
        // back, and the retry policy bounds how many a sweep tries.
        let ranked = self
            .services
            .health
            .prefer_healthy(info.holders_ranked(id, self.node));
        if ranked.is_empty() {
            if info.locations == [self.node] {
                // The table claims we hold it but the store disagrees
                // (eviction race): fix the record and reconstruct.
                self.services.objects.remove_location(id, self.node);
                self.recon.handle_missing(id);
            }
            return;
        }
        let sweep = self.services.tuning.retry.max_attempts.max(1) as usize;
        let s = &mut self.slots[slot];
        let next = ranked.iter().find(|h| !s.tried.contains(h));
        match next {
            Some(holder) if s.tried.len() < sweep => {
                s.phase = Phase::Queued;
                self.groups.entry(*holder).or_default().pending.push(slot);
            }
            _ => {
                // Every listed holder is unreachable (partition or
                // silent death): replay the producer rather than spin
                // on fetches. The next tick starts a new sweep.
                s.tried.clear();
                self.recon.force_replay(id);
            }
        }
    }

    /// Sends one request to every holder that has objects pending and
    /// no request outstanding.
    fn dispatch(
        &mut self,
        agent: &FetchAgent,
        done: &Sender<(ObjectId, FetchResult)>,
        now: Instant,
        deadline: Instant,
    ) {
        let timeout = self
            .services
            .tuning
            .fetch_timeout
            .min(deadline.saturating_duration_since(now));
        for (holder, group) in &mut self.groups {
            if group.unanswered > 0 || group.pending.is_empty() {
                continue;
            }
            // An object may have sealed locally while it was queued.
            let slots = &mut self.slots;
            group.pending.retain(|&i| slots[i].phase == Phase::Queued);
            if group.pending.is_empty() {
                continue;
            }
            group.in_flight = std::mem::take(&mut group.pending);
            let ids: Vec<ObjectId> = group
                .in_flight
                .iter()
                .map(|&i| {
                    slots[i].phase = Phase::InFlight;
                    slots[i].asked = Some(*holder);
                    slots[i].id
                })
                .collect();
            group.unanswered = ids.len();
            group.fetched = 0;
            group.deadline = Some(now + timeout);
            agent.request_many(&ids, *holder, timeout, done);
        }
    }

    /// One answer of an outstanding request.
    fn on_fetched(&mut self, id: ObjectId, result: FetchResult) {
        let slot = self.slot_of(id);
        // `asked` is only set while the answer is awaited, so a late
        // answer to a request that was given up on changes no count.
        let holder = self.slots[slot].asked.take();
        if let Some(holder) = holder {
            let group = self
                .groups
                .get_mut(&holder)
                .expect("asked holders have a group");
            group.unanswered -= 1;
            group.fetched += result.is_ok() as usize;
            if group.unanswered == 0 {
                self.close_request(holder);
            }
        }
        match result {
            Ok((bytes, outcome)) => {
                if self.slots[slot].phase != Phase::Done {
                    self.complete(slot, Some(bytes.clone()));
                }
                self.uncommitted.push((id, Ok((bytes, outcome))));
            }
            Err(_) => self.retry_elsewhere(slot, holder),
        }
    }

    /// A request has all its answers (or timed out): record the health
    /// evidence it gave about its holder.
    fn close_request(&mut self, holder: NodeId) {
        let group = self.groups.get_mut(&holder).expect("request has a group");
        group.deadline = None;
        if group.fetched == 0 {
            self.services.health.record_failure(holder);
        } else if group.fetched == group.in_flight.len() {
            self.services.health.record_success(holder);
        }
    }

    /// `holder` could not deliver `slot`: try the next-ranked one.
    fn retry_elsewhere(&mut self, slot: usize, holder: Option<NodeId>) {
        let s = &mut self.slots[slot];
        if s.phase != Phase::InFlight {
            return;
        }
        s.phase = Phase::Idle;
        s.tried.extend(holder);
        self.route(slot);
    }

    /// Gives up on requests that outlived the fetch timeout.
    fn expire_requests(&mut self, now: Instant) {
        let expired: Vec<NodeId> = self
            .groups
            .iter()
            .filter(|(_, g)| g.deadline.is_some_and(|d| now >= d))
            .map(|(holder, _)| *holder)
            .collect();
        for holder in expired {
            let group = self.groups.get_mut(&holder).expect("just listed");
            group.unanswered = 0;
            let unanswered: Vec<usize> = group
                .in_flight
                .iter()
                .copied()
                .filter(|&i| self.slots[i].asked == Some(holder))
                .collect();
            self.close_request(holder);
            for slot in unanswered {
                self.slots[slot].asked = None;
                self.retry_elsewhere(slot, Some(holder));
            }
        }
    }

    /// Once per [`POLL_SLICE`]: the work that must not wait for a
    /// notification that may never come. Idle objects that have a copy
    /// somewhere start a new holder sweep; the rest are listed in
    /// `unsealed` for a reconstruction nudge.
    fn tick(&mut self, unsealed: &mut Vec<ObjectId>) -> Result<()> {
        if let (Goal::Values, Some(store)) = (self.goal, &self.store) {
            // A crashed node's store is detached (and emptied): nothing
            // will ever seal into it again.
            let attached = self.services.store(self.node);
            if !attached.is_some_and(|s| Arc::ptr_eq(&s, store)) {
                return Err(Error::NodeDown(self.node));
            }
        }
        for slot in 0..self.slots.len() {
            if self.slots[slot].phase != Phase::Idle {
                continue;
            }
            if self.needs_producer(self.slots[slot].info.as_ref()) {
                unsealed.push(self.slots[slot].id);
            } else {
                self.route(slot);
            }
        }
        Ok(())
    }
}
