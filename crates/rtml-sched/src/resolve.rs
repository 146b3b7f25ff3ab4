//! The one dependency-resolution engine: "is this object local yet?"
//!
//! The local scheduler releases a task when its inputs are local (paper
//! §3.2) and `get` returns when its object is local (§3.1): one
//! question, answered here once. A [`Resolver`] is a plain state machine
//! over a set of wanted objects. It owns no thread and blocks on
//! nothing; its driver feeds it four inputs — a **table record** arrived
//! ([`Resolver::on_update`], from the one multi-key object-table
//! subscription behind [`Resolver::updates`]), an object **sealed
//! locally** ([`Resolver::on_sealed`]), a **fetch answer** arrived
//! ([`Resolver::on_fetched`]), **time passed** ([`Resolver::pump`],
//! which is also where every decision is taken) — and adds
//! ([`Resolver::add`]) and retires ([`Resolver::retire`]) ids while it
//! runs. It has two drivers: the blocking shell of `get`/`get_many`/
//! `wait`/worker arguments builds one per call, and a local scheduler
//! keeps one for its lifetime, adding each batch's distinct unmet
//! dependencies and retiring them as they seal.
//!
//! An object sealed on holder *h* joins *h*'s pending group. Every
//! holder with a non-empty group and no request outstanding is sent
//! **one** non-blocking [`FetchAgent::request_many`]; what seals on a
//! holder while its request is in flight rides its next one, so request
//! size follows load with no size or time knob, different holders are
//! pulled concurrently, and transfer overlaps whatever the driver does
//! meanwhile. Answers reach the object table as group commits
//! (`commit_fetched`). A failed or timed-out holder advances the
//! object to its next one — [`ObjectInfo::holders_ranked`] with suspect
//! holders last ([`HealthTracker::prefer_healthy`]), at most
//! [`MAX_ATTEMPTS`] holders a sweep, health evidence
//! recorded per request — and an exhausted sweep force-replays the
//! producer ([`Replay::Forced`]); the next tick starts a new sweep.
//! Objects with no sealed copy anywhere get a reconstruction nudge
//! ([`Replay::Missing`]) once per [`POLL_SLICE`] — not one per wake-up
//! — and one in the pass that adds them only if their record says they
//! sealed and lost every copy. A wait on an object that has not sealed
//! yet reads no lineage before it has waited a whole slice: the
//! producer is on its way, and lineage is read when a copy is lost. So a
//! resolver that lives long, as a local scheduler's does, does not nudge
//! what was added just before its tick.
//!
//! **A result already on its way is not asked for.** A worker that
//! pushes a small result to its submitter's node says so in the commit
//! that publishes the seal; `holders_ranked` — the only place a holder
//! is chosen for a reader — offers a reader on the announced node none
//! while the announcement is live, so the object stays idle and
//! completes on the local seal, and is pulled as above by the first
//! tick after the announcement has expired.
//!
//! What only a driver knows stays with the driver, as a filter in front
//! of the resolver rather than a second path: [`Resolver::pump`] offers
//! each object it is about to queue for a request to the driver's
//! admission filter; a refused object stays idle, is offered again on
//! the next tick, and — a copy exists — is neither requested nor
//! reconstructed meanwhile.
//!
//! In count mode ([`Goal::Count`], `wait`) the resolver fetches nothing
//! and counts *completion* (sealed anywhere), not residency.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{Receiver, Sender};

use rtml_common::collections::IdMap;
use rtml_common::ids::{NodeId, ObjectId};
use rtml_common::retry::MAX_ATTEMPTS;
use rtml_kv::{ObjectInfo, ObjectInfoUpdates, ObjectTable};
use rtml_store::{FetchAgent, FetchResult, ObjectStore};

use crate::health::HealthTracker;

/// How often [`Resolver::pump`] nudges reconstruction for objects that
/// still have no sealed copy, and offers idle objects that have one a
/// new holder sweep. A never-sealed object's first nudge is the first
/// tick a whole slice after it was added: a `get` that waits less than
/// this reads no lineage.
pub const POLL_SLICE: Duration = Duration::from_millis(10);

/// What the objects are wanted for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Goal {
    /// Their bytes, resident in the local store.
    Values,
    /// Their completion anywhere; nothing is fetched.
    Count,
}

/// What the resolver asks of lineage reconstruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Replay {
    /// No sealed copy is known: replay the producer unless it is still
    /// on its way (the hook decides; asked every tick, so a producer
    /// watched past the backstop's bound is noticed, and at once for an
    /// object added after its last copy was lost). For an object that
    /// never sealed the hook asks only whether the producer was marked
    /// lost, which reads no task state.
    Missing,
    /// Copies are listed but a whole sweep of holders failed to deliver:
    /// replay the producer although copies appear to exist.
    Forced,
}

/// What one resolver pass asks of lineage reconstruction, in order.
pub type Replays = [(ObjectId, Replay)];

/// What a [`Resolver`] works with.
pub struct Wiring {
    /// The node objects are wanted on.
    pub node: NodeId,
    /// Object table view.
    pub objects: ObjectTable,
    /// The node's store (`None`: residency is never checked, as for a
    /// `wait` on a node that is gone).
    pub store: Option<Arc<ObjectStore>>,
    /// The node's fetch client. `None` sends nothing: count mode, and a
    /// scripted test that plays the holders itself.
    pub agent: Option<Arc<FetchAgent>>,
    /// Where the agent answers requests: the driver holds the other end
    /// and feeds what arrives to [`Resolver::on_fetched`].
    pub answers: Sender<(ObjectId, FetchResult)>,
    /// Peer health: consulted to rank holders, told how requests went.
    pub health: Arc<HealthTracker>,
    /// How long a request may stay unanswered before it is given up on.
    pub fetch_timeout: Duration,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Waiting for a seal, for admission, or for the next holder sweep.
    Idle,
    /// In some holder's pending group.
    Queued,
    /// Named in an outstanding request.
    InFlight,
    Done,
    /// Retired while named in an outstanding request: kept until the
    /// answer (or its expiry) so the request's accounting stays whole.
    Retired,
}

/// One wanted object.
struct Slot {
    id: ObjectId,
    /// How many times it was added.
    positions: usize,
    phase: Phase,
    bytes: Option<Bytes>,
    /// Latest object-table record seen.
    info: Option<ObjectInfo>,
    /// Holder of the request this object is still unanswered in.
    asked: Option<NodeId>,
    /// When its latest request left (nanos since the process epoch).
    sent_at_nanos: Option<u64>,
    /// Holders that failed in the current sweep.
    tried: Vec<NodeId>,
    /// Whether the admission filter has been offered this object.
    offered: bool,
    /// The resolver's time when the object was added: it is not nudged
    /// for reconstruction before it has waited a whole [`POLL_SLICE`].
    added: Instant,
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

/// The dependency-resolution state machine (see the module docs).
pub struct Resolver {
    goal: Goal,
    wiring: Wiring,
    updates: ObjectInfoUpdates,
    /// Wanted objects by sequence number: the order they were added in,
    /// which is the order they are offered for admission in, and the tag
    /// their table updates arrive under (never reused, so an update of a
    /// retired object finds nothing).
    slots: BTreeMap<usize, Slot>,
    index: IdMap<ObjectId, usize>,
    next_seq: usize,
    /// Added positions complete so far.
    satisfied: usize,
    groups: BTreeMap<NodeId, HolderGroup>,
    /// Idle slots to route on the next pump.
    routable: Vec<usize>,
    /// Reconstruction requests for the next pump's hook.
    replays: Vec<(ObjectId, Replay)>,
    /// Successful fetch answers not yet committed to the object table.
    uncommitted: Vec<(ObjectId, FetchResult)>,
    next_tick: Instant,
    /// The latest time it was told: its construction's, then each
    /// pump's.
    now: Instant,
}

impl Resolver {
    /// A resolver with nothing to resolve yet.
    pub fn new(goal: Goal, wiring: Wiring) -> Self {
        let updates = wiring.objects.updates();
        let now = Instant::now();
        Resolver {
            goal,
            wiring,
            updates,
            slots: BTreeMap::new(),
            index: IdMap::default(),
            next_seq: 0,
            satisfied: 0,
            groups: BTreeMap::new(),
            routable: Vec::new(),
            replays: Vec::new(),
            uncommitted: Vec::new(),
            next_tick: now + POLL_SLICE,
            now,
        }
    }

    /// The channel the table records of wanted objects arrive on; the
    /// driver feeds its messages to [`Resolver::on_update`].
    pub fn updates(&self) -> &Receiver<(usize, Bytes)> {
        self.updates.receiver()
    }

    /// Starts resolving `ids` (duplicates and ids already wanted count
    /// as further positions of the same object). What is in the local
    /// store is complete at once; the rest share one object-table
    /// registration, one lock per touched kv shard, which also reads
    /// their current records. An object whose record says it sealed and
    /// lost every copy is nudged for reconstruction in this pass; one
    /// that never sealed is its producer's business until the next tick.
    pub fn add(&mut self, ids: &[ObjectId]) {
        let mut fresh: Vec<(usize, ObjectId)> = Vec::with_capacity(ids.len());
        for &id in ids {
            if let Some(&seq) = self.index.get(&id) {
                let slot = self.slots.get_mut(&seq).expect("indexed slots exist");
                if slot.phase == Phase::Retired {
                    // Sealed here, lost again and wanted again, all
                    // before the answer to its request: the answer now
                    // counts.
                    slot.phase = Phase::InFlight;
                    slot.positions = 1;
                    fresh.push((seq, id));
                } else {
                    slot.positions += 1;
                    self.satisfied += (slot.phase == Phase::Done) as usize;
                }
                continue;
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            self.index.insert(id, seq);
            let slot = Slot {
                id,
                positions: 1,
                phase: Phase::Idle,
                bytes: None,
                info: None,
                asked: None,
                sent_at_nanos: None,
                tried: Vec::new(),
                offered: false,
                added: self.now,
            };
            self.slots.insert(seq, slot);
            self.take_local(seq);
            if self.slots[&seq].phase == Phase::Idle {
                fresh.push((seq, id));
            }
        }
        if fresh.is_empty() {
            return;
        }
        let current = self.updates.add(&fresh);
        for ((seq, id), info) in fresh.into_iter().zip(current) {
            let Some(info) = info else { continue };
            if self.goal == Goal::Values && info.sealed && info.locations.is_empty() {
                self.replays.push((id, Replay::Missing));
            }
            self.on_record(seq, info);
        }
    }

    /// Stops resolving `id` (ignored if unknown) and ends its table
    /// registration. The driver's way of saying an object is no longer
    /// its concern — it sealed locally and the driver saw it.
    pub fn retire(&mut self, id: ObjectId) {
        let Some(&seq) = self.index.get(&id) else {
            return;
        };
        let slot = self.slots.get_mut(&seq).expect("indexed slots exist");
        match slot.phase {
            Phase::Retired => return,
            Phase::Done => self.satisfied -= slot.positions,
            _ => {}
        }
        self.updates.retire(id);
        if slot.asked.is_some() {
            slot.phase = Phase::Retired;
            slot.bytes = None;
        } else {
            self.forget(seq);
        }
    }

    fn forget(&mut self, seq: usize) {
        if let Some(slot) = self.slots.remove(&seq) {
            self.index.remove(&slot.id);
        }
    }

    /// Added positions (see [`Resolver::add`]) that are complete: in
    /// [`Goal::Values`] mode resident locally, bytes in hand; in
    /// [`Goal::Count`] mode sealed anywhere.
    pub fn satisfied(&self) -> usize {
        self.satisfied
    }

    fn slot(&self, id: ObjectId) -> Option<&Slot> {
        self.slots.get(self.index.get(&id)?)
    }

    /// Whether `id` is wanted and complete.
    pub fn is_done(&self, id: ObjectId) -> bool {
        self.slot(id).is_some_and(|slot| slot.phase == Phase::Done)
    }

    /// The bytes of `id`, once it is complete in [`Goal::Values`] mode.
    pub fn bytes(&self, id: ObjectId) -> Option<Bytes> {
        self.slot(id).and_then(|slot| slot.bytes.clone())
    }

    /// Objects named in a request that is still unanswered, with the
    /// holder asked.
    pub fn in_flight(&self) -> impl Iterator<Item = (ObjectId, NodeId)> + '_ {
        self.groups.iter().flat_map(move |(holder, group)| {
            let awaited = move |seq: &usize| {
                let slot = self.slots.get(seq)?;
                let awaited = slot.phase == Phase::InFlight && slot.asked == Some(*holder);
                awaited.then_some((slot.id, *holder))
            };
            group.in_flight.iter().filter_map(awaited)
        })
    }

    /// Whether any request has ever been sent: answers may still be on
    /// their way to the driver's channel.
    pub fn has_requested(&self) -> bool {
        !self.groups.is_empty()
    }

    /// When [`Resolver::pump`] next has something to do without any
    /// input: the next tick, or a request's expiry.
    pub fn next_wake(&self) -> Instant {
        let deadlines = self.groups.values().filter_map(|group| group.deadline);
        deadlines.fold(self.next_tick, Instant::min)
    }

    /// Whether an object with this record still depends on its producer
    /// (re)running: nothing sealed anywhere — or, when the bytes are
    /// wanted, no copy left.
    fn needs_producer(&self, info: Option<&ObjectInfo>) -> bool {
        match self.goal {
            Goal::Values => !info.is_some_and(ObjectInfo::is_available),
            Goal::Count => !info.is_some_and(|info| info.sealed),
        }
    }

    fn complete(&mut self, seq: usize, bytes: Option<Bytes>) {
        let slot = self.slots.get_mut(&seq).expect("completed slots exist");
        slot.phase = Phase::Done;
        slot.bytes = bytes;
        self.satisfied += slot.positions;
    }

    /// Completes the slot from the local store if the object is there.
    fn take_local(&mut self, seq: usize) {
        let (Some(store), Some(slot)) = (&self.wiring.store, self.slots.get(&seq)) else {
            return;
        };
        if matches!(slot.phase, Phase::Done | Phase::Retired) {
            return;
        }
        let found = match self.goal {
            Goal::Values => store.get(slot.id).map(Some),
            Goal::Count => store.contains(slot.id).then_some(None),
        };
        if let Some(bytes) = found {
            self.complete(seq, bytes);
        }
    }

    /// Input: `id` sealed in the local store.
    pub fn on_sealed(&mut self, id: ObjectId) {
        if let Some(&seq) = self.index.get(&id) {
            self.take_local(seq);
        }
    }

    /// Input: one raw message of [`Resolver::updates`]. Most updates
    /// are echoes of this node's own location commits for objects it
    /// already has: those are dropped undecoded, like updates of objects
    /// retired since.
    pub fn on_update(&mut self, (seq, record): (usize, Bytes)) {
        let wanted = self.slots.get(&seq);
        let Some(slot) = wanted.filter(|s| !matches!(s.phase, Phase::Done | Phase::Retired)) else {
            return;
        };
        if let Some(info) = ObjectTable::decode(slot.id, &record) {
            self.on_record(seq, info);
        }
    }

    /// A (new) object-table record for a slot.
    fn on_record(&mut self, seq: usize, info: ObjectInfo) {
        match self.goal {
            Goal::Count => {
                if info.sealed {
                    self.complete(seq, None);
                }
            }
            Goal::Values => {
                let slot = self.slots.get_mut(&seq).expect("recorded slots exist");
                slot.info = Some(info);
                if slot.phase == Phase::Idle {
                    self.routable.push(seq);
                }
            }
        }
    }

    /// Input: one answer from the fetch agent — to a request of this
    /// resolver's, or about an object the agent sealed with nobody
    /// waiting (a driver that is the agent's standing sink passes those
    /// on too; they are committed like any other). Returns when the
    /// latest request for `id` left, if this resolver ever sent one.
    pub fn on_fetched(&mut self, id: ObjectId, result: FetchResult) -> Option<u64> {
        let Some(&seq) = self.index.get(&id) else {
            self.uncommitted.push((id, result));
            return None;
        };
        let slot = self.slots.get_mut(&seq).expect("indexed slots exist");
        let (phase, sent_at_nanos) = (slot.phase, slot.sent_at_nanos);
        // `asked` is only set while the answer is awaited, so a late
        // answer to a request that was given up on changes no count.
        let holder = slot.asked.take();
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
                if !matches!(phase, Phase::Done | Phase::Retired) {
                    self.complete(seq, Some(bytes.clone()));
                }
                self.uncommitted.push((id, Ok((bytes, outcome))));
            }
            Err(_) => self.retry_elsewhere(seq, holder),
        }
        if phase == Phase::Retired {
            self.forget(seq);
        }
        sent_at_nanos
    }

    /// A request has all its answers (or timed out): record the health
    /// evidence it gave about its holder.
    fn close_request(&mut self, holder: NodeId) {
        let group = self.groups.get_mut(&holder).expect("request has a group");
        group.deadline = None;
        if group.fetched == 0 {
            self.wiring.health.record_failure(holder);
        } else if group.fetched == group.in_flight.len() {
            self.wiring.health.record_success(holder);
        }
    }

    /// `holder` could not deliver the slot: try the next-ranked one.
    fn retry_elsewhere(&mut self, seq: usize, holder: Option<NodeId>) {
        let Some(slot) = self.slots.get_mut(&seq) else {
            return;
        };
        if slot.phase == Phase::InFlight {
            slot.phase = Phase::Idle;
            slot.tried.extend(holder);
            self.routable.push(seq);
        }
    }

    /// Gives up on requests that outlived the fetch timeout.
    fn expire(&mut self, now: Instant) {
        let overdue = |group: &HolderGroup| group.deadline.is_some_and(|d| now >= d);
        let expired: Vec<NodeId> = self
            .groups
            .iter()
            .filter(|(_, group)| overdue(group))
            .map(|(holder, _)| *holder)
            .collect();
        for holder in expired {
            let group = self.groups.get_mut(&holder).expect("just listed");
            group.unanswered = 0;
            let slots = &self.slots;
            let asked = |seq: &&usize| slots.get(seq).is_some_and(|s| s.asked == Some(holder));
            let unanswered: Vec<usize> = group.in_flight.iter().filter(asked).copied().collect();
            self.close_request(holder);
            for seq in unanswered {
                let slot = self.slots.get_mut(&seq).expect("just filtered");
                slot.asked = None;
                if slot.phase == Phase::Retired {
                    self.forget(seq);
                } else {
                    self.retry_elsewhere(seq, Some(holder));
                }
            }
        }
    }

    /// Once per [`POLL_SLICE`]: the work that must not wait for a
    /// notification that may never come. Idle objects that have a copy
    /// somewhere are offered a new holder sweep; the rest get a
    /// reconstruction nudge — one whose every copy is lost at once, one
    /// that never sealed once it has waited a whole slice.
    fn tick(&mut self, now: Instant) {
        for (&seq, slot) in &self.slots {
            if slot.phase != Phase::Idle {
                continue;
            }
            let info = slot.info.as_ref();
            if self.needs_producer(info) {
                let lost = info.is_some_and(|info| info.sealed);
                if lost || slot.added + POLL_SLICE <= now {
                    self.replays.push((slot.id, Replay::Missing));
                }
            } else {
                self.routable.push(seq);
            }
        }
    }

    /// Puts an idle slot whose record shows a sealed copy into the
    /// pending group of its next holder, if `admit` lets it.
    fn route(&mut self, seq: usize, admit: &mut dyn FnMut(ObjectId, u64, bool) -> bool) {
        let node = self.wiring.node;
        let listed_here = match self.slots.get(&seq) {
            Some(Slot {
                phase: Phase::Idle,
                info: Some(info),
                ..
            }) if info.is_available() => info.locations.contains(&node),
            _ => return,
        };
        if listed_here {
            self.take_local(seq);
        }
        let slot = self.slots.get_mut(&seq).expect("checked above");
        if slot.phase != Phase::Idle {
            return;
        }
        let (id, info) = (slot.id, slot.info.as_ref().expect("checked above"));
        // Rendezvous-ranked holders: the head is this reader's
        // deterministic pick (different readers of a replicated object
        // spread across holders), the tail is the retry order when
        // holders are dead or partitioned. Suspect holders sink to the
        // back, and `MAX_ATTEMPTS` bounds how many a sweep tries.
        let ranked = self
            .wiring
            .health
            .prefer_healthy(info.holders_ranked(id, node));
        if ranked.is_empty() {
            if info.locations == [node] {
                // The table claims we hold it but the store disagrees
                // (eviction race): fix the record and reconstruct.
                self.wiring.objects.remove_location(id, node);
                self.replays.push((id, Replay::Missing));
            }
            return;
        }
        let sweep = MAX_ATTEMPTS as usize;
        match ranked.iter().find(|holder| !slot.tried.contains(holder)) {
            Some(holder) if slot.tried.len() < sweep => {
                let again = std::mem::replace(&mut slot.offered, true);
                if admit(id, info.size, again) {
                    slot.phase = Phase::Queued;
                    self.groups.entry(*holder).or_default().pending.push(seq);
                }
            }
            _ => {
                // Every listed holder is unreachable (partition or
                // silent death): replay the producer rather than spin
                // on fetches. The next tick starts a new sweep.
                slot.tried.clear();
                self.replays.push((id, Replay::Forced));
            }
        }
    }

    /// Sends one request to every holder that has objects pending and
    /// no request outstanding. Returns the objects requested for the
    /// first time, by holder.
    fn dispatch(&mut self, now: Instant) -> Vec<(NodeId, Vec<ObjectId>)> {
        let mut announced = Vec::new();
        let slots = &mut self.slots;
        for (holder, group) in &mut self.groups {
            if group.unanswered > 0 || group.pending.is_empty() {
                continue;
            }
            // An object may have sealed locally, or been retired, while
            // it was queued.
            let queued = |seq: &usize| slots.get(seq).is_some_and(|s| s.phase == Phase::Queued);
            group.pending.retain(queued);
            if group.pending.is_empty() {
                continue;
            }
            group.in_flight = std::mem::take(&mut group.pending);
            let sent_at_nanos = rtml_common::time::now_nanos();
            let mut first = Vec::new();
            let ids: Vec<ObjectId> = group
                .in_flight
                .iter()
                .map(|seq| {
                    let slot = slots.get_mut(seq).expect("retained above");
                    slot.phase = Phase::InFlight;
                    slot.asked = Some(*holder);
                    if slot.sent_at_nanos.replace(sent_at_nanos).is_none() {
                        first.push(slot.id);
                    }
                    slot.id
                })
                .collect();
            group.unanswered = ids.len();
            group.fetched = 0;
            group.deadline = Some(now + self.wiring.fetch_timeout);
            if let Some(agent) = &self.wiring.agent {
                let timeout = self.wiring.fetch_timeout;
                agent.request_many(&ids, *holder, timeout, &self.wiring.answers);
            }
            if !first.is_empty() {
                announced.push((*holder, first));
            }
        }
        announced
    }

    /// Commits what fetch answers brought to the object table, as one
    /// group commit. [`Resolver::pump`] does this; a driver that takes
    /// answers after its last pump does it itself.
    pub fn commit(&mut self) {
        if !self.uncommitted.is_empty() {
            commit_fetched(&self.wiring.objects, self.wiring.node, &self.uncommitted);
            self.uncommitted.clear();
        }
    }

    /// Input: time passed — and the one place decisions are taken, on
    /// what the other inputs recorded since the last call. Overdue
    /// requests are given up on, a due tick's work is done, every object
    /// that became routable is offered to `admit(id, size, again)` in
    /// the order it was added (`again`: offered before) and, admitted,
    /// queued for its next holder, one request per free holder leaves,
    /// `replay` is asked, once, for everything that needs its producer —
    /// after the requests are on the wire, since only those are on
    /// anyone's critical path; it runs on the driver's thread and must
    /// not block — and answers are committed.
    ///
    /// Returns the objects requested *for the first time*, by holder:
    /// what a driver announces (events). Retries are not
    /// announced; [`Resolver::in_flight`] shows them.
    pub fn pump(
        &mut self,
        now: Instant,
        admit: &mut dyn FnMut(ObjectId, u64, bool) -> bool,
        replay: &dyn Fn(&Replays),
    ) -> Vec<(NodeId, Vec<ObjectId>)> {
        self.now = now;
        self.expire(now);
        if now >= self.next_tick {
            self.tick(now);
            self.next_tick = now + POLL_SLICE;
        }
        if !self.routable.is_empty() {
            let mut routable = std::mem::take(&mut self.routable);
            routable.sort_unstable();
            routable.dedup();
            for seq in routable {
                self.route(seq, admit);
            }
        }
        let announced = self.dispatch(now);
        if !self.replays.is_empty() {
            replay(&std::mem::take(&mut self.replays));
        }
        self.commit();
        announced
    }
}

/// Commits a set of fetch outcomes on node `me` to the object table as
/// group commits: one `add_location_many` for everything now local,
/// one deduplicated `remove_location_many` for the eviction fallout.
pub(crate) fn commit_fetched(
    objects: &ObjectTable,
    me: NodeId,
    results: &[(ObjectId, FetchResult)],
) {
    let mut located: Vec<(ObjectId, u64)> = Vec::new();
    let mut evicted_all: Vec<ObjectId> = Vec::new();
    for (object, result) in results {
        if let Ok((data, outcome)) = result {
            located.push((*object, data.len() as u64));
            evicted_all.extend(outcome.evicted.iter().copied());
        }
    }
    if !located.is_empty() {
        objects.add_location_many(&located, me);
    }
    if !evicted_all.is_empty() {
        evicted_all.sort();
        evicted_all.dedup();
        objects.remove_location_many(&evicted_all, me);
    }
}

#[cfg(test)]
mod tests {
    //! The resolver as a plain state machine: scripted records, seals,
    //! answers and ticks. No threads, no fabric, no sleeps — time is the
    //! `Instant` handed to `pump`, and the holders are played by hand
    //! (the wiring has no agent, so requests are decided but not sent).

    use super::*;
    use std::cell::RefCell;

    use rtml_common::error::Error;
    use rtml_common::ids::{DriverId, TaskId};
    use rtml_kv::{Inbound, KvStore};
    use rtml_store::{Fetched, StoreConfig};

    const ME: NodeId = NodeId(0);
    /// Shorter than a poll slice, so a test can let a request expire
    /// without a tick in between.
    const FETCH_TIMEOUT: Duration = Duration::from_millis(5);

    struct Rig {
        kv: Arc<KvStore>,
        objects: ObjectTable,
        store: Arc<ObjectStore>,
        health: Arc<HealthTracker>,
        resolver: Resolver,
        replays: RefCell<Vec<(ObjectId, Replay)>>,
        start: Instant,
        _answers: Receiver<(ObjectId, FetchResult)>,
    }

    fn rig(goal: Goal) -> Rig {
        rig_with(goal, Duration::from_secs(2))
    }

    fn rig_with(goal: Goal, fetch_timeout: Duration) -> Rig {
        let kv = KvStore::new(4);
        let objects = ObjectTable::new(kv.clone());
        let store = Arc::new(ObjectStore::new(StoreConfig {
            node: ME,
            ..StoreConfig::default()
        }));
        let health = HealthTracker::new();
        let (answers, _answers) = crossbeam::channel::unbounded();
        let wiring = Wiring {
            node: ME,
            objects: objects.clone(),
            store: Some(store.clone()),
            agent: None,
            answers,
            health: health.clone(),
            fetch_timeout,
        };
        Rig {
            kv,
            objects,
            store,
            health,
            resolver: Resolver::new(goal, wiring),
            replays: RefCell::default(),
            start: Instant::now(),
            _answers,
        }
    }

    impl Rig {
        /// Delivers the table records written since the last call, then
        /// pumps at `start + after` with `admit` as the filter.
        fn pump_with(
            &mut self,
            after: Duration,
            admit: &mut dyn FnMut(ObjectId, u64, bool) -> bool,
        ) -> Vec<(NodeId, Vec<ObjectId>)> {
            let records: Vec<_> = self.resolver.updates().try_iter().collect();
            for record in records {
                self.resolver.on_update(record);
            }
            let replays = &self.replays;
            let replay = |batch: &Replays| replays.borrow_mut().extend_from_slice(batch);
            self.resolver.pump(self.start + after, admit, &replay)
        }

        fn pump(&mut self, after: Duration) -> Vec<(NodeId, Vec<ObjectId>)> {
            self.pump_with(after, &mut |_, _, _| true)
        }

        fn in_flight(&self) -> Vec<(ObjectId, NodeId)> {
            self.resolver.in_flight().collect()
        }

        fn replays(&self) -> Vec<(ObjectId, Replay)> {
            self.replays.take()
        }
    }

    fn obj(i: u64) -> ObjectId {
        TaskId::driver_root(DriverId::from_index(0))
            .child(i)
            .return_object(0)
    }

    fn fetched(from: NodeId) -> FetchResult {
        let how = Fetched {
            inserted: true,
            evicted: Vec::new(),
            from,
            pushed_at_nanos: None,
        };
        Ok((Bytes::from_static(b"value"), how))
    }

    const TICK: Duration = POLL_SLICE;
    const SOON: Duration = Duration::from_millis(1);

    #[test]
    fn a_local_seal_completes_a_slot_and_ends_the_nudges() {
        let mut r = rig(Goal::Values);
        r.resolver.add(&[obj(1), obj(1)]);
        // Nothing sealed anywhere: one nudge a tick, the first at the
        // first tick.
        assert!(r.pump(SOON).is_empty());
        assert_eq!(r.replays(), vec![]);
        r.pump(TICK);
        assert_eq!(r.replays(), vec![(obj(1), Replay::Missing)]);
        r.pump(TICK + SOON);
        assert_eq!(r.replays(), vec![]);
        r.pump(TICK * 2);
        assert_eq!(r.replays(), vec![(obj(1), Replay::Missing)]);
        assert_eq!(r.resolver.satisfied(), 0);

        r.store.put(obj(1), Bytes::from_static(b"v")).unwrap();
        r.resolver.on_sealed(obj(1));
        assert_eq!(r.resolver.satisfied(), 2, "both positions");
        assert!(r.resolver.is_done(obj(1)));
        assert_eq!(r.resolver.bytes(obj(1)), Some(Bytes::from_static(b"v")));
        r.pump(TICK * 3);
        assert_eq!(r.replays(), vec![]);
        assert!(r.in_flight().is_empty());
    }

    #[test]
    fn a_lost_copy_is_nudged_in_the_pass_that_added_it() {
        let mut r = rig(Goal::Values);
        // Sealed once, its only copy lost since.
        r.objects.add_location(obj(1), NodeId(1), 5);
        r.objects.remove_location(obj(1), NodeId(1));
        r.resolver.add(&[obj(1), obj(2)]);
        assert_eq!(r.pump(SOON), vec![]);
        assert!(r.in_flight().is_empty());
        // The one that never sealed waits for the tick.
        assert_eq!(r.replays(), vec![(obj(1), Replay::Missing)]);
        r.pump(TICK);
        assert_eq!(
            r.replays(),
            vec![(obj(1), Replay::Missing), (obj(2), Replay::Missing)]
        );
    }

    #[test]
    fn a_never_sealed_object_is_first_nudged_at_the_tick() {
        let mut r = rig(Goal::Values);
        // One with no record at all, one declared by its producer.
        let producer = obj(2).producer_task();
        r.objects.declare(obj(2), producer);
        r.resolver.add(&[obj(1), obj(2)]);
        r.pump(SOON);
        r.pump(SOON * 2);
        assert_eq!(r.replays(), vec![]);
        r.pump(TICK);
        assert_eq!(
            r.replays(),
            vec![(obj(1), Replay::Missing), (obj(2), Replay::Missing)]
        );
        // Sealed on a holder before the next tick: fetched, not nudged.
        r.objects.add_location(obj(1), NodeId(1), 5);
        r.objects.add_location(obj(2), NodeId(1), 5);
        assert_eq!(r.pump(TICK + SOON), vec![(NodeId(1), vec![obj(1), obj(2)])]);
        r.pump(TICK * 2);
        assert_eq!(r.replays(), vec![]);
    }

    #[test]
    fn an_object_added_just_before_a_tick_is_first_nudged_a_slice_later() {
        let mut r = rig(Goal::Values);
        r.resolver.add(&[obj(1)]);
        // A long-lived resolver: obj(2) and obj(3) arrive in the pass
        // just before the tick, long after obj(1).
        r.pump(TICK - SOON);
        assert_eq!(r.replays(), vec![]);
        r.resolver.add(&[obj(2), obj(3)]);
        // obj(3) seals on a holder and loses that copy before the tick:
        // a loss is nudged at once, however new the wait.
        r.objects.add_location(obj(3), NodeId(1), 5);
        r.objects.remove_location(obj(3), NodeId(1));
        r.pump(TICK);
        assert_eq!(
            r.replays(),
            vec![(obj(1), Replay::Missing), (obj(3), Replay::Missing)]
        );
        // It has waited a whole slice by the next tick.
        r.pump(TICK * 2 - SOON);
        assert_eq!(r.replays(), vec![]);
        r.pump(TICK * 2);
        let nudged = vec![(obj(1), Replay::Missing), (obj(2), Replay::Missing)];
        assert_eq!(
            r.replays(),
            [nudged, vec![(obj(3), Replay::Missing)]].concat()
        );
    }

    #[test]
    fn a_failed_holder_advances_to_the_next_ranked_one_and_is_remembered() {
        let mut r = rig(Goal::Values);
        for holder in [NodeId(1), NodeId(2)] {
            r.objects.add_location(obj(1), holder, 5);
        }
        let ranked = r.objects.get(obj(1)).unwrap().holders_ranked(obj(1), ME);
        let (first, second) = (ranked[0], ranked[1]);
        r.resolver.add(&[obj(1)]);
        // Located when added: requested in the first pump, and announced.
        assert_eq!(r.pump(SOON), vec![(first, vec![obj(1)])]);
        assert_eq!(r.in_flight(), vec![(obj(1), first)]);
        assert_eq!(r.replays(), vec![], "a copy exists");

        // The retry goes to the next holder and is not announced.
        r.resolver.on_fetched(obj(1), Err(Error::NodeDown(first)));
        assert_eq!(r.pump(SOON * 2), vec![]);
        assert_eq!(r.in_flight(), vec![(obj(1), second)]);

        // One failed request is evidence, two make a suspect, and a
        // suspect is ranked last.
        assert!(!r.health.is_suspect(first));
        r.objects.add_location(obj(2), first, 5);
        r.resolver.add(&[obj(2)]);
        r.pump(SOON * 3);
        r.resolver.on_fetched(obj(2), Err(Error::NodeDown(first)));
        r.pump(SOON * 4);
        assert!(r.health.is_suspect(first));
        assert!(!r.health.is_suspect(second));

        // The second holder delivers: complete, committed on the pump.
        r.resolver.on_fetched(obj(1), fetched(second));
        assert!(r.resolver.is_done(obj(1)));
        r.pump(SOON * 5);
        assert!(r.objects.get(obj(1)).unwrap().locations.contains(&ME));
    }

    #[test]
    fn an_exhausted_sweep_force_replays_once_and_the_next_tick_starts_a_new_one() {
        // `MAX_ATTEMPTS` holders a sweep, one more listed.
        let sweep = MAX_ATTEMPTS as usize;
        let mut r = rig_with(Goal::Values, FETCH_TIMEOUT);
        for holder in (1..=sweep as u32 + 1).map(NodeId) {
            r.objects.add_location(obj(1), holder, 5);
        }
        let ranked = r.objects.get(obj(1)).unwrap().holders_ranked(obj(1), ME);
        r.resolver.add(&[obj(1)]);
        r.pump(SOON);
        // The sweep's first holders answer that they are gone, its last
        // says nothing until the request has outlived the fetch timeout.
        for holder in &ranked[..sweep - 1] {
            assert_eq!(r.in_flight(), vec![(obj(1), *holder)]);
            r.resolver.on_fetched(obj(1), Err(Error::NodeDown(*holder)));
            r.pump(SOON * 2);
        }
        assert_eq!(r.in_flight(), vec![(obj(1), ranked[sweep - 1])]);
        assert_eq!(r.resolver.next_wake(), r.start + SOON * 2 + FETCH_TIMEOUT);
        r.pump(SOON * 2 + FETCH_TIMEOUT);
        assert!(
            r.in_flight().is_empty(),
            "the holder past the sweep is not tried"
        );
        let forced = |replays: Vec<(ObjectId, Replay)>| {
            let forced = replays
                .into_iter()
                .filter(|(_, how)| *how == Replay::Forced);
            forced.count()
        };
        assert_eq!(forced(r.replays()), 1);
        // Nothing more until the tick, which starts over at the head.
        r.pump(SOON * 3 + FETCH_TIMEOUT);
        assert!(r.in_flight().is_empty());
        assert_eq!(
            r.pump(FETCH_TIMEOUT + TICK * 2),
            vec![],
            "not announced again"
        );
        assert_eq!(r.in_flight().len(), 1);
        assert_eq!(forced(r.replays()), 0);
    }

    #[test]
    fn a_refused_object_is_neither_requested_nor_reconstructed_until_admitted() {
        let mut r = rig(Goal::Values);
        r.objects.add_location(obj(1), NodeId(1), 64);
        r.objects.add_location(obj(2), NodeId(1), 8);
        r.resolver.add(&[obj(1), obj(2)]);
        // The filter sees submission order, sizes, and first offers; it
        // refuses the big one.
        let mut offers = Vec::new();
        let mut tight = |id: ObjectId, size: u64, again: bool| {
            offers.push((id, size, again));
            size <= 8
        };
        assert_eq!(
            r.pump_with(SOON, &mut tight),
            vec![(NodeId(1), vec![obj(2)])]
        );
        assert_eq!(r.in_flight(), vec![(obj(2), NodeId(1))]);
        // Offered again on the tick, not before; never reconstructed.
        r.pump_with(SOON * 2, &mut tight);
        r.pump_with(TICK, &mut tight);
        assert_eq!(
            offers,
            vec![(obj(1), 64, false), (obj(2), 8, false), (obj(1), 64, true)]
        );
        assert_eq!(r.replays(), vec![]);
        // Headroom returns: requested on the next tick's offer, once the
        // holder is free of its earlier request.
        r.resolver.on_fetched(obj(2), fetched(NodeId(1)));
        assert_eq!(r.pump(TICK * 2), vec![(NodeId(1), vec![obj(1)])]);
        assert_eq!(r.in_flight(), vec![(obj(1), NodeId(1))]);
        assert_eq!(r.replays(), vec![]);
    }

    #[test]
    fn a_late_answer_after_give_up_changes_no_count() {
        let mut r = rig_with(Goal::Values, FETCH_TIMEOUT);
        r.objects.add_location(obj(1), NodeId(1), 5);
        r.objects.add_location(obj(2), NodeId(1), 5);
        r.resolver.add(&[obj(1), obj(2)]);
        r.pump(SOON);
        assert_eq!(r.in_flight().len(), 2);
        // One request, two objects, no answer: given up on after the
        // timeout, and with no other holder the sweep is over.
        r.pump(SOON + FETCH_TIMEOUT);
        assert!(r.in_flight().is_empty());
        assert_eq!(r.replays().len(), 2);
        // The holder's refusal of one arrives now. It answers no
        // outstanding request: nothing is counted, nothing is retried.
        let sent = r
            .resolver
            .on_fetched(obj(1), Err(Error::NodeDown(NodeId(1))));
        assert!(sent.is_some(), "its request did leave once");
        r.pump(SOON * 2 + FETCH_TIMEOUT);
        assert!(r.in_flight().is_empty());
        assert_eq!(r.replays(), vec![]);
        assert_eq!(r.resolver.satisfied(), 0);
        // The other's bytes arrive late: taken, and counted once.
        r.resolver.on_fetched(obj(2), fetched(NodeId(1)));
        r.resolver.on_fetched(obj(2), fetched(NodeId(1)));
        assert_eq!(r.resolver.satisfied(), 1);
        // The next sweep asks for what is still missing, and only that.
        r.pump(TICK + FETCH_TIMEOUT);
        assert_eq!(r.in_flight(), vec![(obj(1), NodeId(1))]);
    }

    #[test]
    fn count_mode_fetches_nothing_and_counts_completion_not_residency() {
        let mut r = rig(Goal::Count);
        r.objects.add_location(obj(1), NodeId(1), 5);
        // Sealed once, every copy lost since: its task completed.
        r.objects.add_location(obj(2), NodeId(1), 5);
        r.objects.remove_location(obj(2), NodeId(1));
        r.resolver.add(&[obj(1), obj(2), obj(3)]);
        assert_eq!(r.resolver.satisfied(), 2);
        assert_eq!(r.pump(SOON), vec![]);
        assert!(r.in_flight().is_empty());
        assert!(!r.store.contains(obj(1)));
        // Only what never sealed needs its producer, first at the tick.
        assert_eq!(r.replays(), vec![]);
        r.pump(TICK);
        assert_eq!(r.replays(), vec![(obj(3), Replay::Missing)]);
        r.objects.add_location(obj(3), NodeId(2), 5);
        r.pump(TICK + SOON);
        assert_eq!(r.resolver.satisfied(), 3);
        assert!(r.resolver.is_done(obj(3)));
        assert!(r.in_flight().is_empty());
    }

    #[test]
    fn ids_come_and_go_while_it_runs() {
        let mut r = rig(Goal::Values);
        let before = r.kv.subscriber_count();
        r.objects.add_location(obj(1), NodeId(1), 5);
        r.resolver.add(&[obj(1)]);
        r.pump(SOON);
        // Added mid-run, unsealed: requested when its record arrives.
        r.resolver.add(&[obj(2)]);
        assert_eq!(r.kv.subscriber_count(), before + 2);
        r.pump(SOON * 2);
        assert_eq!(r.in_flight(), vec![(obj(1), NodeId(1))]);
        r.objects.add_location(obj(2), NodeId(2), 5);
        assert_eq!(r.pump(SOON * 3), vec![(NodeId(2), vec![obj(2)])]);

        // Retired while its answer is out: the registration ends now,
        // the answer is still committed, and nothing of it is left.
        r.resolver.retire(obj(1));
        r.resolver.retire(obj(9));
        assert_eq!(r.kv.subscriber_count(), before + 1);
        assert_eq!(r.in_flight(), vec![(obj(2), NodeId(2))]);
        r.objects.add_location(obj(1), NodeId(3), 5);
        r.resolver.on_fetched(obj(1), fetched(NodeId(1)));
        r.pump(SOON * 4);
        assert!(r.objects.get(obj(1)).unwrap().locations.contains(&ME));
        assert!(!r.resolver.is_done(obj(1)));
        assert_eq!(r.resolver.satisfied(), 0);

        // Wanted again later: a registration and a request of its own.
        r.resolver.add(&[obj(1)]);
        assert_eq!(r.kv.subscriber_count(), before + 2);
        r.pump(SOON * 5);
        assert_eq!(r.in_flight().len(), 2);

        // An arrival nobody here asked for is committed all the same.
        r.resolver.on_fetched(obj(7), fetched(NodeId(4)));
        r.pump(SOON * 6);
        assert_eq!(r.objects.get(obj(7)).unwrap().locations, vec![ME]);

        r.resolver.retire(obj(1));
        r.resolver.retire(obj(2));
        assert_eq!(r.kv.subscriber_count(), before);
        drop(r.resolver);
        assert_eq!(r.kv.subscriber_count(), before);
    }

    #[test]
    fn retired_in_flight_then_wanted_again_takes_the_answer_it_was_waiting_for() {
        let mut r = rig(Goal::Values);
        r.objects.add_location(obj(1), NodeId(1), 5);
        r.resolver.add(&[obj(1)]);
        r.pump(SOON);
        r.resolver.retire(obj(1));
        r.resolver.add(&[obj(1)]);
        assert_eq!(r.in_flight(), vec![(obj(1), NodeId(1))]);
        r.resolver.on_fetched(obj(1), fetched(NodeId(1)));
        assert!(r.resolver.is_done(obj(1)));
        assert_eq!(r.resolver.satisfied(), 1);
    }

    #[test]
    fn an_announced_copy_is_waited_for_until_the_announcement_expires() {
        let mut r = rig(Goal::Values);
        let push = |until_nanos| Inbound {
            node: ME,
            until_nanos,
        };
        r.objects
            .add_location_pushed(obj(1), NodeId(1), 5, push(u64::MAX));
        r.objects.add_location_pushed(obj(2), NodeId(1), 5, push(0));
        r.resolver.add(&[obj(1), obj(2)]);
        assert_eq!(r.pump(SOON), vec![(NodeId(1), vec![obj(2)])]);
        r.pump(TICK);
        assert_eq!(r.in_flight(), vec![(obj(2), NodeId(1))]);
        assert_eq!(r.replays(), vec![]);
        // The pushed frame lands: completed by the seal, nobody asked.
        r.store.put(obj(1), Bytes::from_static(b"v")).unwrap();
        r.resolver.on_sealed(obj(1));
        assert!(r.resolver.is_done(obj(1)));
    }
}
