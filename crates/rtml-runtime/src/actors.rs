//! Actors: stateful workers (an extension beyond the paper).
//!
//! The HotOS paper's model is pure tasks over immutable objects; its §5
//! discusses actor systems (Orleans, Erlang) as related work that trades
//! away systems-level features. Ray itself later added actors, and they
//! are the natural extension here: an actor is a dedicated thread owning
//! mutable state; method calls are serialized in submission order; each
//! call's result is sealed into the object store as an ordinary object,
//! so `get`/`wait` and dataflow composition work unchanged.
//!
//! Trade-off (documented, paper-faithful): actor method results carry
//! **no lineage** — replaying one method would require replaying the
//! whole method log against reconstructed state. Losing the node that
//! holds an un-consumed actor result is therefore unrecoverable (the
//! consumer sees a broken-lineage error instead of hanging).

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use crossbeam::channel::{unbounded, Sender};

use rtml_common::codec::Codec;
use rtml_common::error::{Error, Result};
use rtml_common::event::{Component, Event, EventKind};
use rtml_common::ids::{ActorId, DriverId, NodeId, ObjectId, TaskId, WorkerId};
use rtml_common::task::TaskState;

use crate::envelope;
use crate::object_ref::ObjectRef;
use crate::services::Services;

/// A method call on an actor's state, returning its sealed result.
type Method = Box<dyn FnOnce(&mut dyn std::any::Any) -> Result<Bytes> + Send>;

enum ActorMsg {
    Call {
        task: TaskId,
        object: ObjectId,
        /// Runs the method and seals its result.
        f: Method,
    },
    Stop,
}

/// A handle to a running actor with state type `S`.
///
/// Method calls are closures over `&mut S`; each returns a future that
/// resolves when the actor has processed the call. Calls execute strictly
/// in submission order.
pub struct ActorHandle<S> {
    id: ActorId,
    node: NodeId,
    name: String,
    seq: AtomicU64,
    tx: Sender<ActorMsg>,
    services: Arc<Services>,
    join: Option<std::thread::JoinHandle<()>>,
    _marker: PhantomData<fn(S)>,
}

impl<S: Send + 'static> ActorHandle<S> {
    pub(crate) fn spawn(
        name: &str,
        counter: u64,
        node: NodeId,
        services: Arc<Services>,
        init: impl FnOnce() -> S + Send + 'static,
    ) -> Result<ActorHandle<S>> {
        // Deterministic actor identity: a reserved driver namespace plus
        // the cluster-wide actor counter.
        let root = TaskId::driver_root(DriverId::from_index(u64::MAX - 1));
        let id = root.actor(counter);
        let (tx, rx) = unbounded::<ActorMsg>();
        let services2 = services.clone();
        let pseudo_worker = WorkerId::new(node, u32::MAX - counter as u32);
        let join = std::thread::Builder::new()
            .name(format!("rtml-actor-{name}"))
            .spawn(move || {
                let mut state = init();
                while let Ok(msg) = rx.recv() {
                    match msg {
                        ActorMsg::Stop => break,
                        ActorMsg::Call { task, object, f } => {
                            services2
                                .tasks
                                .set_state(task, &TaskState::Running(pseudo_worker));
                            services2.events.append(
                                node,
                                Event::now(
                                    Component::Worker,
                                    EventKind::TaskStarted {
                                        task,
                                        worker: pseudo_worker,
                                    },
                                ),
                            );
                            let started = std::time::Instant::now();
                            let result =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    f(&mut state)
                                }))
                                .unwrap_or_else(|_| {
                                    Err(Error::TaskFailed {
                                        task,
                                        message: "actor method panicked".into(),
                                    })
                                });
                            let (bytes, final_state) = match result {
                                Ok(sealed) => (sealed, TaskState::Finished),
                                Err(e) => (
                                    envelope::seal_error(&e.to_string()),
                                    TaskState::Failed(e.to_string()),
                                ),
                            };
                            if let Some(store) = services2.store(node) {
                                let _ = services2.seal_and_publish(
                                    &store,
                                    vec![(object, bytes)],
                                    |_, _| None,
                                );
                            }
                            services2.tasks.set_state(task, &final_state);
                            services2.events.append(
                                node,
                                Event::now(
                                    Component::Worker,
                                    EventKind::TaskFinished {
                                        task,
                                        worker: pseudo_worker,
                                        micros: started.elapsed().as_micros() as u64,
                                    },
                                ),
                            );
                        }
                    }
                }
            })
            .map_err(|_| Error::Disconnected("actor thread"))?;
        Ok(ActorHandle {
            id,
            node,
            name: name.to_string(),
            seq: AtomicU64::new(0),
            tx,
            services,
            join: Some(join),
            _marker: PhantomData,
        })
    }

    /// The actor's identity.
    pub fn id(&self) -> ActorId {
        self.id
    }

    /// The node hosting the actor's state.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The actor's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Invokes a method: a closure over the actor's state. Returns a
    /// future immediately; the call executes after all previously
    /// submitted calls (actor ordering).
    pub fn call<R: Codec + 'static>(
        &self,
        f: impl FnOnce(&mut S) -> Result<R> + Send + 'static,
    ) -> Result<ObjectRef<R>> {
        let n = self.seq.fetch_add(1, Ordering::Relaxed);
        let task = self.id.method_task(n);
        // Actor results carry no lineage edge: `actor_result` IDs report
        // no producer, so reconstruction never replays a stateful method
        // call (see module docs).
        let object = task.actor_result(0);
        self.services.tasks.set_state(task, &TaskState::Submitted);
        let wrapped = Box::new(move |any: &mut dyn std::any::Any| -> Result<Bytes> {
            let state = any
                .downcast_mut::<S>()
                .ok_or_else(|| Error::InvalidArgument("actor state type mismatch".into()))?;
            let value = f(state)?;
            Ok(envelope::seal_value(&value))
        });
        self.tx
            .send(ActorMsg::Call {
                task,
                object,
                f: wrapped,
            })
            .map_err(|_| Error::Disconnected("actor"))?;
        Ok(ObjectRef::typed(object))
    }

    /// Stops the actor after all queued calls drain, joining its thread.
    pub fn stop(mut self) {
        let _ = self.tx.send(ActorMsg::Stop);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl<S> Drop for ActorHandle<S> {
    fn drop(&mut self) {
        let _ = self.tx.send(ActorMsg::Stop);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}
