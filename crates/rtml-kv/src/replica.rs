//! Primary/backup replication for the control plane.
//!
//! The paper's recovery story assumes the database itself is
//! fault-tolerant ("so long as the database is fault-tolerant, we can
//! recover from component failures by simply restarting them"). This
//! module demonstrates that assumption concretely: a [`ReplicatedKv`]
//! applies every write synchronously to a primary and a backup
//! [`KvStore`]; on [`ReplicatedKv::fail_primary`], reads and writes cut
//! over to the backup with no state loss.
//!
//! Subscriptions are served by the primary only; after failover,
//! subscribers must re-subscribe (the runtime's components are stateless,
//! so in the paper's design they would simply be restarted — recreating
//! their subscriptions in the process).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bytes::Bytes;

use crate::shard::Subscription;
use crate::store::KvStore;

/// A pair of synchronously-replicated control-plane stores.
pub struct ReplicatedKv {
    primary: Arc<KvStore>,
    backup: Arc<KvStore>,
    failed_over: AtomicBool,
}

impl ReplicatedKv {
    /// Creates a replicated store with `num_shards` shards on each
    /// replica.
    pub fn new(num_shards: usize) -> Arc<Self> {
        Arc::new(ReplicatedKv {
            primary: KvStore::new(num_shards),
            backup: KvStore::new(num_shards),
            failed_over: AtomicBool::new(false),
        })
    }

    /// The store currently serving reads.
    pub fn active(&self) -> &Arc<KvStore> {
        if self.failed_over.load(Ordering::Acquire) {
            &self.backup
        } else {
            &self.primary
        }
    }

    /// Whether failover has occurred.
    pub fn is_failed_over(&self) -> bool {
        self.failed_over.load(Ordering::Acquire)
    }

    /// Simulates losing the primary: subsequent operations hit the backup,
    /// which already holds every acknowledged write.
    pub fn fail_primary(&self) {
        self.failed_over.store(true, Ordering::Release);
    }

    /// Re-synchronizes a (recovered) primary from the backup and resumes
    /// serving from it.
    pub fn restore_primary(&self) {
        let snap = self.backup.full_snapshot();
        self.primary.restore_snapshot(snap);
        self.failed_over.store(false, Ordering::Release);
    }

    /// Point read from the active replica.
    pub fn get(&self, key: &[u8]) -> Option<Bytes> {
        self.active().get(key)
    }

    /// Replicated point write.
    pub fn set(&self, key: Bytes, value: Bytes) {
        if !self.is_failed_over() {
            self.primary.set(key.clone(), value.clone());
        }
        self.backup.set(key, value);
    }

    /// Replicated append.
    pub fn append(&self, key: Bytes, record: Bytes) {
        if !self.is_failed_over() {
            self.primary.append(key.clone(), record.clone());
        }
        self.backup.append(key, record);
    }

    /// Reads the log from the active replica.
    pub fn read_log(&self, key: &[u8]) -> Vec<Bytes> {
        self.active().read_log(key)
    }

    /// Subscribes on the active replica (see module docs for failover
    /// semantics).
    pub fn subscribe(&self, key: Bytes) -> (Option<Bytes>, Subscription) {
        self.active().subscribe(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::from(s.to_string())
    }

    #[test]
    fn writes_survive_failover() {
        let kv = ReplicatedKv::new(2);
        kv.set(b("k1"), b("v1"));
        kv.append(b("log"), b("r1"));
        kv.fail_primary();
        assert!(kv.is_failed_over());
        assert_eq!(kv.get(b"k1"), Some(b("v1")));
        assert_eq!(kv.read_log(b"log"), vec![b("r1")]);
    }

    #[test]
    fn writes_after_failover_land_on_backup() {
        let kv = ReplicatedKv::new(2);
        kv.fail_primary();
        kv.set(b("k"), b("v"));
        assert_eq!(kv.get(b"k"), Some(b("v")));
    }

    #[test]
    fn restore_primary_resyncs() {
        let kv = ReplicatedKv::new(2);
        kv.set(b("before"), b("1"));
        kv.fail_primary();
        kv.set(b("during"), b("2"));
        kv.restore_primary();
        assert!(!kv.is_failed_over());
        assert_eq!(kv.get(b"before"), Some(b("1")));
        assert_eq!(kv.get(b"during"), Some(b("2")));
    }

    #[test]
    fn subscription_on_active_replica() {
        let kv = ReplicatedKv::new(2);
        let (_cur, rx) = kv.subscribe(b("k"));
        kv.set(b("k"), b("v"));
        assert_eq!(rx.recv().unwrap(), b("v"));
    }
}
