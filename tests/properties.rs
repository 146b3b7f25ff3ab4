//! Property-based tests (proptest) on the substrate invariants.

use bytes::Bytes;
use proptest::prelude::*;

use rtml::common::codec::{decode_from_bytes, decode_from_slice, encode_to_bytes, Codec, Writer};
use rtml::common::ids::FunctionId;
use rtml::common::ids::{DriverId, NodeId, ObjectId, TaskId, UniqueId};
use rtml::common::resources::Resources;
use rtml::common::task::{ArgSpec, TaskSpec, TaskState};
use rtml::kv::{Inbound, KvStore, ObjectInfo, TaskTable};
use rtml::runtime::Envelope;
use rtml::sched::SchedWire;
use rtml::store::{ObjectStore, StoreConfig};

fn obj(i: u64) -> ObjectId {
    TaskId::driver_root(DriverId::from_index(9))
        .child(i)
        .return_object(0)
}

/// Decodes `bytes` both ways — over the plain slice (byte strings are
/// copied out) and over the shared buffer (byte strings are windows of
/// it) — and checks the two agree: both fail, or both yield values that
/// encode alike (bitwise, so NaNs compare).
fn decode_both<T: Codec>(bytes: &Bytes) -> rtml::common::error::Result<T> {
    let from_slice = decode_from_slice::<T>(bytes);
    let from_bytes = decode_from_bytes::<T>(bytes);
    match (&from_slice, &from_bytes) {
        (Ok(a), Ok(b)) => assert_eq!(encode_to_bytes(a), encode_to_bytes(b)),
        (Err(_), Err(_)) => {}
        _ => panic!("slice and shared-buffer decode disagree on {bytes:?}"),
    }
    from_bytes
}

/// The load a spilling node attaches to its `SpillBatch`.
fn sender_load() -> rtml::sched::LoadReport {
    rtml::sched::LoadReport {
        node: NodeId(3),
        sched_address: 17,
        ready: 12,
        waiting: 1,
        running: 4,
        idle_workers: 0,
        available: Resources::cpu(0.0),
        total: Resources::cpu(4.0),
        at_nanos: 123_456_789,
    }
}

proptest! {
    // ---- codec round-trips -----------------------------------------

    #[test]
    fn codec_u64_round_trips(v in any::<u64>()) {
        let bytes = encode_to_bytes(&v);
        prop_assert_eq!(decode_both::<u64>(&bytes).unwrap(), v);
    }

    #[test]
    fn codec_i64_round_trips(v in any::<i64>()) {
        let bytes = encode_to_bytes(&v);
        prop_assert_eq!(decode_both::<i64>(&bytes).unwrap(), v);
    }

    #[test]
    fn codec_f64_round_trips_bitwise(v in any::<f64>()) {
        let bytes = encode_to_bytes(&v);
        let back = decode_both::<f64>(&bytes).unwrap();
        prop_assert_eq!(back.to_bits(), v.to_bits());
    }

    #[test]
    fn codec_string_round_trips(v in ".{0,64}") {
        let owned = v.to_string();
        let bytes = encode_to_bytes(&owned);
        prop_assert_eq!(decode_both::<String>(&bytes).unwrap(), owned);
    }

    #[test]
    fn codec_vec_round_trips(v in proptest::collection::vec(any::<u32>(), 0..64)) {
        let bytes = encode_to_bytes(&v);
        prop_assert_eq!(decode_both::<Vec<u32>>(&bytes).unwrap(), v);
    }

    #[test]
    fn codec_nested_round_trips(
        v in proptest::collection::vec(
            (any::<u64>(), proptest::collection::vec(any::<f32>(), 0..8)),
            0..16,
        )
    ) {
        let bytes = encode_to_bytes(&v);
        let back: Vec<(u64, Vec<f32>)> = decode_both(&bytes).unwrap();
        prop_assert_eq!(back.len(), v.len());
        for (a, b) in back.iter().zip(&v) {
            prop_assert_eq!(a.0, b.0);
            prop_assert_eq!(a.1.len(), b.1.len());
            for (x, y) in a.1.iter().zip(&b.1) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn codec_option_round_trips(v in proptest::option::of(any::<i32>())) {
        let bytes = encode_to_bytes(&v);
        prop_assert_eq!(decode_both::<Option<i32>>(&bytes).unwrap(), v);
    }

    #[test]
    fn codec_rejects_truncation(v in proptest::collection::vec(any::<u64>(), 1..16)) {
        let bytes = encode_to_bytes(&v);
        // Any strict prefix must fail to decode.
        let cut = bytes.len() / 2;
        if cut < bytes.len() {
            prop_assert!(decode_both::<Vec<u64>>(&bytes.slice(0..cut)).is_err());
        }
    }

    #[test]
    fn codec_byte_strings_decode_alike_from_slice_and_shared_buffer(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..96),
            0..6,
        ),
        n in any::<u64>(),
    ) {
        // Payloads straddle the inline cap, so both the re-inlined and
        // the windowed form of a decoded `Bytes` are exercised.
        let all: Vec<Bytes> = payloads.iter().cloned().map(Bytes::from).collect();
        let first = all.first().cloned();
        let bytes = encode_to_bytes(&all);
        prop_assert_eq!(decode_both::<Vec<Bytes>>(&bytes).unwrap(), all);
        let bytes = encode_to_bytes(&first);
        prop_assert_eq!(decode_both::<Option<Bytes>>(&bytes).unwrap(), first.clone());
        let pair = (n, first.clone().unwrap_or_default());
        let bytes = encode_to_bytes(&pair);
        prop_assert_eq!(decode_both::<(u64, Bytes)>(&bytes).unwrap(), pair.clone());
        for envelope in [Envelope::Value(pair.1), Envelope::Error(format!("task {n} failed"))] {
            let bytes = envelope.seal();
            prop_assert_eq!(decode_both::<Envelope>(&bytes).unwrap(), envelope);
        }
    }

    #[test]
    fn object_records_without_an_announcement_encode_as_they_always_did(
        size in any::<u64>(),
        sealed in any::<bool>(),
        producer in proptest::option::of(any::<u64>()),
        locations in proptest::collection::vec(any::<u32>(), 0..6),
        inbound in proptest::option::of((any::<u32>(), any::<u64>())),
    ) {
        let mut info = ObjectInfo {
            size,
            sealed,
            producer: producer.map(|i| obj(i).producer_task().unwrap()),
            locations: locations.into_iter().map(NodeId).collect(),
            inbound: None,
        };
        // The encoding before announcements existed, field by field.
        let mut w = Writer::new();
        w.put_varint(info.size);
        info.sealed.encode(&mut w);
        info.producer.encode(&mut w);
        info.locations.encode(&mut w);
        let bytes = encode_to_bytes(&info);
        prop_assert_eq!(&bytes, &w.into_bytes());
        prop_assert_eq!(decode_both::<ObjectInfo>(&bytes).unwrap(), info.clone());
        // One sealed copy of a small result: the 24 bytes a `Bytes`
        // keeps inline, so the record costs no allocation of its own.
        if info.size < 128 && info.producer.is_some() && info.locations.len() == 1 {
            prop_assert_eq!(bytes.len(), 24);
        }
        // With an announcement the record is longer, and round-trips;
        // cut anywhere, it is rejected rather than read as something else.
        info.inbound = inbound.map(|(node, until_nanos)| Inbound { node: NodeId(node), until_nanos });
        let announced = encode_to_bytes(&info);
        prop_assert_eq!(announced.len() > bytes.len(), info.inbound.is_some());
        prop_assert_eq!(decode_both::<ObjectInfo>(&announced).unwrap(), info.clone());
        if info.inbound.is_some() {
            for cut in bytes.len()..announced.len() {
                prop_assert!(decode_both::<ObjectInfo>(&announced.slice(0..cut)).is_err());
            }
        }
    }

    #[test]
    fn codec_rejects_bad_length_prefixes(
        payload in proptest::collection::vec(any::<u8>(), 1..96),
        extra in 1u64..1_000_000,
    ) {
        let bytes = encode_to_bytes(&Bytes::from(payload.clone()));
        // Truncated: the prefix promises more than what is left.
        prop_assert!(decode_both::<Bytes>(&bytes.slice(0..bytes.len() - 1)).is_err());
        // Over-long: a prefix larger than the whole input, up to one
        // that does not even fit a u64.
        for claimed in [payload.len() as u64 + extra, u64::MAX] {
            let mut w = Writer::new();
            w.put_varint(claimed);
            w.put_raw(&payload);
            prop_assert!(decode_both::<Bytes>(&w.into_bytes()).is_err());
        }
        let mut overlong = vec![0xffu8; 10];
        overlong.extend_from_slice(&payload);
        prop_assert!(decode_both::<Bytes>(&Bytes::from(overlong)).is_err());
    }

    // ---- identifier discipline --------------------------------------

    #[test]
    fn distinct_counters_distinct_tasks(a in any::<u64>(), b in any::<u64>()) {
        prop_assume!(a != b);
        let root = TaskId::driver_root(DriverId::from_index(0));
        prop_assert_ne!(root.child(a), root.child(b));
    }

    #[test]
    fn distinct_returns_distinct_objects(idx in 0u32..1000) {
        let task = TaskId::driver_root(DriverId::from_index(0)).child(0);
        prop_assert_ne!(task.return_object(idx), task.return_object(idx + 1));
    }

    #[test]
    fn id_derivation_is_pure(counter in any::<u64>()) {
        let root = TaskId::driver_root(DriverId::from_index(3));
        prop_assert_eq!(root.child(counter), root.child(counter));
        prop_assert_eq!(
            root.child(counter).return_object(0),
            root.child(counter).return_object(0)
        );
    }

    #[test]
    fn buckets_are_stable_and_in_range(raw in any::<u128>(), shards in 1usize..64) {
        let id = UniqueId::from_u128(raw);
        let b = id.bucket(shards);
        prop_assert!(b < shards);
        prop_assert_eq!(b, id.bucket(shards));
    }

    // ---- resource arithmetic ----------------------------------------

    #[test]
    fn resources_add_sub_inverse(
        c1 in 0.0f64..64.0, g1 in 0.0f64..8.0,
        c2 in 0.0f64..64.0, g2 in 0.0f64..8.0,
    ) {
        let a = Resources::new(c1, g1);
        let b = Resources::new(c2, g2);
        let sum = a.add(&b);
        prop_assert!(sum.fits(&a));
        prop_assert!(sum.fits(&b));
        let back = sum.checked_sub(&b).unwrap();
        prop_assert_eq!(back, a);
    }

    #[test]
    fn fits_is_antisymmetric_unless_equal(
        c1 in 0.0f64..8.0, c2 in 0.0f64..8.0,
    ) {
        let a = Resources::cpu(c1);
        let b = Resources::cpu(c2);
        if a.fits(&b) && b.fits(&a) {
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn resources_codec_round_trips(
        c in 0.0f64..128.0, g in 0.0f64..16.0, custom in 0.0f64..4.0,
    ) {
        let r = Resources::new(c, g).with_custom("x", custom);
        let bytes = encode_to_bytes(&r);
        prop_assert_eq!(decode_both::<Resources>(&bytes).unwrap(), r);
    }

    // ---- task specs --------------------------------------------------

    #[test]
    fn task_spec_round_trips(
        n_args in 0usize..6,
        num_returns in 1u32..4,
        attempt in 0u32..3,
        payload in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let root = TaskId::driver_root(DriverId::from_index(1));
        let args: Vec<ArgSpec> = (0..n_args)
            .map(|i| {
                if i % 2 == 0 {
                    ArgSpec::Value(Bytes::from(payload.clone()))
                } else {
                    ArgSpec::ObjectRef(root.child(i as u64).return_object(0))
                }
            })
            .collect();
        let spec = TaskSpec {
            task_id: root.child(99),
            function: FunctionId::from_name("f"),
            args,
            num_returns,
            resources: Resources::cpu(1.0),
            submitter_node: NodeId(2),
            attempt,
        };
        let bytes = encode_to_bytes(&spec);
        prop_assert_eq!(decode_both::<TaskSpec>(&bytes).unwrap(), spec);
    }

    // ---- batch wire messages -----------------------------------------

    #[test]
    fn spec_batches_round_trip_on_the_wire(
        n_specs in 0usize..24,
        n_args in 0usize..4,
        ingested in 0u64..9,
        payload in proptest::collection::vec(any::<u8>(), 0..16),
        as_place in any::<bool>(),
    ) {
        let root = TaskId::driver_root(DriverId::from_index(2));
        let specs: Vec<TaskSpec> = (0..n_specs)
            .map(|i| {
                let args: Vec<ArgSpec> = (0..n_args)
                    .map(|j| {
                        if j % 2 == 0 {
                            ArgSpec::Value(Bytes::from(payload.clone()))
                        } else {
                            ArgSpec::ObjectRef(root.child(j as u64).return_object(0))
                        }
                    })
                    .collect();
                TaskSpec::simple(root.child(i as u64), FunctionId::from_name("f"), args)
            })
            .collect();
        let msg = if as_place {
            SchedWire::PlaceBatch { specs }
        } else {
            SchedWire::SpillBatch { specs, load: sender_load(), ingested }
        };
        let bytes = encode_to_bytes(&msg);
        prop_assert_eq!(decode_both::<SchedWire>(&bytes).unwrap(), msg);
    }

    #[test]
    fn batch_wire_rejects_truncation(n_specs in 1usize..8) {
        let root = TaskId::driver_root(DriverId::from_index(2));
        let specs: Vec<TaskSpec> = (0..n_specs)
            .map(|i| TaskSpec::simple(root.child(i as u64), FunctionId::from_name("f"), vec![]))
            .collect();
        let bytes = encode_to_bytes(&SchedWire::SpillBatch {
            specs,
            load: sender_load(),
            ingested: 0,
        });
        // Any strict prefix must fail to decode.
        prop_assert!(decode_both::<SchedWire>(&bytes.slice(0..bytes.len() - 1)).is_err());
    }

    #[test]
    fn task_state_round_trips(tag in 0u8..7) {
        let state = match tag {
            0 => TaskState::Submitted,
            1 => TaskState::Queued(NodeId(3)),
            2 => TaskState::Spilled,
            3 => TaskState::Running(rtml::common::ids::WorkerId::new(NodeId(1), 2)),
            4 => TaskState::Finished,
            5 => TaskState::Failed("msg".into()),
            _ => TaskState::Lost,
        };
        let bytes = encode_to_bytes(&state);
        prop_assert_eq!(decode_both::<TaskState>(&bytes).unwrap(), state);
    }

    // ---- KV store ----------------------------------------------------

    #[test]
    fn kv_last_write_wins(
        writes in proptest::collection::vec((0u8..16, any::<u64>()), 1..64),
        shards in 1usize..8,
    ) {
        let kv = KvStore::new(shards);
        let mut expected = std::collections::HashMap::new();
        for (key, value) in &writes {
            let k = Bytes::from(vec![*key]);
            kv.set(k.clone(), Bytes::from(value.to_le_bytes().to_vec()));
            expected.insert(*key, *value);
        }
        for (key, value) in expected {
            let got = kv.get(&[key]).unwrap();
            let mut arr = [0u8; 8];
            arr.copy_from_slice(&got);
            prop_assert_eq!(u64::from_le_bytes(arr), value);
        }
    }

    #[test]
    fn kv_log_preserves_order(records in proptest::collection::vec(any::<u32>(), 0..64)) {
        let kv = KvStore::new(4);
        let key = Bytes::from_static(b"log");
        for r in &records {
            kv.append(key.clone(), Bytes::from(r.to_le_bytes().to_vec()));
        }
        let read: Vec<u32> = kv
            .read_log(&key)
            .iter()
            .map(|b| {
                let mut arr = [0u8; 4];
                arr.copy_from_slice(b);
                u32::from_le_bytes(arr)
            })
            .collect();
        prop_assert_eq!(read, records);
    }

    // ---- object store -------------------------------------------------

    #[test]
    fn store_never_exceeds_capacity(
        sizes in proptest::collection::vec(1usize..64, 1..32),
        capacity in 64u64..256,
    ) {
        let store = ObjectStore::new(StoreConfig {
            node: NodeId(0),
            capacity_bytes: capacity,
            ..StoreConfig::default()
        });
        for (i, size) in sizes.iter().enumerate() {
            let _ = store.put(obj(i as u64), Bytes::from(vec![0u8; *size]));
            prop_assert!(store.used_bytes() <= capacity,
                "used {} > cap {}", store.used_bytes(), capacity);
        }
    }

    #[test]
    fn store_get_returns_exact_bytes(
        entries in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..16),
    ) {
        let store = ObjectStore::new(StoreConfig {
            node: NodeId(0),
            capacity_bytes: 1 << 20,
            ..StoreConfig::default()
        });
        for (i, data) in entries.iter().enumerate() {
            store.put(obj(i as u64), Bytes::from(data.clone())).unwrap();
        }
        for (i, data) in entries.iter().enumerate() {
            prop_assert_eq!(&store.get(obj(i as u64)).unwrap()[..], &data[..]);
        }
    }

    #[test]
    fn store_accounting_balances_after_deletes(
        sizes in proptest::collection::vec(1usize..128, 1..16),
    ) {
        let store = ObjectStore::new(StoreConfig {
            node: NodeId(0),
            capacity_bytes: 1 << 20,
            ..StoreConfig::default()
        });
        for (i, size) in sizes.iter().enumerate() {
            store.put(obj(i as u64), Bytes::from(vec![1u8; *size])).unwrap();
        }
        for i in 0..sizes.len() {
            store.delete(obj(i as u64));
        }
        prop_assert_eq!(store.used_bytes(), 0);
        prop_assert_eq!(store.len(), 0);
    }

    // ---- rendezvous holder choice ------------------------------------

    #[test]
    fn rendezvous_rank_is_a_stable_permutation(
        raw_holders in proptest::collection::vec(0u32..32, 1..8),
        reader in 32u64..64,
    ) {
        use rtml::common::ids::rendezvous_rank;
        let set: std::collections::BTreeSet<u32> = raw_holders.into_iter().collect();
        let holders: Vec<NodeId> = set.into_iter().map(NodeId).collect();
        let ranked = rendezvous_rank(obj(1), reader, holders.iter().copied());
        // Stable: a pure function of (object, salt, set).
        prop_assert_eq!(
            ranked.clone(),
            rendezvous_rank(obj(1), reader, holders.iter().copied())
        );
        // Input order must not matter.
        prop_assert_eq!(
            ranked.clone(),
            rendezvous_rank(obj(1), reader, holders.iter().rev().copied())
        );
        // It is a permutation of the input set.
        let mut sorted_rank = ranked.clone();
        sorted_rank.sort();
        prop_assert_eq!(sorted_rank, holders);
    }

    #[test]
    fn rendezvous_rank_is_consistent_under_holder_loss(
        raw_holders in proptest::collection::vec(0u32..32, 2..8),
        reader in 32u64..64,
        victim_idx in 0usize..8,
    ) {
        // The rendezvous property: removing one holder (eviction, node
        // kill) leaves the relative order of the survivors unchanged —
        // readers fail over without reshuffling the whole ranking.
        use rtml::common::ids::rendezvous_rank;
        let set: std::collections::BTreeSet<u32> = raw_holders.into_iter().collect();
        let holders: Vec<NodeId> = set.into_iter().map(NodeId).collect();
        let victim = holders[victim_idx % holders.len()];
        let full = rendezvous_rank(obj(2), reader, holders.iter().copied());
        let without = rendezvous_rank(
            obj(2),
            reader,
            holders.iter().copied().filter(|n| *n != victim),
        );
        let full_minus: Vec<NodeId> =
            full.into_iter().filter(|n| *n != victim).collect();
        prop_assert_eq!(full_minus, without);
    }

    #[test]
    fn rendezvous_choice_is_uniformish_across_readers(holder_count in 2u32..8) {
        // 256 distinct readers over a fixed holder set: every holder is
        // picked by someone, and no holder dominates — the load-spread
        // property K readers of one hot object rely on.
        use rtml::common::ids::rendezvous_rank;
        let holders: Vec<NodeId> = (0..holder_count).map(NodeId).collect();
        let mut counts = std::collections::HashMap::new();
        for reader in 100u64..356 {
            let top = rendezvous_rank(obj(3), reader, holders.iter().copied())[0];
            *counts.entry(top).or_insert(0u32) += 1;
        }
        prop_assert!(counts.len() as u32 == holder_count, "every holder chosen");
        let max = counts.values().copied().max().unwrap();
        prop_assert!(
            max <= 256 * 3 / 4,
            "one holder took {max}/256 readers across {holder_count} holders"
        );
    }

    // ---- transfer plane ----------------------------------------------

    #[test]
    fn fetch_many_single_flights_duplicates(
        picks in proptest::collection::vec(0u64..6, 1..24),
    ) {
        use rtml::net::{Fabric, FabricConfig};
        use rtml::store::{FetchAgent, TransferDirectory};
        use std::collections::BTreeSet;
        use std::sync::Arc;
        use std::time::Duration;

        let fabric = Fabric::new(FabricConfig::default());
        let directory = TransferDirectory::new();
        let src = Arc::new(ObjectStore::new(StoreConfig {
            node: NodeId(0),
            capacity_bytes: 1 << 20,
            ..StoreConfig::default()
        }));
        let dst = Arc::new(ObjectStore::new(StoreConfig {
            node: NodeId(1),
            capacity_bytes: 1 << 20,
            ..StoreConfig::default()
        }));
        let _holder = FetchAgent::spawn(fabric.clone(), src.clone(), &directory);
        let agent = FetchAgent::spawn(fabric.clone(), dst.clone(), &directory);

        let distinct: BTreeSet<u64> = picks.iter().copied().collect();
        for &d in &distinct {
            src.put(obj(d), Bytes::from(vec![d as u8; d as usize + 1])).unwrap();
        }
        let ids: Vec<ObjectId> = picks.iter().map(|&p| obj(p)).collect();
        let results = agent.fetch_many(&ids, NodeId(0), Duration::from_secs(5));
        for (&pick, result) in picks.iter().zip(&results) {
            let (data, _) = result.as_ref().unwrap();
            prop_assert_eq!(data.len(), pick as usize + 1);
        }
        // A get_many of K objects with duplicates performs at most one
        // in-flight transfer per distinct object — exactly one here,
        // since none were local beforehand.
        prop_assert_eq!(agent.stats().transfers.get() as usize, distinct.len());
        prop_assert_eq!(
            agent.stats().duplicates_suppressed.get() as usize,
            picks.len() - distinct.len()
        );
    }
}

// Deterministic-work purity, outside proptest for clarity.
#[test]
fn deterministic_work_is_a_pure_function() {
    use rtml::common::time::deterministic_work;
    for seed in 0..64u64 {
        assert_eq!(deterministic_work(seed, 100), deterministic_work(seed, 100));
    }
}

// ---- hot-path collections (PR 6) -----------------------------------

proptest! {
    /// `FastMap` is a drop-in map: after an arbitrary interleaving of
    /// inserts and removes it holds exactly what `std::collections::HashMap`
    /// holds, and its contents are insertion-order independent (the same
    /// final state is reached from any permutation of distinct inserts).
    #[test]
    fn fast_map_is_a_drop_in_map(
        ops in proptest::collection::vec((any::<u8>(), any::<u16>(), any::<bool>()), 0..128),
    ) {
        use rtml::common::collections::FastMap;
        use std::collections::HashMap;
        let mut fast: FastMap<u8, u16> = FastMap::default();
        let mut model: HashMap<u8, u16> = HashMap::new();
        for &(key, value, insert) in &ops {
            if insert {
                prop_assert_eq!(fast.insert(key, value), model.insert(key, value));
            } else {
                prop_assert_eq!(fast.remove(&key), model.remove(&key));
            }
            prop_assert_eq!(fast.get(&key), model.get(&key));
        }
        prop_assert_eq!(fast.len(), model.len());
        let mut got: Vec<(u8, u16)> = fast.iter().map(|(k, v)| (*k, *v)).collect();
        let mut want: Vec<(u8, u16)> = model.into_iter().collect();
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// Building a `FastMap` from any permutation of the same distinct
    /// entries yields the same map — consumers may rely on contents,
    /// never on iteration order.
    #[test]
    fn fast_map_contents_are_insertion_order_independent(
        raw in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..32),
        seed in any::<u64>(),
    ) {
        use rtml::common::collections::FastMap;
        // Dedup keys (last write wins, like map insertion) so both
        // permutations describe the same final contents.
        let entries: std::collections::HashMap<u32, u32> = raw.into_iter().collect();
        let forward: Vec<(u32, u32)> = entries.iter().map(|(k, v)| (*k, *v)).collect();
        // A deterministic shuffle of the same entries.
        let mut shuffled = forward.clone();
        let mut state = seed | 1;
        for i in (1..shuffled.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            shuffled.swap(i, (state as usize) % (i + 1));
        }
        let a: FastMap<u32, u32> = forward.into_iter().collect();
        let b: FastMap<u32, u32> = shuffled.into_iter().collect();
        prop_assert_eq!(a.len(), b.len());
        for (k, v) in &a {
            prop_assert_eq!(b.get(k), Some(v));
        }
    }

    // ---- spec segments (PR 7) --------------------------------------

    /// Batched spec segments (lazy per-id index over the append-only
    /// log) are indistinguishable from one-spec segments written one
    /// task at a time: for any batching of any spec population,
    /// `get_spec` returns the same spec from both, bit-identical to the
    /// spec's own encoding — from the writing handle *and* from a fresh
    /// handle that must rebuild its index from the log (the recovery
    /// scan).
    #[test]
    fn segment_lazy_index_is_bit_identical_to_eager_writes(
        batch_sizes in proptest::collection::vec(1usize..12, 1..6),
        payload in proptest::collection::vec(any::<u8>(), 0..24),
        num_returns in 1u32..4,
    ) {
        use rtml::common::task::TaskState;
        let kv_lazy = KvStore::new(4);
        let kv_eager = KvStore::new(4);
        let lazy = TaskTable::new(kv_lazy.clone());
        let eager = TaskTable::new(kv_eager);
        let root = TaskId::driver_root(DriverId::from_index(41));
        let mut counter = 0u64;
        let mut all: Vec<TaskSpec> = Vec::new();
        for n in batch_sizes {
            let specs: Vec<TaskSpec> = (0..n)
                .map(|_| {
                    counter += 1;
                    let mut spec = TaskSpec::simple(
                        root.child(counter),
                        FunctionId::from_name("seg_prop"),
                        vec![
                            ArgSpec::Value(Bytes::from(payload.clone())),
                            ArgSpec::ObjectRef(root.child(counter).return_object(0)),
                        ],
                    );
                    spec.num_returns = num_returns;
                    spec
                })
                .collect();
            // Lazy: one segment per batch. Eager: one one-spec segment
            // per spec, as a resubmission records a task.
            lazy.record_many(&specs, &TaskState::Submitted);
            for spec in &specs {
                eager.record(spec, &TaskState::Submitted);
            }
            all.extend(specs);
        }
        for spec in &all {
            let a = lazy.get_spec(spec.task_id).unwrap();
            let b = eager.get_spec(spec.task_id).unwrap();
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(encode_to_bytes(&a), encode_to_bytes(spec));
        }
        // A fresh handle over the same kv sees the same bytes: the index
        // is derived state, the log is the truth.
        let fresh = TaskTable::new(kv_lazy);
        for spec in &all {
            prop_assert_eq!(
                encode_to_bytes(&fresh.get_spec(spec.task_id).unwrap()),
                encode_to_bytes(spec)
            );
        }
    }

    // ---- metrics folding (PR 9) ------------------------------------

    /// `Histogram::merge_snapshot` is order-independent and lossless:
    /// partition any sample population into per-node shards, fold the
    /// shard snapshots into one histogram in any order, and the result
    /// is indistinguishable (count, sum, max, every bucket) from
    /// recording all samples into a single histogram directly.
    #[test]
    fn histogram_merge_is_order_independent_and_lossless(
        samples in proptest::collection::vec((any::<u64>(), 0usize..4), 0..256),
    ) {
        use rtml::common::metrics::Histogram;
        let reference = Histogram::new();
        let shards: Vec<Histogram> = (0..4).map(|_| Histogram::new()).collect();
        for &(value, shard) in &samples {
            reference.record(value);
            shards[shard].record(value);
        }
        let forward = Histogram::new();
        for shard in &shards {
            forward.merge_snapshot(&shard.snapshot());
        }
        let reverse = Histogram::new();
        for shard in shards.iter().rev() {
            reverse.merge_snapshot(&shard.snapshot());
        }
        // Snapshot equality is structural: count, sum, max, and every
        // bucket — a pass means the fold lost nothing, anywhere.
        prop_assert!(forward.snapshot() == reference.snapshot());
        prop_assert!(reverse.snapshot() == reference.snapshot());
        prop_assert_eq!(forward.snapshot().p99(), reference.snapshot().p99());
    }

    /// Registry sample shape (names and order) is a pure function of the
    /// registered *set*: any registration order yields the same columns,
    /// and the shape survives sampling concurrent with recording.
    #[test]
    fn registry_sample_shape_is_registration_order_independent(
        raw_names in proptest::collection::vec("[a-z]{1,8}(\\.[a-z]{1,8}){0,2}", 1..12),
        values in proptest::collection::vec(any::<u64>(), 12..13),
        seed in any::<u64>(),
    ) {
        use rtml::common::metrics::{Histogram, MetricsRegistry};
        use std::sync::Arc;
        let names: Vec<String> = {
            let set: std::collections::BTreeSet<String> = raw_names.into_iter().collect();
            set.into_iter().collect()
        };
        // A deterministic shuffle of the same registrations.
        let mut shuffled = names.clone();
        let mut state = seed | 1;
        for i in (1..shuffled.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            shuffled.swap(i, (state as usize) % (i + 1));
        }
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        let register = |reg: &MetricsRegistry, order: &[String]| {
            for name in order {
                // Every third registration is a histogram, to exercise
                // column flattening; values are a pure function of the
                // name so both registries read identically.
                let idx = names.iter().position(|n| n == name).unwrap();
                if idx % 3 == 2 {
                    let h = Arc::new(Histogram::new());
                    h.record(values[idx % values.len()].max(1));
                    reg.register_histogram(name, move || h.snapshot());
                } else {
                    let v = values[idx % values.len()];
                    reg.register_value(name, move || v);
                }
            }
        };
        register(&a, &names);
        register(&b, &shuffled);
        prop_assert_eq!(a.sample(), b.sample());
        prop_assert_eq!(a.sample_names(), b.sample_names());
        // Shape is stable while a writer records concurrently.
        let live = Arc::new(Histogram::new());
        let reg = MetricsRegistry::new();
        {
            let live = live.clone();
            reg.register_histogram("live", move || live.snapshot());
        }
        let expected = reg.sample_names();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writer = {
            let live = live.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    live.record(7);
                }
            })
        };
        for _ in 0..16 {
            prop_assert_eq!(reg.sample_names(), expected.clone());
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        writer.join().unwrap();
    }
}

proptest! {
    /// One batch of equal tasks placed the way the global scheduler
    /// places a `SpillBatch` — each pick fed back into the view with
    /// `LoadView::note_placed` — fills the shallowest waves first: every
    /// task lands on a node whose waves ahead (its reported depth plus
    /// the batch's earlier picks there, over its slots) are minimal
    /// among the nodes that fit the task, and a task parks only when no
    /// node fits. Against one frozen view the whole batch would pile
    /// onto the nodes that looked emptiest when it arrived.
    #[test]
    fn a_batch_lands_every_task_in_a_shallowest_wave(
        nodes in proptest::collection::vec((0u32..24, 0u32..9), 1..17),
        tasks in 1u64..64,
    ) {
        use rtml::kv::ObjectTable;
        use rtml::sched::{LoadReport, LoadView, PlacementPolicy, PolicyState, DEFAULT_TOP_K};

        // Node i: `depth` tasks queued on `slots` cpus (0 fits nothing).
        let reports = nodes.iter().enumerate().map(|(i, &(depth, slots))| LoadReport {
            node: NodeId(i as u32),
            sched_address: i as u64,
            ready: depth,
            waiting: 0,
            running: 0,
            idle_workers: 0,
            available: Resources::cpu(f64::from(slots)),
            total: Resources::cpu(f64::from(slots)),
            at_nanos: 0,
        });
        let mut view = LoadView::from_reports(reports, DEFAULT_TOP_K);
        let objects = ObjectTable::new(KvStore::new(1));
        let mut state = PolicyState::new(1);
        let mut depth: Vec<u32> = nodes.iter().map(|&(depth, _)| depth).collect();
        let waves = |i: usize, depth: &[u32]| depth[i] / nodes[i].1;
        let root = TaskId::driver_root(DriverId::from_index(5));
        for t in 0..tasks {
            let spec = TaskSpec::simple(root.child(t), FunctionId::from_name("f"), vec![]);
            let fitting = (0..nodes.len()).filter(|&i| nodes[i].1 > 0);
            let shallowest = fitting.map(|i| waves(i, &depth)).min();
            let pick = PlacementPolicy::LocalityAware.place(&spec, &view, &objects, &mut state);
            match (pick, shallowest) {
                (None, None) => {}
                (Some(node), Some(shallowest)) => {
                    let i = node.0 as usize;
                    prop_assert!(nodes[i].1 > 0, "task {} on node {} that fits nothing", t, i);
                    prop_assert!(
                        waves(i, &depth) == shallowest,
                        "task {} on node {} ({:?} deep, {:?})",
                        t,
                        i,
                        depth,
                        nodes
                    );
                    depth[i] += 1;
                    view.note_placed(node, &spec);
                }
                (pick, shallowest) => {
                    prop_assert!(false, "task {}: placed {:?}, shallowest {:?}", t, pick, shallowest)
                }
            }
        }
    }
}

// ---- due-time mailboxes ----------------------------------------------

proptest! {
    /// Whatever order frames are handed to one mailbox in, and by
    /// whichever sender, they come out sorted by (due time, send order),
    /// and none comes out before it is due.
    #[test]
    fn mailbox_order_is_due_time_then_send_order(
        sends in proptest::collection::vec((0u64..2000, 0usize..3), 1..32),
    ) {
        use std::time::{Duration, Instant};

        let (tx, rx) = crossbeam::channel::unbounded();
        let senders = [tx.clone(), tx.clone(), tx];
        let base = Instant::now();
        let mut expected = Vec::new();
        for (seq, &(offset_us, sender)) in sends.iter().enumerate() {
            let due = base + Duration::from_micros(offset_us);
            senders[sender].send_at((due, seq), due).unwrap();
            expected.push((due, seq));
        }
        expected.sort();
        for want in expected {
            let got = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            prop_assert!(Instant::now() >= got.0, "received before its due time");
            prop_assert_eq!(got, want);
        }
        prop_assert!(rx.try_recv().is_err());
    }
}

// ---- the get/wait engine ---------------------------------------------

proptest! {
    /// `get_many` over any mix of futures — sealed in the caller's
    /// store, sealed on the other node, still executing, failed, and
    /// repeated — returns exactly what a `get` loop over the same
    /// futures returns, in input order, and fails with the same first
    /// error.
    #[test]
    fn get_many_matches_the_per_future_get_loop(
        kinds in proptest::collection::vec((0u8..5, any::<u16>()), 1..24),
    ) {
        use rtml::prelude::*;
        use std::time::Duration;

        let cluster = Cluster::start(ClusterConfig {
            nodes: vec![
                NodeConfig::cpu_only(2),
                NodeConfig::cpu_only(2).with_custom("far", 64.0),
            ],
            ..ClusterConfig::default()
        })
        .unwrap();
        let far = || TaskOptions::resources(Resources::cpu(1.0).with_custom("far", 1.0));
        let echo = cluster.register_fn1("pg_echo", |x: i64| Ok(x));
        let late = cluster.register_fn1("pg_late", |x: i64| {
            std::thread::sleep(Duration::from_millis(3));
            Ok(x)
        });
        let fail = cluster.register_fn1("pg_fail", |x: i64| -> Result<i64> {
            Err(Error::InvalidArgument(format!("refused {x}")))
        });
        let driver = cluster.driver();

        let mut query: Vec<ObjectRef<i64>> = Vec::new();
        let mut settled: Vec<ObjectRef<i64>> = Vec::new();
        for (i, &(kind, pick)) in kinds.iter().enumerate() {
            let x = i as i64 * 1000 + pick as i64;
            let fut = match kind {
                // Sealed in the caller's own store.
                0 => driver.put(&x).unwrap(),
                // Sealed on the other node before the call.
                1 => {
                    let fut = driver.submit1_opts(&echo, x, far()).unwrap();
                    settled.push(fut);
                    fut
                }
                // Seals (somewhere) while the call is blocked.
                2 => driver.submit1(&late, x).unwrap(),
                // An error envelope, on the other node.
                3 => driver.submit1_opts(&fail, x, far()).unwrap(),
                // A future already in the batch.
                _ if !query.is_empty() => query[pick as usize % query.len()],
                _ => driver.put(&x).unwrap(),
            };
            query.push(fut);
        }
        // `wait` counts completion without fetching, so these stay remote.
        let (ready, _) = driver.wait(&settled, settled.len(), Duration::from_secs(20));
        prop_assert_eq!(ready.len(), settled.len());

        let batched = driver.get_many(&query);
        let looped: Result<Vec<i64>> = query.iter().map(|f| driver.get(f)).collect();
        prop_assert_eq!(batched, looped);
        prop_assert_eq!(cluster.services().kv.subscriber_count(), 0);
        cluster.shutdown();
    }
}
