//! Criterion bench for the per-node object store and cross-node
//! transfer path (the "shared memory" column of Figure 3).

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use rtml_common::ids::{DriverId, NodeId, TaskId};
use rtml_net::{Fabric, FabricConfig, LatencyModel};
use rtml_store::{FetchAgent, ObjectStore, StoreConfig, TransferDirectory};

fn object(i: u64) -> rtml_common::ids::ObjectId {
    TaskId::driver_root(DriverId::from_index(42))
        .child(i)
        .return_object(0)
}

fn bench_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("store");
    group.sample_size(60);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));

    // put (with implicit eviction management).
    let store = ObjectStore::new(StoreConfig {
        node: NodeId(0),
        capacity_bytes: 64 << 20,
        ..StoreConfig::default()
    });
    let payload = Bytes::from(vec![7u8; 1024]);
    let mut i = 0u64;
    group.throughput(Throughput::Bytes(1024));
    group.bench_function("put_1kb", |b| {
        b.iter(|| {
            i += 1;
            store.put(object(i), payload.clone()).unwrap()
        })
    });

    // get (zero-copy clone).
    let store = ObjectStore::new(StoreConfig::default());
    store.put(object(0), Bytes::from(vec![7u8; 1024])).unwrap();
    group.bench_function("get_1kb", |b| b.iter(|| store.get(object(0)).unwrap()));

    // Cross-node fetch at two payload sizes (zero fabric latency: the
    // bench isolates protocol overhead; exp_latency covers latency).
    for size_kb in [1usize, 256] {
        let fabric = Fabric::new(FabricConfig {
            latency: LatencyModel::Zero,
            ..FabricConfig::default()
        });
        let directory = TransferDirectory::new();
        let src = Arc::new(ObjectStore::new(StoreConfig {
            node: NodeId(0),
            capacity_bytes: 1 << 30,
            ..StoreConfig::default()
        }));
        let dst = Arc::new(ObjectStore::new(StoreConfig {
            node: NodeId(1),
            capacity_bytes: 1 << 30,
            ..StoreConfig::default()
        }));
        let _holder = FetchAgent::spawn(fabric.clone(), src.clone(), &directory);
        let agent = FetchAgent::spawn(fabric.clone(), dst.clone(), &directory);
        src.put(object(9), Bytes::from(vec![1u8; size_kb * 1024]))
            .unwrap();
        group.throughput(Throughput::Bytes((size_kb * 1024) as u64));
        group.bench_with_input(
            BenchmarkId::new("fetch_remote", format!("{size_kb}kb")),
            &size_kb,
            |b, _| {
                b.iter(|| {
                    dst.delete(object(9));
                    agent
                        .fetch_one(object(9), NodeId(0), Duration::from_secs(5))
                        .unwrap()
                })
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench_store);
criterion_main!(benches);
