//! Per-layer probes: each times calls into one crate's public functions
//! with nothing else running, so a layer's own cost can be told apart
//! from the waiting the workloads add around it. A probe is a median
//! over batches, not a best-of: these are diagnostics with no bound.

use std::hint::black_box;
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use crate::stats::median;
use crate::sut::{
    self, probe_object, probe_specs, Bytes, FetchProbe, KvProbe, NetProbe, SchedProbe, StoreProbe,
    HOP,
};
use crate::workloads::block;
use crate::Reading;

/// Every probe metric with its unit, in report order. All of them are
/// costs, so lower is better, except the two rates.
pub const PROBES: [(&str, &str); 32] = [
    ("common.spec_encode_ns", "ns"),
    ("common.spec_decode_ns", "ns"),
    ("common.value_encode_mb_s.1mib", "MB/s"),
    ("kv.record_many_ns_per_spec.b1", "ns"),
    ("kv.record_many_ns_per_spec.b256", "ns"),
    ("kv.locks_per_spec.b1", "count"),
    ("kv.locks_per_spec.b256", "count"),
    ("kv.set_state_ns", "ns"),
    ("kv.get_states_many_ns_per_task.b256", "ns"),
    ("kv.object_add_location_ns", "ns"),
    ("kv.object_get_many_ns_per_obj.b256", "ns"),
    ("kv.event_append_ns_per_event.b1", "ns"),
    ("kv.event_append_ns_per_event.b256", "ns"),
    ("kv.subscribe_notify_us", "us"),
    ("kv.scan_prefix_us.k100000", "us"),
    ("net.send_recv_us.same_node", "us"),
    ("net.send_recv_overshoot_us.cross_node", "us"),
    ("net.chunked_mb_s.1mib", "MB/s"),
    ("net.pump_stalls", "count"),
    ("store.put_ns.8b", "ns"),
    ("store.put_us.1mib", "us"),
    ("store.get_ns.hit", "ns"),
    ("store.put_evict_us.256kib", "us"),
    ("store.wait_local_wake_us", "us"),
    ("store.fetch_us.4kib", "us"),
    ("store.fetch_us.256kib", "us"),
    ("store.fetch_us.1mib", "us"),
    ("store.fetch_many_us_per_obj.k32", "us"),
    ("sched.place_ns_per_task.n4", "ns"),
    ("sched.place_ns_per_task.n32", "ns"),
    ("sched.choose_victim_ns.n4", "ns"),
    // What the probes themselves cost a traced run.
    ("driver.probes_s", "s"),
];

/// Whether a probe metric is a rate (higher is better) or a cost.
pub fn better(name: &str) -> &'static str {
    if name.contains("_mb_s") {
        "higher"
    } else {
        "lower"
    }
}

const MIB: usize = 1 << 20;

/// Median time per call, in ns, over `batches` timed batches of
/// `per_batch` calls; `f` gets the running call index.
fn per_call_ns(batches: usize, per_batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..batches)
        .map(|b| {
            let t0 = Instant::now();
            for i in 0..per_batch {
                f(b * per_batch + i);
            }
            t0.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    median(&samples)
}

/// Median µs from `fire(i)` on this thread to a second thread returning
/// from `wait(i)`: a cross-thread wake-up, as a blocked `get` sees it.
fn wake_us(rounds: usize, wait: impl Fn(usize) + Sync, fire: impl Fn(usize)) -> f64 {
    let (armed_tx, armed_rx) = mpsc::channel();
    let (woke_tx, woke_rx) = mpsc::channel();
    let samples: Vec<f64> = std::thread::scope(|scope| {
        scope.spawn(|| {
            for i in 0..rounds {
                armed_tx.send(()).expect("the firing side is waiting");
                wait(i);
                woke_tx
                    .send(Instant::now())
                    .expect("the firing side is waiting");
            }
        });
        (0..rounds)
            .map(|i| {
                armed_rx.recv().expect("the waiting thread is alive");
                // Let the waiter get from "armed" into its blocking call.
                std::thread::sleep(Duration::from_micros(200));
                let t0 = Instant::now();
                fire(i);
                let woke = woke_rx.recv().expect("the waiting thread is alive");
                woke.saturating_duration_since(t0).as_secs_f64() * 1e6
            })
            .collect()
    });
    median(&samples)
}

/// What went wrong inside the probes: a timed closure cannot return
/// early, so failures are noted and reported when the probes end.
#[derive(Default)]
struct Faults(Mutex<Vec<String>>);

impl Faults {
    fn ok<T>(&self, what: &str, result: sut::Result<T>) -> Option<T> {
        result.map_err(|e| self.note(format!("{what}: {e}"))).ok()
    }

    fn must<T>(&self, what: &str, result: sut::Result<T>) {
        self.ok(what, result);
    }

    fn check(&self, what: &str, holds: bool) {
        if !holds {
            self.note(format!("{what}: wrong result"));
        }
    }

    fn note(&self, fault: String) {
        self.0.lock().expect("a probe thread panicked").push(fault);
    }
}

/// Runs every probe; one row per entry of [`PROBES`]. Each probe also
/// checks that the calls it timed did the work its name says.
pub fn run() -> Result<Vec<Reading>, String> {
    let started = Instant::now();
    let mut out: Vec<Reading> = Vec::with_capacity(PROBES.len());
    let mut emit = |name: &'static str, value: f64| {
        let (_, unit) = PROBES
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not in PROBES"));
        out.push((name, unit, value));
    };
    let faults = Faults::default();
    let wait = Duration::from_secs(30);

    // rtml-common: the codec on the specs and payloads the workloads use.
    let specs = probe_specs(0, 256);
    let encoded: Vec<Bytes> = specs.iter().map(sut::spec_encode).collect();
    emit(
        "common.spec_encode_ns",
        per_call_ns(40, 256, |i| {
            drop(black_box(sut::spec_encode(&specs[i % 256])))
        }),
    );
    emit(
        "common.spec_decode_ns",
        per_call_ns(40, 256, |i| {
            let decoded = faults.ok("spec_decode", sut::spec_decode(&encoded[i % 256]));
            faults.check("spec_decode", decoded.as_ref() == Some(&specs[i % 256]));
        }),
    );
    let mib = block(3, 5, MIB / 8);
    let ns = per_call_ns(20, 4, |_| {
        faults.check("value_encode", sut::value_encode(&mib).len() > MIB)
    });
    emit(
        "common.value_encode_mb_s.1mib",
        MIB as f64 / 1e6 / (ns / 1e9),
    );

    // rtml-kv: group commit at batch 1 and 256, point writes, sweeps.
    let kv = KvProbe::new();
    let singles = probe_specs(1, 4000);
    let recorded = probe_specs(2, 256 * 40);
    for (fresh, batch, ns_name, locks_name) in [
        (
            &singles,
            1,
            "kv.record_many_ns_per_spec.b1",
            "kv.locks_per_spec.b1",
        ),
        (
            &recorded,
            256,
            "kv.record_many_ns_per_spec.b256",
            "kv.locks_per_spec.b256",
        ),
    ] {
        let locks0 = kv.locks();
        let calls = fresh.len() / batch;
        let ns = per_call_ns(calls / 20, 20, |i| {
            kv.record_many(&fresh[i * batch..(i + 1) * batch])
        });
        emit(ns_name, ns / batch as f64);
        emit(
            locks_name,
            (kv.locks() - locks0) as f64 / fresh.len() as f64,
        );
    }
    let slice = |i: usize| &recorded[i * 256..(i + 1) * 256];
    emit(
        "kv.set_state_ns",
        per_call_ns(40, 256, |i| kv.set_state(&recorded[i])),
    );
    emit(
        "kv.get_states_many_ns_per_task.b256",
        per_call_ns(8, 5, |i| {
            faults.check("get_states_many", kv.get_states_many(slice(i)) == 256)
        }) / 256.0,
    );
    let objects = kv.declare(&recorded);
    emit(
        "kv.object_add_location_ns",
        per_call_ns(40, 256, |i| kv.add_location(objects[i])),
    );
    emit(
        "kv.object_get_many_ns_per_obj.b256",
        per_call_ns(8, 5, |i| {
            faults.check(
                "object_get_many",
                kv.object_get_many(&objects[i * 256..(i + 1) * 256]) == 256,
            )
        }) / 256.0,
    );
    emit(
        "kv.event_append_ns_per_event.b1",
        per_call_ns(40, 256, |i| kv.event_append(&recorded[i])),
    );
    emit(
        "kv.event_append_ns_per_event.b256",
        per_call_ns(8, 5, |i| kv.event_append_many(slice(i))) / 256.0,
    );
    let watched = kv.declare(&probe_specs(3, 300));
    emit(
        "kv.subscribe_notify_us",
        wake_us(
            watched.len(),
            |i| faults.check("wait_located", kv.wait_located(watched[i], wait)),
            |i| kv.add_location(watched[i]),
        ),
    );
    // The idle steal loop scans "load:" while every task and object
    // record is resident in the same shards.
    kv.fill(100_000, 4);
    emit(
        "kv.scan_prefix_us.k100000",
        per_call_ns(30, 1, |_| faults.check("scan_prefix", kv.scan_load() == 4)) / 1e3,
    );

    // rtml-net: what a hop costs beyond the configured latency.
    let net = NetProbe::new();
    let small = Bytes::from_static(&[7u8; 64]);
    emit(
        "net.send_recv_us.same_node",
        per_call_ns(40, 50, |_| faults.must("same_node", net.same_node(&small))) / 1e3,
    );
    let one_way = per_call_ns(300, 1, |_| {
        faults.must("cross_node", net.cross_node(vec![small.clone()]))
    });
    emit(
        "net.send_recv_overshoot_us.cross_node",
        one_way / 1e3 - HOP.as_secs_f64() * 1e6,
    );
    let chunks: Vec<Bytes> = (0..4).map(|k| block(k, 1, MIB / 4 / 8)).collect();
    let ns = per_call_ns(40, 1, |_| {
        faults.must("chunked", net.cross_node(chunks.clone()))
    });
    emit("net.chunked_mb_s.1mib", MIB as f64 / 1e6 / (ns / 1e9));

    // rtml-store: puts, hits, eviction, the seal wake-up, remote fetches.
    let store = StoreProbe::new(1 << 30);
    let eight = Bytes::from_static(&[1u8; 8]);
    emit(
        "store.put_ns.8b",
        per_call_ns(40, 256, |i| {
            faults.must(
                "put 8b",
                store.put(probe_object(0, i as u64), eight.clone()),
            )
        }),
    );
    emit(
        "store.get_ns.hit",
        per_call_ns(40, 256, |i| {
            faults.check("get hit", store.get(probe_object(0, i as u64)))
        }),
    );
    emit(
        "store.put_us.1mib",
        per_call_ns(20, 10, |i| {
            faults.must(
                "put 1mib",
                store.put(probe_object(1, i as u64), mib.clone()),
            )
        }) / 1e3,
    );
    let waiting: Vec<_> = (0..300).map(|i| probe_object(2, i)).collect();
    emit(
        "store.wait_local_wake_us",
        wake_us(
            waiting.len(),
            |i| faults.must("wait_local", store.wait_local(waiting[i], wait)),
            |i| faults.must("put waited", store.put(waiting[i], eight.clone())),
        ),
    );
    // A 32 MiB store, as shuffle_write's nodes have, already full of
    // 256 KiB blocks: every further put must evict exactly one.
    let small_store = StoreProbe::new(32 << 20);
    let quarter = block(9, 2, MIB / 4 / 8);
    let put_block = |i: usize| {
        faults.ok(
            "put 256kib",
            small_store.put(probe_object(3, i as u64), quarter.clone()),
        )
    };
    (0..128).for_each(|i| faults.check("filling put", put_block(i) == Some(0)));
    emit(
        "store.put_evict_us.256kib",
        per_call_ns(40, 10, |i| {
            faults.check("evicting put", put_block(128 + i) == Some(1))
        }) / 1e3,
    );

    let fetch = FetchProbe::new();
    for (batch, name, size, count) in [
        (10u64, "store.fetch_us.4kib", 4 << 10, 200usize),
        (11, "store.fetch_us.256kib", 256 << 10, 60),
        (12, "store.fetch_us.1mib", MIB, 30),
    ] {
        let payload = block(batch, 1, size / 8);
        for i in 0..count {
            faults.ok(
                "seed",
                fetch.seed(probe_object(batch, i as u64), payload.clone()),
            );
        }
        let ns = per_call_ns(count, 1, |i| {
            let bytes = faults.ok("fetch", fetch.fetch_many(&[probe_object(batch, i as u64)]));
            faults.check("fetch", bytes == Some(size));
        });
        emit(name, ns / 1e3);
    }
    let payload = block(13, 1, (4 << 10) / 8);
    let groups: Vec<Vec<_>> = (0..30u64)
        .map(|g| (0..32).map(|k| probe_object(13, g * 32 + k)).collect())
        .collect();
    for object in groups.iter().flatten() {
        faults.ok("seed", fetch.seed(*object, payload.clone()));
    }
    let ns = per_call_ns(groups.len(), 1, |i| {
        let bytes = faults.ok("fetch_many", fetch.fetch_many(&groups[i]));
        faults.check("fetch_many", bytes == Some(32 * payload.len()));
    });
    emit("store.fetch_many_us_per_obj.k32", ns / 1e3 / 32.0);
    // Cross-node probe messages that sat in the fabric's queue until the
    // probe sent another: each is a delivery the pump slept through, and
    // in a cluster a message that waited for the next load report.
    emit("net.pump_stalls", (net.stalls() + fetch.stalls()) as f64);
    fetch.shutdown();

    // rtml-sched: the pure decisions the global scheduler and an idle
    // thief make per task.
    for (nodes, name) in [
        (4, "sched.place_ns_per_task.n4"),
        (32, "sched.place_ns_per_task.n32"),
    ] {
        let mut sched = SchedProbe::new(nodes);
        emit(
            name,
            per_call_ns(40, 256, |i| {
                faults.check("place", sched.place(&recorded[i]).is_some())
            }),
        );
        if nodes == 4 {
            emit(
                "sched.choose_victim_ns.n4",
                per_call_ns(40, 256, |_| {
                    faults.check("choose_victim", sched.choose_victim().is_some())
                }),
            );
        }
    }

    emit("driver.probes_s", started.elapsed().as_secs_f64());
    let faults = faults.0.into_inner().expect("a probe thread panicked");
    if faults.is_empty() {
        Ok(out)
    } else {
        Err(faults.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_call_time_is_per_call_not_per_batch() {
        let mut calls = 0;
        let ns = per_call_ns(5, 4, |i| {
            assert_eq!(i, calls);
            calls += 1;
            std::thread::sleep(Duration::from_micros(200));
        });
        assert_eq!(calls, 20);
        assert!((200_000.0..5_000_000.0).contains(&ns), "{ns}");
    }

    #[test]
    fn wake_time_runs_from_fire_to_wake() {
        let (tx, rx) = mpsc::channel::<()>();
        let rx = std::sync::Mutex::new(rx);
        let us = wake_us(
            5,
            |_| rx.lock().unwrap().recv().unwrap(),
            |_| tx.send(()).unwrap(),
        );
        assert!((0.0..100_000.0).contains(&us), "{us}");
    }
}
