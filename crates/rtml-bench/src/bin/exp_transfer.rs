//! E11 — the batched, pipelined data plane (R4/R5).
//!
//! PR 2 made task *submission* pay per-batch costs; this experiment
//! measures the same amortization on the *object* plane:
//!
//! - **Chunking**: an object larger than the chunk size crosses the
//!   fabric as ⌈size/chunk⌉ frames streamed through the bandwidth model
//!   (one propagation-delay sample per stream, each chunk due when its
//!   own bytes have crossed), not one monolithic message — except that
//!   a tail under a sixteenth of a chunk rides in the last full frame
//!   ([`rtml_store::chunk_frames`]), so a sealed 256 KiB block (its
//!   payload plus 11 envelope bytes) is still one frame. Reported as
//!   frames/object for chunk sizes × object sizes.
//! - **Coalescing**: fetching K objects resident on one holder issues
//!   **one** request frame and one reply stream, vs K of each for the
//!   unbatched protocol.
//! - **Single-flight**: N concurrent `get`s of the same object perform
//!   exactly 1 transfer; the other N−1 join it.
//! - **Copy budget**: what handing a 1 MiB object around costs in
//!   memcpy. Opening a sealed `Bytes` argument and decoding it is a pair
//!   of windows (no copy; self-asserted < 20 µs, where two 1 MiB copies
//!   take hundreds), sealing a value is one pass (self-asserted ≤ 1.5×
//!   a bare `encode_to_bytes`, the single memcpy), and the bare
//!   one-object fetches of 1 MiB and 4 KiB copy nothing: the holder
//!   sends windows of its sealed copy and the reader seals the windows
//!   it was sent (self-asserted: `bytes_copied` reads 0 on both ends).
//! - **Broadcast**: three nodes ask one holder for the same 1 MiB object
//!   within 100 µs (100 µs hops, 1 GiB/s links). The holder streams it
//!   once and hands the later requests down the chain of readers, each
//!   of which passes chunks on as they arrive: self-asserted that the
//!   holder sends at most 1.5 objects' worth of chunks a round and that
//!   the last reader has the object sealed within 2.8 ms of the first
//!   request (three pulls from the holder took 3.9 ms).
//! - **Result push**: one task at a time, pinned to the other node,
//!   returning 8 bytes to a blocked `get`. The producer sends the
//!   result on seal and the reader asks nobody: self-asserted that the
//!   producer's transfer service serves 0 requests, that exactly 1
//!   frame a result reaches the submitter's agent, and that the best
//!   result was resident on the submitter sooner after its seal than
//!   the two hops any request would have taken.
//!
//! Run: `cargo run -p rtml-bench --bin exp_transfer --release`
//!
//! Results are also written to `BENCH_transfer.json` so CI can track
//! regressions mechanically. `RTML_TRANSFER_OBJECTS` overrides the
//! object count per matrix cell (default 64); CI smoke runs use a
//! small value.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use rtml_bench::{env_or, fmt_duration, p50, print_table};
use rtml_common::codec::encode_to_bytes;
use rtml_common::ids::{DriverId, NodeId, ObjectId, TaskId};
use rtml_common::resources::Resources;
use rtml_net::{Fabric, FabricConfig, LatencyModel};
use rtml_runtime::envelope::{open_value, seal_value};
use rtml_runtime::{Cluster, ClusterConfig, NodeConfig};
use rtml_store::{chunk_frames, FetchAgent, ObjectStore, StoreConfig, TransferDirectory};

const CHUNK_SIZES: [u64; 2] = [16 * 1024, 256 * 1024];
/// 4 KiB, a sealed 256 KiB block (11 envelope bytes over), 1 MiB.
const OBJECT_SIZES: [usize; 3] = [4 * 1024, 256 * 1024 + 11, 1024 * 1024];
const DEFAULT_OBJECTS: usize = 64;

fn obj(i: u64) -> ObjectId {
    TaskId::driver_root(DriverId::from_index(7))
        .child(i)
        .return_object(0)
}

struct Plane {
    fabric: Arc<Fabric>,
    src: Arc<ObjectStore>,
    dst: Arc<ObjectStore>,
    holder: FetchAgent,
    agent: FetchAgent,
}

/// Two stores, each with its node's object plane (the holder's serves,
/// the consumer's fetches), over a bandwidth-limited fabric — the raw
/// data plane without schedulers.
fn plane(chunk_bytes: u64) -> Plane {
    let fabric = Fabric::new(FabricConfig {
        latency: LatencyModel::Constant(Duration::from_micros(100)),
        bandwidth_bytes_per_sec: Some(2 << 30), // 2 GiB/s
        jitter_seed: 7,
        ..FabricConfig::default()
    });
    let directory = TransferDirectory::new();
    let src = Arc::new(ObjectStore::new(StoreConfig {
        node: NodeId(0),
        capacity_bytes: 1 << 30,
        chunk_bytes,
    }));
    let dst = Arc::new(ObjectStore::new(StoreConfig {
        node: NodeId(1),
        capacity_bytes: 1 << 30,
        chunk_bytes,
    }));
    let holder = FetchAgent::spawn(fabric.clone(), src.clone(), &directory);
    let agent = FetchAgent::spawn(fabric.clone(), dst.clone(), &directory);
    Plane {
        fabric,
        src,
        dst,
        holder,
        agent,
    }
}

struct MatrixCell {
    chunk: u64,
    size: usize,
    objects: usize,
    frames_per_object: f64,
    expected_frames: u64,
    objects_per_sec: f64,
    mb_per_sec: f64,
}

fn measure_matrix(objects: usize) -> Vec<MatrixCell> {
    let mut cells = Vec::new();
    for &chunk in &CHUNK_SIZES {
        for &size in &OBJECT_SIZES {
            let p = plane(chunk);
            let ids: Vec<ObjectId> = (0..objects as u64).map(obj).collect();
            for (i, &id) in ids.iter().enumerate() {
                p.src
                    .put(id, Bytes::from(vec![(i % 251) as u8; size]))
                    .unwrap();
            }
            let start = Instant::now();
            let results = p.agent.fetch_many(&ids, NodeId(0), Duration::from_secs(60));
            let elapsed = start.elapsed();
            assert!(results.iter().all(|r| r.is_ok()), "matrix fetch failed");
            let served = p.holder.stats().objects_served.get();
            let chunks = p.holder.stats().chunks_sent.get();
            assert_eq!(p.fabric.stats.chunk_frames.get(), chunks);
            cells.push(MatrixCell {
                chunk,
                size,
                objects,
                frames_per_object: chunks as f64 / served as f64,
                expected_frames: chunk_frames(size, chunk as usize) as u64,
                objects_per_sec: served as f64 / elapsed.as_secs_f64(),
                mb_per_sec: (served as usize * size) as f64
                    / (1 << 20) as f64
                    / elapsed.as_secs_f64(),
            });
            assert!(p.dst.contains(ids[0]));
        }
    }
    cells
}

struct Coalescing {
    objects: usize,
    request_frames: u64,
    reply_chunk_frames: u64,
}

fn measure_coalescing(objects: usize) -> Coalescing {
    let p = plane(256 * 1024);
    let ids: Vec<ObjectId> = (0..objects as u64).map(obj).collect();
    for &id in &ids {
        p.src.put(id, Bytes::from(vec![5u8; 1024])).unwrap();
    }
    let results = p.agent.fetch_many(&ids, NodeId(0), Duration::from_secs(30));
    assert!(results.iter().all(|r| r.is_ok()));
    Coalescing {
        objects,
        request_frames: p.holder.stats().requests.get(),
        reply_chunk_frames: p.holder.stats().chunks_sent.get(),
    }
}

struct SingleFlight {
    concurrent: usize,
    transfers: u64,
    duplicates_suppressed: u64,
}

fn measure_single_flight(concurrent: usize) -> SingleFlight {
    let p = plane(256 * 1024);
    p.src
        .put(obj(0), Bytes::from(vec![9u8; 64 * 1024]))
        .unwrap();
    let agent = Arc::new(p.agent);
    let mut handles = Vec::new();
    for _ in 0..concurrent {
        let agent = agent.clone();
        handles.push(std::thread::spawn(move || {
            agent
                .fetch_one(obj(0), NodeId(0), Duration::from_secs(30))
                .map(|(data, _)| data.len())
        }));
    }
    for h in handles {
        assert_eq!(h.join().unwrap().unwrap(), 64 * 1024);
    }
    SingleFlight {
        concurrent,
        transfers: agent.stats().transfers.get(),
        duplicates_suppressed: agent.stats().duplicates_suppressed.get(),
    }
}

struct CopyBudget {
    open_decode: Duration,
    seal: Duration,
    encode: Duration,
    /// Median fetch time, and the bytes holder and reader copied over
    /// all the fetches.
    fetch_1mib: (Duration, u64),
    fetch_4kib: (Duration, u64),
}

/// Median wall time of `f` over `reps` calls (after one warm-up call).
fn median_of(reps: usize, mut f: impl FnMut()) -> Duration {
    f();
    let timed = |_| {
        let start = Instant::now();
        f();
        start.elapsed()
    };
    p50(&(0..reps).map(timed).collect::<Vec<_>>())
}

fn measure_copy_budget() -> CopyBudget {
    const MIB: usize = 1 << 20;
    let value = Bytes::from(vec![7u8; MIB]);
    let sealed = seal_value(&value);
    // What a worker does with a `Bytes` argument: open the envelope,
    // then decode the typed value out of it.
    let open_decode = median_of(200, || {
        let arg: Bytes = open_value(&sealed, TaskId::NIL).unwrap();
        assert_eq!(std::hint::black_box(arg).len(), MIB);
    });
    let seal = median_of(100, || {
        std::hint::black_box(seal_value(std::hint::black_box(&value)));
    });
    let encode = median_of(100, || {
        std::hint::black_box(encode_to_bytes(std::hint::black_box(&value)));
    });

    // One object at a time over the raw data plane: request frame out,
    // chunk stream back, sealed into the local store.
    let p = plane(256 * 1024);
    let copied = || p.holder.stats().bytes_copied.get() + p.agent.stats().bytes_copied.get();
    let fetch = |id: ObjectId, size: usize| {
        p.src.put(id, Bytes::from(vec![3u8; size])).unwrap();
        let before = copied();
        let time = median_of(30, || {
            p.dst.delete(id);
            let (data, _) = p
                .agent
                .fetch_one(id, NodeId(0), Duration::from_secs(30))
                .unwrap();
            assert_eq!(data.len(), size);
        });
        (time, copied() - before)
    };
    CopyBudget {
        open_decode,
        seal,
        encode,
        fetch_1mib: fetch(obj(1), MIB),
        fetch_4kib: fetch(obj(2), 4 * 1024),
    }
}

struct Broadcast {
    rounds: usize,
    last_sealed_best: Duration,
    last_sealed_p50: Duration,
    origin_chunks_per_round: f64,
    handed_on_per_round: f64,
}

/// Three readers of one 1 MiB object on the ledger's fabric (100 µs
/// hops, 1 GiB/s links), asked for within 100 µs of each other.
fn measure_broadcast(rounds: usize) -> Broadcast {
    let fabric = Fabric::new(FabricConfig {
        latency: LatencyModel::Constant(Duration::from_micros(100)),
        bandwidth_bytes_per_sec: Some(1 << 30),
        ..FabricConfig::default()
    });
    let directory = TransferDirectory::new();
    let store = |node| {
        Arc::new(ObjectStore::new(StoreConfig {
            node: NodeId(node),
            capacity_bytes: 1 << 30,
            ..StoreConfig::default()
        }))
    };
    let origin = store(0);
    let origin_agent = FetchAgent::spawn(fabric.clone(), origin.clone(), &directory);
    // A reader relays through the same agent it fetches with.
    let readers: Vec<(Arc<ObjectStore>, FetchAgent)> = (1..4)
        .map(|node| {
            let store = store(node);
            (
                store.clone(),
                FetchAgent::spawn(fabric.clone(), store, &directory),
            )
        })
        .collect();
    let payload = seal_value(&Bytes::from(vec![5u8; 1 << 20]));
    let mut samples = Vec::new();
    let mut attempt = 0;
    while samples.len() < rounds {
        attempt += 1;
        assert!(
            attempt <= 4 * rounds as u64,
            "requests never issued in time"
        );
        let object = obj(1000 + attempt);
        origin.put(object, payload.clone()).unwrap();
        // One thread per reader, released together; each reports when it
        // asked and when it had the object.
        let go = std::sync::Barrier::new(readers.len() + 1);
        let (start, times) = std::thread::scope(|scope| {
            let asking: Vec<_> = readers
                .iter()
                .map(|(_, agent)| {
                    scope.spawn(|| {
                        go.wait();
                        let asked = Instant::now();
                        let (data, _) = agent
                            .fetch_one(object, NodeId(0), Duration::from_secs(30))
                            .unwrap();
                        assert_eq!(data.len(), payload.len());
                        (asked, Instant::now())
                    })
                })
                .collect();
            go.wait();
            let start = Instant::now();
            let times: Vec<(Instant, Instant)> =
                asking.into_iter().map(|t| t.join().unwrap()).collect();
            (start, times)
        });
        let first = times.iter().map(|t| t.0).min().unwrap_or(start);
        let last = times.iter().map(|t| t.0).max().unwrap_or(start);
        let sealed = times.iter().map(|t| t.1).max().unwrap_or(start);
        // A round whose requests the OS spread over more than 100 µs is
        // not the scenario.
        if last - first <= Duration::from_micros(100) {
            samples.push(sealed - first);
        }
        origin.delete(object);
        for (store, _) in &readers {
            store.delete(object);
        }
    }

    Broadcast {
        rounds,
        last_sealed_best: samples.iter().copied().min().unwrap_or_default(),
        last_sealed_p50: p50(&samples),
        origin_chunks_per_round: origin_agent.stats().chunks_sent.get() as f64 / attempt as f64,
        handed_on_per_round: origin_agent.stats().handed_on.get() as f64 / attempt as f64,
    }
}

struct ResultPush {
    results: u64,
    requests_served: u64,
    frames_per_result: f64,
    resident_best: Duration,
    resident_p50: Duration,
}

/// One-way latency of [`measure_result_push`]'s fabric (the
/// `ClusterConfig` default, spelled out because the section asserts
/// against it).
const PUSH_HOP: Duration = Duration::from_micros(100);

/// `results` remote round trips, one at a time: a task pinned to node 1
/// by a custom resource, its 8-byte result read by the driver on node 0.
fn measure_result_push(results: u64) -> ResultPush {
    let cluster = Cluster::start(ClusterConfig {
        nodes: vec![
            NodeConfig::cpu_only(2),
            NodeConfig::cpu_only(2).with_custom("sink", 1.0),
        ],
        latency: LatencyModel::Constant(PUSH_HOP),
        ..ClusterConfig::default()
    })
    .unwrap();
    let inc = cluster.register_fn1("push_inc", |x: u64| Ok(x + 1));
    let driver = cluster.driver();
    let pinned = rtml_runtime::TaskOptions::resources(Resources::cpu(1.0).with_custom("sink", 1.0));
    for i in 0..results {
        let fut = driver.submit1_opts(&inc, i, pinned.clone()).unwrap();
        assert_eq!(driver.get(&fut).unwrap(), i + 1);
    }
    // Each arrival is logged by node 0's scheduler, a step behind the
    // `get` it served: wait for the last.
    let deadline = Instant::now() + Duration::from_secs(10);
    let report = loop {
        let report = cluster.profile();
        if report.transfers as u64 == results {
            break report;
        }
        assert!(Instant::now() < deadline, "pushed arrivals never logged");
        std::thread::sleep(Duration::from_millis(1));
    };
    // A transfer span of a pushed result runs from the moment its frame
    // left the producer (the seal) to its arrival being committed.
    let resident: Vec<Duration> = report
        .spans
        .iter()
        .filter(|span| span.plane == "transfer")
        .map(|span| Duration::from_micros(span.micros))
        .collect();
    let frames = cluster
        .services()
        .fetch_agent(NodeId(0))
        .map_or(0, |agent| agent.stats().chunks_received.get());
    let count = |name: &str| report.counters.get(name).unwrap();
    let run = ResultPush {
        results,
        requests_served: count("transfer.requests"),
        frames_per_result: frames as f64 / results as f64,
        resident_best: resident.iter().copied().min().unwrap_or_default(),
        resident_p50: p50(&resident),
    };
    assert_eq!(count("transfer.pushed"), results);
    cluster.shutdown();
    run
}

fn main() {
    let objects: usize = env_or("RTML_TRANSFER_OBJECTS", DEFAULT_OBJECTS);

    // --- chunking matrix --------------------------------------------------
    let cells = measure_matrix(objects);
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                format!("{} KiB", c.chunk / 1024),
                format!("{} B", c.size),
                c.objects.to_string(),
                format!("{:.0}", c.frames_per_object),
                c.expected_frames.to_string(),
                format!("{:.0}", c.objects_per_sec),
                format!("{:.1}", c.mb_per_sec),
            ]
        })
        .collect();
    print_table(
        "E11a: chunked transfer (frames/object = ceil(size/chunk), a sliver tail absorbed)",
        &[
            "chunk",
            "object",
            "objects",
            "frames/obj",
            "expected",
            "objects/sec",
            "MiB/sec",
        ],
        &rows,
    );
    for c in &cells {
        assert_eq!(
            c.frames_per_object, c.expected_frames as f64,
            "chunk accounting mismatch"
        );
    }

    // --- request coalescing ----------------------------------------------
    let co = measure_coalescing(objects);
    print_table(
        "E11b: request coalescing (K objects, one holder)",
        &["objects", "request frames", "vs unbatched", "reply frames"],
        &[vec![
            co.objects.to_string(),
            co.request_frames.to_string(),
            format!("{}x fewer", co.objects as u64 / co.request_frames),
            co.reply_chunk_frames.to_string(),
        ]],
    );
    assert_eq!(co.request_frames, 1, "K objects must cost one request");

    // --- single flight ----------------------------------------------------
    let sf = measure_single_flight(8);
    print_table(
        "E11c: single-flight (N concurrent gets, same object)",
        &["concurrent gets", "transfers", "duplicates suppressed"],
        &[vec![
            sf.concurrent.to_string(),
            sf.transfers.to_string(),
            sf.duplicates_suppressed.to_string(),
        ]],
    );
    assert_eq!(sf.transfers, 1, "concurrent gets must share one transfer");

    // --- copy budget ------------------------------------------------------
    let cb = measure_copy_budget();
    let seal_ratio = cb.seal.as_secs_f64() / cb.encode.as_secs_f64();
    let row = |step: &str, time: Duration, copies: &str| {
        vec![step.to_string(), fmt_duration(time), copies.to_string()]
    };
    print_table(
        &format!("E11e: copy budget of a 1 MiB object (medians; seal = {seal_ratio:.2}x encode)"),
        &["step", "time", "copies"],
        &[
            row(
                "open + decode a sealed Bytes argument",
                cb.open_decode,
                "0 (was 2)",
            ),
            row("seal_value, one pass", cb.seal, "1 (was 2)"),
            row("encode_to_bytes, the single memcpy", cb.encode, "1"),
            row(
                "fetch 1 MiB: 4 windows of the holder's copy, joined",
                cb.fetch_1mib.0,
                &format!("{} bytes (was 2 copies)", cb.fetch_1mib.1),
            ),
            row(
                "fetch 4 KiB: 1 window of the holder's copy",
                cb.fetch_4kib.0,
                &format!("{} bytes (was 1 copy)", cb.fetch_4kib.1),
            ),
        ],
    );
    assert_eq!(
        (cb.fetch_1mib.1, cb.fetch_4kib.1),
        (0, 0),
        "the object plane copied payload bytes serving or assembling a fetch"
    );
    assert!(
        cb.open_decode < Duration::from_micros(20),
        "opening a sealed 1 MiB Bytes argument copies it: {:?}",
        cb.open_decode
    );
    assert!(
        seal_ratio <= 1.5,
        "seal_value is {seal_ratio:.2}x a bare encode: more than one pass"
    );

    // --- broadcast --------------------------------------------------------
    let bc = measure_broadcast(15);
    print_table(
        "E11f: three readers of one 1 MiB object, asked for within 100 µs",
        &[
            "rounds",
            "last reader sealed (best)",
            "(p50)",
            "chunks from the holder",
            "requests handed on",
        ],
        &[vec![
            bc.rounds.to_string(),
            fmt_duration(bc.last_sealed_best),
            fmt_duration(bc.last_sealed_p50),
            format!("{:.1} a round (one copy = 4)", bc.origin_chunks_per_round),
            format!("{:.1} a round", bc.handed_on_per_round),
        ]],
    );
    assert!(
        bc.origin_chunks_per_round <= 6.0,
        "the holder sent {:.1} chunks a round: more than 1.5 copies",
        bc.origin_chunks_per_round
    );
    assert!(
        bc.last_sealed_best <= Duration::from_micros(2800),
        "the last of three readers was sealed after {:?}",
        bc.last_sealed_best
    );

    // --- result push ------------------------------------------------------
    let rp = measure_result_push(256);
    print_table(
        "E11g: a small result goes to the node that holds its future",
        &[
            "results",
            "requests served by the producer",
            "frames to the submitter",
            "seal to resident (best)",
            "(p50)",
            "a request's two hops",
        ],
        &[vec![
            rp.results.to_string(),
            rp.requests_served.to_string(),
            format!("{:.2} a result", rp.frames_per_result),
            fmt_duration(rp.resident_best),
            fmt_duration(rp.resident_p50),
            fmt_duration(2 * PUSH_HOP),
        ]],
    );
    assert_eq!(
        rp.requests_served, 0,
        "the producer was asked for results it had pushed"
    );
    assert_eq!(
        rp.frames_per_result, 1.0,
        "a pushed result is one frame to the submitter's agent"
    );
    assert!(
        rp.resident_best < 2 * PUSH_HOP,
        "no pushed result was resident before a request could have returned: best {:?}",
        rp.resident_best
    );

    let json = render_json(objects, &cells, &co, &sf, &cb, &bc, &rp);
    let path = "BENCH_transfer.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\nfailed to write {path}: {e}"),
    }
}

/// Hand-rolled JSON: stable key order, no deps.
fn render_json(
    objects: usize,
    cells: &[MatrixCell],
    co: &Coalescing,
    sf: &SingleFlight,
    cb: &CopyBudget,
    bc: &Broadcast,
    rp: &ResultPush,
) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"objects_per_cell\": {objects},\n"));
    out.push_str("  \"chunking\": [\n");
    for (i, c) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"chunk_bytes\": {}, \"object_bytes\": {}, \"frames_per_object\": {:.0}, \"objects_per_sec\": {:.2}, \"mib_per_sec\": {:.2}}}{}\n",
            c.chunk,
            c.size,
            c.frames_per_object,
            c.objects_per_sec,
            c.mb_per_sec,
            if i + 1 == cells.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"coalescing\": {{\"objects\": {}, \"request_frames\": {}}},\n",
        co.objects, co.request_frames
    ));
    out.push_str(&format!(
        "  \"single_flight\": {{\"concurrent\": {}, \"transfers\": {}, \"duplicates_suppressed\": {}}},\n",
        sf.concurrent, sf.transfers, sf.duplicates_suppressed
    ));
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    out.push_str(&format!(
        "  \"copy_budget\": {{\"object_bytes\": 1048576, \"open_decode_us\": {:.2}, \"seal_us\": {:.1}, \"encode_us\": {:.1}, \"seal_over_encode\": {:.3}, \"fetch_us_1mib\": {:.1}, \"fetch_us_4kib\": {:.1}, \"bytes_copied_1mib\": {}, \"bytes_copied_4kib\": {}}},\n",
        us(cb.open_decode),
        us(cb.seal),
        us(cb.encode),
        cb.seal.as_secs_f64() / cb.encode.as_secs_f64(),
        us(cb.fetch_1mib.0),
        us(cb.fetch_4kib.0),
        cb.fetch_1mib.1,
        cb.fetch_4kib.1,
    ));
    out.push_str(&format!(
        "  \"broadcast\": {{\"readers\": 3, \"object_bytes\": 1048587, \"rounds\": {}, \"last_sealed_us_best\": {:.1}, \"last_sealed_us_p50\": {:.1}, \"origin_chunks_per_round\": {:.2}, \"handed_on_per_round\": {:.2}}},\n",
        bc.rounds,
        us(bc.last_sealed_best),
        us(bc.last_sealed_p50),
        bc.origin_chunks_per_round,
        bc.handed_on_per_round,
    ));
    out.push_str(&format!(
        "  \"result_push\": {{\"results\": {}, \"requests_served\": {}, \"frames_per_result\": {:.2}, \"hop_us\": {:.0}, \"seal_to_resident_us_best\": {:.1}, \"seal_to_resident_us_p50\": {:.1}}}\n",
        rp.results,
        rp.requests_served,
        rp.frames_per_result,
        us(PUSH_HOP),
        us(rp.resident_best),
        us(rp.resident_p50),
    ));
    out.push_str("}\n");
    out
}
