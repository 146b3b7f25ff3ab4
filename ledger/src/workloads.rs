//! The six workloads. Each runs one rep — a fixed number of ops against a
//! fresh cluster — and checks every result against a reference the
//! driver computes itself from the seed. The seed changes sleep lengths
//! and payload bytes only, never sizes or op counts, so counts repeat
//! exactly from run to run.
//!
//! Task "compute" is a seeded `thread::sleep`, never a spin: the clusters
//! simulate up to 16 workers on a 2-core host, and spinning workers
//! would measure the OS scheduler instead of the program.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::sut::{self, Bytes, Client, NodeSpec, ObjectRef, Sut, GIB_PER_S};
use crate::trace::{Recorder, SpanId};

/// One workload of the ledger.
pub struct Workload {
    pub name: &'static str,
    /// One line for BENCHMARK.json: why the workload is in the set.
    pub why: &'static str,
    /// `closed` or `open` loop, with its client count or rate.
    pub load: &'static str,
    /// An op slower than this (or failed) counts in `driver.miss_share`.
    pub limit: Duration,
    /// Ops per rep; fixed.
    pub ops: u64,
    pub tasks_per_op: u64,
    /// Rough wall time of one rep on the 2-core reference host; decides
    /// how many reps fit into `--seconds`.
    pub rep_seconds: f64,
    run: fn(&mut Run<'_>) -> sut::Result<()>,
}

impl Workload {
    /// Unmeasured ops before the first measured one, so that lazy set-up
    /// is over by then; their time is part of `setup_s`.
    fn warmup(&self) -> u64 {
        self.ops.div_ceil(10)
    }
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "rtt_local",
        why: "one task at a time on one node: submit, kv commit, local dispatch, seal and get wake-up do all the work; net, global scheduler and transfer do none",
        load: "closed loop, 1 client",
        limit: Duration::from_millis(5),
        ops: 20_000,
        tasks_per_op: 1,
        rep_seconds: 2.1,
        run: rtt_local,
    },
    Workload {
        name: "rtt_remote",
        why: "one task at a time pinned to the other node: spill, global placement, fabric hops and result fetch dominate; the local fast path does little",
        load: "closed loop, 1 client",
        limit: Duration::from_millis(10),
        ops: 3_000,
        tasks_per_op: 1,
        rep_seconds: 2.5,
        run: rtt_remote,
    },
    Workload {
        name: "burst_spill",
        why: "256-task batches through execution on two nodes: the submit path of rtt_local used batched, so batch throughput and single-task latency can move apart",
        load: "closed loop, 1 client",
        limit: Duration::from_millis(500),
        ops: 32,
        tasks_per_op: 256,
        rep_seconds: 2.3,
        run: burst_spill,
    },
    Workload {
        name: "rl_broadcast",
        why: "the paper's RL loop: a 1 MiB policy read by 32 rollouts on 4 nodes each iteration; hot-object transfer, prefetch and replication work, the store is read-mostly",
        load: "closed loop, 1 client",
        limit: Duration::from_millis(150),
        ops: 80,
        tasks_per_op: 32,
        rep_seconds: 2.6,
        run: rl_broadcast,
    },
    Workload {
        name: "shuffle_write",
        why: "write-once read-once 256 KiB blocks between 4 nodes with small stores: the store and transfer layers under puts and eviction, replication idle",
        load: "closed loop, 1 client",
        limit: Duration::from_millis(150),
        ops: 100,
        tasks_per_op: 64,
        rep_seconds: 2.85,
        run: shuffle_write,
    },
    Workload {
        name: "stream_fusion",
        why: "open-loop 300 windows/s of 4 sensor tasks fused by a tree of futures, timed from when each window was due: queueing and stalls, not service time, set the result",
        load: "open loop, 300 windows/s",
        limit: Duration::from_millis(25),
        ops: 900,
        tasks_per_op: 7,
        rep_seconds: 3.1,
        run: stream_fusion,
    },
];

/// What one rep measured.
#[derive(Default)]
pub struct Outcome {
    /// Process start to first measured op: cluster start, registration,
    /// warm-up.
    pub setup_s: f64,
    pub start_s: f64,
    pub shutdown_s: f64,
    /// Measured wall time of the op loop.
    pub wall_s: f64,
    /// Latency of every op in op order, µs; failed ops included at the
    /// time they took to fail.
    pub lat_us: Vec<f64>,
    /// Open loop only: how late the generator started each op, µs.
    pub late_us: Vec<f64>,
    pub failed: u64,
    pub before: sut::Counters,
    pub after: sut::Counters,
}

/// The state of a rep in progress.
pub struct Run<'a> {
    pub seed: u64,
    pub rec: &'a Recorder,
    workload: &'static Workload,
    process_start: Instant,
    measure_start: Instant,
    pub out: Outcome,
}

/// Runs one rep of `workload`. `process_start` is when the rep's process
/// began, so set-up time includes everything before the first measured op.
pub fn run_rep(
    workload: &'static Workload,
    seed: u64,
    rec: &Recorder,
    process_start: Instant,
) -> sut::Result<Outcome> {
    let mut run = Run {
        seed,
        rec,
        workload,
        process_start,
        measure_start: process_start,
        out: Outcome::default(),
    };
    (workload.run)(&mut run)?;
    Ok(run.out)
}

impl Run<'_> {
    fn start(&mut self, nodes: &[NodeSpec], bandwidth: Option<u64>) -> sut::Result<Sut> {
        let t0 = Instant::now();
        let sut = Sut::start(nodes, bandwidth)?;
        self.out.start_s = t0.elapsed().as_secs_f64();
        Ok(sut)
    }

    /// Set-up ends and the measured window begins.
    fn begin(&mut self, sut: &Sut) {
        self.out.setup_s = self.process_start.elapsed().as_secs_f64();
        self.out.before = sut.counters();
        self.measure_start = Instant::now();
    }

    fn end(&mut self, sut: Sut) {
        self.out.wall_s = self.measure_start.elapsed().as_secs_f64();
        self.out.after = sut.counters();
        let t0 = Instant::now();
        sut.shutdown();
        self.out.shutdown_s = t0.elapsed().as_secs_f64();
    }

    fn record(&mut self, latency: Duration, result: sut::Result<bool>) {
        self.out.lat_us.push(latency.as_secs_f64() * 1e6);
        match result {
            Ok(true) => {}
            Ok(false) => {
                self.out.failed += 1;
                eprintln!(
                    "ledger: {}: an op returned a wrong value",
                    self.workload.name
                );
            }
            Err(e) => {
                self.out.failed += 1;
                eprintln!("ledger: {}: an op failed: {e}", self.workload.name);
            }
        }
    }

    /// Warm-up ops (a tenth of the rep), then the workload's ops one after
    /// the other, each timed from the call to its checked value. `op`
    /// returns whether the value matched the reference.
    fn closed_loop(
        &mut self,
        sut: Sut,
        op: &mut dyn FnMut(SpanId, u64) -> sut::Result<bool>,
    ) -> sut::Result<()> {
        let ops = self.workload.ops;
        for i in 0..self.workload.warmup() {
            if !op(None, ops + i)? {
                return Err(sut::Error::InvalidArgument(
                    "warm-up op returned a wrong value".into(),
                ));
            }
        }
        self.begin(&sut);
        for i in 0..ops {
            let t0 = Instant::now();
            let root = self.rec.open("op", i, None, 0, t0);
            let result = op(root, i);
            let t1 = Instant::now();
            self.rec.close(root, t1);
            self.record(t1 - t0, result);
        }
        self.end(sut);
        Ok(())
    }
}

// --- seeded inputs and their references --------------------------------

/// SplitMix64: the seed stream and the per-task hash.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded sleep of `base + [0, spread)` µs, keyed by the task's input.
fn seeded_sleep(seed: u64, key: u64, base_us: u64, spread_us: u64) {
    std::thread::sleep(Duration::from_micros(base_us + mix(seed ^ key) % spread_us));
}

/// A payload of `words` little-endian u64s, word k = a·k + b. Cheap to
/// make and its checksum has a closed form, so the driver's reference
/// costs nothing next to the work being timed.
pub fn block(a: u64, b: u64, words: usize) -> Bytes {
    let mut out = Vec::with_capacity(words * 8);
    let mut word = b;
    for _ in 0..words {
        out.extend_from_slice(&word.to_le_bytes());
        word = word.wrapping_add(a);
    }
    Bytes::from(out)
}

/// Wrapping sum of the u64 words of a payload.
pub fn checksum(data: &[u8]) -> u64 {
    data.chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk")))
        .fold(0, u64::wrapping_add)
}

/// `checksum(block(a, b, words))` without building the block.
pub fn block_checksum(a: u64, b: u64, words: usize) -> u64 {
    let n = words as u64;
    // Σk for k < n; one of n, n−1 is even, so halve that one first.
    let triangle = if n.is_multiple_of(2) {
        (n / 2).wrapping_mul(n.wrapping_sub(1))
    } else {
        n.wrapping_mul((n - 1) / 2)
    };
    a.wrapping_mul(triangle).wrapping_add(b.wrapping_mul(n))
}

// --- the workloads ------------------------------------------------------

fn rtt_local(run: &mut Run<'_>) -> sut::Result<()> {
    let sut = run.start(&[NodeSpec::workers(2)], None)?;
    let inc = sut.register1("inc", |x: u64| Ok(x + 1));
    let client = sut.client(run.rec, 0);
    let seed = run.seed;
    run.closed_loop(sut, &mut |op, i| {
        let x = mix(seed ^ i) >> 1;
        let fut = client.submit1(op, &inc, x)?;
        Ok(client.get(op, &fut)? == x + 1)
    })
}

fn rtt_remote(run: &mut Run<'_>) -> sut::Result<()> {
    let remote = NodeSpec {
        pinned: true,
        ..NodeSpec::workers(2)
    };
    let sut = run.start(&[NodeSpec::workers(2), remote], None)?;
    let inc = sut.register1("inc", |x: u64| Ok(x + 1));
    let client = sut.client(run.rec, 0);
    let seed = run.seed;
    run.closed_loop(sut, &mut |op, i| {
        let x = mix(seed ^ i) >> 1;
        let fut = client.submit1_pinned(op, &inc, x)?;
        Ok(client.get(op, &fut)? == x + 1)
    })
}

fn burst_spill(run: &mut Run<'_>) -> sut::Result<()> {
    let sut = run.start(&[NodeSpec::workers(2); 2], None)?;
    let inc = sut.register1("inc", |x: u64| Ok(x + 1));
    let client = sut.client(run.rec, 0);
    let (seed, batch) = (run.seed, run.workload.tasks_per_op);
    run.closed_loop(sut, &mut |op, round| {
        let args: Vec<u64> = (0..batch)
            .map(|k| mix(seed ^ (round * batch + k)) >> 1)
            .collect();
        let futs = client.submit_many(op, &inc, &args)?;
        let values = client.get_many(op, &futs)?;
        Ok(values.len() == args.len() && values.iter().zip(&args).all(|(v, x)| *v == x + 1))
    })
}

const POLICY_WORDS: usize = (1 << 20) / 8;
const ROLLOUT_WORDS: usize = (4 << 10) / 8;

fn rl_broadcast(run: &mut Run<'_>) -> sut::Result<()> {
    let sut = run.start(&[NodeSpec::workers(4); 4], Some(GIB_PER_S))?;
    let seed = run.seed;
    let rollout = sut.register2("rollout", move |policy: Bytes, idx: u64| {
        seeded_sleep(seed, idx, 2000, 600);
        Ok(block(checksum(&policy) ^ mix(idx), idx, ROLLOUT_WORDS))
    });
    let client = sut.client(run.rec, 0);
    let rollouts = run.workload.tasks_per_op;
    // The policy is updated from the results of each iteration, so a
    // wrong rollout also derails every later reference.
    let mut policy = (mix(seed), mix(seed ^ 1));
    run.closed_loop(sut, &mut |op, iter| {
        let policy_ref = client.put(op, &block(policy.0, policy.1, POLICY_WORDS))?;
        let policy_sum = block_checksum(policy.0, policy.1, POLICY_WORDS);
        let futs = (0..rollouts)
            .map(|k| client.submit2(op, &rollout, policy_ref, iter * rollouts + k))
            .collect::<sut::Result<Vec<_>>>()?;
        let results = client.get_many(op, &futs)?;
        let mut correct = results.len() == futs.len();
        let mut feedback = 0u64;
        for (k, result) in results.iter().enumerate() {
            let idx = iter * rollouts + k as u64;
            let sum = checksum(result);
            correct &= result.len() == ROLLOUT_WORDS * 8
                && sum == block_checksum(policy_sum ^ mix(idx), idx, ROLLOUT_WORDS);
            feedback = feedback.wrapping_add(sum);
        }
        policy = (mix(policy.0 ^ feedback), mix(policy.1 ^ feedback));
        Ok(correct)
    })
}

const SHUFFLE_WORDS: usize = (256 << 10) / 8;
const SHUFFLE_STORE: u64 = 32 << 20;
/// Reduce task j reads blocks j and j + 13 (mod 32): two producers, and
/// with blocks spread over four nodes mostly two different nodes.
const SHUFFLE_STRIDE: usize = 13;

fn shuffle_write(run: &mut Run<'_>) -> sut::Result<()> {
    let node = NodeSpec {
        store_bytes: Some(SHUFFLE_STORE),
        ..NodeSpec::workers(2)
    };
    let sut = run.start(&[node; 4], Some(GIB_PER_S))?;
    let seed = run.seed;
    let map = sut.register1("map", move |idx: u64| {
        Ok(block(mix(seed ^ idx), idx, SHUFFLE_WORDS))
    });
    let reduce = sut.register2("reduce", |a: Bytes, b: Bytes| {
        Ok(checksum(&a) ^ checksum(&b).rotate_left(1))
    });
    let client = sut.client(run.rec, 0);
    let maps = (run.workload.tasks_per_op / 2) as usize;
    run.closed_loop(sut, &mut |op, round| {
        let ids: Vec<u64> = (0..maps as u64).map(|k| round * maps as u64 + k).collect();
        let blocks = client.submit_many(op, &map, &ids)?;
        let sums = (0..maps)
            .map(|j| client.submit2(op, &reduce, blocks[j], blocks[(j + SHUFFLE_STRIDE) % maps]))
            .collect::<sut::Result<Vec<_>>>()?;
        let values = client.get_many(op, &sums)?;
        let expect = |k: usize| block_checksum(mix(seed ^ ids[k]), ids[k], SHUFFLE_WORDS);
        Ok(values.len() == maps
            && values
                .iter()
                .enumerate()
                .all(|(j, v)| *v == expect(j) ^ expect((j + SHUFFLE_STRIDE) % maps).rotate_left(1)))
    })
}

const STREAM_HZ: u32 = 300;

fn fuse(a: u64, b: u64) -> u64 {
    a.rotate_left(7) ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The time window `index` is due, on a fixed schedule from `start`.
pub fn due_time(start: Instant, index: u64, hz: u32) -> Instant {
    start + Duration::from_nanos(index * 1_000_000_000 / u64::from(hz))
}

/// Submits one window — four `sense` tasks fused pairwise, then once
/// more — and returns the future of the fused value with its reference.
fn submit_window(
    client: &Client<'_>,
    op: SpanId,
    sense: &sut::Func1<u64, u64>,
    fuser: &sut::Func2<u64, u64, u64>,
    window: u64,
) -> sut::Result<(ObjectRef<u64>, u64)> {
    let x = |k: u64| window * 4 + k;
    let s: Vec<ObjectRef<u64>> = (0..4)
        .map(|k| client.submit1(op, sense, x(k)))
        .collect::<sut::Result<_>>()?;
    let left = client.submit2(op, fuser, s[0], s[1])?;
    let right = client.submit2(op, fuser, s[2], s[3])?;
    let fused = client.submit2(op, fuser, left, right)?;
    let expect = fuse(fuse(mix(x(0)), mix(x(1))), fuse(mix(x(2)), mix(x(3))));
    Ok((fused, expect))
}

fn stream_fusion(run: &mut Run<'_>) -> sut::Result<()> {
    let sut = run.start(&[NodeSpec::workers(4); 3], None)?;
    let seed = run.seed;
    let sense = sut.register1("sense", move |x: u64| {
        seeded_sleep(seed, x, 200, 600);
        Ok(mix(x))
    });
    let fuser = sut.register2("fuse", |a: u64, b: u64| Ok(fuse(a, b)));
    let generator = sut.client(run.rec, 0);
    let collector = sut.client(run.rec, 1);
    let ops = run.workload.ops;
    for w in 0..run.workload.warmup() {
        let (fut, expect) = submit_window(&generator, None, &sense, &fuser, ops + w)?;
        if generator.get(None, &fut)? != expect {
            return Err(sut::Error::InvalidArgument(
                "warm-up window fused to a wrong value".into(),
            ));
        }
    }
    run.begin(&sut);
    let rec = run.rec;
    let start = run.measure_start;
    // The generator keeps to its schedule whatever the cluster does; a
    // second thread consumes results in window order, as whatever sits
    // downstream of a fusion pipeline would. A window's latency runs
    // from its due time, so a stall also charges the windows queued
    // behind it.
    type Sent = (Instant, SpanId, sut::Result<(ObjectRef<u64>, u64)>);
    let (tx, rx) = mpsc::channel::<Sent>();
    let (late_us, done) = std::thread::scope(|scope| {
        let consumer = scope.spawn(move || {
            rx.into_iter()
                .map(|(due, root, sent)| {
                    let result =
                        sent.and_then(|(fut, expect)| Ok(collector.get(root, &fut)? == expect));
                    let now = Instant::now();
                    rec.close(root, now);
                    (now - due, result)
                })
                .collect::<Vec<_>>()
        });
        let mut late_us = Vec::with_capacity(ops as usize);
        for w in 0..ops {
            let due = due_time(start, w, STREAM_HZ);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            late_us.push(due.elapsed().as_secs_f64() * 1e6);
            let root = rec.open("op", w, None, 0, due);
            let sent = submit_window(&generator, root, &sense, &fuser, w);
            tx.send((due, root, sent))
                .expect("the collector outlives the generator");
        }
        drop(tx);
        (late_us, consumer.join().expect("collector thread panicked"))
    });
    run.out.late_us = late_us;
    for (latency, result) in done {
        run.record(latency, result);
    }
    run.end(sut);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_checksum_matches_the_built_block() {
        for (a, b, words) in [
            (3, 5, 1),
            (u64::MAX, 7, 512),
            (mix(1), mix(2), 32_768),
            (0, 9, 2),
        ] {
            assert_eq!(
                checksum(&block(a, b, words)),
                block_checksum(a, b, words),
                "{a} {b} {words}"
            );
            assert_eq!(block(a, b, words).len(), words * 8);
        }
    }

    #[test]
    fn due_times_follow_the_schedule_not_the_clock() {
        let start = Instant::now();
        assert_eq!(due_time(start, 0, 300), start);
        assert_eq!(due_time(start, 300, 300), start + Duration::from_secs(1));
        assert_eq!(due_time(start, 3, 300), start + Duration::from_millis(10));
        // Evenly spaced however long earlier windows took to submit.
        let gap = due_time(start, 601, 300) - due_time(start, 600, 300);
        assert!(gap >= Duration::from_nanos(3_333_333) && gap <= Duration::from_nanos(3_333_334));
    }

    #[test]
    fn workload_table_is_well_formed() {
        for w in &WORKLOADS {
            assert!(
                w.ops > 0 && w.tasks_per_op > 0 && w.rep_seconds > 0.0,
                "{}",
                w.name
            );
            assert!(
                !w.why.contains('\n') && w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
        }
    }
}
