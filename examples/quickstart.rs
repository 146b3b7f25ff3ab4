//! Quickstart: the paper's API in five minutes.
//!
//! Demonstrates the §3.1 programming model: non-blocking task creation,
//! futures as arguments (dataflow DAGs), nested task creation, `get`,
//! and `wait`.
//!
//! Run with: `cargo run --release --example quickstart`

use std::time::Duration;

use rtml::prelude::*;

fn main() -> Result<()> {
    // A 2-node cluster with 4 workers each, 100 µs simulated cross-node
    // latency, hybrid scheduling — Figure 3 in one call.
    let cluster = Cluster::start(ClusterConfig::local(2, 4)).unwrap();

    // 1. Register remote functions (the function table).
    let square = cluster.register_fn1("square", |x: i64| Ok(x * x));
    let add = cluster.register_fn2("add", |a: i64, b: i64| Ok(a + b));
    let slow = cluster.register_fn1("slow", |ms: u64| {
        std::thread::sleep(Duration::from_millis(ms));
        Ok(ms)
    });

    let driver = cluster.driver();

    // 2. Task creation is non-blocking: a future comes back immediately.
    let a = driver.submit1(&square, 6)?;
    let b = driver.submit1(&square, 8)?;

    // 3. Futures are arguments: this creates dataflow edges, no get
    //    needed in between.
    let c = driver.submit2(&add, a, b)?;

    // 4. get blocks until the value is ready (fetching across nodes if
    //    the task ran elsewhere).
    println!("6² + 8² = {}", driver.get(&c)?);

    // 5. wait returns as soon as enough tasks finished — the primitive
    //    for latency-aware code that tolerates stragglers (R1).
    let quick = driver.submit1(&slow, 10u64)?;
    let straggler = driver.submit1(&slow, 5_000u64)?;
    let (ready, pending) = driver.wait(&[quick, straggler], 1, Duration::from_secs(1));
    println!(
        "wait: {} ready, {} still pending (the straggler did not block us)",
        ready.len(),
        pending.len()
    );

    // put stores a value directly; tasks can consume it by reference.
    let big = driver.put(&vec![1i64; 1024])?;
    let sum = cluster.register_fn1("sum", |v: Vec<i64>| Ok(v.iter().sum::<i64>()));
    let total = driver.submit1(&sum, big)?;
    println!("sum of 1024 ones = {}", driver.get(&total)?);

    // R7: the event log knows what happened.
    println!("\n--- profile ---\n{}", cluster.profile().summary());

    cluster.shutdown();
    Ok(())
}
