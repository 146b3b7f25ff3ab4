//! E14 — the observability plane: causal traces, critical-path
//! attribution, and the kv-backed telemetry time-series.
//!
//! The paper's Figure 3 hangs profiling and error-diagnosis tools off
//! the centralized control state; this experiment exercises the whole
//! loop end to end and self-asserts its acceptance criteria:
//!
//! - **Causal trace**: a DAG workload across 3 nodes produces a
//!   Chrome-trace that is valid JSON, carries flow arrows
//!   (`ph:"s"/"t"/"f"`) stitching submit → queue → place → start across
//!   nodes, and holds at least one duration span for every plane
//!   (control, ingest, placement, transfer).
//! - **Critical path**: the analyzer walks the sink task's binding
//!   dependency chain and splits the end-to-end span into
//!   ingest/placement/queue/transfer/execution; the buckets must sum
//!   to the measured makespan within 1% (they are exact by
//!   construction — the tolerance only guards the assertion itself).
//! - **Telemetry**: every node's scheduler loop commits a bounded ring
//!   of column-stable snapshots to the kv store, covering every metric
//!   its registry exposes.
//! - **Overhead**: batch-4096 submission throughput with default-on
//!   telemetry must stay within 10% of the same run with telemetry
//!   off: the median ratio of at least seven interleaved on/off pairs,
//!   each run submitting for at least 20 ms.
//!
//! Run: `cargo run -p rtml-bench --bin exp_observability --release`
//!
//! Results land in `BENCH_observability.json`; the trace itself in
//! `BENCH_observability_trace.json` (load it in Perfetto).
//! `RTML_OBS_TASKS` scales the DAG fan-out, `RTML_OBS_SUBMIT_TASKS`
//! the overhead run's least task count, `RTML_OBS_REPS` its on/off
//! pairs (at least seven).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rtml_bench::{env_or, print_table};
use rtml_common::ids::{DriverId, NodeId, TaskId};
use rtml_common::resources::Resources;
use rtml_common::task::{ArgSpec, TaskState};
use rtml_runtime::{Cluster, ClusterConfig, Driver, TaskRequest, TelemetryConfig};
use rtml_sched::SpillMode;

const DEFAULT_FANOUT: usize = 64;
const CHAIN_LEN: usize = 8;
const DEFAULT_SUBMIT_TASKS: usize = 8_192;
const SUBMIT_BATCH: usize = 4_096;
/// Telemetry-on submission throughput must stay within this factor of
/// telemetry-off.
const MIN_OVERHEAD_RATIO: f64 = 0.9;
/// Fewest interleaved on/off pairs the overhead ratio is the median of:
/// one pair of millisecond-scale runs is a coin flip on a loaded host.
const MIN_OVERHEAD_PAIRS: usize = 7;
/// Least time one overhead run submits for, whatever its task count.
const MIN_SUBMIT_TIME: Duration = Duration::from_millis(20);
/// Critical-path buckets must sum to the makespan within this.
const ATTRIBUTION_TOLERANCE: f64 = 0.01;

struct DagRun {
    plane_spans: BTreeMap<&'static str, usize>,
    trace: String,
    flow_starts: usize,
    flow_binds: usize,
    makespan_us: u64,
    attributed_us: u64,
    ingest_us: u64,
    placement_us: u64,
    queue_us: u64,
    transfer_us: u64,
    execution_us: u64,
    chain_len: usize,
    telemetry_nodes: usize,
    telemetry_records: usize,
    telemetry_retention: usize,
    telemetry_columns: usize,
    dropped_records: u64,
}

/// The trace workload: a 3-node cluster under `AlwaysSpill` (every
/// task crosses the global scheduler, so placement spans and
/// cross-node transfers are guaranteed) running a fan-out layer plus a
/// linear dependency chain whose sink anchors the critical path.
fn run_dag(fanout: usize) -> DagRun {
    let telemetry = TelemetryConfig {
        interval: Duration::from_millis(5),
        ..TelemetryConfig::default()
    };
    let retention = telemetry.retention;
    let cluster = Cluster::start(
        ClusterConfig::local(3, 2)
            .with_spill(SpillMode::AlwaysSpill)
            .with_telemetry(telemetry),
    )
    .unwrap();
    let work = cluster.register_fn1("obs_work", |block: Vec<u8>| {
        std::thread::sleep(Duration::from_millis(1));
        Ok(block
            .iter()
            .map(|&b| b.wrapping_add(1))
            .collect::<Vec<u8>>())
    });
    let driver = cluster.driver();

    // Shared input block: fan-out consumers on other nodes pull it
    // across the fabric (transfer spans).
    let block: Vec<u8> = (0..16 * 1024).map(|i| (i % 251) as u8).collect();
    let seed = driver.put(&block).unwrap();

    let fan: Vec<_> = (0..fanout)
        .map(|_| driver.submit1(&work, &seed).unwrap())
        .collect();
    // The chain: each link consumes its predecessor's output, and
    // AlwaysSpill round-robins links across nodes, so the dependency
    // crosses the fabric at most every hop.
    let mut tip = driver.submit1(&work, &seed).unwrap();
    for _ in 1..CHAIN_LEN {
        tip = driver.submit1(&work, &tip).unwrap();
    }
    driver.get_many(&fan).unwrap();
    let sink_value = driver.get(&tip).unwrap();
    assert!(!sink_value.is_empty());
    // Let every node take another telemetry sample before reading the
    // plane back.
    std::thread::sleep(Duration::from_millis(30));

    let report = cluster.profile();
    let mut plane_spans: BTreeMap<&'static str, usize> = BTreeMap::new();
    for span in &report.spans {
        *plane_spans.entry(span.plane).or_insert(0) += 1;
    }
    let trace = report.chrome_trace();
    validate_json(&trace).expect("chrome trace must be valid JSON");
    let flow_starts = trace.matches("\"ph\":\"s\"").count();
    let flow_binds = trace.matches("\"ph\":\"f\"").count();

    let sink_task = tip.id().producer_task().expect("task-produced object");
    let path = cluster
        .critical_path(sink_task)
        .expect("sink task is in the event log");
    assert_eq!(path.sink, sink_task);

    // Telemetry: every node has a non-empty, bounded, column-stable
    // series covering every metric its registry exposes.
    let series = cluster.timeseries();
    assert_eq!(series.len(), 3, "every node commits a telemetry series");
    let mut telemetry_records = 0;
    for (node, records) in &series {
        assert!(!records.is_empty(), "node {node} series is empty");
        assert!(
            records.len() <= retention,
            "node {node} ring exceeded retention: {}",
            records.len()
        );
        telemetry_records += records.len();
        for pair in records.windows(2) {
            assert!(pair[0].at_nanos <= pair[1].at_nanos);
        }
    }
    // A node's ring records its own registry and the cluster-wide one.
    let registry = cluster.node_registry(NodeId(0)).expect("node 0 alive");
    let mut expected = registry.sample_names();
    expected.extend(cluster.services().metrics.sample_names());
    expected.sort();
    let node0 = &series.iter().find(|(n, _)| *n == NodeId(0)).unwrap().1;
    for record in node0.iter() {
        let columns: Vec<&str> = record.samples.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            columns, expected,
            "telemetry columns must match the registries on every record"
        );
    }
    let telemetry_columns = expected.len();

    cluster.shutdown();
    DagRun {
        plane_spans,
        trace,
        flow_starts,
        flow_binds,
        makespan_us: path.makespan_nanos() / 1_000,
        attributed_us: path.attributed_nanos() / 1_000,
        ingest_us: path.ingest_nanos / 1_000,
        placement_us: path.placement_nanos / 1_000,
        queue_us: path.queue_nanos / 1_000,
        transfer_us: path.transfer_nanos / 1_000,
        execution_us: path.execution_nanos / 1_000,
        chain_len: path.chain.len(),
        telemetry_nodes: series.len(),
        telemetry_records,
        telemetry_retention: retention,
        telemetry_columns,
        dropped_records: report.dropped_records,
    }
}

/// One batch-4096 submission-throughput run (tasks/s), pipelined, on
/// the CI floor's configuration — the only difference between calls is
/// the telemetry switch. Submits at least `min_tasks`, and for at least
/// `MIN_SUBMIT_TIME`.
fn measure_submit(telemetry_on: bool, min_tasks: usize) -> f64 {
    let mut config = ClusterConfig {
        spill: SpillMode::NeverSpill,
        ..ClusterConfig::local(1, 2)
    }
    .with_event_log_retention(4096);
    if !telemetry_on {
        config = config.without_telemetry();
    }
    let cluster = Cluster::start(config).unwrap();
    let gated = cluster.register_fn2("obs_gated_submit", |x: u64, _gate: u64| Ok(x));
    let driver = cluster.driver();
    let never = TaskId::driver_root(DriverId::from_index(u64::MAX))
        .child(0)
        .return_object(0);
    let payload = rtml_common::codec::encode_to_bytes(&0u64);
    let batch = || -> Vec<TaskRequest> {
        (0..SUBMIT_BATCH)
            .map(|_| TaskRequest {
                function: gated.id(),
                args: vec![ArgSpec::Value(payload.clone()), ArgSpec::ObjectRef(never)],
                num_returns: 1,
                resources: Resources::cpu(1.0),
            })
            .collect()
    };
    // Built ahead, outside the timed loop: enough for 20 ms at ~1.6 M
    // tasks/s; a faster host builds the rest as it goes.
    let mut prebuilt: Vec<Vec<TaskRequest>> = (0..min_tasks.div_ceil(SUBMIT_BATCH).max(8))
        .map(|_| batch())
        .collect();
    let start = Instant::now();
    let mut submitted = 0;
    let mut last_returns = Vec::new();
    while submitted < min_tasks || start.elapsed() < MIN_SUBMIT_TIME {
        let requests = prebuilt.pop().unwrap_or_else(batch);
        let mut results = driver.submit_raw_batch(requests).unwrap();
        last_returns = results.pop().unwrap();
        submitted += SUBMIT_BATCH;
    }
    wait_queued(&driver, &last_returns);
    let elapsed = start.elapsed();
    cluster.shutdown();
    submitted as f64 / elapsed.as_secs_f64()
}

/// The median of `values` (upper median for an even count).
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Event-driven ingest barrier (see `exp_submit_throughput`).
fn wait_queued(driver: &Driver, returns: &[rtml_common::ids::ObjectId]) {
    let task = returns[0]
        .producer_task()
        .expect("return objects embed their producer");
    let (current, stream) = driver.services().tasks.subscribe_state(task);
    if matches!(current, Some(TaskState::Queued(_))) {
        return;
    }
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        match stream.recv_timeout(Duration::from_secs(1)) {
            Some(TaskState::Queued(_)) => return,
            _ => assert!(Instant::now() < deadline, "ingest never completed"),
        }
    }
}

fn main() {
    let fanout: usize = env_or("RTML_OBS_TASKS", DEFAULT_FANOUT);
    let submit_tasks: usize = env_or("RTML_OBS_SUBMIT_TASKS", DEFAULT_SUBMIT_TASKS);
    let reps: usize = env_or("RTML_OBS_REPS", MIN_OVERHEAD_PAIRS).max(MIN_OVERHEAD_PAIRS);

    let dag = run_dag(fanout);

    // Overhead A/B: interleaved on/off pairs, which side goes first
    // alternating, so drift in the host's load cancels within a pair;
    // the ratio is the median over pairs.
    let (mut on, mut off, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..reps {
        let (on_rate, off_rate) = if rep % 2 == 0 {
            let on_rate = measure_submit(true, submit_tasks);
            (on_rate, measure_submit(false, submit_tasks))
        } else {
            let off_rate = measure_submit(false, submit_tasks);
            (measure_submit(true, submit_tasks), off_rate)
        };
        on.push(on_rate);
        off.push(off_rate);
        ratios.push(on_rate / off_rate);
    }
    let (on_rate, off_rate) = (median(on), median(off));
    let overhead_ratio = median(ratios);

    let span_rows: Vec<Vec<String>> = dag
        .plane_spans
        .iter()
        .map(|(plane, count)| vec![plane.to_string(), count.to_string()])
        .collect();
    print_table(
        &format!("E14: plane spans ({fanout}-wide fan-out + {CHAIN_LEN}-deep chain, 3 nodes)"),
        &["plane", "spans"],
        &span_rows,
    );
    print_table(
        "E14: critical path of the chain sink",
        &["bucket", "micros"],
        &[
            vec!["ingest".into(), dag.ingest_us.to_string()],
            vec!["placement".into(), dag.placement_us.to_string()],
            vec!["queue".into(), dag.queue_us.to_string()],
            vec!["transfer".into(), dag.transfer_us.to_string()],
            vec!["execution".into(), dag.execution_us.to_string()],
            vec!["= attributed".into(), dag.attributed_us.to_string()],
            vec!["makespan".into(), dag.makespan_us.to_string()],
        ],
    );
    println!(
        "\ntelemetry: {} nodes, {} records (ring cap {}), {} columns each; \
         trace: {} flow starts, {} binds; submit batch-{SUBMIT_BATCH}: \
         telemetry on {:.0}/s vs off {:.0}/s (median of {reps} pairs {:.3}x)",
        dag.telemetry_nodes,
        dag.telemetry_records,
        dag.telemetry_retention,
        dag.telemetry_columns,
        dag.flow_starts,
        dag.flow_binds,
        on_rate,
        off_rate,
        overhead_ratio,
    );

    // Self-asserts (the acceptance criteria).
    for plane in ["control", "ingest", "placement", "transfer"] {
        assert!(
            dag.plane_spans.get(plane).copied().unwrap_or(0) > 0,
            "trace must hold at least one {plane} span"
        );
    }
    assert!(
        dag.flow_starts > 0 && dag.flow_binds > 0,
        "trace must carry flow events ({} starts, {} binds)",
        dag.flow_starts,
        dag.flow_binds,
    );
    let drift = dag.makespan_us.abs_diff(dag.attributed_us) as f64;
    assert!(
        drift <= ATTRIBUTION_TOLERANCE * dag.makespan_us.max(1) as f64,
        "attribution must sum to the makespan within 1%: {} vs {} µs",
        dag.attributed_us,
        dag.makespan_us,
    );
    assert!(
        overhead_ratio >= MIN_OVERHEAD_RATIO,
        "default-on telemetry must keep batch-{SUBMIT_BATCH} submission within 10%: {:.3}x",
        overhead_ratio,
    );

    let json = format!(
        "{{\n  \"experiment\": \"observability\",\n  \"fanout\": {fanout},\n  \"chain_len\": {},\n  \"planes\": {{{}}},\n  \"flow_starts\": {},\n  \"flow_binds\": {},\n  \"critical_path_us\": {{\"ingest\": {}, \"placement\": {}, \"queue\": {}, \"transfer\": {}, \"execution\": {}, \"attributed\": {}, \"makespan\": {}}},\n  \"telemetry\": {{\"nodes\": {}, \"records\": {}, \"retention\": {}, \"columns\": {}}},\n  \"submit_batch\": {SUBMIT_BATCH},\n  \"submit_tasks_per_rate\": {},\n  \"telemetry_on_tasks_per_sec\": {:.0},\n  \"telemetry_off_tasks_per_sec\": {:.0},\n  \"overhead_ratio\": {:.4},\n  \"event_records_dropped\": {}\n}}\n",
        dag.chain_len,
        dag.plane_spans
            .iter()
            .map(|(plane, count)| format!("\"{plane}\": {count}"))
            .collect::<Vec<_>>()
            .join(", "),
        dag.flow_starts,
        dag.flow_binds,
        dag.ingest_us,
        dag.placement_us,
        dag.queue_us,
        dag.transfer_us,
        dag.execution_us,
        dag.attributed_us,
        dag.makespan_us,
        dag.telemetry_nodes,
        dag.telemetry_records,
        dag.telemetry_retention,
        dag.telemetry_columns,
        submit_tasks,
        on_rate,
        off_rate,
        overhead_ratio,
        dag.dropped_records,
    );
    validate_json(&json).expect("results must be valid JSON");
    for (path, body) in [
        ("BENCH_observability.json", json.as_str()),
        ("BENCH_observability_trace.json", dag.trace.as_str()),
    ] {
        match std::fs::write(path, body) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }
}

/// Minimal JSON validator (no deps): accepts exactly one value, full
/// string-escape and number grammar. Enough to guarantee Perfetto can
/// load what we wrote.
fn validate_json(s: &str) -> Result<(), String> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(());
            }
            loop {
                skip_ws(b, pos);
                parse_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                skip_ws(b, pos);
                parse_value(b, pos)?;
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(());
            }
            loop {
                skip_ws(b, pos);
                parse_value(b, pos)?;
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(b, pos),
        Some(b't') => parse_literal(b, pos, b"true"),
        Some(b'f') => parse_literal(b, pos, b"false"),
        Some(b'n') => parse_literal(b, pos, b"null"),
        Some(b'-' | b'0'..=b'9') => parse_number(b, pos),
        other => Err(format!("unexpected {other:?} at byte {pos}")),
    }
}

fn parse_literal(b: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b.len() >= *pos + lit.len() && &b[*pos..*pos + lit.len()] == lit {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => match b.get(*pos + 1) {
                Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 2,
                Some(b'u') => {
                    let hex = b.get(*pos + 2..*pos + 6).ok_or("truncated \\u escape")?;
                    if !hex.iter().all(u8::is_ascii_hexdigit) {
                        return Err(format!("bad \\u escape at byte {pos}"));
                    }
                    *pos += 6;
                }
                _ => return Err(format!("bad escape at byte {pos}")),
            },
            0x00..=0x1f => return Err(format!("raw control char at byte {pos}")),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".into())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |b: &[u8], pos: &mut usize| {
        let from = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > from
    };
    if !digits(b, pos) {
        return Err(format!("bad number at byte {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(b, pos) {
            return Err(format!("bad fraction at byte {start}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(b, pos) {
            return Err(format!("bad exponent at byte {start}"));
        }
    }
    Ok(())
}
