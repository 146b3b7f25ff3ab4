//! The bulk-synchronous-parallel (Spark-model) baseline.

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::baselines::{Engine, StageTask};

/// Tuning for the BSP engine.
#[derive(Clone, Debug)]
pub struct BspConfig {
    /// Executor threads.
    pub workers: usize,
    /// Driver-side cost to launch one task (paid serially per task).
    pub per_task_overhead: Duration,
    /// Fixed cost to start a stage (DAG scheduling, broadcast).
    pub per_stage_overhead: Duration,
}

impl BspConfig {
    /// Overheads calibrated so the §4.2 RL workload reproduces the
    /// paper's "Spark is 9x slower than single-threaded" observation
    /// (fine-grained ~7 ms tasks, driver-bound dispatch, per-stage
    /// scheduling).
    pub fn spark_calibrated(workers: usize) -> Self {
        BspConfig {
            workers,
            per_task_overhead: Duration::from_millis(60),
            per_stage_overhead: Duration::from_millis(100),
        }
    }
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// The driver-coordinated BSP engine.
///
/// Mechanism, not mock: a single **driver thread** owns task dispatch.
/// For every task it pays a launch overhead (serialization, bookkeeping,
/// RPC — the things that cost Spark milliseconds per task) *serially*,
/// then enqueues the task for the executor pool. The stage ends with a
/// barrier; the next stage cannot start until the last straggler
/// finishes. Per-stage setup adds a further fixed cost.
///
/// With 7 ms tasks (the paper's RL workload), a driver that needs
/// ~10-20 ms per launch becomes the bottleneck regardless of executor
/// count — which is precisely how a cluster framework ends up 9x
/// *slower* than one thread.
pub struct BspEngine {
    config: BspConfig,
    queue_tx: mpsc::Sender<Job>,
    // Kept so the pool drains and joins on drop.
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl BspEngine {
    /// Starts the executor pool.
    pub fn new(config: BspConfig) -> BspEngine {
        let (queue_tx, queue_rx) = mpsc::channel::<Job>();
        let queue_rx = Arc::new(Mutex::new(queue_rx));
        let mut handles = Vec::new();
        for i in 0..config.workers.max(1) {
            let queue_rx = queue_rx.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("bsp-exec-{i}"))
                    .spawn(move || loop {
                        // Central queue: one task at a time per executor.
                        let job = {
                            let guard = queue_rx.lock().expect("queue lock");
                            guard.recv()
                        };
                        match job {
                            Ok(job) => job(),
                            Err(_) => return,
                        }
                    })
                    .expect("spawn bsp executor"),
            );
        }
        BspEngine {
            config,
            queue_tx,
            handles,
        }
    }
}

impl Engine for BspEngine {
    fn run_stage<T: Send + 'static>(&self, tasks: Vec<StageTask<T>>) -> Vec<T> {
        // Stage setup (DAG scheduling, closure broadcast).
        spin_for(self.config.per_stage_overhead);

        let n = tasks.len();
        let (done_tx, done_rx) = mpsc::channel::<(usize, T)>();
        for (index, task) in tasks.into_iter().enumerate() {
            // The driver launches tasks one at a time: this loop *is*
            // the central bottleneck being modelled.
            spin_for(self.config.per_task_overhead);
            let done_tx = done_tx.clone();
            let job: Job = Box::new(move || {
                let value = task();
                let _ = done_tx.send((index, value));
            });
            self.queue_tx.send(job).expect("executor pool alive");
        }
        drop(done_tx);

        // Barrier: collect every result before returning.
        let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            let (index, value) = done_rx.recv().expect("task result");
            results[index] = Some(value);
        }
        results
            .into_iter()
            .map(|v| v.expect("every slot filled"))
            .collect()
    }
}

impl Drop for BspEngine {
    fn drop(&mut self) {
        // Close the queue; executors drain and exit.
        let (dead_tx, _) = mpsc::channel();
        self.queue_tx = dead_tx;
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Burns wall-clock time like real driver-side work would (serialization
/// is CPU work, not sleep — but for overheads ≥ 1 ms the distinction is
/// immaterial and sleep is kinder to test machines).
fn spin_for(duration: Duration) {
    if duration.is_zero() {
        return;
    }
    if duration < Duration::from_millis(2) {
        rtml_common::time::busy_work(duration);
    } else {
        std::thread::sleep(duration);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Instant;

    fn fast_config(workers: usize) -> BspConfig {
        BspConfig {
            workers,
            per_task_overhead: Duration::ZERO,
            per_stage_overhead: Duration::ZERO,
        }
    }

    #[test]
    fn results_keep_input_order() {
        let engine = BspEngine::new(fast_config(4));
        let tasks: Vec<StageTask<usize>> = (0..32usize)
            .map(|i| {
                Box::new(move || {
                    // Reverse sleep order so completion order differs
                    // from submission order.
                    std::thread::sleep(Duration::from_millis((32 - i) as u64 % 5));
                    i
                }) as StageTask<usize>
            })
            .collect();
        let results = engine.run_stage(tasks);
        assert_eq!(results, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn executes_in_parallel() {
        let engine = BspEngine::new(fast_config(8));
        let start = Instant::now();
        let tasks: Vec<StageTask<()>> = (0..8)
            .map(|_| Box::new(|| std::thread::sleep(Duration::from_millis(50))) as StageTask<()>)
            .collect();
        engine.run_stage(tasks);
        // 8 x 50 ms with 8 workers: well under the 400 ms serial time.
        assert!(start.elapsed() < Duration::from_millis(300));
    }

    #[test]
    fn stage_is_a_barrier() {
        let engine = BspEngine::new(fast_config(4));
        let counter = Arc::new(AtomicUsize::new(0));
        let c1 = counter.clone();
        let stage1: Vec<StageTask<()>> = (0..16)
            .map(|_| {
                let c = c1.clone();
                Box::new(move || {
                    std::thread::sleep(Duration::from_millis(5));
                    c.fetch_add(1, Ordering::SeqCst);
                }) as StageTask<()>
            })
            .collect();
        engine.run_stage(stage1);
        // After the barrier every stage-1 effect is visible.
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn per_task_overhead_is_serialized_at_driver() {
        let engine = BspEngine::new(BspConfig {
            workers: 8,
            per_task_overhead: Duration::from_millis(5),
            per_stage_overhead: Duration::ZERO,
        });
        let start = Instant::now();
        let tasks: Vec<StageTask<()>> = (0..10).map(|_| Box::new(|| ()) as StageTask<()>).collect();
        engine.run_stage(tasks);
        // 10 launches x 5 ms, serial at the driver, regardless of the 8
        // idle executors.
        assert!(
            start.elapsed() >= Duration::from_millis(50),
            "took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn stage_overhead_applies_once_per_stage() {
        let engine = BspEngine::new(BspConfig {
            workers: 2,
            per_task_overhead: Duration::ZERO,
            per_stage_overhead: Duration::from_millis(30),
        });
        let start = Instant::now();
        let _: Vec<()> = engine.run_stage(vec![Box::new(|| ())]);
        let one = start.elapsed();
        assert!(one >= Duration::from_millis(30));
        let start = Instant::now();
        let _: Vec<()> = engine.run_stage(vec![Box::new(|| ()), Box::new(|| ())]);
        let two = start.elapsed();
        // Same stage overhead even with two tasks.
        assert!(two < Duration::from_millis(90), "took {two:?}");
    }

    #[test]
    fn empty_stage_pays_only_stage_overhead() {
        let engine = BspEngine::new(fast_config(2));
        let results: Vec<u8> = engine.run_stage(vec![]);
        assert!(results.is_empty());
    }

    #[test]
    fn drop_joins_executors() {
        let engine = BspEngine::new(fast_config(4));
        let _: Vec<()> = engine.run_stage(vec![Box::new(|| ())]);
        drop(engine); // Must not hang.
    }
}
