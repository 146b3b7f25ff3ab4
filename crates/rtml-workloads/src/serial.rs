//! The single-threaded baseline: the paper's reference point.

use crate::baselines::{Engine, StageTask};

/// Runs every task inline on the calling thread, in submission order.
/// Zero scheduling overhead, zero parallelism — the yardstick both the
/// BSP baseline (9x slower in the paper) and the rtml runtime (7x
/// faster) are measured against.
#[derive(Debug, Default, Clone, Copy)]
pub struct SerialEngine;

impl Engine for SerialEngine {
    fn run_stage<T: Send + 'static>(&self, tasks: Vec<StageTask<T>>) -> Vec<T> {
        tasks.into_iter().map(|task| task()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn runs_in_order() {
        let engine = SerialEngine;
        let order = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<StageTask<usize>> = (0..8)
            .map(|i| {
                let order = order.clone();
                Box::new(move || {
                    // Each task must observe exactly `i` predecessors.
                    let seen = order.fetch_add(1, Ordering::SeqCst);
                    assert_eq!(seen, i);
                    i
                }) as StageTask<usize>
            })
            .collect();
        let results = engine.run_stage(tasks);
        assert_eq!(results, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn empty_stage_is_fine() {
        let engine = SerialEngine;
        let results: Vec<u32> = engine.run_stage(vec![]);
        assert!(results.is_empty());
    }
}
