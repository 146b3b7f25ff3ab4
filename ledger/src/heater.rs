//! Idle-priority spinners that keep every CPU out of its idle state
//! while something is being timed.
//!
//! Every op of every workload is a chain of cross-thread wake-ups, and on
//! the virtual machines this runs on, waking a thread on an idle virtual
//! CPU costs one of two prices that flip over minutes: a local round trip
//! reads ≈40 µs after the host sat idle and ≈100 µs under sustained load
//! (README, "The host"). With a spinner per CPU at `SCHED_IDLE` no CPU ever
//! idles, so that price drops out; the spinners yield to any runnable
//! thread at once, so they take nothing from the program. It is the
//! software form of switching C-states off before a latency benchmark.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// Linux `SCHED_IDLE`: runs only when nothing else wants the CPU.
const SCHED_IDLE: i32 = 5;

/// Moves the calling thread to `SCHED_IDLE`; needs no privilege.
fn enter_idle_class() -> bool {
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `sched_setscheduler` reads one `sched_param` through the
    // pointer, which points at a live, correctly laid out value; pid 0
    // names the calling thread.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

/// Running spinners; stopped and joined by [`Heaters::stop`].
pub struct Heaters {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    /// How many spinners got idle priority and are spinning. A thread that
    /// could not lower its priority exits at once: a spinner at normal
    /// priority would compete with the program.
    pub running: usize,
}

impl Heaters {
    /// Starts one spinner per available CPU.
    pub fn start() -> Heaters {
        let cpus = std::thread::available_parallelism().map_or(1, usize::from);
        // The flag publishes no other data, so `Relaxed` is enough.
        let stop = Arc::new(AtomicBool::new(false));
        let (settled_tx, settled_rx) = mpsc::channel();
        let threads = (0..cpus)
            .map(|_| {
                let (stop, settled_tx) = (stop.clone(), settled_tx.clone());
                std::thread::spawn(move || {
                    let idle = enter_idle_class();
                    settled_tx.send(idle).expect("start() is waiting for this");
                    while idle && !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        let running = settled_rx.iter().take(cpus).filter(|idle| *idle).count();
        Heaters {
            stop,
            threads,
            running,
        }
    }

    pub fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads {
            thread.join().expect("a spinner only spins");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spinners_start_and_stop() {
        let heaters = Heaters::start();
        assert!(heaters.running <= heaters.threads.len());
        heaters.stop();
    }
}
