//! CPU placement. The benchmark runs with every thread — its own and the
//! ones the system under test starts — on one CPU, and keeps that CPU from
//! going idle.
//!
//! **One CPU.** On the two-CPU virtual machines the benchmark is calibrated
//! on, whether the load generator and the server's I/O thread share a CPU or
//! wake each other across CPUs is decided anew by the scheduler in every
//! process, and the two placements differ by a third in hot-path
//! throughput. One CPU removes the choice. It also means
//! `available_parallelism()` reads 1, so the system's own fan-out runs its
//! serial path: what is measured is work per request, not scaling.
//!
//! **Never idle.** At the open loop's rates the CPU sleeps between requests,
//! and on a virtual machine every wake-up from idle is an exit to the
//! hypervisor whose cost changes from run to run — a fifth of a cold
//! query's latency and most of a hot one's. A thread of the lowest
//! scheduling class (`SCHED_IDLE`) spins on the same CPU for the length of
//! the run: it gets the CPU only when nothing else wants it and loses it
//! the moment anything does, so a wake-up costs a context switch.
//! `CALIBRATION.md` has both effects in numbers.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

extern "C" {
    // int sched_getaffinity(pid_t pid, size_t cpusetsize, cpu_set_t *mask);
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    // int sched_setaffinity(pid_t pid, size_t cpusetsize, const cpu_set_t *mask);
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    // int sched_setscheduler(pid_t pid, int policy, const struct sched_param *param);
    // where struct sched_param is { int sched_priority; }.
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

const WORDS: usize = 16;
const SCHED_IDLE: i32 = 5;

/// Restricts the calling thread, and every thread spawned from it later, to
/// the highest-numbered CPU it may run on (the lowest usually also serves
/// the machine's interrupts). Returns that CPU, or `None` when the kernel
/// refuses — the run then goes on unpinned and says so.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live buffer of exactly `size` bytes, which is all
    // sched_getaffinity(2) writes; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = mask.iter().rposition(|&w| w != 0)?;
    let cpu = word * 64 + (63 - mask[word].leading_zeros() as usize);
    let mut one = [0u64; WORDS];
    one[word] = 1 << (cpu % 64);
    // SAFETY: `one` is a live, initialised buffer of exactly `size` bytes,
    // which is all sched_setaffinity(2) reads; pid 0 is the calling thread.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// The `SCHED_IDLE` spinner. Stops and is joined when dropped.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    spinner: Option<JoinHandle<()>>,
}

impl KeepAwake {
    /// Starts the spinner on the calling thread's CPUs. `None` when the
    /// kernel refuses the scheduling class: a spinner of normal priority
    /// would take half the CPU, so there is none then.
    pub fn start() -> Option<Self> {
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::channel();
        let spinner = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let priority = 0i32;
                // SAFETY: `priority` is a live `int`, the whole of struct
                // sched_param, which sched_setscheduler(2) only reads; pid 0
                // is the calling thread.
                let demoted = unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) } == 0;
                let _ = tx.send(demoted);
                while demoted && !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            })
        };
        let awake = Self { stop, spinner: Some(spinner) };
        rx.recv().unwrap_or(false).then_some(awake)
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(spinner) = self.spinner.take() {
            let _ = spinner.join();
        }
    }
}
