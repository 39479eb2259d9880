//! The clock the end-to-end metrics are read from: CPU time of the
//! whole process, client thread and in-process server together.
//!
//! Every end-to-end interval is driven by one client thread in a closed
//! loop, so while it runs the process does nothing but that interval's
//! work: the client's side and the server worker answering it. Its CPU
//! time is that work. On a quiet host it matches the wall-clock time up
//! to the loopback wake-ups; on a shared virtual machine the kernel
//! leaves out the time the hypervisor stole from the vCPU (paravirtual
//! steal accounting), so the figure moves with the program's work and
//! not with the neighbours' load. Wall-clock time is kept beside it and
//! printed, not bounded.
//!
//! The process also pins itself to one CPU before it starts a thread
//! (every thread inherits the mask). The client, the server workers and
//! the chain's rank threads then hand off on one CPU: a wake-up never
//! crosses to another vCPU, whose cost on a virtual machine depends on
//! the host's load, and no run depends on where the scheduler happened
//! to place the client and the worker serving its connection.

use std::time::{Duration, Instant};

/// Restrict the calling thread, and every thread it starts later, to
/// the highest-numbered CPU it may run on. Returns that CPU, or `None`
/// where the platform offers no affinity call or the call failed (the
/// run then goes on unpinned).
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        /// glibc's `cpu_set_t`: 1024 bits.
        type CpuSet = [u64; 16];
        extern "C" {
            fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
            fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
        }
        let mut mask: CpuSet = [0; 16];
        let size = std::mem::size_of::<CpuSet>();
        // SAFETY: both calls read or write exactly `size` bytes of a
        // live local mask and keep no reference to it; pid 0 is the
        // calling thread.
        if unsafe { sched_getaffinity(0, size, &mut mask) } != 0 {
            return None;
        }
        let cpu = (0..1024).rev().find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: as above.
        (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some(cpu)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// CPU time the process has used so far (all threads).
pub fn process_cpu() -> Duration {
    #[cfg(target_os = "linux")]
    {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
        }
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: clock_gettime writes one timespec through a pointer
        // to a live, properly laid out local and keeps no reference.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is always available");
        Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
    }
    #[cfg(not(target_os = "linux"))]
    {
        // No process CPU clock wired up here: fall back to wall time
        // since the first call.
        static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
        START.get_or_init(Instant::now).elapsed()
    }
}

/// A stopwatch reading both clocks.
#[derive(Debug, Clone, Copy)]
pub struct Watch {
    wall: Instant,
    cpu: Duration,
}

/// One interval read off a [`Watch`], in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lap {
    pub cpu_s: f64,
    pub wall_s: f64,
}

impl Watch {
    pub fn start() -> Watch {
        Watch {
            wall: Instant::now(),
            cpu: process_cpu(),
        }
    }

    /// The interval since [`start`](Self::start).
    pub fn lap(&self) -> Lap {
        let cpu = process_cpu().saturating_sub(self.cpu);
        Lap {
            cpu_s: cpu.as_secs_f64(),
            wall_s: self.wall.elapsed().as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_work_shows_on_the_cpu_clock_and_sleep_does_not() {
        let w = Watch::start();
        let mut x = 0u64;
        let spin = Instant::now();
        while spin.elapsed() < Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let busy = w.lap();
        assert!(busy.cpu_s > 0.010, "{busy:?}");
        let w = Watch::start();
        std::thread::sleep(Duration::from_millis(30));
        let idle = w.lap();
        assert!(idle.wall_s >= 0.030, "{idle:?}");
        assert!(idle.cpu_s < idle.wall_s / 2.0, "{idle:?}");
    }
}
