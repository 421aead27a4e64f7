//! The benchmark's clock: CPU time of the whole process.
//!
//! The benchmark runs on shared virtual machines where the hypervisor
//! takes a CPU away from the guest for tens of milliseconds at a time
//! (steal time reached 30% of busy time on the 2-CPU host the benchmark
//! was tuned on). Wall time charges that to whatever op was running;
//! process CPU time does not, and neither does it count time a thread
//! spends blocked on the disk or waiting to be woken. Every op, set-up
//! and span time the benchmark reports is read from this clock.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads CLOCK_PROCESS_CPUTIME_ID with the 64-bit Linux timespec layout");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time of every thread of this process, live or exited, in
/// nanoseconds.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` with the C layout
    // of 64-bit Linux (checked at compile time above), and clock_gettime
    // writes only through that pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_work_advances_the_clock() {
        let start = cpu_ns();
        let wall = std::time::Instant::now();
        let mut x = 0u64;
        while wall.elapsed().as_millis() < 20 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_ns() - start >= 10_000_000, "20 ms of spinning shows as CPU time");
    }
}
