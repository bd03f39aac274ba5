//! What the harness reads from the operating system: CPU time, peak
//! memory, and the descriptor of the host a result was measured on.

use crate::json::Value;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// User + system CPU seconds this process has used, all threads
/// together (threads that already ended included).
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` of the layout
    // 64-bit Linux uses, and the clock id is a constant the kernel knows.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Kernel clock ticks per second in `/proc/self/stat` (`USER_HZ`, 100 on
/// every Linux the harness runs on).
const USER_HZ: f64 = 100.0;

/// `(user, system)` CPU seconds from `/proc/self/stat`. Ten-millisecond
/// ticks: used for the user/system split only, never for a rate.
pub fn cpu_user_sys() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields are counted after its ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
            / USER_HZ
    };
    let user = tick();
    (user, tick())
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn read_trimmed(path: &str) -> String {
    std::fs::read_to_string(path)
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

/// The commit of the checkout the harness runs in, when it is a git
/// repository (the acceptance driver's checkout is not).
fn commit() -> String {
    let head = read_trimmed(".git/HEAD");
    match head.strip_prefix("ref: ") {
        Some(r) => read_trimmed(&format!(".git/{r}")),
        None => head,
    }
}

/// The host fields recorded with every result.
pub fn descriptor() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let mut d = Value::obj();
    d.set(
        "nproc",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
    )
    .set("kernel", read_trimmed("/proc/sys/kernel/osrelease"))
    .set(
        "rmem_default",
        read_trimmed("/proc/sys/net/core/rmem_default"),
    )
    .set("cpu_model", cpu)
    .set("commit", commit());
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_under_work() {
        let t0 = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() > t0);
        assert!(peak_rss_mib() > 0.0);
        let (u, s) = cpu_user_sys();
        assert!(u >= 0.0 && s >= 0.0);
    }
}
