//! Probe whether this environment can run UDP loopback traffic.
//!
//! CI's `wire-interop` job runs this first: exit 0 means the wire tests
//! are expected to pass, nonzero means the environment cannot
//! exchange loopback datagrams and the job must skip **visibly** (a
//! workflow warning), never silently pass.

fn main() {
    if mtp_io::loopback_available() {
        println!("loopback-ok");
    } else {
        eprintln!("NOTICE: UDP loopback unavailable in this environment; wire tests cannot run");
        std::process::exit(1);
    }
}
