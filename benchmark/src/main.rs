//! The `mtp-benchmark` binary; see the library for what it does.

fn main() -> std::process::ExitCode {
    mtp_benchmark::cli::main()
}
