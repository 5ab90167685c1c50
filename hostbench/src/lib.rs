//! Host-speed benchmark of the `ssmp` simulator.
//!
//! Two binaries share this library. `hostbench` measures what a user of
//! the simulator waits for (set-up, `Machine::run()` wall time, host ns per
//! simulated message, peak RSS, observer slowdown) with tracing off.
//! `hostbench-traced` installs a counting allocator and produces the
//! per-layer ledger: host time per event family from a trace sink, the
//! workload generator's cost from a timing shim, allocation counts, observer
//! fold costs, and isolated replays of each layer's public functions.
//! Both check that every simulated result is exact (see [`fingerprint`]).
//! See `README.md` beside this crate for the workloads and metrics.

pub mod alloc;
pub mod calib;
pub mod fingerprint;
pub mod ledger;
pub mod probes;
pub mod replay;
pub mod runs;
pub mod spec;

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Runs a binary's `main`: parses the arguments, looks the workload up,
/// runs `body`, and prints the table on stderr and the result line last on
/// stdout. Exits with 2 on a usage error, printing no result.
pub fn main_with(body: fn(&spec::Spec, &ledger::Args) -> runs::Outcome) {
    let args = match ledger::Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => usage(&e),
    };
    let Some(spec) = spec::Spec::by_name(&args.workload) else {
        usage(&format!("unknown workload {:?}", args.workload))
    };
    let out = body(spec, &args);
    eprint!("{}", out.ledger.table());
    eprintln!(
        "workload {} seed {} ({}): {} of {} runs failed",
        spec.name,
        args.seed,
        if out.recorded {
            "fingerprint recorded"
        } else {
            "invariants only"
        },
        out.failed,
        out.attempted
    );
    for e in &out.errors {
        eprintln!("FAILED: {e}");
    }
    println!(
        "{}",
        out.ledger
            .json(out.failed == 0, out.attempted.max(1), out.failed)
    );
}

fn usage(err: &str) -> ! {
    let names: Vec<&str> = spec::SPECS.iter().map(|s| s.name).collect();
    eprintln!(
        "error: {err}\nusage: --workload <{}> [--seed N] [--seconds S] [--fingerprint]",
        names.join("|")
    );
    std::process::exit(2)
}
