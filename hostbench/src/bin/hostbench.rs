//! End-to-end host-speed run, tracing off. With `--fingerprint` it prints
//! the `fingerprints.tsv` rows of the workload at `--seed` instead.

use ssmp_hostbench::fingerprint::RECORDED;
use ssmp_hostbench::runs::{end_to_end, record};

fn main() {
    ssmp_hostbench::main_with(|spec, args| {
        if args.fingerprint {
            for row in record(spec, args.seed) {
                println!("{row}");
            }
            std::process::exit(0);
        }
        end_to_end(spec, args.seed, args.budget(), RECORDED)
    });
}
