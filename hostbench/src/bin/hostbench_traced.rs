//! Traced per-layer run. The counting allocator is installed here only,
//! so the end-to-end binary's timings never pay for it.

use ssmp_hostbench::alloc::CountingAlloc;
use ssmp_hostbench::fingerprint::RECORDED;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    ssmp_hostbench::main_with(|spec, args| {
        ssmp_hostbench::runs::per_layer(spec, args.seed, args.budget(), RECORDED)
    });
}
