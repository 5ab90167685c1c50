//! A fixed reference kernel that scales host timings to a reference host.
//!
//! On a shared host, co-tenants slow the simulator by up to 70% in spells
//! that last minutes, so even the fastest samples of a 40 s run move with
//! the host's load. The load slows other pointer-heavy code alike: a small
//! discrete-event kernel built from `std` alone (a binary-heap event queue,
//! a hash-map directory and a 2 MiB array) slowed in step with the
//! simulator. Timing that kernel right before and right after each
//! simulation measures how fast the host is at that moment, and
//! [`scale`] expresses the simulation's wall time in seconds of the
//! reference host. The kernel uses nothing from the repository, so a
//! change to the simulator moves the scaled time exactly as it moves the
//! wall time.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the reference host (a 2-vCPU 2.1 GHz Xeon VM,
/// idle). Only ratios to it are reported, so its value sets the unit.
pub const REF_S: f64 = 0.025;

/// Events the kernel processes.
const STEPS: usize = 200_000;
/// Events in flight.
const INFLIGHT: u64 = 4096;
/// Directory entries and array words.
const BLOCKS: u64 = 20_000;
const WORDS: usize = 1 << 18;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Runs the kernel once and returns its wall time in seconds. Its inputs
/// are fixed: every call does the same work.
pub fn kernel() -> f64 {
    let t = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut queue = BinaryHeap::new();
    let mut dir: HashMap<u64, Vec<u32>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut mem = vec![0u64; WORDS];
    for id in 0..INFLIGHT {
        queue.push(Reverse((id % 97, id)));
    }
    let mut sum = 0u64;
    for _ in 0..STEPS {
        let Reverse((now, id)) = queue.pop().expect("the queue never drains");
        let r = xorshift(&mut x);
        let sharers = dir.entry(r % BLOCKS).or_default();
        if r & 3 == 0 {
            sharers.clear();
        } else if sharers.len() < 16 {
            sharers.push(id as u32);
        }
        let a = (r >> 20) as usize % WORDS;
        mem[a] = mem[a].wrapping_add(now);
        sum = sum.wrapping_add(mem[a.wrapping_mul(7) % WORDS]);
        queue.push(Reverse((now + 1 + (r >> 40) % 50, id)));
    }
    black_box((sum, dir.len()));
    t.elapsed().as_secs_f64()
}

/// `wall` seconds measured between kernel runs of `before` and `after`
/// seconds, in seconds of the reference host.
pub fn scale(wall: f64, before: f64, after: f64) -> f64 {
    wall * REF_S * 2.0 / (before + after)
}
