//! # ssmp-wbi
//!
//! The paper's **baseline**: a directory-based write-back-invalidate (WBI)
//! cache-coherence protocol, plus the software synchronization that runs on
//! top of it in the evaluation — test-and-test-and-set spin locks (busy-wait
//! on the cached copy, per Rudolph & Segall), the exponential-backoff
//! variant (`Q-backoff` in Figs. 4–5), and a sense-reversing counter
//! barrier.
//!
//! The directory protocol is a classic three-state (Invalid / Shared /
//! Modified) MSI design with a *blocking* home directory: requests that
//! arrive while a transaction is outstanding on the block are queued and
//! served in order. Remote-dirty misses are resolved in four hops
//! (requester → home → owner → home → requester), which is exactly the
//! `2C_R + 2C_B` cost the paper charges for a dirty-remote transfer in
//! Table 2.

#![warn(missing_docs)]

pub mod backoff;
pub mod directory;
pub mod nodeset;
pub mod swbarrier;

pub use backoff::Backoff;
pub use directory::{WbiBlock, WbiEffect, WbiKind, WbiMsg};
pub use nodeset::NodeSet;
pub use swbarrier::SwBarrier;
