//! The memory hierarchy: cache arrays, MOSI/MESI/MOESI coherence over a
//! snooping bus or a home-node directory, interconnect and DRAM timing,
//! plus the §3.3 perturbation hook.
//!
//! - `cache`: one cache array, a slot table per set over compact slot
//!   storage, both copy-on-write in chunks (`cow`).
//! - `sharers`: the one residency tracker, an exact [`SharerTable`] of the
//!   nodes whose L2 holds each block, for every protocol; snooping and
//!   directory transports differ only in where a transaction serializes.
//! - `system`: the protocol state machines and their timing.
//! - [`arena`]: the process's pools of retired buffers. Its two integer
//!   pools hold sharer tables (`u64`) and slot tables (`u32`); the others
//!   hold slot storage and chunk maps.

pub mod arena;
mod cache;
mod cow;
mod sharers;
mod system;

pub use cache::{CacheArray, CacheConfig, CoherenceState, Eviction};
pub use sharers::{home_of, SharerTable};
pub use system::{
    AccessOutcome, AccessSource, CoherenceProtocol, MemStats, MemoryConfig, MemorySystem,
    Perturbation, ProbeStats,
};
