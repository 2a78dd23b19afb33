//! The memory hierarchy: cache arrays, MOSI/MESI/MOESI coherence over a
//! snooping bus or a home-node directory, interconnect and DRAM timing,
//! plus the §3.3 perturbation hook.

pub mod arena;
mod cache;
mod cow;
pub mod directory;
pub mod filter;
mod system;

pub use cache::{CacheArray, CacheConfig, CoherenceState, Eviction};
pub use directory::{home_of, Directory};
pub use filter::SnoopFilter;
pub use system::{
    AccessOutcome, AccessSource, CoherenceProtocol, MemStats, MemoryConfig, MemorySystem,
    Perturbation, ProbeStats,
};
