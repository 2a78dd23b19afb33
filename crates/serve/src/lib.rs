//! `mtvar-serve`: the persistent run-space service.
//!
//! PRs 1–8 made perturbed run spaces fast, cached, and forkable — but every
//! study was still a batch process that rebuilt its world on startup, so
//! nothing was shared across invocations or users. This crate turns the
//! substrate into a **daemon**: one long-lived process owns one shared
//! [`Executor`], [`CheckpointStore`], and run-result spill, and serves sweep
//! requests over a Unix domain socket. Std-only — no async runtime;
//! connections and dispatchers are plain threads, and every message travels
//! in the frame checkpoint files use ([`mtvar_sim::checkpoint::frame`]:
//! versioned, fingerprinted, hostile-length-rejecting).
//!
//! The moving parts:
//!
//! * [`protocol`] — the typed request/response messages, their one stream
//!   reader and writer, and the declarative [`protocol::SweepSpec`] that
//!   names a configuration, workload, and plan without shipping code, with
//!   [`protocol::SweepSpec::run`], the one way from a spec to a run space.
//! * [`job`] — the prioritized job queue: admission control (bounded depth,
//!   typed rejection), three priority lanes, per-job cancellation, and the
//!   job registry that `status` queries read.
//! * [`server`] — the daemon: an accept loop that blocks until a client or
//!   the completed drain wakes it, the dispatcher pool, the [`RunProgress`]
//!   bridge that streams per-run digests and violation summaries back to the
//!   submitting client, and the drain on a `Shutdown` request.
//! * [`client`] — the blocking client API the `mtvar` CLI (and the tests)
//!   speak through.
//!
//! **Why served results are trustworthy:** a job executes through
//! [`protocol::SweepSpec::run`], the call `mtvar batch` makes, which reaches
//! the exact same [`Executor::run_space`] entry point as a batch study —
//! same fingerprints, same derived seeds, same caches — so a served sweep's
//! statistics digest is bit-identical to the batch path's, cache hits replay
//! recorded violations instead of dropping them, and N clients asking
//! overlapping questions pay for one warmup because the shared store's
//! [`get_or_warm`] is single-flight.
//!
//! [`Executor`]: mtvar_core::runspace::Executor
//! [`Executor::run_space`]: mtvar_core::runspace::Executor::run_space
//! [`CheckpointStore`]: mtvar_core::checkpoint::CheckpointStore
//! [`get_or_warm`]: mtvar_core::checkpoint::CheckpointStore::get_or_warm
//! [`RunProgress`]: mtvar_core::runspace::RunProgress

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod job;
pub mod protocol;
pub mod server;

use std::fmt;

/// Error type for service operations.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// A socket or file operation failed.
    Io(std::io::Error),
    /// A frame failed validation (magic, version, length, fingerprint) or
    /// a message body failed to decode.
    Protocol(mtvar_sim::checkpoint::CheckpointError),
    /// The server rejected the request with a typed error frame.
    Rejected {
        /// Machine-readable reason, see [`protocol::ErrorCode`].
        code: protocol::ErrorCode,
        /// Human-readable detail from the server.
        message: String,
    },
    /// The server reported a job failure (the underlying sweep errored).
    JobFailed {
        /// The failed job.
        job: u64,
        /// The server-side error rendered to text.
        message: String,
    },
    /// The connection ended before a terminal frame arrived.
    Disconnected,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Protocol(e) => write!(f, "protocol error: {e}"),
            ServeError::Rejected { code, message } => {
                write!(f, "rejected ({code:?}): {message}")
            }
            ServeError::JobFailed { job, message } => {
                write!(f, "job {job} failed: {message}")
            }
            ServeError::Disconnected => write!(f, "connection closed mid-stream"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Protocol(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<mtvar_sim::checkpoint::CheckpointError> for ServeError {
    fn from(e: mtvar_sim::checkpoint::CheckpointError) -> Self {
        ServeError::Protocol(e)
    }
}

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ServeError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        use std::error::Error as _;
        let e = ServeError::from(std::io::Error::other("x"));
        assert!(e.to_string().contains("i/o"));
        assert!(e.source().is_some());
        let p = ServeError::from(mtvar_sim::checkpoint::CheckpointError::BadMagic);
        assert!(p.to_string().contains("protocol"));
        let r = ServeError::Rejected {
            code: protocol::ErrorCode::QueueFull,
            message: "full".into(),
        };
        assert!(r.to_string().contains("QueueFull"));
        assert!(ServeError::Disconnected.source().is_none());
    }
}
