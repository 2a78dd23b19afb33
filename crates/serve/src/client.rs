//! The blocking client API the `mtvar` CLI and the tests speak through.
//!
//! One connection carries one request. For `submit` the connection then
//! streams response frames — `JobStarted`, one `RunDone` per finished run,
//! and a terminal frame — which [`Client::submit`] surfaces through a
//! callback before returning the typed outcome. Typed server rejections
//! (queue full, draining, bad request, unknown job) surface as
//! [`ServeError::Rejected`], so callers can distinguish "the server said no"
//! from "the wire broke".

use std::os::unix::net::UnixStream;
use std::path::PathBuf;

use mtvar_sim::checkpoint::CheckpointError;

use crate::protocol::{
    read_message, write_message, JobState, Request, Response, ServerStats, SweepSpec,
};
use crate::{Result, ServeError};

/// A completed sweep, as reported by the terminal [`Response::JobDone`].
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// The job.
    pub job: u64,
    /// Order-sensitive fold of every run's digest — bit-comparable with a
    /// batch execution of the same plan.
    pub digest: u64,
    /// Runs in the sweep.
    pub runs: u64,
    /// Runs that simulated.
    pub completed: u64,
    /// Runs replayed from the server's shared cache.
    pub cached: u64,
    /// Total violation reports across runs.
    pub violations: u64,
    /// Mean cycles-per-transaction over the sweep.
    pub mean_cpt: f64,
}

/// How a submitted sweep ended.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepOutcome {
    /// The sweep finished; statistics are available.
    Done(JobOutcome),
    /// The job was cancelled before completing.
    Cancelled {
        /// The cancelled job.
        job: u64,
    },
}

/// One job's status, as reported by [`Response::JobStatus`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatusReport {
    /// The job.
    pub job: u64,
    /// Lifecycle state.
    pub state: JobState,
    /// Runs finished so far (simulated + cached).
    pub runs_done: u64,
    /// Total runs in the sweep.
    pub runs_total: u64,
    /// Final digest, once the job is done.
    pub digest: Option<u64>,
}

/// A client of one server socket. Stateless: every call opens a fresh
/// connection, so one client value can be shared or recreated freely.
#[derive(Debug, Clone)]
pub struct Client {
    socket: PathBuf,
}

impl Client {
    /// A client for the server listening on `socket`.
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        Client {
            socket: socket.into(),
        }
    }

    fn open(&self, request: &Request) -> Result<UnixStream> {
        let mut stream = UnixStream::connect(&self.socket)?;
        write_message(&mut stream, request)?;
        Ok(stream)
    }

    /// Submits a sweep and blocks until its terminal frame, invoking
    /// `on_event` for every streamed response (`JobStarted`, each `RunDone`)
    /// along the way.
    ///
    /// # Errors
    ///
    /// [`ServeError::Rejected`] if admission or validation said no;
    /// [`ServeError::JobFailed`] if the sweep errored server-side;
    /// [`ServeError::Disconnected`] if the stream ended without a terminal
    /// frame; I/O and protocol errors as themselves.
    pub fn submit(
        &self,
        spec: SweepSpec,
        mut on_event: impl FnMut(&Response),
    ) -> Result<SweepOutcome> {
        let mut stream = self.open(&Request::Submit(spec))?;
        match read_message(&mut stream)? {
            Response::Submitted { .. } => {}
            Response::Error { code, message } => {
                return Err(ServeError::Rejected { code, message });
            }
            other => return Err(unexpected(&other)),
        }
        loop {
            let event: Response = read_message(&mut stream)?;
            on_event(&event);
            match event {
                Response::JobDone {
                    job,
                    digest,
                    runs,
                    completed,
                    cached,
                    violations,
                    mean_cpt,
                } => {
                    return Ok(SweepOutcome::Done(JobOutcome {
                        job,
                        digest,
                        runs,
                        completed,
                        cached,
                        violations,
                        mean_cpt,
                    }));
                }
                Response::JobFailed { job, message } => {
                    return Err(ServeError::JobFailed { job, message });
                }
                Response::Cancelled { job } => return Ok(SweepOutcome::Cancelled { job }),
                Response::Submitted { .. }
                | Response::JobStarted { .. }
                | Response::RunDone { .. } => {}
                other => return Err(unexpected(&other)),
            }
        }
    }

    /// Queries a job's status.
    ///
    /// # Errors
    ///
    /// [`ServeError::Rejected`] with [`ErrorCode::UnknownJob`] if the server
    /// does not know the job; I/O and protocol errors as themselves.
    ///
    /// [`ErrorCode::UnknownJob`]: crate::protocol::ErrorCode::UnknownJob
    pub fn status(&self, job: u64) -> Result<StatusReport> {
        let mut stream = self.open(&Request::Status { job })?;
        match read_message(&mut stream)? {
            Response::JobStatus {
                job,
                state,
                runs_done,
                runs_total,
                digest,
            } => Ok(StatusReport {
                job,
                state,
                runs_done,
                runs_total,
                digest,
            }),
            Response::Error { code, message } => Err(ServeError::Rejected { code, message }),
            other => Err(unexpected(&other)),
        }
    }

    /// Requests cancellation; `true` means the request can still take
    /// effect, `false` that the job already reached a terminal state.
    ///
    /// # Errors
    ///
    /// [`ServeError::Rejected`] for an unknown job; I/O and protocol errors
    /// as themselves.
    pub fn cancel(&self, job: u64) -> Result<bool> {
        let mut stream = self.open(&Request::Cancel { job })?;
        match read_message(&mut stream)? {
            Response::CancelResult { cancelled, .. } => Ok(cancelled),
            Response::Error { code, message } => Err(ServeError::Rejected { code, message }),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the server's statistics snapshot.
    ///
    /// # Errors
    ///
    /// I/O and protocol errors as themselves.
    pub fn stats(&self) -> Result<ServerStats> {
        let mut stream = self.open(&Request::Stats)?;
        match read_message(&mut stream)? {
            Response::StatsReport(stats) => Ok(stats),
            Response::Error { code, message } => Err(ServeError::Rejected { code, message }),
            other => Err(unexpected(&other)),
        }
    }

    /// Asks the server to drain and exit, like SIGTERM.
    ///
    /// # Errors
    ///
    /// I/O and protocol errors as themselves.
    pub fn shutdown(&self) -> Result<()> {
        let mut stream = self.open(&Request::Shutdown)?;
        match read_message(&mut stream)? {
            Response::ShuttingDown => Ok(()),
            Response::Error { code, message } => Err(ServeError::Rejected { code, message }),
            other => Err(unexpected(&other)),
        }
    }
}

fn unexpected(resp: &Response) -> ServeError {
    ServeError::Protocol(CheckpointError::Corrupt {
        what: format!("unexpected response {resp:?}"),
    })
}
