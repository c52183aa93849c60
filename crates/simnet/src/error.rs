//! Error types: syscall-shaped operations, and forking a simulation.

use core::fmt;

use crate::ids::{ConnId, Port, ProcessId};

/// Errors returned by [`SysApi`](crate::SysApi) operations.
///
/// These mirror the `errno`-style failures the paper's interceptor sees from
/// the real socket layer: writes on closed sockets, binds to busy ports, and
/// operations on unknown descriptors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SysError {
    /// The connection descriptor is unknown to this process (cf. `EBADF`).
    UnknownConn(ConnId),
    /// The connection has not finished establishing (cf. `ENOTCONN`).
    NotEstablished(ConnId),
    /// The connection was already closed locally (cf. `EBADF` after `close`).
    ClosedLocally(ConnId),
    /// The peer closed the connection; writes fail (cf. `EPIPE`).
    PeerClosed(ConnId),
    /// The port already has a listener on this node (cf. `EADDRINUSE`).
    PortInUse(Port),
    /// The target process or node does not exist or is dead.
    NoSuchTarget,
}

impl fmt::Display for SysError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SysError::UnknownConn(c) => write!(f, "unknown connection {c}"),
            SysError::NotEstablished(c) => write!(f, "connection {c} not yet established"),
            SysError::ClosedLocally(c) => write!(f, "connection {c} already closed locally"),
            SysError::PeerClosed(c) => write!(f, "peer closed connection {c}"),
            SysError::PortInUse(p) => write!(f, "{p} already in use"),
            SysError::NoSuchTarget => write!(f, "no such process or node"),
        }
    }
}

impl std::error::Error for SysError {}

/// Why [`Simulation::fork`](crate::Simulation::fork) refused to copy a
/// simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ForkError {
    /// A live process keeps the default
    /// [`Process::fork`](crate::Process::fork) and cannot be copied.
    Unforkable {
        /// The process.
        pid: ProcessId,
        /// The label it was spawned with.
        label: String,
    },
    /// The fork's scheduler names a different
    /// [`gate`](crate::Scheduler::gate) from the one the simulation was
    /// built with. Where a parked notify waits (a ready list, or an entry
    /// of its own) is keyed on whether there is a gate and pooling on
    /// what it is, so the copied state would not be one that scheduler
    /// could have produced.
    GateMismatch,
    /// The simulation has already surfaced a choice point: its state
    /// depends on a decision of the scheduler it ran under, which a fork
    /// under another scheduler would inherit without having made.
    ChoicePointConsumed,
}

impl fmt::Display for ForkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ForkError::Unforkable { pid, label } => {
                write!(f, "cannot fork: live process {pid} ({label}) is not forkable")
            }
            ForkError::GateMismatch => write!(
                f,
                "cannot fork: the scheduler's gate differs from the one the simulation was built with"
            ),
            ForkError::ChoicePointConsumed => write!(
                f,
                "cannot fork: the simulation has already consumed a choice point"
            ),
        }
    }
}

impl std::error::Error for ForkError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_specific() {
        let msg = SysError::PortInUse(Port(2809)).to_string();
        assert!(msg.contains("2809"));
        assert!(msg.starts_with("port"));
        let msg = SysError::UnknownConn(ConnId(4)).to_string();
        assert!(msg.contains("conn4"));
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<SysError>();
        assert_err::<ForkError>();
    }
}
