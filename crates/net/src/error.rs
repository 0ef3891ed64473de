//! Typed errors for the wire layer.
//!
//! The campaign treats the network as a degradable resource: a listener
//! that cannot bind, an accept loop that keeps failing, or a client that
//! cannot connect must surface as a *recorded outcome* the runner can
//! retry or quarantine — never as a panic that takes the worker process
//! (and, in a sharded campaign, the whole shard incarnation) down with
//! it.

use std::fmt;
use std::io;

/// Which wire operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetErrorKind {
    /// Binding a loopback listener.
    Bind,
    /// Accepting an inbound connection.
    Accept,
    /// Opening an outbound connection.
    Connect,
    /// Spawning the listener's service thread.
    Spawn,
    /// Reading or writing an established stream.
    Io,
    /// Submitting a reactor exchange to an address that is not one of
    /// that reactor's listeners.
    NotHosted,
}

impl NetErrorKind {
    /// Stable lowercase tag (used by reports and case records).
    pub fn as_str(self) -> &'static str {
        match self {
            NetErrorKind::Bind => "bind",
            NetErrorKind::Accept => "accept",
            NetErrorKind::Connect => "connect",
            NetErrorKind::Spawn => "spawn",
            NetErrorKind::Io => "io",
            NetErrorKind::NotHosted => "not-hosted",
        }
    }
}

/// A typed wire-layer failure: what was attempted plus the underlying
/// I/O error text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetError {
    /// The failed operation.
    pub kind: NetErrorKind,
    /// Underlying error detail.
    pub detail: String,
}

impl NetError {
    /// Wraps an I/O error from a failed `bind`.
    pub fn bind(e: io::Error) -> NetError {
        NetError { kind: NetErrorKind::Bind, detail: e.to_string() }
    }

    /// Wraps an I/O error from a failed `accept`.
    pub fn accept(e: io::Error) -> NetError {
        NetError { kind: NetErrorKind::Accept, detail: e.to_string() }
    }

    /// Wraps an I/O error from a failed `connect`.
    pub fn connect(e: io::Error) -> NetError {
        NetError { kind: NetErrorKind::Connect, detail: e.to_string() }
    }

    /// Wraps an I/O error from a failed thread spawn.
    pub fn spawn(e: io::Error) -> NetError {
        NetError { kind: NetErrorKind::Spawn, detail: e.to_string() }
    }

    /// Wraps any other I/O error on an established stream.
    pub fn io(e: io::Error) -> NetError {
        NetError { kind: NetErrorKind::Io, detail: e.to_string() }
    }

    /// An exchange addressed to `addr`, which the reactor does not host.
    pub fn not_hosted(addr: std::net::SocketAddr) -> NetError {
        NetError {
            kind: NetErrorKind::NotHosted,
            detail: format!("{addr} is not a listener of this reactor"),
        }
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "net {} failure: {}", self.kind.as_str(), self.detail)
    }
}

impl std::error::Error for NetError {}

impl From<NetError> for io::Error {
    fn from(e: NetError) -> io::Error {
        io::Error::other(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_their_operation() {
        let e = NetError::bind(io::Error::new(io::ErrorKind::AddrInUse, "in use"));
        assert_eq!(e.kind, NetErrorKind::Bind);
        assert!(e.to_string().contains("bind"), "{e}");
        assert!(e.to_string().contains("in use"), "{e}");
        let io: io::Error = e.into();
        assert!(io.to_string().contains("bind"), "{io}");
    }
}
