//! A behavioral profile served over a real TCP listener.
//!
//! [`NetServer`] binds an ephemeral loopback port and serves each
//! accepted connection with the blocking driver feeding a `conn::Origin`
//! machine: bytes are read incrementally, messages are parsed and
//! answered as they complete (keep-alive pipelining), and per-connection
//! accounting (replies, consumed bytes, teardown mode) is recorded for
//! the campaign to collect. A connection that delivers the same bytes as
//! an in-process [`hdiff_servers::Server::handle_stream`] call produces
//! the identical reply sequence — the property the cross-transport
//! consistency pass asserts.

use std::net::SocketAddr;
use std::time::Duration;

use hdiff_servers::{ParserProfile, Server, ServerReply};

use crate::blocking::{serve, Listener, Records};
use crate::conn::Origin;
use crate::error::NetError;

/// Mirror of the in-process pipelining cap (see `Server::handle_stream`).
pub const MAX_MESSAGES: usize = 16;

/// Socket-level analogues of the origin-side fault kinds. The fault plan
/// itself stays in `hdiff_servers::fault`; the campaign decides a fault
/// on the case thread and passes the *effect* here, so the wire layer
/// stays ignorant of fault-schedule semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerFault {
    /// `ConnReset`: close the connection without ever replying.
    CloseNoReply,
    /// `StallRead`: hold the connection open and never reply — the client
    /// observes a real read timeout.
    Stall,
    /// `Transient5xx`: substitute a 503 for every reply.
    Substitute503,
    /// `TruncateResponse`: halve each response body on the wire (the
    /// `Content-Length` header keeps its original value, so the client
    /// sees a genuinely short read).
    TruncateBody,
}

/// How a connection ended, recorded per connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Teardown {
    /// Graceful close (FIN) after the last response was written.
    Fin,
    /// Aborted: closed without completing the exchange (I/O error or an
    /// injected reset).
    Abort,
    /// Held open without replying until the peer gave up (stall fault).
    Stalled,
    /// The server's own read timeout fired with the connection still open.
    TimedOut,
}

/// Per-connection accounting.
#[derive(Debug, Clone)]
pub struct ConnectionLog {
    /// Replies produced, in order — interpretation plus response, exactly
    /// what the in-process engine records.
    pub replies: Vec<ServerReply>,
    /// Total request bytes received on the connection.
    pub bytes_in: usize,
    /// Total response bytes written to the connection.
    pub bytes_out: usize,
    /// How the connection ended.
    pub teardown: Teardown,
}

/// Configuration for one listener.
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Per-read timeout; a fire with the connection open records
    /// [`Teardown::TimedOut`].
    pub read_timeout: Duration,
    /// Per-write timeout.
    pub write_timeout: Duration,
    /// Socket-level fault effect applied to every connection.
    pub fault: Option<ServerFault>,
    /// Pipelined-message cap per connection.
    pub max_messages: usize,
}

impl Default for NetServerConfig {
    fn default() -> NetServerConfig {
        NetServerConfig {
            read_timeout: crate::timeout::io_timeout(),
            write_timeout: crate::timeout::io_timeout(),
            fault: None,
            max_messages: MAX_MESSAGES,
        }
    }
}

/// A behavioral profile listening on an ephemeral loopback port.
#[derive(Debug)]
pub struct NetServer {
    listener: Listener,
    logs: Records<ConnectionLog>,
    /// The product name served.
    pub name: String,
}

impl NetServer {
    /// Binds `127.0.0.1:0` and starts serving `profile`. A bind or
    /// thread-spawn failure comes back as a typed [`NetError`] for the
    /// caller to record; the accept loop itself tolerates a few
    /// consecutive transient failures before concluding the listener is
    /// dead.
    pub fn spawn(profile: ParserProfile, config: NetServerConfig) -> Result<NetServer, NetError> {
        let name = profile.name.clone();
        let logs = Records::new();
        let server = Server::new(profile);
        let listener = Listener::spawn(format!("net-{name}"), {
            let logs = logs.clone();
            move |stream| {
                let origin = Origin::new(&config, true);
                let (read, write) = (config.read_timeout, config.write_timeout);
                serve(origin, &server, stream, read, write, None, |log| logs.push(log));
            }
        })?;
        Ok(NetServer { listener, logs, name })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.listener.addr()
    }

    /// Drains the accumulated connection logs.
    pub fn take_logs(&self) -> Vec<ConnectionLog> {
        self.logs.take()
    }

    /// Stops the accept loop and joins the listener thread.
    pub fn shutdown(&mut self) {
        self.listener.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::{drive, Input, Machine, Step};
    use hdiff_wire::StatusCode;
    use std::io::{Read, Write};
    use std::net::{Shutdown, TcpStream};

    fn exchange(addr: SocketAddr, bytes: &[u8]) -> Vec<u8> {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        s.write_all(bytes).unwrap();
        s.shutdown(Shutdown::Write).unwrap();
        let mut out = Vec::new();
        let _ = s.read_to_end(&mut out);
        out
    }

    /// The Tomcat-style lenient Transfer-Encoding vector of the
    /// segmented-delivery gate.
    const SEGMENTED_VECTOR: &[u8] = b"POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 10\r\nTransfer-Encoding:\x0bchunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n";

    #[test]
    fn incremental_finalize_is_prefix_stable_at_every_split() {
        // Whatever prefix a segmented delivery leaves in the buffer, the
        // origin machine must answer the way the whole stream is answered
        // — in particular a chunk whose CRLF has only partly arrived waits
        // for more bytes instead of rejecting.
        let mut vectors = vec![SEGMENTED_VECTOR.to_vec()];
        for entry in hdiff_gen::catalog::catalog() {
            vectors.extend(entry.requests.iter().map(|(req, _)| req.to_bytes()));
        }
        let config = NetServerConfig::default();
        for profile in hdiff_servers::backends() {
            let server = Server::new(profile.clone());
            for bytes in &vectors {
                let whole = server.handle_stream(bytes);
                for split in 1..bytes.len() {
                    let (head, tail) = bytes.split_at(split);
                    let inputs = vec![Input::Read(head), Input::Read(tail), Input::Eof];
                    let (_, log) = drive(Origin::new(&config, true), &server, inputs, |_| Err(()));
                    let replies = log.expect("closed connections log").replies;
                    assert!(
                        replies == whole,
                        "{} answered {:?} differently when split at byte {split}",
                        profile.name,
                        String::from_utf8_lossy(bytes)
                    );
                }
            }
        }
    }

    #[test]
    fn a_malformed_chunk_terminator_still_finalizes_as_a_reject() {
        let cut = SEGMENTED_VECTOR.windows(3).position(|w| w == b"abc").unwrap() + 3;
        let mut bytes = SEGMENTED_VECTOR[..cut].to_vec();
        bytes.push(b'X');
        let mut rejected_early = 0;
        for profile in hdiff_servers::backends() {
            let server = Server::new(profile);
            let mut origin = Origin::new(&NetServerConfig::default(), true);
            let early = origin.feed(&server, Input::Read(&bytes)) == Step::Close;
            if !early {
                origin.feed(&server, Input::Eof);
            }
            let log = origin.finish().expect("closed connections log");
            if let hdiff_servers::Outcome::Reject { reason, .. } =
                &log.replies[0].interpretation.outcome
            {
                if reason.contains("chunk data not terminated by crlf") {
                    // The reject finalized on the bytes alone, before EOF.
                    assert!(early, "{reason}");
                    rejected_early += 1;
                }
            }
        }
        assert!(rejected_early > 0, "no profile decodes the chunked body strictly");
    }

    #[test]
    fn serves_a_simple_request_over_tcp() {
        let server =
            NetServer::spawn(ParserProfile::strict("wire"), NetServerConfig::default()).unwrap();
        let raw = exchange(server.addr(), b"GET /x HTTP/1.1\r\nHost: h1.com\r\n\r\n");
        let text = String::from_utf8_lossy(&raw);
        assert!(text.starts_with("HTTP/1.1 200"), "{text}");
        assert!(text.contains("host=h1.com"), "{text}");
        let logs = server.take_logs();
        assert_eq!(logs.len(), 1);
        assert_eq!(logs[0].replies.len(), 1);
        assert_eq!(logs[0].teardown, Teardown::Fin);
        assert_eq!(logs[0].bytes_out, raw.len());
    }

    #[test]
    fn pipelined_messages_match_the_in_process_engine() {
        let profile = ParserProfile::strict("wire");
        let stream = b"GET /a HTTP/1.1\r\nHost: h\r\n\r\nGET /b HTTP/1.1\r\nHost: h\r\n\r\n";
        let server = NetServer::spawn(profile.clone(), NetServerConfig::default()).unwrap();
        exchange(server.addr(), stream);
        let logs = server.take_logs();
        assert_eq!(logs[0].replies, Server::new(profile).handle_stream(stream));
        assert_eq!(logs[0].replies.len(), 2);
    }

    #[test]
    fn segmented_delivery_is_reassembled() {
        let profile = ParserProfile::strict("wire");
        let bytes = b"POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 3\r\n\r\nabc";
        let server = NetServer::spawn(profile.clone(), NetServerConfig::default()).unwrap();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        for part in bytes.chunks(7) {
            s.write_all(part).unwrap();
            s.flush().unwrap();
        }
        s.shutdown(Shutdown::Write).unwrap();
        let mut out = Vec::new();
        let _ = s.read_to_end(&mut out);
        let logs = server.take_logs();
        assert_eq!(logs[0].replies, Server::new(profile).handle_stream(bytes));
        assert!(logs[0].replies[0].interpretation.outcome.is_accept());
    }

    #[test]
    fn truncated_send_finalizes_the_partial_message_at_eof() {
        let profile = ParserProfile::strict("wire");
        let bytes = b"POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 10\r\n\r\nabc";
        let server = NetServer::spawn(profile.clone(), NetServerConfig::default()).unwrap();
        let raw = exchange(server.addr(), bytes);
        assert!(String::from_utf8_lossy(&raw).starts_with("HTTP/1.1 408"), "{raw:?}");
        let logs = server.take_logs();
        assert_eq!(logs[0].replies, Server::new(profile).handle_stream(bytes));
    }

    #[test]
    fn close_no_reply_fault_aborts_silently() {
        let config = NetServerConfig {
            fault: Some(ServerFault::CloseNoReply),
            ..NetServerConfig::default()
        };
        let server = NetServer::spawn(ParserProfile::strict("wire"), config).unwrap();
        let raw = exchange(server.addr(), b"GET / HTTP/1.1\r\nHost: h\r\n\r\n");
        assert!(raw.is_empty());
        let logs = server.take_logs();
        assert!(logs[0].replies.is_empty());
        assert_eq!(logs[0].teardown, Teardown::Abort);
    }

    #[test]
    fn stall_fault_times_the_client_out() {
        let config =
            NetServerConfig { fault: Some(ServerFault::Stall), ..NetServerConfig::default() };
        let server = NetServer::spawn(ParserProfile::strict("wire"), config).unwrap();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        s.write_all(b"GET / HTTP/1.1\r\nHost: h\r\n\r\n").unwrap();
        let mut out = [0u8; 16];
        let err = s.read(&mut out).unwrap_err();
        assert!(
            matches!(err.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut),
            "{err:?}"
        );
    }

    #[test]
    fn substitute_and_truncate_faults_mirror_the_sim_effects() {
        let bytes = b"GET / HTTP/1.1\r\nHost: h1.com\r\n\r\n";
        let c503 = NetServerConfig {
            fault: Some(ServerFault::Substitute503),
            ..NetServerConfig::default()
        };
        let server = NetServer::spawn(ParserProfile::strict("wire"), c503).unwrap();
        let raw = exchange(server.addr(), bytes);
        assert!(String::from_utf8_lossy(&raw).starts_with("HTTP/1.1 503"), "{raw:?}");
        assert_eq!(server.take_logs()[0].replies[0].response.status, StatusCode(503));

        let ctrunc = NetServerConfig {
            fault: Some(ServerFault::TruncateBody),
            ..NetServerConfig::default()
        };
        let server = NetServer::spawn(ParserProfile::strict("wire"), ctrunc).unwrap();
        let raw = exchange(server.addr(), bytes);
        let full = &Server::new(ParserProfile::strict("wire")).handle_stream(bytes)[0];
        let logs = server.take_logs();
        assert_eq!(logs[0].replies[0].response.body.len(), full.response.body.len() / 2);
        // The wire carries fewer body bytes than the Content-Length claims.
        assert!(raw.len() < full.response.to_bytes().len());
    }
}
