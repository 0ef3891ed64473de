//! A behavioral profile served over a real TCP listener.
//!
//! [`NetServer`] binds an ephemeral loopback port and runs the existing
//! [`hdiff_servers::engine`] over a buffered connection loop: bytes are
//! read incrementally, messages are parsed and answered as they complete
//! (keep-alive pipelining), and per-connection accounting (replies,
//! consumed bytes, teardown mode) is recorded for the campaign to
//! collect. The parsing loop is written so a connection that delivers the
//! same bytes as an in-process [`Server::handle_stream`] call produces
//! the identical reply sequence — the property the cross-transport
//! consistency pass asserts.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use hdiff_servers::{Interpretation, ParserProfile, Server, ServerReply};
use hdiff_wire::{Response, StatusCode};

use crate::error::NetError;

/// Consecutive `accept` failures the listener tolerates (counting and
/// continuing) before it concludes the listener socket itself is dead
/// and exits the loop. A transient per-connection error (aborted
/// handshake, EMFILE pressure easing) must not kill the whole server.
pub const MAX_ACCEPT_ERRORS: u32 = 8;

/// Locks a connection-log mutex, tolerating poison: the log is
/// append-only accounting, so a panic in another handler thread leaves
/// it structurally intact — losing the whole campaign's wire log over it
/// would be the worse failure.
fn lock_logs(logs: &Mutex<Vec<ConnectionLog>>) -> MutexGuard<'_, Vec<ConnectionLog>> {
    logs.lock().unwrap_or_else(PoisonError::into_inner)
}

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

/// Classifies a rejection as "the stream is incomplete — more bytes may
/// change the verdict" (as opposed to genuinely malformed). These are
/// exactly the engine's partial-input reject reasons; a keep-alive
/// connection waits for more bytes on them instead of answering early.
pub fn incomplete_reason(i: &Interpretation) -> bool {
    match &i.outcome {
        hdiff_servers::Outcome::Accept => false,
        hdiff_servers::Outcome::Reject { status, reason } => {
            *status == 408
                || reason.contains("no request line terminator")
                || reason.contains("header section not terminated")
                || reason.contains("chunked body truncated")
        }
    }
}

/// Whether a parse of `remaining` buffered bytes can be finalized before
/// EOF. Accepts are prefix-stable except when a chunked-repair consumed
/// everything buffered (more bytes could extend the repaired body);
/// rejects are final unless they look like a partial message.
pub(crate) fn is_final(reply: &ServerReply, remaining: usize, eof: bool) -> bool {
    if eof {
        return true;
    }
    let i = &reply.interpretation;
    if i.outcome.is_accept() {
        !(i.repaired_chunked && i.consumed >= remaining)
    } else {
        !incomplete_reason(i)
    }
}

/// A behavioral profile listening on an ephemeral loopback port.
#[derive(Debug)]
pub struct NetServer {
    addr: SocketAddr,
    logs: Arc<Mutex<Vec<ConnectionLog>>>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    /// The product name served.
    pub name: String,
}

impl NetServer {
    /// Binds `127.0.0.1:0` and starts serving `profile`. A bind or
    /// thread-spawn failure comes back as a typed [`NetError`] for the
    /// caller to record; the accept loop itself tolerates up to
    /// [`MAX_ACCEPT_ERRORS`] consecutive transient failures before
    /// concluding the listener is dead.
    pub fn spawn(profile: ParserProfile, config: NetServerConfig) -> Result<NetServer, NetError> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(NetError::bind)?;
        let addr = listener.local_addr().map_err(NetError::bind)?;
        let logs = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let name = profile.name.clone();
        let thread = {
            let logs = Arc::clone(&logs);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name(format!("net-{name}"))
                .spawn(move || {
                    let server = Server::new(profile);
                    let mut accept_errors = 0u32;
                    while !stop.load(Ordering::SeqCst) {
                        let stream = match listener.accept() {
                            Ok((stream, _)) => stream,
                            Err(_) => {
                                hdiff_obs::count("net.accept.error", 1);
                                accept_errors += 1;
                                if accept_errors >= MAX_ACCEPT_ERRORS {
                                    break;
                                }
                                continue;
                            }
                        };
                        accept_errors = 0;
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        handle_connection(&server, &config, stream, &logs);
                    }
                })
                .map_err(NetError::spawn)?
        };
        Ok(NetServer { addr, logs, stop, thread: Some(thread), name })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Drains the accumulated connection logs.
    pub fn take_logs(&self) -> Vec<ConnectionLog> {
        std::mem::take(&mut *lock_logs(&self.logs))
    }

    /// Stops the accept loop and joins the listener thread.
    pub fn shutdown(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.stop.store(true, Ordering::SeqCst);
            // Unblock the accept call.
            let _ = TcpStream::connect(self.addr);
            let _ = thread.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Runs one connection to completion. The connection log is pushed into
/// `logs` *before* the stream is closed, so a client that observed EOF
/// (or gave up on a stall) is guaranteed to observe the complete log.
fn handle_connection(
    server: &Server,
    config: &NetServerConfig,
    mut stream: TcpStream,
    logs: &Mutex<Vec<ConnectionLog>>,
) {
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let _ = stream.set_nodelay(true);

    match config.fault {
        Some(ServerFault::CloseNoReply) => {
            // Read whatever is in flight, then abort without a byte.
            let mut sink = [0u8; 4096];
            let bytes_in = stream.read(&mut sink).unwrap_or(0);
            lock_logs(logs).push(ConnectionLog {
                replies: Vec::new(),
                bytes_in,
                bytes_out: 0,
                teardown: Teardown::Abort,
            });
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        Some(ServerFault::Stall) => {
            // Never reply; hold the socket until the peer gives up. The
            // client's read timeout is the real-world stall observation,
            // so the log is pushed *before* the stall begins — the
            // campaign collects it after its client times out.
            let mut sink = [0u8; 4096];
            let bytes_in = stream.read(&mut sink).unwrap_or(0);
            lock_logs(logs).push(ConnectionLog {
                replies: Vec::new(),
                bytes_in,
                bytes_out: 0,
                teardown: Teardown::Stalled,
            });
            loop {
                match stream.read(&mut sink) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
            }
            return;
        }
        _ => {}
    }

    let mut buf: Vec<u8> = Vec::new();
    let mut pos = 0usize;
    let mut replies: Vec<ServerReply> = Vec::new();
    let mut bytes_out = 0usize;
    let mut eof = false;
    let mut teardown = Teardown::Fin;

    'conn: loop {
        // Parse and answer every finalizable message in the buffer.
        while replies.len() < config.max_messages && pos < buf.len() {
            let reply = server.handle(&buf[pos..]);
            if !is_final(&reply, buf.len() - pos, eof) {
                break; // wait for more bytes (or EOF)
            }
            let consumed = reply.interpretation.consumed;
            let rejected = !reply.interpretation.outcome.is_accept();
            let reply = apply_reply_fault(server, config.fault, reply);
            let wire = reply.response.to_bytes();
            if stream.write_all(&wire).is_err() {
                teardown = Teardown::Abort;
                replies.push(reply);
                break 'conn;
            }
            bytes_out += wire.len();
            replies.push(reply);
            if rejected || consumed == 0 {
                break 'conn; // connection closes on error, like the engine
            }
            pos += consumed;
        }

        if eof || replies.len() >= config.max_messages {
            break;
        }

        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => eof = true,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                teardown = Teardown::TimedOut;
                break;
            }
            Err(_) => {
                teardown = Teardown::Abort;
                break;
            }
        }
    }

    lock_logs(logs).push(ConnectionLog { replies, bytes_in: buf.len(), bytes_out, teardown });
    let _ = stream.shutdown(Shutdown::Both);
}

/// Applies the reply-shaped fault effects exactly the way the in-process
/// engine does, so recorded replies stay comparable across transports.
pub(crate) fn apply_reply_fault(
    server: &Server,
    fault: Option<ServerFault>,
    mut reply: ServerReply,
) -> ServerReply {
    match fault {
        Some(ServerFault::Substitute503) => {
            let mut r = Response::with_body(
                StatusCode(503),
                "injected transient upstream error".to_string(),
            );
            r.headers.push("Server", server.name());
            reply.response = r;
        }
        Some(ServerFault::TruncateBody) => {
            let keep = reply.response.body.len() / 2;
            reply.response.body.truncate(keep);
        }
        _ => {}
    }
    reply
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

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
        // Whatever prefix a segmented delivery leaves in the buffer, a
        // reply finalized before EOF must be the reply the whole stream
        // gets — in particular a chunk whose CRLF has only partly arrived
        // waits for more bytes instead of rejecting.
        for profile in hdiff_servers::backends() {
            let server = Server::new(profile.clone());
            let whole = server.handle(SEGMENTED_VECTOR);
            for split in 1..SEGMENTED_VECTOR.len() {
                let reply = server.handle(&SEGMENTED_VECTOR[..split]);
                if is_final(&reply, split, false) {
                    assert_eq!(reply, whole, "{} finalized early at byte {split}", profile.name);
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
            let reply = Server::new(profile).handle(&bytes);
            if let hdiff_servers::Outcome::Reject { reason, .. } = &reply.interpretation.outcome {
                if reason.contains("chunk data not terminated by crlf") {
                    assert!(is_final(&reply, bytes.len(), false), "{reason}");
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
        let full = Server::new(ParserProfile::strict("wire")).handle(bytes);
        let logs = server.take_logs();
        assert_eq!(logs[0].replies[0].response.body.len(), full.response.body.len() / 2);
        // The wire carries fewer body bytes than the Content-Length claims.
        assert!(raw.len() < full.response.to_bytes().len());
    }
}
