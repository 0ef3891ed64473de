//! Sans-IO connection state machines, one per testbed role.
//!
//! Every socket the testbed serves is one of three roles: an origin
//! ([`Origin`], a [`hdiff_servers::Server`] profile), a proxy hop
//! ([`Proxy`], a [`hdiff_servers::Proxy`] profile relaying each forwarded
//! message upstream), or the echo upstream ([`Echo`]). Each machine takes
//! what a driver observed ([`Input`]: bytes read, EOF, an I/O error, the
//! read deadline, a relay result) and answers with what to do next
//! ([`Step`]), queuing reply bytes in [`Machine::output`] and producing
//! the connection log once through [`Machine::finish`]. The machines own
//! no socket, clock or thread, so the epoll reactor
//! ([`crate::reactor`]) and the blocking listeners ([`crate::NetServer`],
//! [`crate::NetProxy`], [`crate::NetEcho`]) drive the same code and agree
//! by construction.
//!
//! A driver's contract:
//!
//! * write everything in [`Machine::output`] before acting on the step
//!   (a failed write is fed back as [`Input::WriteError`]);
//! * on [`Step::Hold`], hand over [`Machine::finish`] at once, then keep
//!   reading (and discarding) until the machine says [`Step::Close`];
//! * on [`Step::Relay`], run one exchange with the proxy's upstream —
//!   write the bytes, read the whole reply — and feed the result back,
//!   reading nothing downstream meanwhile;
//! * on [`Step::Close`], hand over [`Machine::finish`] *before* ending
//!   the exchange, so a client whose exchange ended always sees the log.
//!
//! The two transports end an exchange differently. The blocking one
//! uses the socket: the client's FIN is the machine's [`Input::Eof`],
//! and a close shuts the connection down. The reactor has both ends in
//! one loop: it feeds [`Input::Eof`] once the exchange's bytes are all
//! read, and on a close it tells the client the reply length and starts
//! a fresh machine on the same connection. A machine cannot tell the two
//! apart.

use hdiff_servers::fault::{FaultDecision, FaultKind};
use hdiff_servers::{
    echo, ForwardAction, Interpretation, Outcome, ProxyResult, Server, ServerReply,
};
use hdiff_wire::{Response, StatusCode};

use crate::proxy::{NetProxyConfig, ProxyConnLog};
use crate::server::{ConnectionLog, NetServerConfig, ServerFault, Teardown};

/// What a driver observed on a connection.
#[derive(Debug)]
pub(crate) enum Input<'a> {
    /// Bytes read from the peer (never empty).
    Read(&'a [u8]),
    /// The exchange's bytes are all read: the peer half-closed its
    /// side, or the reactor counted them.
    Eof,
    /// A read failed.
    ReadError,
    /// Writing the queued output failed.
    WriteError,
    /// The read deadline expired with the connection still open.
    Deadline,
    /// The outcome of a [`Step::Relay`]: the upstream's raw response, or
    /// `Err` when the relay could not complete.
    Relay(Result<Vec<u8>, ()>),
}

/// What a machine needs from its driver next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Step {
    /// Read more bytes (the deadline restarts whenever bytes arrive).
    Read,
    /// Relay these bytes upstream and feed back [`Input::Relay`].
    Relay(Vec<u8>),
    /// Hand over the log, then hold the connection open without replying.
    Hold,
    /// Flush the output, hand over the log, and end the exchange.
    Close,
}

/// A sans-IO connection state machine.
pub(crate) trait Machine {
    /// The profile the machine interprets bytes with, borrowed per call.
    type Host: ?Sized;
    /// The per-connection record handed over when the connection ends.
    type Log;

    /// Advances the machine by one observation.
    fn feed(&mut self, host: &Self::Host, input: Input<'_>) -> Step;

    /// Bytes queued for the peer; the driver clears what it wrote.
    fn output(&mut self) -> &mut Vec<u8>;

    /// The connection log, the first time it is asked for after a
    /// [`Step::Hold`] or [`Step::Close`]; `None` afterwards.
    fn finish(&mut self) -> Option<Self::Log>;
}

/// Classifies a rejection as "the stream is incomplete — more bytes may
/// change the verdict" (as opposed to genuinely malformed). These are
/// exactly the engine's partial-input reject reasons; a keep-alive
/// connection waits for more bytes on them instead of answering early.
fn incomplete_reason(i: &Interpretation) -> bool {
    match &i.outcome {
        Outcome::Accept => false,
        Outcome::Reject { status, reason } => {
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
fn is_final(i: &Interpretation, remaining: usize, eof: bool) -> bool {
    if eof {
        return true;
    }
    if i.outcome.is_accept() {
        !(i.repaired_chunked && i.consumed >= remaining)
    } else {
        !incomplete_reason(i)
    }
}

/// Applies the reply-shaped fault effects exactly the way the in-process
/// engine does, so recorded replies stay comparable across transports.
fn apply_reply_fault(
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

/// Where a connection is in its life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Reading and answering.
    Open,
    /// Stall fault: logged, reading and discarding until the peer goes.
    Holding,
    /// The close is decided; only the teardown can still change.
    Closed,
}

/// An origin connection: answers every finalizable pipelined message
/// with the profile's reply, up to the message cap.
#[derive(Debug, Clone)]
pub(crate) struct Origin {
    fault: Option<ServerFault>,
    max_messages: usize,
    record: bool,
    phase: Phase,
    logged: bool,
    buf: Vec<u8>,
    pos: usize,
    eof: bool,
    answered: usize,
    replies: Vec<ServerReply>,
    bytes_out: usize,
    teardown: Teardown,
    out: Vec<u8>,
}

impl Origin {
    /// A fresh connection under `config`. `record: false` keeps the
    /// replies out of the log (a long benchmark connection stays flat
    /// in memory); the message cap still counts them.
    pub(crate) fn new(config: &NetServerConfig, record: bool) -> Origin {
        Origin {
            fault: config.fault,
            max_messages: config.max_messages,
            record,
            phase: Phase::Open,
            logged: false,
            buf: Vec::new(),
            pos: 0,
            eof: false,
            answered: 0,
            replies: Vec::new(),
            bytes_out: 0,
            teardown: Teardown::Fin,
            out: Vec::new(),
        }
    }

    fn close(&mut self, teardown: Teardown) -> Step {
        self.teardown = teardown;
        self.phase = Phase::Closed;
        Step::Close
    }
}

impl Machine for Origin {
    type Host = Server;
    type Log = ConnectionLog;

    fn feed(&mut self, server: &Server, input: Input<'_>) -> Step {
        match (self.phase, input) {
            (Phase::Closed, Input::WriteError) => return self.close(Teardown::Abort),
            (Phase::Closed, _) => return Step::Close,
            (Phase::Holding, Input::Read(_)) => return Step::Hold,
            (Phase::Holding, _) => return self.close(self.teardown),
            (Phase::Open, input) => {
                // The whole-connection faults decide on the first
                // observation; `bytes_in` is that one read.
                if let Some(fault @ (ServerFault::CloseNoReply | ServerFault::Stall)) = self.fault {
                    let stall = fault == ServerFault::Stall;
                    let teardown = if stall { Teardown::Stalled } else { Teardown::Abort };
                    if let Input::Read(bytes) = input {
                        self.buf.extend_from_slice(bytes);
                        if stall {
                            self.teardown = teardown;
                            self.phase = Phase::Holding;
                            return Step::Hold;
                        }
                    }
                    return self.close(teardown);
                }
                match input {
                    Input::Read(bytes) => self.buf.extend_from_slice(bytes),
                    Input::Eof => self.eof = true,
                    Input::Deadline => return self.close(Teardown::TimedOut),
                    Input::ReadError | Input::WriteError => return self.close(Teardown::Abort),
                    Input::Relay(_) => {}
                }
            }
        }

        while self.answered < self.max_messages && self.pos < self.buf.len() {
            let reply = server.handle(&self.buf[self.pos..]);
            if !is_final(&reply.interpretation, self.buf.len() - self.pos, self.eof) {
                return Step::Read;
            }
            let consumed = reply.interpretation.consumed;
            let rejected = !reply.interpretation.outcome.is_accept();
            let reply = apply_reply_fault(server, self.fault, reply);
            let wire = reply.response.to_bytes();
            self.bytes_out += wire.len();
            self.out.extend_from_slice(&wire);
            self.answered += 1;
            if self.record {
                self.replies.push(reply);
            }
            if rejected || consumed == 0 {
                return self.close(self.teardown); // the connection closes on error
            }
            self.pos += consumed;
        }
        if self.eof || self.answered >= self.max_messages {
            return self.close(self.teardown);
        }
        Step::Read
    }

    fn output(&mut self) -> &mut Vec<u8> {
        &mut self.out
    }

    fn finish(&mut self) -> Option<ConnectionLog> {
        if self.logged || self.phase == Phase::Open {
            return None;
        }
        self.logged = true;
        Some(ConnectionLog {
            replies: std::mem::take(&mut self.replies),
            bytes_in: self.buf.len(),
            bytes_out: self.bytes_out,
            teardown: self.teardown,
        })
    }
}

/// A message whose relay is in flight.
#[derive(Debug, Clone)]
struct Relaying {
    result: ProxyResult,
    consumed: usize,
    drop_rest: bool,
}

/// A proxy hop's downstream connection: parses each message with the
/// profile, answers rejections itself, and relays every forwarded
/// message (after the pre-decided forward fault) over its own upstream
/// exchange.
#[derive(Debug, Clone)]
pub(crate) struct Proxy {
    fault: Option<FaultDecision>,
    max_messages: usize,
    phase: Phase,
    logged: bool,
    buf: Vec<u8>,
    pos: usize,
    eof: bool,
    results: Vec<ProxyResult>,
    relaying: Option<Relaying>,
    teardown: Teardown,
    out: Vec<u8>,
}

impl Proxy {
    /// A fresh downstream connection under `config`.
    pub(crate) fn new(config: &NetProxyConfig) -> Proxy {
        Proxy {
            fault: config.fault,
            max_messages: config.max_messages,
            phase: Phase::Open,
            logged: false,
            buf: Vec::new(),
            pos: 0,
            eof: false,
            results: Vec::new(),
            relaying: None,
            teardown: Teardown::Fin,
            out: Vec::new(),
        }
    }

    fn close(&mut self, teardown: Teardown) -> Step {
        self.teardown = teardown;
        self.phase = Phase::Closed;
        Step::Close
    }

    /// Records a handled message; `Some(Close)` when the stream ends with
    /// it (a reset or stalled forward drops the rest, and a message that
    /// consumed nothing cannot advance).
    fn settle(&mut self, result: ProxyResult, consumed: usize, drop_rest: bool) -> Option<Step> {
        self.results.push(result);
        if drop_rest {
            return Some(self.close(Teardown::Abort));
        }
        if consumed == 0 {
            return Some(self.close(self.teardown));
        }
        self.pos += consumed;
        None
    }
}

impl Machine for Proxy {
    type Host = hdiff_servers::Proxy;
    type Log = ProxyConnLog;

    fn feed(&mut self, proxy: &hdiff_servers::Proxy, input: Input<'_>) -> Step {
        match (self.phase, input) {
            (Phase::Open, Input::Read(bytes)) => self.buf.extend_from_slice(bytes),
            (Phase::Open, Input::Eof) => self.eof = true,
            (Phase::Open, Input::Deadline) => return self.close(Teardown::TimedOut),
            (Phase::Open, Input::ReadError) | (_, Input::WriteError) => {
                return self.close(Teardown::Abort)
            }
            (Phase::Open, Input::Relay(response)) => {
                let Some(Relaying { result, consumed, drop_rest }) = self.relaying.take() else {
                    return Step::Read;
                };
                let Ok(response) = response else {
                    self.results.push(result);
                    return self.close(Teardown::Abort);
                };
                self.out.extend_from_slice(&response);
                if let Some(step) = self.settle(result, consumed, drop_rest) {
                    return step;
                }
            }
            (Phase::Holding | Phase::Closed, _) => return Step::Close,
        }

        while self.relaying.is_none()
            && self.results.len() < self.max_messages
            && self.pos < self.buf.len()
        {
            let mut r = proxy.forward(&self.buf[self.pos..]);
            if !is_final(&r.interpretation, self.buf.len() - self.pos, self.eof) {
                return Step::Read;
            }
            let consumed = r.interpretation.consumed;
            let mut drop_rest = false;
            // The pre-decided forward fault, byte-identical to the
            // in-process path.
            if let (Some(decision), ForwardAction::Forwarded(bytes)) = (self.fault, &r.action) {
                match decision.kind {
                    FaultKind::ConnReset => {
                        let cut = decision.reset_point(bytes.len());
                        r.action = ForwardAction::Forwarded(bytes[..cut].to_vec());
                        drop_rest = true;
                    }
                    FaultKind::GarbleForward => {
                        r.action = ForwardAction::Forwarded(decision.garble(bytes));
                    }
                    FaultKind::StallRead => {
                        r.action = ForwardAction::Forwarded(Vec::new());
                        drop_rest = true;
                    }
                    _ => {}
                }
            }
            match &r.action {
                ForwardAction::Forwarded(bytes) if !bytes.is_empty() => {
                    let bytes = bytes.clone();
                    self.relaying = Some(Relaying { result: r, consumed, drop_rest });
                    return Step::Relay(bytes);
                }
                // A stalled (empty) forward sends nothing either way.
                ForwardAction::Forwarded(_) => {
                    if let Some(step) = self.settle(r, consumed, drop_rest) {
                        return step;
                    }
                }
                ForwardAction::Rejected(response) => {
                    self.out.extend_from_slice(&response.to_bytes());
                    self.results.push(r);
                    return self.close(self.teardown);
                }
            }
        }
        if self.eof || self.results.len() >= self.max_messages {
            return self.close(self.teardown);
        }
        Step::Read
    }

    fn output(&mut self) -> &mut Vec<u8> {
        &mut self.out
    }

    fn finish(&mut self) -> Option<ProxyConnLog> {
        if self.logged || self.phase == Phase::Open {
            return None;
        }
        self.logged = true;
        Some(ProxyConnLog { results: std::mem::take(&mut self.results), teardown: self.teardown })
    }
}

/// The echo upstream's connection: one forwarded message per connection,
/// read to EOF (or error, or the deadline) and answered with itself as
/// the body. Its log is the message.
#[derive(Debug, Clone, Default)]
pub(crate) struct Echo {
    buf: Vec<u8>,
    out: Vec<u8>,
    closed: bool,
    logged: bool,
}

impl Echo {
    /// A fresh echo connection.
    pub(crate) fn new() -> Echo {
        Echo::default()
    }
}

impl Machine for Echo {
    type Host = ();
    type Log = Vec<u8>;

    fn feed(&mut self, _: &(), input: Input<'_>) -> Step {
        match input {
            _ if self.closed => {}
            Input::Read(bytes) => {
                self.buf.extend_from_slice(bytes);
                return Step::Read;
            }
            // EOF, an error or the deadline: answer what arrived.
            _ => {
                self.out = echo::respond(&self.buf).to_bytes();
                self.closed = true;
            }
        }
        Step::Close
    }

    fn output(&mut self) -> &mut Vec<u8> {
        &mut self.out
    }

    fn finish(&mut self) -> Option<Vec<u8>> {
        if self.logged || !self.closed {
            return None;
        }
        self.logged = true;
        Some(std::mem::take(&mut self.buf))
    }
}

/// Drives `machine` over `inputs` without a socket: relays are answered
/// by `relay`, and the run stops at [`Step::Close`]. Returns every byte
/// the machine wrote and its log.
#[cfg(test)]
pub(crate) fn drive<M: Machine>(
    mut machine: M,
    host: &M::Host,
    inputs: Vec<Input<'_>>,
    mut relay: impl FnMut(&[u8]) -> Result<Vec<u8>, ()>,
) -> (Vec<u8>, Option<M::Log>) {
    let mut wire = Vec::new();
    let mut log = None;
    for input in inputs {
        let mut step = machine.feed(host, input);
        while let Step::Relay(bytes) = &step {
            let response = relay(bytes);
            step = machine.feed(host, Input::Relay(response));
        }
        wire.append(machine.output());
        if matches!(step, Step::Hold | Step::Close) {
            log = log.or_else(|| machine.finish());
        }
        if step == Step::Close {
            break;
        }
    }
    (wire, log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdiff_servers::ParserProfile;

    const REQ: &[u8] = b"GET / HTTP/1.1\r\nHost: h1.com\r\n\r\n";

    #[test]
    fn fault_phases_end_connections_like_the_in_process_engine() {
        let server = Server::new(ParserProfile::strict("wire"));
        let clean = server.handle_stream(REQ);
        let faulted = |fault| NetServerConfig { fault, ..NetServerConfig::default() };

        // CloseNoReply: the first read decides an Abort with no reply.
        let mut origin = Origin::new(&faulted(Some(ServerFault::CloseNoReply)), true);
        assert_eq!(origin.feed(&server, Input::Read(REQ)), Step::Close);
        assert!(origin.output().is_empty());
        let log = origin.finish().unwrap();
        assert_eq!(
            (log.teardown, log.replies.len(), log.bytes_in),
            (Teardown::Abort, 0, REQ.len())
        );

        // Stall: the Stalled log is ready before the hold, and the hold
        // ends silently when the peer goes.
        let mut origin = Origin::new(&faulted(Some(ServerFault::Stall)), true);
        assert_eq!(origin.feed(&server, Input::Read(REQ)), Step::Hold);
        let log = origin.finish().expect("logged before the hold");
        assert_eq!((log.teardown, log.replies.len()), (Teardown::Stalled, 0));
        assert_eq!(origin.feed(&server, Input::Read(b"more")), Step::Hold);
        assert_eq!(origin.feed(&server, Input::Eof), Step::Close);
        assert!(origin.finish().is_none(), "one log per connection");
        assert!(origin.output().is_empty());

        // A deadline with the connection open times it out.
        let mut origin = Origin::new(&faulted(None), true);
        assert_eq!(origin.feed(&server, Input::Read(&REQ[..10])), Step::Read);
        assert!(origin.finish().is_none(), "no log while open");
        assert_eq!(origin.feed(&server, Input::Deadline), Step::Close);
        assert_eq!(origin.finish().unwrap().teardown, Teardown::TimedOut);

        // A failed write aborts.
        let mut origin = Origin::new(&faulted(None), true);
        assert_eq!(origin.feed(&server, Input::Read(REQ)), Step::Read);
        assert!(!origin.output().is_empty());
        assert_eq!(origin.feed(&server, Input::WriteError), Step::Close);
        assert_eq!(origin.finish().unwrap().teardown, Teardown::Abort);

        // Reply faults rewrite the recorded replies and the wire alike.
        for fault in [ServerFault::Substitute503, ServerFault::TruncateBody] {
            let mut expected = clean.clone();
            let response = &mut expected[0].response;
            if fault == ServerFault::Substitute503 {
                let text = "injected transient upstream error".to_string();
                *response = Response::with_body(StatusCode(503), text);
                response.headers.push("Server", "wire");
            } else {
                response.body.truncate(response.body.len() / 2);
            }
            let origin = Origin::new(&faulted(Some(fault)), true);
            let (wire, log) =
                drive(origin, &server, vec![Input::Read(REQ), Input::Eof], |_| Err(()));
            let log = log.unwrap();
            assert_eq!(log.replies, expected, "{fault:?}");
            assert_eq!(wire, expected[0].response.to_bytes(), "{fault:?}");
            assert_eq!((log.teardown, log.bytes_out), (Teardown::Fin, wire.len()), "{fault:?}");
        }
    }

    #[test]
    fn a_failed_relay_aborts_the_proxy_connection() {
        let mut profile = ParserProfile::strict("strictproxy");
        profile.proxy = Some(hdiff_servers::profile::ProxyBehavior::strict());
        let proxy = hdiff_servers::Proxy::new(profile);
        let config = NetProxyConfig::new("127.0.0.1:9".parse().unwrap());
        let (wire, log) = drive(Proxy::new(&config), &proxy, vec![Input::Read(REQ)], |_| Err(()));
        let log = log.unwrap();
        assert!(wire.is_empty());
        assert_eq!((log.teardown, log.results.len()), (Teardown::Abort, 1));
    }
}
