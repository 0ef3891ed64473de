//! The readiness-driven event loop behind the async transport.
//!
//! One [`Reactor`] owns one epoll instance and one loop thread that
//! multiplexes every socket the async testbed touches: origin/proxy/echo
//! listeners, their accepted connections, and the client side of every
//! in-flight exchange (a proxy's upstream relay is one of those). Each
//! accepted connection drives the shared `conn` machines — the same
//! origin, proxy and echo logic the blocking listeners run — so the two
//! transports agree by construction: the loop only moves bytes,
//! deadlines and relay results between sockets and machines.
//!
//! Design points:
//!
//! * **Edge-triggered epoll, slab tokens.** Every fd registers once with
//!   `EPOLLIN|EPOLLOUT|EPOLLRDHUP|EPOLLET`; the event token packs a slab
//!   index and a generation counter so a recycled slot can never receive
//!   a stale event. Handlers read/write until `WouldBlock`.
//! * **Deadline wheel, not per-socket timeouts.** Sockets are
//!   nonblocking; the per-read 500 ms budget of the blocking layer
//!   becomes a deadline restarted on every read with progress, kept in
//!   a [`super::reactor::wheel::Wheel`]. A connection holds at most one
//!   wheel entry: restarting or cancelling only moves the deadline, and
//!   an entry that comes up before it re-files itself.
//! * **End of exchange delivered by the loop, not by a FIN.** Both ends
//!   of every exchange live in this loop: an exchange's address must be
//!   one of its listeners (else the exchange fails with
//!   [`NetErrorKind::NotHosted`](crate::NetErrorKind::NotHosted)), and an
//!   accepted connection is linked to the client slot that connected
//!   it. The client writes its N bytes and sends no FIN; the served
//!   connection feeds its machine `Input::Eof` once it has read exactly
//!   those N bytes. When the machine then closes, the loop hands over
//!   the log, flushes the reply, tells the client the reply length M and
//!   swaps in a fresh machine; the client completes once it holds M
//!   bytes. A machine cannot tell this EOF from a FIN, so the logs equal
//!   the blocking transport's. Every other end — a deadline, an I/O
//!   error, a peer FIN, `Step::Hold`, or a machine that closes before
//!   reading its N bytes — shuts the socket down as a blocking server
//!   would.
//! * **Log before completion.** A served connection delivers its log
//!   before it ends the exchange (loop-delivered end) or shuts the
//!   socket (any other end), and the client completes only after that,
//!   on the same loop thread — so a completed exchange always carries
//!   its complete log.
//! * **Keep-alive pool.** Every exchange, relays included, claims an
//!   idle connection to its address or connects, and a loop-ended
//!   exchange returns its connection to the pool, so a case reuses
//!   connections instead of opening them. `warm()` pre-opens the first
//!   ones. A pooled connection the server closed (its read deadline)
//!   is evicted on its read readiness; one claimed as it closed (empty
//!   response, no log) is retried once on a fresh connection.
//! * **Blocking `connect`, bounded burst.** Loopback connects complete
//!   in microseconds *when the listener backlog has room*, so the loop
//!   issues at most [`CONNECT_BURST`] connects per iteration and drains
//!   accepts in between — the backlog (128) can never overflow and the
//!   kernel's 1 s SYN-retry stall can never trigger.

pub mod sys;
pub mod wheel;

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::rc::Rc;
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hdiff_servers::{ParserProfile, Proxy, Server};
use hdiff_wire::parse_response;

use crate::blocking::CHUNK;
use crate::client::SendMode;
use crate::conn::{self, Input, Machine, Step};
use crate::error::NetError;
use crate::proxy::{NetProxyConfig, ProxyConnLog};
use crate::server::{ConnectionLog, NetServerConfig};

use sys::{Epoll, EpollEvent, EPOLLET, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use wheel::Wheel;

/// Event token reserved for the loop's wake channel.
const WAKE_TOKEN: u64 = u64::MAX;

/// Maximum outbound connects initiated per loop iteration (see module
/// docs: must stay below the listen backlog).
const CONNECT_BURST: usize = 64;

/// Idle epoll wait cap when no deadline is armed.
const IDLE_WAIT_MS: u64 = 100;

/// Opaque handle to a listener hosted by the reactor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListenerId(u64);

/// A listener the reactor serves, as seen by the submitting thread.
#[derive(Debug, Clone)]
pub struct AsyncListener {
    /// Product name (profile name) this listener serves.
    pub name: String,
    /// Bound loopback address.
    pub addr: SocketAddr,
    /// Handle for log collection and exchange pairing.
    pub id: ListenerId,
}

/// One unit of client work submitted to the loop.
#[derive(Debug, Clone)]
pub enum Job {
    /// Campaign-style exchange: write the stream, read the whole reply
    /// (the loop ends the exchange; see the module docs).
    Exchange(ExchangeSpec),
    /// Bench-style drive: N framed keep-alive requests on one connection.
    Drive(DriveSpec),
}

/// Parameters of one campaign exchange.
#[derive(Debug, Clone)]
pub struct ExchangeSpec {
    /// Target address: a listener hosted by the same reactor.
    pub addr: SocketAddr,
    /// Request stream bytes.
    pub bytes: Vec<u8>,
    /// How the bytes go on the wire.
    pub mode: SendMode,
    /// Read deadline (re-armed on progress), mirroring the blocking
    /// client's per-read timeout.
    pub read_timeout: Duration,
    /// Listener whose connection log this exchange collects, if any.
    pub pair: Option<ListenerId>,
}

/// Parameters of one throughput drive.
#[derive(Debug, Clone)]
pub struct DriveSpec {
    /// Target address.
    pub addr: SocketAddr,
    /// One framed request; sent `requests` times.
    pub payload: Vec<u8>,
    /// Total requests to complete.
    pub requests: u64,
    /// Requests kept in flight per refill (1 = strict request/response).
    pub pipeline: usize,
    /// Read deadline (re-armed on progress).
    pub read_timeout: Duration,
}

/// Result of one [`Job::Exchange`].
#[derive(Debug, Clone, Default)]
pub struct ExchangeOutput {
    /// Raw response bytes: the whole reply, or what arrived before the
    /// connection closed or the deadline.
    pub response: Vec<u8>,
    /// Whether the read ended on the deadline rather than EOF.
    pub timed_out: bool,
    /// Connect or stream failure, if the exchange never completed.
    pub error: Option<NetError>,
    /// The paired origin listener's connection log, when requested.
    pub server_log: Option<ConnectionLog>,
    /// The paired proxy listener's connection log, when requested.
    pub proxy_log: Option<ProxyConnLog>,
    /// Wall time from job assignment to completion.
    pub rtt_ns: u64,
    /// Whether the connection the exchange claimed first had carried an
    /// earlier exchange (pool hit); otherwise this was its first use,
    /// one real connect (miss).
    pub reused: bool,
    /// Whether the exchange re-ran on a fresh connection after a stale
    /// pooled one.
    pub retried: bool,
}

impl ExchangeOutput {
    /// Records the exchange's campaign telemetry on the calling thread
    /// (the event loop itself records nothing): its RTT and timeout, and
    /// the counters [`crate::ConnPool`] keeps. The claimed connection is
    /// a `net.pool.hit` when it carried an earlier exchange, else a
    /// `net.pool.miss` and a `net.conn.open`; a stale retry adds a
    /// `net.pool.evict` plus the fresh connection's miss and open. So
    /// `net.conn.open` counts the connects the exchanges' connections
    /// cost (relays excluded), and hits + misses = exchanges + evictions.
    pub fn observe(&self) {
        hdiff_obs::observe("net.exchange.rtt", self.rtt_ns);
        if self.timed_out {
            hdiff_obs::count("net.exchange.timeout", 1);
        }
        let first_claim = if self.reused { "net.pool.hit" } else { "net.pool.miss" };
        hdiff_obs::count(first_claim, 1);
        let mut opens = u64::from(!self.reused);
        if self.retried {
            hdiff_obs::count("net.pool.evict", 1);
            hdiff_obs::count("net.pool.miss", 1);
            opens += 1;
        }
        if opens > 0 {
            hdiff_obs::count("net.conn.open", opens);
        }
    }
}

/// Result of one [`Job::Drive`].
#[derive(Debug, Clone, Default)]
pub struct DriveOutput {
    /// Requests that received a complete framed response.
    pub completed: u64,
    /// Connect or stream errors (the drive stops on the first).
    pub errors: u64,
    /// Wall time for the whole drive.
    pub elapsed_ns: u64,
    /// Per-request RTTs, recorded only at `pipeline == 1`.
    pub rtt_ns: Vec<u64>,
    /// Whether the drive ended on the deadline.
    pub timed_out: bool,
}

/// Output of one [`Job`], in submission order.
#[derive(Debug, Clone)]
pub enum JobOutput {
    /// Result of an exchange job.
    Exchange(ExchangeOutput),
    /// Result of a drive job.
    Drive(DriveOutput),
}

impl JobOutput {
    /// The exchange result, when this job was an exchange.
    pub fn as_exchange(&self) -> Option<&ExchangeOutput> {
        match self {
            JobOutput::Exchange(e) => Some(e),
            JobOutput::Drive(_) => None,
        }
    }

    /// The drive result, when this job was a drive.
    pub fn as_drive(&self) -> Option<&DriveOutput> {
        match self {
            JobOutput::Drive(d) => Some(d),
            JobOutput::Exchange(_) => None,
        }
    }
}

/// Loop-side counters, snapshotted via [`Reactor::stats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ReactorStats {
    /// `epoll_wait` returns.
    pub wakeups: u64,
    /// Readiness events delivered.
    pub events: u64,
    /// Connections the loop opened or accepted: a loopback exchange
    /// connection counts twice, once per end.
    pub conns_opened: u64,
    /// Connections the loop closed.
    pub conns_closed: u64,
    /// Connection claims, relays included, of a connection that carried
    /// an earlier exchange.
    pub pool_hits: u64,
    /// Connection claims that were a connection's first use: each one a
    /// real connect (a warm fill's or the exchange's own).
    pub pool_misses: u64,
    /// Pooled connections discarded after a server-side close: idle
    /// ones on their read readiness, stale ones at their claim.
    pub pool_evictions: u64,
    /// Deadline-wheel entries that fired against a live connection.
    pub deadline_fires: u64,
}

// ---------------------------------------------------------------------------
// Commands from the handle to the loop.
// ---------------------------------------------------------------------------

enum Cmd {
    AddOrigin {
        listener: TcpListener,
        server: Server,
        config: NetServerConfig,
        record: bool,
        ack: Sender<ListenerId>,
    },
    AddProxy {
        listener: TcpListener,
        proxy: Proxy,
        config: NetProxyConfig,
        ack: Sender<ListenerId>,
    },
    AddEcho {
        listener: TcpListener,
        read_timeout: Duration,
        ack: Sender<ListenerId>,
    },
    Warm {
        addr: SocketAddr,
        depth: usize,
        ack: Sender<()>,
    },
    Submit {
        jobs: Vec<Job>,
        done: Sender<Vec<JobOutput>>,
    },
    Stats {
        ack: Sender<ReactorStats>,
    },
    Shutdown,
}

// ---------------------------------------------------------------------------
// Loop-side state.
// ---------------------------------------------------------------------------

/// A hosted listener of one role.
struct Listener<M: Machine> {
    listener: TcpListener,
    host: Rc<M::Host>,
    /// A fresh machine, cloned for every accepted connection.
    fresh: M,
    read_timeout: Duration,
    /// Where relays go (proxy listeners only).
    upstream: Option<SocketAddr>,
}

/// An accepted connection: its stream, its machine, the machine's last
/// step, an output cursor, its read deadline, and where the current
/// exchange stands.
struct Served<M: Machine> {
    stream: TcpStream,
    machine: M,
    /// The listener's fresh machine, swapped in for each exchange.
    fresh: M,
    host: Rc<M::Host>,
    /// The listener's slab index; with `peer`, the pairing-ticket key.
    owner: usize,
    peer: SocketAddr,
    read_timeout: Duration,
    upstream: Option<SocketAddr>,
    /// `Step::Relay` with no bytes left means the relay is in flight.
    step: Step,
    out_pos: usize,
    deadline: Deadline,
    /// The loop's client slot (index, generation) that connected this
    /// one; `None` for a peer the loop did not open.
    client: Option<(usize, u32)>,
    /// Bytes of the current exchange read so far.
    got: usize,
    /// Bytes of the current exchange's reply flushed so far.
    sent: usize,
    /// Whether the loop already fed this exchange's end as EOF.
    eof_fed: bool,
    /// Whether the connection ends with a real close: it held, hit a
    /// deadline or an I/O error, or the peer closed.
    closing: bool,
}

/// A finished connection log, as the loop pairs it.
enum ConnLog {
    Server(ConnectionLog),
    Proxy(ProxyConnLog),
}

/// A role the loop hosts: the slab entries its listener and connections
/// live in, and what becomes of its logs.
trait Role: Machine + Clone + Sized {
    fn listening(l: Box<Listener<Self>>) -> Entry;
    fn served(c: Box<Served<Self>>) -> Entry;
    /// The log as the loop pairs it; `None` drops it.
    fn keep(log: Self::Log) -> Option<ConnLog>;
}

impl Role for conn::Origin {
    fn listening(l: Box<Listener<Self>>) -> Entry {
        Entry::OriginListener(l)
    }
    fn served(c: Box<Served<Self>>) -> Entry {
        Entry::Origin(c)
    }
    fn keep(log: ConnectionLog) -> Option<ConnLog> {
        Some(ConnLog::Server(log))
    }
}

impl Role for conn::Proxy {
    fn listening(l: Box<Listener<Self>>) -> Entry {
        Entry::ProxyListener(l)
    }
    fn served(c: Box<Served<Self>>) -> Entry {
        Entry::ProxyDown(c)
    }
    fn keep(log: ProxyConnLog) -> Option<ConnLog> {
        Some(ConnLog::Proxy(log))
    }
}

impl Role for conn::Echo {
    fn listening(l: Box<Listener<Self>>) -> Entry {
        Entry::EchoListener(l)
    }
    fn served(c: Box<Served<Self>>) -> Entry {
        Entry::EchoConn(c)
    }
    fn keep(_: Vec<u8>) -> Option<ConnLog> {
        None // the hosted echo records nothing
    }
}

/// Who receives an exchange's result.
#[derive(Debug, Clone, Copy)]
enum Sink {
    /// A submitted job's output slot.
    Job { batch: usize, job: usize },
    /// The proxy connection (slab index) whose relay this is.
    Relay(usize),
}

struct ExchangeState {
    sink: Sink,
    /// The exchange's N bytes, kept whole: the served end reads its
    /// length.
    out: Vec<u8>,
    out_pos: usize,
    resp: Vec<u8>,
    /// The reply length M, once the served end ended the exchange.
    reply_len: Option<usize>,
    read_timeout: Duration,
    started: Instant,
    /// Claimed from the idle pool (and so possibly stale).
    pooled: bool,
    reused: bool,
    retried: bool,
    pair: Option<usize>,
    /// Original spec kept for the stale-connection retry.
    spec: ExchangeSpec,
}

struct DriveState {
    batch: usize,
    job: usize,
    payload: Vec<u8>,
    requests: u64,
    sent: u64,
    completed: u64,
    pipeline: usize,
    out: Vec<u8>,
    out_pos: usize,
    resp_buf: Vec<u8>,
    rtts: Vec<u64>,
    last_send: Instant,
    read_timeout: Duration,
    started: Instant,
}

enum ClientKind {
    /// Pool member, waiting for an exchange to claim it.
    Idle,
    Exchange(Box<ExchangeState>),
    Drive(Box<DriveState>),
}

struct ClientConn {
    stream: TcpStream,
    /// Local address: with the listener, the pairing-ticket key.
    local: SocketAddr,
    /// The address it connected to (its pool).
    addr: SocketAddr,
    kind: ClientKind,
    deadline: Deadline,
    /// Whether an exchange already ended on this connection.
    used: bool,
}

enum Entry {
    OriginListener(Box<Listener<conn::Origin>>),
    ProxyListener(Box<Listener<conn::Proxy>>),
    EchoListener(Box<Listener<conn::Echo>>),
    Origin(Box<Served<conn::Origin>>),
    ProxyDown(Box<Served<conn::Proxy>>),
    EchoConn(Box<Served<conn::Echo>>),
    Client(ClientConn),
}

struct Slot {
    gen: u32,
    entry: Option<Entry>,
}

struct BatchState {
    outputs: Vec<Option<JobOutput>>,
    remaining: usize,
    done: Sender<Vec<JobOutput>>,
    pending_logs: HashMap<usize, ConnLog>,
}

enum ConnectIntent {
    /// `reused` carries the stale claim's hit/miss through a retry.
    Exchange {
        sink: Sink,
        spec: ExchangeSpec,
        reused: bool,
        retried: bool,
    },
    Drive {
        batch: usize,
        job: usize,
        spec: DriveSpec,
    },
    Idle {
        addr: SocketAddr,
    },
}

enum Wake {
    Io(u64),
    Deadline(usize, u64),
    Resume(usize),
    RelayDone(usize, Result<Vec<u8>, ()>),
}

enum ReadOutcome {
    /// Read until `WouldBlock`; `true` when any bytes arrived.
    More(bool),
    /// Peer sent FIN.
    Eof,
    /// Hard stream error.
    Error,
}

/// Drains `stream` into `buf` until `WouldBlock`, EOF, or error.
fn drain_read(stream: &mut TcpStream, buf: &mut Vec<u8>) -> ReadOutcome {
    let mut any = false;
    let mut chunk = [0u8; CHUNK];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return ReadOutcome::Eof,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                any = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return ReadOutcome::More(any),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return ReadOutcome::Error,
        }
    }
}

enum WriteOutcome {
    Flushed,
    Partial,
    Error,
}

/// Writes `out[*pos..]` until `WouldBlock`, completion, or error.
fn drain_write(stream: &mut TcpStream, out: &[u8], pos: &mut usize) -> WriteOutcome {
    while *pos < out.len() {
        match stream.write(&out[*pos..]) {
            Ok(0) => return WriteOutcome::Error,
            Ok(n) => *pos += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return WriteOutcome::Partial,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return WriteOutcome::Error,
        }
    }
    WriteOutcome::Flushed
}

/// Flattens a [`SendMode`] into the exact bytes an exchange puts on the
/// wire. Segment boundaries are not reproduced as separate writes: the
/// blocking client emits its segments back-to-back with no pauses, so
/// coalescing is already possible there, and the machines' finalization
/// rule makes outcomes depend only on the total stream.
fn mode_bytes(bytes: &[u8], mode: &SendMode) -> Vec<u8> {
    match mode {
        SendMode::Whole | SendMode::Segmented(_) => bytes.to_vec(),
        SendMode::TruncateAt(n) => bytes[..(*n).min(bytes.len())].to_vec(),
    }
}

/// A connection's read deadline. The wheel holds at most one entry per
/// connection: a restart only moves `at` (unless it is earlier than the
/// entry), so a busy connection costs one entry per read timeout, not
/// one per read.
#[derive(Debug, Default)]
struct Deadline {
    /// When the deadline expires; `None` while it is cancelled.
    at: Option<Instant>,
    /// The outstanding wheel entry's sequence number and due time.
    entry: Option<(u64, Instant)>,
}

/// The loop's deadline wheel and the sequence numbers of its entries.
/// Like the wheel, it reads no clock: callers pass `now`.
struct Timers {
    wheel: Wheel,
    next_seq: u64,
}

impl Timers {
    /// Restarts `d`, connection `idx`'s deadline, `after` from `now`.
    fn restart(&mut self, now: Instant, d: &mut Deadline, idx: usize, after: Duration) {
        let at = now + after;
        d.at = Some(at);
        if d.entry.is_none_or(|(_, due)| at < due) {
            self.file(d, idx, now, at);
        }
    }

    fn file(&mut self, d: &mut Deadline, idx: usize, now: Instant, at: Instant) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.wheel.arm(now, idx, seq, at - now);
        d.entry = Some((seq, at));
    }

    /// Whether the wheel entry `seq` coming up for `d` means the deadline
    /// expired. A superseded entry is ignored, and one that came up
    /// before a restarted deadline re-files itself.
    fn expired(&mut self, now: Instant, d: &mut Deadline, idx: usize, seq: u64) -> bool {
        if d.entry.is_none_or(|(s, _)| s != seq) {
            return false;
        }
        d.entry = None;
        match d.at {
            Some(at) if at > now => {
                self.file(d, idx, now, at);
                false
            }
            Some(_) => {
                d.at = None;
                true
            }
            None => false,
        }
    }
}

struct EventLoop {
    ep: Epoll,
    wake_rx: TcpStream,
    cmds: Arc<Mutex<VecDeque<Cmd>>>,
    slab: Vec<Slot>,
    free: Vec<usize>,
    timers: Timers,
    batches: Vec<Option<BatchState>>,
    free_batches: Vec<usize>,
    /// Hosted listeners by address, as slab indices.
    listeners: HashMap<SocketAddr, usize>,
    tickets: HashMap<(usize, SocketAddr), (usize, usize)>,
    /// Client slots (index, generation) their listener has not accepted
    /// yet, by (listener slab index, client local address).
    unaccepted: HashMap<(usize, SocketAddr), (usize, u32)>,
    /// Idle pooled connections per address, as (slab idx, generation).
    idle: HashMap<SocketAddr, VecDeque<(usize, u32)>>,
    pending_connects: VecDeque<ConnectIntent>,
    agenda: VecDeque<Wake>,
    stats: ReactorStats,
}

impl EventLoop {
    fn new(ep: Epoll, wake_rx: TcpStream, cmds: Arc<Mutex<VecDeque<Cmd>>>) -> EventLoop {
        EventLoop {
            ep,
            wake_rx,
            cmds,
            slab: Vec::new(),
            free: Vec::new(),
            timers: Timers { wheel: Wheel::new(Instant::now()), next_seq: 1 },
            batches: Vec::new(),
            free_batches: Vec::new(),
            listeners: HashMap::new(),
            tickets: HashMap::new(),
            unaccepted: HashMap::new(),
            idle: HashMap::new(),
            pending_connects: VecDeque::new(),
            agenda: VecDeque::new(),
            stats: ReactorStats::default(),
        }
    }

    // -- slab ------------------------------------------------------------

    fn insert(&mut self, entry: Entry) -> usize {
        match self.free.pop() {
            Some(idx) => {
                self.slab[idx].entry = Some(entry);
                idx
            }
            None => {
                self.slab.push(Slot { gen: 0, entry: Some(entry) });
                self.slab.len() - 1
            }
        }
    }

    fn token(&self, idx: usize) -> u64 {
        ((self.slab[idx].gen as u64) << 32) | idx as u64
    }

    /// Frees a slot whose entry has already been taken out.
    fn release(&mut self, idx: usize) {
        self.slab[idx].gen = self.slab[idx].gen.wrapping_add(1);
        self.slab[idx].entry = None;
        self.free.push(idx);
    }

    /// Restarts the read deadline of the connection in slot `idx`.
    fn restart_deadline(&mut self, idx: usize, after: Duration) {
        let d = match self.slab[idx].entry.as_mut() {
            Some(Entry::Origin(c)) => &mut c.deadline,
            Some(Entry::ProxyDown(c)) => &mut c.deadline,
            Some(Entry::EchoConn(c)) => &mut c.deadline,
            Some(Entry::Client(c)) => &mut c.deadline,
            _ => return,
        };
        self.timers.restart(Instant::now(), d, idx, after);
    }

    fn register(&mut self, fd: std::os::fd::RawFd, idx: usize) -> std::io::Result<()> {
        self.ep.add(fd, EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET, self.token(idx))
    }

    // -- main loop -------------------------------------------------------

    fn run(mut self) {
        let mut events = vec![EpollEvent::default(); 1024];
        loop {
            let timeout_ms = if self.pending_connects.is_empty() && self.agenda.is_empty() {
                self.timers.wheel.next_timeout_ms(Instant::now(), IDLE_WAIT_MS) as i32
            } else {
                0
            };
            let n = self.ep.wait(&mut events, timeout_ms).unwrap_or(0);
            self.stats.wakeups += 1;
            self.stats.events += n as u64;
            let mut woken = false;
            for ev in &events[..n] {
                if ev.data() == WAKE_TOKEN {
                    woken = true;
                } else {
                    self.agenda.push_back(Wake::Io(ev.data()));
                }
            }
            if woken {
                let mut sink = [0u8; 256];
                while matches!(self.wake_rx.read(&mut sink), Ok(n) if n > 0) {}
            }
            let now = Instant::now();
            let mut fired = Vec::new();
            self.timers.wheel.advance(now, |c, s| fired.push((c, s)));
            for (c, s) in fired {
                self.agenda.push_back(Wake::Deadline(c, s));
            }
            loop {
                let cmd = self.cmds.lock().unwrap_or_else(|e| e.into_inner()).pop_front();
                match cmd {
                    Some(Cmd::Shutdown) => return,
                    Some(cmd) => self.handle_cmd(cmd),
                    None => break,
                }
            }
            while let Some(wake) = self.agenda.pop_front() {
                self.dispatch(wake);
            }
            for _ in 0..CONNECT_BURST {
                match self.pending_connects.pop_front() {
                    Some(intent) => self.do_connect(intent),
                    None => break,
                }
            }
        }
    }

    fn handle_cmd(&mut self, cmd: Cmd) {
        match cmd {
            Cmd::AddOrigin { listener, server, config, record, ack } => {
                let fresh = conn::Origin::new(&config, record);
                let host = Rc::new(server);
                self.listen(listener, host, fresh, config.read_timeout, None, ack);
            }
            Cmd::AddProxy { listener, proxy, config, ack } => {
                let fresh = conn::Proxy::new(&config);
                let host = Rc::new(proxy);
                self.listen(listener, host, fresh, config.read_timeout, Some(config.upstream), ack);
            }
            Cmd::AddEcho { listener, read_timeout, ack } => {
                self.listen(listener, Rc::new(()), conn::Echo::new(), read_timeout, None, ack);
            }
            Cmd::Warm { addr, depth, ack } => {
                if self.listeners.contains_key(&addr) {
                    for _ in self.idle_count(addr)..depth {
                        self.pending_connects.push_back(ConnectIntent::Idle { addr });
                    }
                }
                let _ = ack.send(());
            }
            Cmd::Submit { jobs, done } => self.handle_submit(jobs, done),
            Cmd::Stats { ack } => {
                let _ = ack.send(self.stats);
            }
            Cmd::Shutdown => {}
        }
    }

    fn listen<M: Role>(
        &mut self,
        listener: TcpListener,
        host: Rc<M::Host>,
        fresh: M,
        read_timeout: Duration,
        upstream: Option<SocketAddr>,
        ack: Sender<ListenerId>,
    ) {
        let _ = listener.set_nonblocking(true);
        let fd = listener.as_raw_fd();
        let addr = listener.local_addr();
        let l = Listener { listener, host, fresh, read_timeout, upstream };
        let idx = self.insert(M::listening(Box::new(l)));
        if let Ok(addr) = addr {
            self.listeners.insert(addr, idx);
        }
        let _ = self.register(fd, idx);
        let _ = ack.send(ListenerId(self.token(idx)));
    }

    fn resolve(&self, id: ListenerId) -> Option<usize> {
        let idx = (id.0 & 0xffff_ffff) as usize;
        let gen = (id.0 >> 32) as u32;
        (idx < self.slab.len() && self.slab[idx].gen == gen).then_some(idx)
    }

    fn idle_count(&self, addr: SocketAddr) -> usize {
        self.idle.get(&addr).map_or(0, VecDeque::len)
    }

    // -- submission ------------------------------------------------------

    fn handle_submit(&mut self, jobs: Vec<Job>, done: Sender<Vec<JobOutput>>) {
        let batch = match self.free_batches.pop() {
            Some(b) => b,
            None => {
                self.batches.push(None);
                self.batches.len() - 1
            }
        };
        self.batches[batch] = Some(BatchState {
            outputs: vec![None; jobs.len()],
            remaining: jobs.len(),
            done,
            pending_logs: HashMap::new(),
        });
        if jobs.is_empty() {
            self.finish_batch_if_done(batch);
            return;
        }
        for (job, spec) in jobs.into_iter().enumerate() {
            match spec {
                Job::Exchange(spec) => self.submit(Sink::Job { batch, job }, spec, false, false),
                Job::Drive(spec) => {
                    self.pending_connects.push_back(ConnectIntent::Drive { batch, job, spec });
                }
            }
        }
    }

    /// Starts an exchange on an idle pooled connection to its address,
    /// or on a fresh connect when none is idle. A retry always connects;
    /// `reused` carries its stale claim's hit/miss.
    fn submit(&mut self, sink: Sink, spec: ExchangeSpec, reused: bool, retried: bool) {
        if !self.listeners.contains_key(&spec.addr) {
            return self.fail(sink, NetError::not_hosted(spec.addr), retried);
        }
        if !retried {
            if let Some(idx) = self.claim_idle(spec.addr) {
                return self.assign_exchange(idx, sink, spec, true, false, false);
            }
        }
        self.pending_connects.push_back(ConnectIntent::Exchange { sink, spec, reused, retried });
    }

    /// Pops idle pooled connections for `addr` until a live one is found.
    fn claim_idle(&mut self, addr: SocketAddr) -> Option<usize> {
        let deque = self.idle.get_mut(&addr)?;
        while let Some((idx, gen)) = deque.pop_front() {
            if self.slab.get(idx).is_some_and(|s| {
                s.gen == gen
                    && matches!(
                        s.entry,
                        Some(Entry::Client(ClientConn { kind: ClientKind::Idle, .. }))
                    )
            }) {
                return Some(idx);
            }
        }
        None
    }

    /// Converts a connected client slot into a running exchange.
    fn assign_exchange(
        &mut self,
        idx: usize,
        sink: Sink,
        spec: ExchangeSpec,
        pooled: bool,
        reused: bool,
        retried: bool,
    ) {
        let pair = spec.pair.and_then(|id| self.resolve(id));
        let read_timeout = spec.read_timeout;
        let Some(Entry::Client(c)) = self.slab[idx].entry.as_mut() else { return };
        if c.used {
            self.stats.pool_hits += 1;
        } else {
            self.stats.pool_misses += 1;
        }
        let state = ExchangeState {
            sink,
            out: mode_bytes(&spec.bytes, &spec.mode),
            out_pos: 0,
            resp: Vec::new(),
            reply_len: None,
            read_timeout,
            started: Instant::now(),
            pooled,
            reused: reused || c.used,
            retried,
            pair,
            spec,
        };
        c.kind = ClientKind::Exchange(Box::new(state));
        self.timers.restart(Instant::now(), &mut c.deadline, idx, read_timeout);
        if let (Sink::Job { batch, job }, Some(owner)) = (sink, pair) {
            self.tickets.insert((owner, c.local), (batch, job));
        }
        self.agenda.push_back(Wake::Resume(idx));
    }

    /// Ends an exchange that never got a connection.
    fn fail(&mut self, sink: Sink, error: NetError, retried: bool) {
        match sink {
            Sink::Relay(owner) => self.agenda.push_back(Wake::RelayDone(owner, Err(()))),
            Sink::Job { batch, job } => {
                let out =
                    ExchangeOutput { error: Some(error), retried, ..ExchangeOutput::default() };
                self.complete(batch, job, JobOutput::Exchange(out));
            }
        }
    }

    // -- connect processing ---------------------------------------------

    fn do_connect(&mut self, intent: ConnectIntent) {
        match intent {
            ConnectIntent::Exchange { sink, spec, reused, retried } => match self.open(spec.addr) {
                Ok(idx) => self.assign_exchange(idx, sink, spec, false, reused, retried),
                Err(e) => self.fail(sink, NetError::connect(e), retried),
            },
            ConnectIntent::Drive { batch, job, spec } => match self.open(spec.addr) {
                Ok(idx) => {
                    let read_timeout = spec.read_timeout;
                    let mut state = DriveState {
                        batch,
                        job,
                        payload: spec.payload,
                        requests: spec.requests,
                        sent: 0,
                        completed: 0,
                        pipeline: spec.pipeline.max(1),
                        out: Vec::new(),
                        out_pos: 0,
                        resp_buf: Vec::new(),
                        rtts: Vec::new(),
                        last_send: Instant::now(),
                        read_timeout,
                        started: Instant::now(),
                    };
                    refill_drive(&mut state);
                    if let Some(Entry::Client(c)) = self.slab[idx].entry.as_mut() {
                        c.kind = ClientKind::Drive(Box::new(state));
                    }
                    self.restart_deadline(idx, read_timeout);
                    self.agenda.push_back(Wake::Resume(idx));
                }
                Err(_) => {
                    let out = DriveOutput { errors: 1, ..DriveOutput::default() };
                    self.complete(batch, job, JobOutput::Drive(out));
                }
            },
            ConnectIntent::Idle { addr } => {
                if let Ok(idx) = self.open(addr) {
                    let gen = self.slab[idx].gen;
                    self.idle.entry(addr).or_default().push_back((idx, gen));
                }
            }
        }
    }

    /// Opens a client connection, registers it as an (unassigned) idle
    /// entry the caller converts or parks, and files it for linking with
    /// its accepted end.
    fn open(&mut self, addr: SocketAddr) -> std::io::Result<usize> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        let local = stream.local_addr()?;
        self.stats.conns_opened += 1;
        let fd = stream.as_raw_fd();
        let client = ClientConn {
            stream,
            local,
            addr,
            kind: ClientKind::Idle,
            deadline: Deadline::default(),
            used: false,
        };
        let idx = self.insert(Entry::Client(client));
        let _ = self.register(fd, idx);
        if let Some(&listener) = self.listeners.get(&addr) {
            self.unaccepted.insert((listener, local), (idx, self.slab[idx].gen));
        }
        Ok(idx)
    }

    // -- dispatch --------------------------------------------------------

    fn dispatch(&mut self, wake: Wake) {
        let idx = match wake {
            Wake::Io(token) => {
                let idx = (token & 0xffff_ffff) as usize;
                let gen = (token >> 32) as u32;
                if idx >= self.slab.len() || self.slab[idx].gen != gen {
                    return;
                }
                idx
            }
            Wake::Resume(idx) | Wake::Deadline(idx, _) | Wake::RelayDone(idx, _) => idx,
        };
        let Some(entry) = self.slab.get_mut(idx).and_then(|s| s.entry.take()) else {
            return;
        };
        let open = match entry {
            Entry::OriginListener(l) => return self.accept(idx, l),
            Entry::ProxyListener(l) => return self.accept(idx, l),
            Entry::EchoListener(l) => return self.accept(idx, l),
            Entry::Origin(c) => self.serve(idx, c, wake),
            Entry::ProxyDown(c) => self.serve(idx, c, wake),
            Entry::EchoConn(c) => self.serve(idx, c, wake),
            Entry::Client(mut c) => {
                let open = match wake {
                    Wake::Deadline(_, seq)
                        if !self.timers.expired(Instant::now(), &mut c.deadline, idx, seq) =>
                    {
                        true
                    }
                    Wake::Deadline(..) => {
                        self.stats.deadline_fires += 1;
                        self.client_deadline(idx, &mut c)
                    }
                    _ => self.client_step(idx, &mut c),
                };
                if open {
                    self.slab[idx].entry = Some(Entry::Client(c));
                }
                open
            }
        };
        if !open {
            self.stats.conns_closed += 1;
            self.release(idx);
        }
    }

    // -- served connections ----------------------------------------------

    fn accept<M: Role>(&mut self, owner: usize, l: Box<Listener<M>>) {
        while let Ok((stream, peer)) = l.listener.accept() {
            let _ = stream.set_nonblocking(true);
            let _ = stream.set_nodelay(true);
            self.stats.conns_opened += 1;
            let fd = stream.as_raw_fd();
            let client = self.unaccepted.remove(&(owner, peer));
            let idx = self.insert(M::served(Box::new(Served {
                stream,
                machine: l.fresh.clone(),
                fresh: l.fresh.clone(),
                host: Rc::clone(&l.host),
                owner,
                peer,
                read_timeout: l.read_timeout,
                upstream: l.upstream,
                step: Step::Read,
                out_pos: 0,
                deadline: Deadline::default(),
                client,
                got: 0,
                sent: 0,
                eof_fed: false,
                closing: false,
            })));
            let _ = self.register(fd, idx);
            self.restart_deadline(idx, l.read_timeout);
        }
        self.slab[owner].entry = Some(M::listening(l));
    }

    /// Runs a served connection on `wake`; returns whether it stays open.
    fn serve<M: Role>(&mut self, idx: usize, mut c: Box<Served<M>>, wake: Wake) -> bool {
        let open = self.step_served(idx, &mut c, wake);
        if open {
            self.slab[idx].entry = Some(M::served(c));
        }
        open
    }

    /// Feeds the wake's input, then writes, reads and feeds until the
    /// socket would block, a relay is in flight, or the machine closes
    /// for good. The exchange's end reaches the machine as EOF once its
    /// bytes are all read.
    fn step_served<M: Role>(&mut self, idx: usize, c: &mut Served<M>, wake: Wake) -> bool {
        let mut progressed = false;
        let mut deadline = false;
        match wake {
            Wake::Deadline(_, seq)
                if !self.timers.expired(Instant::now(), &mut c.deadline, idx, seq) =>
            {
                return true
            }
            Wake::Deadline(..) => {
                self.stats.deadline_fires += 1;
                deadline = true;
                c.closing = true;
                c.step = c.machine.feed(&c.host, Input::Deadline);
            }
            Wake::RelayDone(_, response) => {
                progressed = true;
                c.step = c.machine.feed(&c.host, Input::Relay(response));
            }
            Wake::Io(_) | Wake::Resume(_) => {}
        }
        let mut chunk = [0u8; CHUNK];
        loop {
            let out = c.machine.output();
            match drain_write(&mut c.stream, out, &mut c.out_pos) {
                WriteOutcome::Flushed => {
                    c.sent += out.len();
                    out.clear();
                    c.out_pos = 0;
                }
                // A close waits for its flush, unless the deadline
                // already gave up on it.
                WriteOutcome::Partial if c.step == Step::Close && !deadline => return true,
                WriteOutcome::Partial => {}
                WriteOutcome::Error => {
                    out.clear();
                    c.out_pos = 0;
                    c.closing = true;
                    c.step = c.machine.feed(&c.host, Input::WriteError);
                }
            }
            match &mut c.step {
                Step::Close => {
                    // A deadline before any byte of an exchange is an idle
                    // pooled connection timing out: there is nothing to log.
                    let idle = deadline && c.got == 0;
                    if let Some(log) = c.machine.finish().filter(|_| !idle).and_then(M::keep) {
                        self.deliver(c.owner, c.peer, log);
                    }
                    if !self.end_exchange(c) {
                        let _ = c.stream.shutdown(Shutdown::Both);
                        return false;
                    }
                    progressed = true;
                }
                Step::Relay(bytes) if bytes.is_empty() => return true,
                Step::Relay(bytes) => {
                    let bytes = std::mem::take(bytes);
                    self.relay(idx, c.upstream, bytes, c.read_timeout);
                    // The downstream deadline is suspended while the
                    // relay runs, as in a blocking hop.
                    c.deadline.at = None;
                    return true;
                }
                Step::Hold => {
                    c.closing = true;
                    if let Some(log) = c.machine.finish().and_then(M::keep) {
                        self.deliver(c.owner, c.peer, log);
                    }
                }
                Step::Read => {}
            }
            let input = if !c.eof_fed && self.exchange_len(c.client) == Some(c.got) {
                c.eof_fed = true;
                Input::Eof
            } else {
                match c.stream.read(&mut chunk) {
                    Ok(0) => {
                        c.closing = true;
                        Input::Eof
                    }
                    Ok(n) => {
                        progressed = true;
                        c.got += n;
                        Input::Read(&chunk[..n])
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        c.closing = true;
                        Input::ReadError
                    }
                }
            };
            c.step = c.machine.feed(&c.host, input);
        }
        if progressed {
            self.timers.restart(Instant::now(), &mut c.deadline, idx, c.read_timeout);
        }
        true
    }

    /// The byte count N of the exchange the linked client is running,
    /// until the served end has ended it.
    fn exchange_len(&self, client: Option<(usize, u32)>) -> Option<usize> {
        let (idx, gen) = client?;
        let slot = self.slab.get(idx).filter(|s| s.gen == gen)?;
        match &slot.entry {
            Some(Entry::Client(ClientConn { kind: ClientKind::Exchange(state), .. })) => {
                state.reply_len.is_none().then_some(state.out.len())
            }
            _ => None,
        }
    }

    /// Ends the exchange inside the loop when the machine closed after
    /// reading exactly the exchange's bytes and nothing forces a real
    /// close: tells the client the reply length M and swaps in a fresh
    /// machine. Returns whether the connection stays open.
    fn end_exchange<M: Role>(&mut self, c: &mut Served<M>) -> bool {
        let Some((client, _)) = c.client else { return false };
        if c.closing || self.exchange_len(c.client) != Some(c.got) {
            return false;
        }
        c.machine = c.fresh.clone();
        if let Some(Entry::Client(ClientConn { kind: ClientKind::Exchange(state), .. })) =
            self.slab[client].entry.as_mut()
        {
            state.reply_len = Some(c.sent);
        }
        self.agenda.push_back(Wake::Resume(client));
        c.step = Step::Read;
        c.got = 0;
        c.sent = 0;
        c.eof_fed = false;
        true
    }

    /// Starts a proxy connection's relay: an exchange whose result comes
    /// back to `owner` as [`Wake::RelayDone`].
    fn relay(
        &mut self,
        owner: usize,
        upstream: Option<SocketAddr>,
        bytes: Vec<u8>,
        read_timeout: Duration,
    ) {
        let Some(addr) = upstream else {
            self.agenda.push_back(Wake::RelayDone(owner, Err(())));
            return;
        };
        let spec = ExchangeSpec { addr, bytes, mode: SendMode::Whole, read_timeout, pair: None };
        self.submit(Sink::Relay(owner), spec, false, false);
    }

    /// Delivers a connection log to its paired exchange; a log no
    /// exchange is paired with is dropped.
    fn deliver(&mut self, owner: usize, peer: SocketAddr, log: ConnLog) {
        if let Some((batch, job)) = self.tickets.remove(&(owner, peer)) {
            if let Some(Some(b)) = self.batches.get_mut(batch) {
                b.pending_logs.insert(job, log);
            }
        }
    }

    // -- client connections ----------------------------------------------

    fn client_step(&mut self, idx: usize, c: &mut ClientConn) -> bool {
        match &mut c.kind {
            ClientKind::Idle => {
                // Any readiness on an idle pooled connection means the
                // server closed (or errored) it: evict.
                let mut sink = Vec::new();
                match drain_read(&mut c.stream, &mut sink) {
                    ReadOutcome::More(false) => true, // spurious (writable edge)
                    _ => {
                        self.stats.pool_evictions += 1;
                        if let Some(q) = self.idle.get_mut(&c.addr) {
                            q.retain(|(i, _)| *i != idx);
                        }
                        false
                    }
                }
            }
            ClientKind::Exchange(_) => self.exchange_step(idx, c),
            ClientKind::Drive(_) => self.drive_step(idx, c),
        }
    }

    fn exchange_step(&mut self, idx: usize, c: &mut ClientConn) -> bool {
        let ClientKind::Exchange(state) = &mut c.kind else { return true };
        let state = &mut **state;
        if let WriteOutcome::Error = drain_write(&mut c.stream, &state.out, &mut state.out_pos) {
            return self.exchange_done(idx, c, ExchangeEnd::WriteError);
        }
        let progressed = match drain_read(&mut c.stream, &mut state.resp) {
            ReadOutcome::More(any) => any,
            ReadOutcome::Eof => return self.exchange_done(idx, c, ExchangeEnd::Eof),
            ReadOutcome::Error => return self.exchange_done(idx, c, ExchangeEnd::ReadError),
        };
        if state.reply_len.is_some_and(|m| state.resp.len() >= m) {
            return self.exchange_done(idx, c, ExchangeEnd::Served);
        }
        if progressed {
            self.timers.restart(Instant::now(), &mut c.deadline, idx, state.read_timeout);
        }
        true
    }

    fn client_deadline(&mut self, idx: usize, c: &mut ClientConn) -> bool {
        match &mut c.kind {
            ClientKind::Idle => true,
            ClientKind::Exchange(_) => self.exchange_done(idx, c, ExchangeEnd::Deadline),
            ClientKind::Drive(_) => {
                self.drive_complete(c, true);
                false
            }
        }
    }

    /// Completes an exchange. A loop-ended one returns its connection to
    /// the pool; any other end closes it. A job gets its output, a
    /// relay's proxy connection the response — only a whole reply (the
    /// loop's end or a clean EOF) counts as a completed relay, as in a
    /// blocking hop. Returns whether the connection stays open.
    fn exchange_done(&mut self, idx: usize, c: &mut ClientConn, end: ExchangeEnd) -> bool {
        let ClientKind::Exchange(state) = std::mem::replace(&mut c.kind, ClientKind::Idle) else {
            return true;
        };
        let keep = end == ExchangeEnd::Served;
        if keep {
            c.used = true;
            c.deadline.at = None;
            self.idle.entry(c.addr).or_default().push_back((idx, self.slab[idx].gen));
        } else {
            let _ = c.stream.shutdown(Shutdown::Both);
        }
        // An unclaimed ticket means the server delivered no log.
        let unlogged =
            state.pair.is_none_or(|owner| self.tickets.remove(&(owner, c.local)).is_some());
        // Stale pooled connection: the server closed it as it was
        // claimed — no bytes, no log, nothing charged. Retry once fresh.
        let stale =
            matches!(end, ExchangeEnd::Eof | ExchangeEnd::ReadError | ExchangeEnd::WriteError)
                && state.pooled
                && !state.retried
                && state.resp.is_empty()
                && unlogged;
        if stale {
            self.stats.pool_evictions += 1;
            self.submit(state.sink, state.spec, state.reused, true);
            return false;
        }
        let (batch, job) = match state.sink {
            Sink::Relay(owner) => {
                let whole = matches!(end, ExchangeEnd::Served | ExchangeEnd::Eof);
                let result = if whole { Ok(state.resp) } else { Err(()) };
                self.agenda.push_back(Wake::RelayDone(owner, result));
                return keep;
            }
            Sink::Job { batch, job } => (batch, job),
        };
        let (mut server_log, mut proxy_log) = (None, None);
        match self.batches.get_mut(batch).and_then(|b| b.as_mut()?.pending_logs.remove(&job)) {
            Some(ConnLog::Server(log)) => server_log = Some(log),
            Some(ConnLog::Proxy(log)) => proxy_log = Some(log),
            None => {}
        }
        let error = (end == ExchangeEnd::WriteError)
            .then(|| NetError::io(std::io::Error::other("write failed mid-exchange")));
        let out = ExchangeOutput {
            response: state.resp,
            timed_out: end == ExchangeEnd::Deadline,
            error,
            server_log,
            proxy_log,
            rtt_ns: state.started.elapsed().as_nanos() as u64,
            reused: state.reused,
            retried: state.retried,
        };
        self.complete(batch, job, JobOutput::Exchange(out));
        keep
    }

    fn drive_step(&mut self, idx: usize, c: &mut ClientConn) -> bool {
        let ClientKind::Drive(state) = &mut c.kind else { return true };
        let mut progressed = false;
        loop {
            // Flush whatever is queued.
            let out = std::mem::take(&mut state.out);
            match drain_write(&mut c.stream, &out, &mut state.out_pos) {
                WriteOutcome::Flushed => {
                    state.out = Vec::new();
                    state.out_pos = 0;
                }
                WriteOutcome::Partial => {
                    state.out = out;
                }
                WriteOutcome::Error => {
                    self.drive_complete(c, false);
                    return false;
                }
            }
            // Read and frame responses.
            match drain_read(&mut c.stream, &mut state.resp_buf) {
                ReadOutcome::More(any) => progressed |= any,
                ReadOutcome::Eof | ReadOutcome::Error => {
                    drive_parse(state);
                    self.drive_complete(c, false);
                    return false;
                }
            }
            drive_parse(state);
            if state.completed >= state.requests {
                self.drive_complete(c, false);
                return false;
            }
            let inflight = state.sent - state.completed;
            if inflight == 0 && state.sent < state.requests {
                refill_drive(state);
                continue; // write the fresh batch now
            }
            break;
        }
        if progressed {
            self.timers.restart(Instant::now(), &mut c.deadline, idx, state.read_timeout);
        }
        true
    }

    fn drive_complete(&mut self, c: &mut ClientConn, timed_out: bool) {
        let ClientKind::Drive(state) = &mut c.kind else { return };
        let out = DriveOutput {
            completed: state.completed,
            errors: u64::from(state.completed < state.requests && !timed_out),
            elapsed_ns: state.started.elapsed().as_nanos() as u64,
            rtt_ns: std::mem::take(&mut state.rtts),
            timed_out,
        };
        let batch = state.batch;
        let job = state.job;
        let _ = c.stream.shutdown(Shutdown::Both);
        self.complete(batch, job, JobOutput::Drive(out));
    }

    // -- batch completion ------------------------------------------------

    fn complete(&mut self, batch: usize, job: usize, output: JobOutput) {
        let Some(Some(b)) = self.batches.get_mut(batch) else { return };
        if b.outputs[job].is_none() {
            b.outputs[job] = Some(output);
            b.remaining -= 1;
        }
        self.finish_batch_if_done(batch);
    }

    fn finish_batch_if_done(&mut self, batch: usize) {
        let done = matches!(&self.batches[batch], Some(b) if b.remaining == 0);
        if done {
            if let Some(b) = self.batches[batch].take() {
                let outputs = b
                    .outputs
                    .into_iter()
                    .map(|o| o.unwrap_or(JobOutput::Exchange(ExchangeOutput::default())))
                    .collect();
                let _ = b.done.send(outputs);
            }
            self.free_batches.push(batch);
        }
    }
}

/// How an exchange ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ExchangeEnd {
    /// The served end ended the exchange inside the loop; the
    /// connection stays open for the next one.
    Served,
    Eof,
    /// A read error; a job treats it as EOF, like the blocking client.
    ReadError,
    WriteError,
    Deadline,
}

/// Queues the next pipeline window of requests on a drive.
fn refill_drive(state: &mut DriveState) {
    let window = (state.requests - state.sent).min(state.pipeline as u64);
    for _ in 0..window {
        state.out.extend_from_slice(&state.payload);
    }
    state.sent += window;
    if state.pipeline == 1 {
        state.last_send = Instant::now();
    }
}

/// Frames completed responses out of a drive's read buffer.
fn drive_parse(state: &mut DriveState) {
    while let Ok(parsed) = parse_response(&state.resp_buf) {
        state.resp_buf.drain(..parsed.consumed);
        state.completed += 1;
        if state.pipeline == 1 {
            state.rtts.push(state.last_send.elapsed().as_nanos() as u64);
        }
    }
}

// ---------------------------------------------------------------------------
// The handle.
// ---------------------------------------------------------------------------

/// Handle to a running event loop. Cloneable operations go through an
/// internal command queue plus a loopback wake byte; dropping the handle
/// shuts the loop down and joins its thread.
#[derive(Debug)]
pub struct Reactor {
    cmds: Arc<Mutex<VecDeque<Cmd>>>,
    wake_tx: TcpStream,
    thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Cmd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Cmd")
    }
}

impl Reactor {
    /// Starts the loop thread. Fails with a typed error when the target
    /// has no epoll backend (callers fall back to the blocking
    /// transport) or when the wake channel cannot be established.
    pub fn spawn() -> Result<Reactor, NetError> {
        if !sys::supported() {
            return Err(NetError::spawn(std::io::Error::other(
                "epoll reactor unsupported on this target",
            )));
        }
        // Portable in-process wake channel: a loopback TCP pair (no
        // platform-gated socketpair needed outside sys.rs).
        let listener = TcpListener::bind("127.0.0.1:0").map_err(NetError::bind)?;
        let addr = listener.local_addr().map_err(NetError::bind)?;
        let wake_tx = TcpStream::connect(addr).map_err(NetError::connect)?;
        let (wake_rx, _) = listener.accept().map_err(NetError::accept)?;
        drop(listener);
        wake_tx.set_nodelay(true).map_err(NetError::connect)?;
        wake_rx.set_nonblocking(true).map_err(NetError::accept)?;

        let ep = Epoll::new().map_err(NetError::spawn)?;
        ep.add(wake_rx.as_raw_fd(), EPOLLIN | EPOLLET, WAKE_TOKEN).map_err(NetError::spawn)?;

        let cmds: Arc<Mutex<VecDeque<Cmd>>> = Arc::new(Mutex::new(VecDeque::new()));
        let thread = {
            let cmds = Arc::clone(&cmds);
            std::thread::Builder::new()
                .name("hdiff-reactor".to_string())
                .spawn(move || EventLoop::new(ep, wake_rx, cmds).run())
                .map_err(NetError::spawn)?
        };
        Ok(Reactor { cmds, wake_tx, thread: Some(thread) })
    }

    fn send(&self, cmd: Cmd) {
        self.cmds.lock().unwrap_or_else(|e| e.into_inner()).push_back(cmd);
        let _ = (&self.wake_tx).write(&[1u8]);
    }

    /// Hosts an origin server (a behavioral profile) on an ephemeral
    /// loopback port inside the loop. `record: false` drops per-reply
    /// accounting (bench mode — memory stays flat over millions of
    /// requests).
    pub fn add_origin(
        &self,
        profile: ParserProfile,
        config: NetServerConfig,
        record: bool,
    ) -> Result<AsyncListener, NetError> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(NetError::bind)?;
        let addr = listener.local_addr().map_err(NetError::bind)?;
        let name = profile.name.clone();
        let server = Server::new(profile);
        let (ack, rx) = channel();
        self.send(Cmd::AddOrigin { listener, server, config, record, ack });
        let id = rx.recv().map_err(|_| {
            NetError::spawn(std::io::Error::other("reactor loop gone during add_origin"))
        })?;
        Ok(AsyncListener { name, addr, id })
    }

    /// Hosts a proxy hop inside the loop.
    ///
    /// # Panics
    ///
    /// Panics if `profile` has no proxy behavior configured (same
    /// contract as [`hdiff_servers::Proxy::new`]).
    pub fn add_proxy(
        &self,
        profile: ParserProfile,
        config: NetProxyConfig,
    ) -> Result<AsyncListener, NetError> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(NetError::bind)?;
        let addr = listener.local_addr().map_err(NetError::bind)?;
        let name = profile.name.clone();
        let proxy = Proxy::new(profile);
        let (ack, rx) = channel();
        self.send(Cmd::AddProxy { listener, proxy, config, ack });
        let id = rx.recv().map_err(|_| {
            NetError::spawn(std::io::Error::other("reactor loop gone during add_proxy"))
        })?;
        Ok(AsyncListener { name, addr, id })
    }

    /// Hosts an echo origin inside the loop: every forwarded message is
    /// answered with itself as the body; nothing is recorded.
    pub fn add_echo(&self, read_timeout: Duration) -> Result<AsyncListener, NetError> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(NetError::bind)?;
        let addr = listener.local_addr().map_err(NetError::bind)?;
        let (ack, rx) = channel();
        self.send(Cmd::AddEcho { listener, read_timeout, ack });
        let id = rx.recv().map_err(|_| {
            NetError::spawn(std::io::Error::other("reactor loop gone during add_echo"))
        })?;
        Ok(AsyncListener { name: "echo".to_string(), addr, id })
    }

    /// Pre-opens idle pooled connections to `addr`, a listener of this
    /// reactor, until `depth` are idle. Later exchanges keep the pool
    /// filled with the connections they return.
    pub fn warm(&self, addr: SocketAddr, depth: usize) {
        let (ack, rx) = channel();
        self.send(Cmd::Warm { addr, depth, ack });
        let _ = rx.recv();
    }

    /// Runs `jobs` to completion concurrently and returns their outputs
    /// in submission order. Blocks the calling thread; the loop itself
    /// never blocks on any single job.
    pub fn run(&self, jobs: Vec<Job>) -> Vec<JobOutput> {
        let (done, rx) = channel();
        self.send(Cmd::Submit { jobs, done });
        rx.recv().unwrap_or_default()
    }

    /// Snapshot of the loop-side counters.
    pub fn stats(&self) -> ReactorStats {
        let (ack, rx) = channel();
        self.send(Cmd::Stats { ack });
        rx.recv().unwrap_or_default()
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.send(Cmd::Shutdown);
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ServerFault, Teardown};
    use crate::timeout::{io_timeout, stall_observe_timeout};
    use hdiff_servers::ParserProfile;
    use wheel::TICK;

    fn exchange(reactor: &Reactor, l: &AsyncListener, bytes: &[u8]) -> ExchangeOutput {
        exchange_with_timeout(reactor, l, bytes, io_timeout())
    }

    fn exchange_with_timeout(
        reactor: &Reactor,
        l: &AsyncListener,
        bytes: &[u8],
        read_timeout: Duration,
    ) -> ExchangeOutput {
        let outs = reactor.run(vec![Job::Exchange(ExchangeSpec {
            addr: l.addr,
            bytes: bytes.to_vec(),
            mode: SendMode::Whole,
            read_timeout,
            pair: Some(l.id),
        })]);
        match outs.into_iter().next() {
            Some(JobOutput::Exchange(e)) => e,
            other => panic!("expected exchange output, got {other:?}"),
        }
    }

    #[test]
    fn a_restarted_deadline_keeps_one_wheel_entry_and_fires_on_time() {
        let t0 = Instant::now();
        let ms = |n| t0 + Duration::from_millis(n);
        let mut timers = Timers { wheel: Wheel::new(t0), next_seq: 1 };
        let mut d = Deadline::default();
        // Restarts the deadline at `now`; returns the wheel's entries.
        let restart = |timers: &mut Timers, d: &mut Deadline, now, after_ms| {
            timers.restart(now, d, 7, Duration::from_millis(after_ms));
            timers.wheel.armed()
        };
        // How many deadlines expire when the loop's clock reads `now`.
        let fired = |timers: &mut Timers, d: &mut Deadline, now: Instant| {
            let mut due = Vec::new();
            timers.wheel.advance(now, |c, s| due.push((c, s)));
            due.into_iter().filter(|&(c, s)| timers.expired(now, d, c, s)).count()
        };
        for i in 0..1000 {
            assert_eq!(restart(&mut timers, &mut d, ms(i / 100), 100), 1, "one entry, moved");
        }
        // A shorter restart files an earlier entry and supersedes the other.
        assert_eq!(restart(&mut timers, &mut d, ms(10), 20), 2);
        assert_eq!(fired(&mut timers, &mut d, ms(29)), 0, "never early");
        assert_eq!(fired(&mut timers, &mut d, ms(30) + TICK * 2), 1, "at most a tick late");
        assert_eq!(fired(&mut timers, &mut d, ms(300)), 0, "the superseded entry is ignored");
        assert_eq!(timers.wheel.armed(), 0);
        // An entry that comes up before its moved deadline re-files.
        assert_eq!(restart(&mut timers, &mut d, ms(400), 100), 1);
        assert_eq!(restart(&mut timers, &mut d, ms(460), 100), 1);
        assert_eq!(fired(&mut timers, &mut d, ms(530)), 0);
        assert_eq!(timers.wheel.armed(), 1, "re-filed, not duplicated");
        assert_eq!(fired(&mut timers, &mut d, ms(559)), 0);
        assert_eq!(fired(&mut timers, &mut d, ms(560) + TICK * 2), 1);
        // A cancelled deadline never fires.
        restart(&mut timers, &mut d, ms(700), 10);
        d.at = None;
        assert_eq!(fired(&mut timers, &mut d, ms(800)), 0);
        assert_eq!(timers.wheel.armed(), 0);
    }

    #[test]
    fn drive_completes_a_pipelined_run() {
        let reactor = Reactor::spawn().unwrap();
        let config = NetServerConfig { max_messages: 1 << 20, ..NetServerConfig::default() };
        let l = reactor.add_origin(ParserProfile::strict("wire"), config, false).unwrap();
        let outs = reactor.run(vec![Job::Drive(DriveSpec {
            addr: l.addr,
            payload: b"GET / HTTP/1.1\r\nHost: h\r\n\r\n".to_vec(),
            requests: 100,
            pipeline: 8,
            read_timeout: io_timeout(),
        })]);
        let d = outs[0].as_drive().expect("drive output");
        assert_eq!(d.completed, 100, "{d:?}");
        assert_eq!(d.errors, 0, "{d:?}");
        assert!(!d.timed_out);
        assert!(d.elapsed_ns > 0);
    }

    #[test]
    fn close_no_reply_fault_delivers_an_abort_log() {
        let reactor = Reactor::spawn().unwrap();
        let config = NetServerConfig {
            fault: Some(ServerFault::CloseNoReply),
            ..NetServerConfig::default()
        };
        let l = reactor.add_origin(ParserProfile::strict("wire"), config, true).unwrap();
        let ex = exchange(&reactor, &l, b"GET / HTTP/1.1\r\nHost: h\r\n\r\n");
        assert!(ex.response.is_empty(), "{ex:?}");
        assert!(!ex.timed_out);
        let log = ex.server_log.expect("paired log");
        assert_eq!(log.teardown, Teardown::Abort);
        assert!(log.replies.is_empty());
    }

    #[test]
    fn stall_fault_never_replies_and_delivers_a_stalled_log() {
        let reactor = Reactor::spawn().unwrap();
        let config =
            NetServerConfig { fault: Some(ServerFault::Stall), ..NetServerConfig::default() };
        let l = reactor.add_origin(ParserProfile::strict("wire"), config, true).unwrap();
        // The loop ends the exchange once the holding server has read
        // it; a held connection then closes for real — as on the
        // blocking stack, the client sees EOF with nothing received and
        // the Stalled log is already delivered.
        let ex = exchange_with_timeout(
            &reactor,
            &l,
            b"GET / HTTP/1.1\r\nHost: h\r\n\r\n",
            stall_observe_timeout(),
        );
        assert!(ex.response.is_empty(), "{ex:?}");
        let log = ex.server_log.expect("stall log is pushed before the stall begins");
        assert_eq!(log.teardown, Teardown::Stalled);
    }

    #[test]
    fn deadline_wheel_times_out_a_drive_with_no_response() {
        let reactor = Reactor::spawn().unwrap();
        let config =
            NetServerConfig { fault: Some(ServerFault::Stall), ..NetServerConfig::default() };
        let l = reactor.add_origin(ParserProfile::strict("wire"), config, true).unwrap();
        // A drive keeps the connection open (no FIN), so a never-replying
        // server leaves only the deadline wheel to end the job.
        let outs = reactor.run(vec![Job::Drive(DriveSpec {
            addr: l.addr,
            payload: b"GET / HTTP/1.1\r\nHost: h\r\n\r\n".to_vec(),
            requests: 4,
            pipeline: 1,
            read_timeout: stall_observe_timeout(),
        })]);
        let d = outs[0].as_drive().expect("drive output");
        assert!(d.timed_out, "{d:?}");
        assert_eq!(d.completed, 0, "{d:?}");
        assert!(reactor.stats().deadline_fires >= 1);
    }

    #[test]
    fn batch_outputs_keep_submission_order() {
        let reactor = Reactor::spawn().unwrap();
        let strict = reactor
            .add_origin(ParserProfile::strict("wire"), NetServerConfig::default(), true)
            .unwrap();
        let jobs: Vec<Job> = (0..16)
            .map(|i| {
                Job::Exchange(ExchangeSpec {
                    addr: strict.addr,
                    bytes: format!("GET /{i} HTTP/1.1\r\nHost: h\r\n\r\n").into_bytes(),
                    mode: SendMode::Whole,
                    read_timeout: io_timeout(),
                    pair: Some(strict.id),
                })
            })
            .collect();
        let outs = reactor.run(jobs);
        assert_eq!(outs.len(), 16);
        for (i, out) in outs.iter().enumerate() {
            let ex = out.as_exchange().expect("exchange");
            let log = ex.server_log.as_ref().expect("own log");
            assert_eq!(log.replies.len(), 1, "job {i}: {ex:?}");
            let text = String::from_utf8_lossy(&ex.response);
            assert!(text.starts_with("HTTP/1.1 200"), "job {i}: {text}");
        }
    }

    #[test]
    fn segmented_and_truncated_modes_match_the_blocking_client() {
        let reactor = Reactor::spawn().unwrap();
        let l = reactor
            .add_origin(ParserProfile::strict("wire"), NetServerConfig::default(), true)
            .unwrap();
        let bytes = b"GET /seg HTTP/1.1\r\nHost: h\r\n\r\n".to_vec();
        let outs = reactor.run(vec![
            Job::Exchange(ExchangeSpec {
                addr: l.addr,
                bytes: bytes.clone(),
                mode: SendMode::Segmented(vec![4, 9]),
                read_timeout: io_timeout(),
                pair: Some(l.id),
            }),
            Job::Exchange(ExchangeSpec {
                addr: l.addr,
                bytes: bytes.clone(),
                mode: SendMode::TruncateAt(10),
                read_timeout: io_timeout(),
                pair: Some(l.id),
            }),
        ]);
        let seg = outs[0].as_exchange().unwrap();
        assert!(String::from_utf8_lossy(&seg.response).starts_with("HTTP/1.1 200"), "{seg:?}");
        let trunc = outs[1].as_exchange().unwrap();
        let log = trunc.server_log.as_ref().expect("log");
        assert_eq!(log.replies.len(), 1, "truncated prefix finalizes at EOF: {log:?}");
    }

    /// Server and client timeouts long enough that no pooled connection
    /// idles out while a test runs, so connection counts are exact.
    const PATIENT: Duration = Duration::from_secs(10);

    fn patient_origin(reactor: &Reactor, profile: ParserProfile) -> AsyncListener {
        let config = NetServerConfig { read_timeout: PATIENT, ..NetServerConfig::default() };
        reactor.add_origin(profile, config, true).unwrap()
    }

    fn job(l: &AsyncListener, bytes: &[u8], mode: SendMode) -> Job {
        let (addr, bytes, pair) = (l.addr, bytes.to_vec(), Some(l.id));
        Job::Exchange(ExchangeSpec { addr, bytes, mode, read_timeout: PATIENT, pair })
    }

    fn run_one(reactor: &Reactor, job: Job) -> ExchangeOutput {
        let out = reactor.run(vec![job]).pop().expect("one output");
        out.as_exchange().expect("exchange output").clone()
    }

    /// Streams whose logs a reused connection must keep equal to
    /// `Server::handle_stream`: each is only final at the exchange's end.
    fn reuse_inputs() -> Vec<(Vec<u8>, SendMode)> {
        let whole = |b: &[u8]| (b.to_vec(), SendMode::Whole);
        vec![
            whole(b"GET /unterminated HTTP/1.1\r\nHost: h\r\n"),
            whole(b"POST / HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nab"),
            whole(b"GET /a HTTP/1.1\r\nHost: h\r\n\r\nGET /b HTTP/1.1\r\nHost: h\r\n\r\n"),
            (b"GET /truncated HTTP/1.1\r\nHost: h\r\n\r\n".to_vec(), SendMode::TruncateAt(20)),
        ]
    }

    fn assert_origin_log(server: &Server, bytes: &[u8], mode: &SendMode, ex: &ExchangeOutput) {
        let sent = mode_bytes(bytes, mode);
        let log = ex.server_log.as_ref().expect("paired log");
        assert_eq!(
            log.replies,
            server.handle_stream(&sent),
            "{:?}",
            String::from_utf8_lossy(&sent)
        );
        assert_eq!(log.bytes_in, sent.len(), "bytes_in counts the exchange");
        assert_eq!(ex.response.len(), log.bytes_out, "the whole reply arrived");
        assert!(ex.error.is_none() && !ex.timed_out, "{ex:?}");
    }

    #[test]
    fn sequential_and_concurrent_exchanges_reuse_pooled_connections() {
        let reactor = Reactor::spawn().unwrap();
        let profile = ParserProfile::strict("wire");
        let server = Server::new(profile.clone());
        let l = patient_origin(&reactor, profile);
        reactor.warm(l.addr, 2);
        let inputs = reuse_inputs();
        let mut reused = Vec::new();
        for i in 0..50 {
            let (bytes, mode) = &inputs[i % inputs.len()];
            let ex = run_one(&reactor, job(&l, bytes, mode.clone()));
            assert_origin_log(&server, bytes, mode, &ex);
            reused.push(ex.reused);
        }
        let batch: Vec<_> = (0..6).map(|i| &inputs[i % inputs.len()]).collect();
        let outs = reactor.run(batch.iter().map(|(b, m)| job(&l, b, m.clone())).collect());
        for ((bytes, mode), out) in batch.iter().zip(&outs) {
            assert_origin_log(&server, bytes, mode, out.as_exchange().unwrap());
        }
        let stats = reactor.stats();
        // Both ends count: the warm fill's two connections carried the
        // sequential run, and the batch of six connected four more.
        assert_eq!(stats.conns_opened, 2 * 6, "{stats:?}");
        assert_eq!(stats.conns_closed, 0, "{stats:?}");
        assert_eq!((stats.pool_hits, stats.pool_misses), (50, 6), "{stats:?}");
        let first_uses = reused.iter().position(|&r| r);
        assert_eq!(first_uses, Some(2), "the warm pair alternates: {reused:?}");
        assert!(reused[2..].iter().all(|&r| r), "{reused:?}");
    }

    #[test]
    fn an_early_closing_reject_is_not_reused() {
        let reactor = Reactor::spawn().unwrap();
        let profile = ParserProfile::strict("wire");
        let server = Server::new(profile.clone());
        let l = patient_origin(&reactor, profile);
        let ok: &[u8] = b"GET / HTTP/1.1\r\nHost: h\r\n\r\n";
        // The reject decides on the first read, well before the
        // exchange's bytes are all read, so the server closes for real.
        let mut reject = b"BAD\r\n\r\n".to_vec();
        reject.resize(4 * CHUNK, b'x');

        let first = run_one(&reactor, job(&l, ok, SendMode::Whole));
        let rejected = run_one(&reactor, job(&l, &reject, SendMode::Whole));
        let after = run_one(&reactor, job(&l, ok, SendMode::Whole));
        let stats = reactor.stats();
        // The first connection carried two exchanges; only the one
        // after the reject's close had to connect.
        assert_eq!(stats.conns_opened, 2 * 2, "{stats:?}");
        assert_eq!(stats.pool_evictions, 0, "{stats:?}");
        assert_origin_log(&server, ok, &SendMode::Whole, &first);
        assert!(rejected.reused, "{rejected:?}");
        let log = rejected.server_log.as_ref().expect("log before the close");
        assert_eq!(log.replies, server.handle_stream(&reject));
        assert_eq!(rejected.response, log.replies[0].response.to_bytes());
        assert_origin_log(&server, ok, &SendMode::Whole, &after);
        assert!(!after.reused && !after.retried, "the closed connection left the pool: {after:?}");
    }

    #[test]
    fn proxy_relays_reuse_echo_connections() {
        use crate::proxy::NetProxyConfig;
        let reactor = Reactor::spawn().unwrap();
        let echo = reactor.add_echo(PATIENT).unwrap();
        let mut profile = ParserProfile::strict("strictproxy");
        profile.proxy = Some(hdiff_servers::profile::ProxyBehavior::strict());
        let proxy = Proxy::new(profile.clone());
        let config = NetProxyConfig { read_timeout: PATIENT, ..NetProxyConfig::new(echo.addr) };
        let l = reactor.add_proxy(profile, config).unwrap();
        let single: &[u8] = b"GET /a HTTP/1.1\r\nHost: h\r\n\r\n";
        let pipelined: &[u8] =
            b"GET /a HTTP/1.1\r\nHost: h\r\n\r\nGET /b HTTP/1.1\r\nHost: h\r\n\r\n";
        for i in 0..20 {
            let bytes = if i % 2 == 0 { single } else { pipelined };
            let ex = run_one(&reactor, job(&l, bytes, SendMode::Whole));
            let log = ex.proxy_log.as_ref().expect("paired proxy log");
            assert_eq!(log.results, proxy.forward_stream(bytes), "exchange {i}");
            let echoed = String::from_utf8_lossy(&ex.response);
            assert_eq!(echoed.matches("HTTP/1.1 200").count(), log.results.len(), "{echoed}");
        }
        let stats = reactor.stats();
        // One proxy connection and one echo connection, both ends each,
        // carried all twenty exchanges and their thirty relays.
        assert_eq!(stats.conns_opened, 2 * 2, "{stats:?}");
        assert_eq!((stats.pool_hits, stats.pool_misses), (19 + 29, 2), "{stats:?}");
    }

    #[test]
    fn pool_telemetry_reconciles_with_the_loops_connects() {
        let reactor = Reactor::spawn().unwrap();
        let l = patient_origin(&reactor, ParserProfile::strict("wire"));
        reactor.warm(l.addr, 2);
        let req: &[u8] = b"GET / HTTP/1.1\r\nHost: h\r\n\r\n";
        let ((), tel) = hdiff_obs::with_case(1, || {
            for _ in 0..10 {
                run_one(&reactor, job(&l, req, SendMode::Whole)).observe();
            }
            let batch = (0..6).map(|_| job(&l, req, SendMode::Whole)).collect();
            for out in reactor.run(batch) {
                out.as_exchange().unwrap().observe();
            }
        });
        let counter = |name: &str| tel.counters.get(name).copied().unwrap_or(0);
        let (hits, misses, evicts) =
            (counter("net.pool.hit"), counter("net.pool.miss"), counter("net.pool.evict"));
        let client_connects = reactor.stats().conns_opened / 2;
        assert_eq!(hits + misses, 16 + evicts, "{:?}", tel.counters);
        assert_eq!(misses, client_connects, "every miss is a connect: {:?}", tel.counters);
        assert_eq!(counter("net.conn.open"), client_connects, "{:?}", tel.counters);
        assert_eq!((hits, misses, evicts), (10, 6, 0), "{:?}", tel.counters);
    }

    #[test]
    fn an_address_the_loop_does_not_host_is_a_typed_error() {
        let reactor = Reactor::spawn().unwrap();
        let stranger = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = stranger.local_addr().unwrap();
        let bytes = b"GET / HTTP/1.1\r\nHost: h\r\n\r\n".to_vec();
        let spec =
            ExchangeSpec { addr, bytes, mode: SendMode::Whole, read_timeout: PATIENT, pair: None };
        let ex = run_one(&reactor, Job::Exchange(spec));
        assert_eq!(ex.error.map(|e| e.kind), Some(crate::NetErrorKind::NotHosted));
        assert_eq!(reactor.stats().conns_opened, 0);
    }
}
