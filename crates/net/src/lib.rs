//! Loopback TCP transport for the HDiff testbed.
//!
//! The paper's harness sends every test case over a real network; the
//! rest of this reproduction calls the simulated products as in-process
//! functions. This crate closes that gap: it serves every
//! [`hdiff_servers`] behavioral profile over real sockets, so an entire
//! class of behaviors — pipelining desync, connection-boundary smuggling,
//! partial-read handling — can be observed as *byte streams* instead of
//! function calls.
//!
//! * `conn` — the sans-IO connection state machines, one per role
//!   (`Origin`, `Proxy`, `Echo`): bytes, EOF,
//!   I/O errors, deadlines and relay results in; reply bytes, relay
//!   requests, hold/close decisions and connection logs out. Both
//!   drivers below run them, so the transports agree by construction.
//! * [`server`], [`proxy`], [`echo`] — the blocking driver's listeners:
//!   [`server::NetServer`] (an origin profile with keep-alive, pipelined
//!   request accounting, read/write timeouts and per-connection teardown
//!   records), [`proxy::NetProxy`] (a forwarding hop relaying each
//!   forwarded message over a fresh upstream connection) and
//!   [`echo::NetEcho`] (the recording echo origin of Fig. 6). One accept
//!   thread per listener; one blocking loop feeds each connection's
//!   machine.
//! * [`reactor`] — the epoll driver: one event loop per
//!   [`testbed::AsyncTestbed`] hosting every listener, its connections
//!   and the client side of every exchange.
//! * [`h2front`] — [`h2front::H2FrontServer`]: an HTTP/2 (h2c, prior
//!   knowledge) downgrade front end: parses whole client connections,
//!   translates them through a [`hdiff_servers::DowngradeProfile`], and
//!   logs the exact HTTP/1.1 bytes it would forward upstream.
//! * [`client`] — [`client::WireClient`]: the campaign's client driver:
//!   whole/segmented/truncated sends, framed keep-alive requests with
//!   connection reuse, and pipelined batches with per-request response
//!   attribution.
//! * [`desync`] — splitting a response stream back into per-request
//!   responses and comparing two implementations' attributions; a
//!   disagreement is the wire-level desync signal.
//!
//! # Synchronization model
//!
//! The campaign drivers write the entire request stream, then
//! `shutdown(Write)` (FIN), then read to EOF. Both drivers hand over a
//! machine's connection log *before* closing the stream, so a client that
//! observed EOF is guaranteed to observe the complete log — no sleeps, no
//! polling. Incremental parsing only finalizes a message early when the
//! parse cannot change with more bytes (see
//! `conn::incomplete_reason`), which keeps the wire outcome equal to
//! the in-process [`hdiff_servers::Server::handle_stream`] outcome for
//! identical byte streams.

mod blocking;
pub mod client;
mod conn;
pub mod desync;
pub mod echo;
pub mod error;
pub mod h2front;
pub mod pool;
pub mod proxy;
pub mod reactor;
pub mod server;
pub mod testbed;
pub mod timeout;

pub use client::{Exchange, NetClientConfig, PipelinedExchange, SendMode, WireClient};
pub use desync::{attribute_responses, compare_attribution, DesyncSignal, ResponseAttribution};
pub use echo::NetEcho;
pub use error::{NetError, NetErrorKind};
pub use h2front::{H2FrontLog, H2FrontServer};
pub use pool::{ConnPool, PoolStats};
pub use proxy::{NetProxy, NetProxyConfig, ProxyConnLog};
pub use reactor::{
    AsyncListener, DriveOutput, DriveSpec, ExchangeOutput, ExchangeSpec, Job, JobOutput,
    ListenerId, Reactor, ReactorStats,
};
pub use server::{ConnectionLog, NetServer, NetServerConfig, ServerFault, Teardown};
pub use testbed::{AsyncTestbed, TestbedLease, TestbedPool};
pub use timeout::{io_timeout, stall_observe_timeout, DEFAULT_IO_TIMEOUT, IO_TIMEOUT_ENV};
