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
//! * [`server`] — [`server::NetServer`]: an ephemeral-port origin server
//!   running the `servers::engine` over a buffered connection loop with
//!   keep-alive, pipelined request accounting, read/write timeouts, and
//!   per-connection teardown records (graceful FIN vs. abort).
//! * [`echo`] — [`echo::NetEcho`]: the recording echo origin of Fig. 6,
//!   as a socket: one upstream connection per forwarded message, read to
//!   EOF, echoed back.
//! * [`proxy`] — [`proxy::NetProxy`]: a forwarding proxy hop that parses
//!   the client stream with a [`hdiff_servers::Proxy`] and relays each
//!   forwarded message over a fresh upstream connection.
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
//! `shutdown(Write)` (FIN), then read to EOF. Every server handler pushes
//! its connection log *before* closing the stream, so a client that
//! observed EOF is guaranteed to observe the complete log — no sleeps, no
//! polling. Incremental parsing only finalizes a message early when the
//! parse cannot change with more bytes (see
//! [`server::incomplete_reason`]), which keeps the wire outcome equal to
//! the in-process [`hdiff_servers::Server::handle_stream`] outcome for
//! identical byte streams.

pub mod client;
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
