//! A forwarding proxy hop over real sockets.
//!
//! [`NetProxy`] accepts downstream (client) connections, parses the byte
//! stream with the product's [`hdiff_servers::Proxy`] wrapper, and relays
//! each forwarded message over a *fresh* upstream connection — so the
//! upstream (normally a [`crate::NetEcho`]) learns exact message
//! boundaries from connection boundaries, without parsing. Upstream
//! responses are relayed back downstream verbatim.
//!
//! Each downstream connection is a `conn::Proxy` machine run by the
//! blocking driver — the machine the reactor drives too. Forward-stage
//! fault effects are passed in as a pre-decided [`FaultDecision`] (the
//! campaign thread owns the fault session); the machine applies the
//! byte-level effects — prefix cut, garbled octet, stalled (empty)
//! forward — with the same `FaultDecision` methods the in-process path
//! uses, so both transports forward identical damage.

use std::net::SocketAddr;
use std::time::Duration;

use hdiff_servers::fault::FaultDecision;
use hdiff_servers::{ParserProfile, Proxy, ProxyResult};

use crate::blocking::{serve, Listener, Records};
use crate::error::NetError;
use crate::server::{Teardown, MAX_MESSAGES};
use crate::timeout::io_timeout;

/// Configuration for one proxy listener.
#[derive(Debug, Clone)]
pub struct NetProxyConfig {
    /// Upstream address each forwarded message is relayed to.
    pub upstream: SocketAddr,
    /// Per-read timeout on both the downstream and upstream side.
    pub read_timeout: Duration,
    /// Per-write timeout.
    pub write_timeout: Duration,
    /// Pre-decided forward-stage fault for this hop, if any.
    pub fault: Option<FaultDecision>,
    /// Pipelined-message cap per connection.
    pub max_messages: usize,
}

impl NetProxyConfig {
    /// A default configuration forwarding to `upstream`, using the
    /// shared testbed timeout ([`crate::timeout::io_timeout`]).
    pub fn new(upstream: SocketAddr) -> NetProxyConfig {
        NetProxyConfig {
            upstream,
            read_timeout: io_timeout(),
            write_timeout: io_timeout(),
            fault: None,
            max_messages: MAX_MESSAGES,
        }
    }
}

/// Per-connection accounting for a proxy hop.
#[derive(Debug, Clone)]
pub struct ProxyConnLog {
    /// Per-message results (interpretation + action, with post-fault
    /// forwarded bytes) — the same records the in-process
    /// `forward_stream_faulted` produces.
    pub results: Vec<ProxyResult>,
    /// How the downstream connection ended.
    pub teardown: Teardown,
}

/// A proxy profile listening on an ephemeral loopback port.
#[derive(Debug)]
pub struct NetProxy {
    listener: Listener,
    logs: Records<ProxyConnLog>,
    /// The product name served.
    pub name: String,
}

impl NetProxy {
    /// Binds `127.0.0.1:0` and starts proxying. Bind/spawn failures are
    /// typed [`NetError`]s; transient accept failures are counted and
    /// tolerated a few times in a row.
    ///
    /// # Panics
    ///
    /// Panics if `profile` has no proxy behavior configured (same
    /// contract as [`Proxy::new`]).
    pub fn spawn(profile: ParserProfile, config: NetProxyConfig) -> Result<NetProxy, NetError> {
        let name = profile.name.clone();
        let logs = Records::new();
        let proxy = Proxy::new(profile);
        let listener = Listener::spawn(format!("net-proxy-{name}"), {
            let logs = logs.clone();
            move |stream| {
                let machine = crate::conn::Proxy::new(&config);
                let (read, write) = (config.read_timeout, config.write_timeout);
                let upstream = Some(config.upstream);
                serve(machine, &proxy, stream, read, write, upstream, |log| logs.push(log));
            }
        })?;
        Ok(NetProxy { listener, logs, name })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.listener.addr()
    }

    /// Drains the accumulated connection logs.
    pub fn take_logs(&self) -> Vec<ProxyConnLog> {
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
    use crate::conn::{drive, Echo, Input};
    use crate::echo::NetEcho;
    use hdiff_servers::fault::FaultKind;
    use hdiff_servers::profile::ProxyBehavior;
    use std::io::{Read, Write};
    use std::net::{Shutdown, TcpStream};

    fn strict_proxy_profile() -> ParserProfile {
        let mut p = ParserProfile::strict("strictproxy");
        p.proxy = Some(ProxyBehavior::strict());
        p
    }

    fn exchange(addr: SocketAddr, bytes: &[u8]) -> Vec<u8> {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        s.write_all(bytes).unwrap();
        s.shutdown(Shutdown::Write).unwrap();
        let mut out = Vec::new();
        let _ = s.read_to_end(&mut out);
        out
    }

    /// The same connection without sockets: the proxy machine relays
    /// each forwarded message to an echo machine. Returns the downstream
    /// bytes, the log, and the messages the echo received.
    fn machine_run(config: &NetProxyConfig, bytes: &[u8]) -> (Vec<u8>, ProxyConnLog, Vec<Vec<u8>>) {
        let proxy = Proxy::new(strict_proxy_profile());
        let mut relayed = Vec::new();
        let inputs = vec![Input::Read(bytes), Input::Eof];
        let (wire, log) = drive(crate::conn::Proxy::new(config), &proxy, inputs, |message| {
            let (response, log) =
                drive(Echo::new(), &(), vec![Input::Read(message), Input::Eof], |_| Err(()));
            relayed.extend(log);
            Ok(response)
        });
        (wire, log.expect("closed connections log"), relayed)
    }

    #[test]
    fn forwards_through_the_echo_and_matches_the_in_process_proxy() {
        let echo = NetEcho::spawn(Duration::from_secs(1)).unwrap();
        let proxy =
            NetProxy::spawn(strict_proxy_profile(), NetProxyConfig::new(echo.addr())).unwrap();
        let bytes = b"GET /a HTTP/1.1\r\nHost: h\r\n\r\nGET /b HTTP/1.1\r\nHost: h\r\n\r\n";
        let raw = exchange(proxy.addr(), bytes);
        assert!(String::from_utf8_lossy(&raw).starts_with("HTTP/1.1 200"), "{raw:?}");

        let in_process = Proxy::new(strict_proxy_profile()).forward_stream(bytes);
        let logs = proxy.take_logs();
        assert_eq!(logs.len(), 1);
        assert_eq!(logs[0].results, in_process);
        assert_eq!(logs[0].teardown, Teardown::Fin);

        // The echo received each forwarded message on its own connection.
        let records = echo.take_records();
        let expected: Vec<Vec<u8>> =
            in_process.iter().filter_map(|r| r.action.forwarded().map(<[u8]>::to_vec)).collect();
        assert_eq!(records, expected);

        let (wire, log, relayed) = machine_run(&NetProxyConfig::new(echo.addr()), bytes);
        assert_eq!((log.results, log.teardown), (in_process, Teardown::Fin));
        assert_eq!(relayed, expected);
        assert_eq!(wire, raw, "socket and machine runs answer byte-identically");
    }

    #[test]
    fn rejection_answers_downstream_without_touching_upstream() {
        let echo = NetEcho::spawn(Duration::from_secs(1)).unwrap();
        let proxy =
            NetProxy::spawn(strict_proxy_profile(), NetProxyConfig::new(echo.addr())).unwrap();
        let bytes = b"GET / HTTP/1.1\r\nHost : bad\r\n\r\n";
        let raw = exchange(proxy.addr(), bytes);
        assert!(String::from_utf8_lossy(&raw).starts_with("HTTP/1.1 400"), "{raw:?}");
        assert!(echo.take_records().is_empty());

        let (wire, log, relayed) = machine_run(&NetProxyConfig::new(echo.addr()), bytes);
        assert_eq!(log.results, Proxy::new(strict_proxy_profile()).forward_stream(bytes));
        assert!(relayed.is_empty());
        assert_eq!(wire, raw);
    }

    #[test]
    fn conn_reset_fault_forwards_a_prefix_and_aborts() {
        let echo = NetEcho::spawn(Duration::from_secs(1)).unwrap();
        let decision = FaultDecision { kind: FaultKind::ConnReset, salt: 99 };
        let config = NetProxyConfig { fault: Some(decision), ..NetProxyConfig::new(echo.addr()) };
        let proxy = NetProxy::spawn(strict_proxy_profile(), config.clone()).unwrap();
        let bytes = b"GET /a HTTP/1.1\r\nHost: h\r\n\r\nGET /b HTTP/1.1\r\nHost: h\r\n\r\n";
        exchange(proxy.addr(), bytes);
        let logs = proxy.take_logs();
        assert_eq!(logs[0].results.len(), 1, "drop-rest stops the stream");
        assert_eq!(logs[0].teardown, Teardown::Abort);
        let forwarded = logs[0].results[0].action.forwarded().unwrap();
        let clean = Proxy::new(strict_proxy_profile()).forward_stream(bytes);
        let clean_bytes = clean[0].action.forwarded().unwrap();
        assert_eq!(forwarded, &clean_bytes[..decision.reset_point(clean_bytes.len())]);
        assert_eq!(echo.take_records(), vec![forwarded.to_vec()]);

        let (_, log, relayed) = machine_run(&config, bytes);
        assert_eq!((&log.results, log.teardown), (&logs[0].results, Teardown::Abort));
        assert_eq!(relayed, vec![forwarded.to_vec()]);
    }
}
