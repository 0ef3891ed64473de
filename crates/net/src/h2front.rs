//! HTTP/2 downgrade front ends served over real sockets.
//!
//! An [`H2FrontServer`] is one [`hdiff_servers::DowngradeProfile`]
//! behind a loopback listener speaking cleartext h2 (prior knowledge):
//! it reads a whole client connection to EOF, parses it with
//! [`hdiff_h2::parse_client_connection`], translates every request
//! through the profile, and answers each stream with an h2 response
//! that *echoes the reconstructed HTTP/1.1 bytes* (or the front's
//! rejection) — so both the wire peer and the connection log observe
//! exactly what the front would have forwarded upstream.
//!
//! Synchronization follows the crate convention: the handler pushes its
//! [`H2FrontLog`] before closing the stream, so a client that read to
//! EOF is guaranteed to find the complete log — no sleeps, no polling.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

use hdiff_h2::{encode_server_connection, parse_client_connection, H2Request, H2Response};
use hdiff_servers::{DowngradeOutcome, DowngradeProfile};

use crate::blocking::{Listener, Records};
use crate::error::NetError;

/// One client connection's worth of downgrade work, as the front saw it.
#[derive(Debug, Clone)]
pub struct H2FrontLog {
    /// Connection-level h2 parse failure, when the client bytes never
    /// yielded requests.
    pub parse_error: Option<String>,
    /// The h2 requests the connection carried, in stream order.
    pub requests: Vec<H2Request>,
    /// Per-request translation outcomes.
    pub outcomes: Vec<DowngradeOutcome>,
    /// The concatenated h1 bytes this front forwarded upstream.
    pub h1: Vec<u8>,
}

/// A downgrade front end on an ephemeral loopback port.
#[derive(Debug)]
pub struct H2FrontServer {
    listener: Listener,
    logs: Records<H2FrontLog>,
}

impl H2FrontServer {
    /// Binds `127.0.0.1:0` and serves `front` until shutdown.
    pub fn spawn(
        front: DowngradeProfile,
        read_timeout: Duration,
    ) -> Result<H2FrontServer, NetError> {
        let logs = Records::new();
        let listener = Listener::spawn(format!("h2-front-{}", front.name), {
            let logs = logs.clone();
            move |mut stream| {
                let _ = stream.set_read_timeout(Some(read_timeout));
                handle_connection(&front, &logs, &mut stream);
            }
        })?;
        Ok(H2FrontServer { listener, logs })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.listener.addr()
    }

    /// Drains the connection logs, in arrival order.
    pub fn take_logs(&self) -> Vec<H2FrontLog> {
        self.logs.take()
    }

    /// Stops the accept loop and joins the listener thread.
    pub fn shutdown(&mut self) {
        self.listener.shutdown();
    }
}

/// Reads one client connection to EOF, downgrades it, logs, responds.
fn handle_connection(front: &DowngradeProfile, logs: &Records<H2FrontLog>, stream: &mut TcpStream) {
    let mut bytes = Vec::new();
    let _ = stream.read_to_end(&mut bytes);
    hdiff_obs::count("h2.front.connections", 1);

    let (requests, stream_ids, parse_error) = match parse_client_connection(&bytes) {
        Ok(conn) => {
            let ids: Vec<u32> = conn.requests.iter().map(|p| p.stream_id).collect();
            let reqs: Vec<H2Request> = conn.requests.into_iter().map(|p| p.request).collect();
            (reqs, ids, None)
        }
        Err(e) => (Vec::new(), Vec::new(), Some(e.to_string())),
    };

    let outcomes: Vec<DowngradeOutcome> = requests.iter().map(|r| front.downgrade(r)).collect();
    let h1: Vec<u8> = outcomes.iter().filter_map(|o| o.h1.as_deref()).flatten().copied().collect();

    // Each stream's response echoes the translation result: 200 with the
    // reconstructed h1 bytes when forwarded, the front's reject status
    // (reason as body) otherwise.
    let responses: Vec<(u32, H2Response)> = stream_ids
        .iter()
        .zip(&outcomes)
        .map(|(&id, o)| {
            let resp = match (&o.h1, &o.reject) {
                (Some(h1), _) => H2Response::new(200, h1.clone()),
                (None, Some((status, reason))) => {
                    H2Response::new(*status, reason.clone().into_bytes())
                }
                (None, None) => H2Response::new(500, Vec::new()),
            };
            (id, resp)
        })
        .collect();

    // Log before the peer can observe EOF (see module docs).
    logs.push(H2FrontLog { parse_error, requests, outcomes, h1 });
    let _ = stream.write_all(&encode_server_connection(&responses));
    let _ = stream.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdiff_h2::{encode_client_connection, parse_server_connection, EncodeOptions};

    fn exchange(server: &H2FrontServer, bytes: &[u8]) -> Vec<u8> {
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(bytes).unwrap();
        s.shutdown(Shutdown::Write).unwrap();
        let mut raw = Vec::new();
        s.read_to_end(&mut raw).unwrap();
        raw
    }

    #[test]
    fn front_downgrades_over_the_wire_and_logs_the_h1_bytes() {
        let front = DowngradeProfile::edge();
        let server = H2FrontServer::spawn(front.clone(), Duration::from_secs(2)).unwrap();
        let req = H2Request::get("/index.html", "example.com");
        let bytes = encode_client_connection(std::slice::from_ref(&req), &EncodeOptions::default());
        let raw = exchange(&server, &bytes);

        let responses = parse_server_connection(&raw).unwrap();
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].1.status, 200);
        let expected = front.downgrade(&req).h1.unwrap();
        assert_eq!(responses[0].1.body, expected, "response echoes the forwarded h1");

        let logs = server.take_logs();
        assert_eq!(logs.len(), 1);
        assert!(logs[0].parse_error.is_none());
        assert_eq!(logs[0].h1, expected);
        assert!(server.take_logs().is_empty(), "logs drain");
    }

    #[test]
    fn front_rejection_travels_back_as_a_status() {
        let server =
            H2FrontServer::spawn(DowngradeProfile::edge(), Duration::from_secs(2)).unwrap();
        let req = H2Request::post("/x", "example.com", b"b".to_vec())
            .with_header("transfer-encoding", "chunked");
        let bytes = encode_client_connection(std::slice::from_ref(&req), &EncodeOptions::default());
        let responses = parse_server_connection(&exchange(&server, &bytes)).unwrap();
        assert_eq!(responses[0].1.status, 400);
        let logs = server.take_logs();
        assert!(logs[0].h1.is_empty());
        assert!(logs[0].outcomes[0].reject.is_some());
    }

    #[test]
    fn garbage_bytes_are_logged_as_a_parse_error() {
        let server =
            H2FrontServer::spawn(DowngradeProfile::relay(), Duration::from_secs(2)).unwrap();
        let _ = exchange(&server, b"GET / HTTP/1.1\r\nHost: h\r\n\r\n");
        let logs = server.take_logs();
        assert_eq!(logs.len(), 1);
        assert!(logs[0].parse_error.as_deref().unwrap().contains("preface"));
        assert!(logs[0].requests.is_empty());
    }
}
