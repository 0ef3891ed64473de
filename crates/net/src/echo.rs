//! The recording echo origin of Fig. 6, served over a socket.
//!
//! Each forwarded message travels on its own upstream connection (the
//! proxy opens a fresh connection per message), so the echo learns exact
//! message boundaries without parsing: a `conn::Echo` machine reads one
//! connection to EOF and echoes the bytes back in a 200 response — the
//! same response as the in-process [`hdiff_servers::echo::respond`] — and
//! the listener records the message.

use std::net::SocketAddr;
use std::time::Duration;

use crate::blocking::{serve, Listener, Records};
use crate::conn::Echo;
use crate::error::NetError;

/// A recording echo listener on an ephemeral loopback port.
#[derive(Debug)]
pub struct NetEcho {
    listener: Listener,
    records: Records<Vec<u8>>,
}

impl NetEcho {
    /// Binds `127.0.0.1:0` and starts recording. Bind/spawn failures are
    /// typed [`NetError`]s; a transient accept failure is counted and
    /// tolerated.
    pub fn spawn(read_timeout: Duration) -> Result<NetEcho, NetError> {
        let records = Records::new();
        let listener = Listener::spawn("net-echo".to_string(), {
            let records = records.clone();
            move |stream| {
                let timeout = read_timeout;
                serve(Echo::new(), &(), stream, timeout, timeout, None, |m| records.push(m));
            }
        })?;
        Ok(NetEcho { listener, records })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.listener.addr()
    }

    /// Drains the recorded forwarded messages, in arrival order.
    pub fn take_records(&self) -> Vec<Vec<u8>> {
        self.records.take()
    }

    /// Stops the accept loop and joins the listener thread.
    pub fn shutdown(&mut self) {
        self.listener.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{Shutdown, TcpStream};

    #[test]
    fn records_and_echoes_over_the_wire() {
        let echo = NetEcho::spawn(Duration::from_secs(1)).unwrap();
        let msg = b"GET / HTTP/1.1\r\nHost: h\r\n\r\n";
        let mut s = TcpStream::connect(echo.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        s.write_all(msg).unwrap();
        s.shutdown(Shutdown::Write).unwrap();
        let mut raw = Vec::new();
        s.read_to_end(&mut raw).unwrap();
        let text = String::from_utf8_lossy(&raw);
        assert!(text.starts_with("HTTP/1.1 200"), "{text}");
        assert!(raw.ends_with(msg), "echoed body");
        assert_eq!(echo.take_records(), vec![msg.to_vec()]);
        assert!(echo.take_records().is_empty(), "records drain");
    }
}
