//! The echo origin of Fig. 6.
//!
//! All proxies in the test workflow forward to this origin. It answers
//! each forwarded message with the message itself, so what a proxy
//! forwarded is exactly what its client reads back; the workflow replays
//! those bytes against the real back-end profiles (step 2).

use hdiff_wire::{Response, StatusCode};

/// The echo origin's response to one forwarded message.
pub fn respond(forwarded: &[u8]) -> Response {
    let mut r = Response::with_body(StatusCode::OK, forwarded);
    r.headers.push("Server", "hdiff-echo");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echoes_the_forwarded_message() {
        let r = respond(b"GET / HTTP/1.1\r\nHost: h\r\n\r\n");
        assert_eq!(r.status, StatusCode::OK);
        assert_eq!(r.body, b"GET / HTTP/1.1\r\nHost: h\r\n\r\n");
        assert_eq!(
            r.to_bytes(),
            b"HTTP/1.1 200 OK\r\nContent-Length: 27\r\nServer: hdiff-echo\r\n\r\nGET / HTTP/1.1\r\nHost: h\r\n\r\n"
        );
    }
}
