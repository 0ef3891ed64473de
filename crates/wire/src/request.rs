//! Byte-exact HTTP request representation and builder.

use std::fmt;

use crate::ascii;
use crate::header::{HeaderField, Headers};
use crate::method::Method;
use crate::version::Version;

/// A byte-exact HTTP/1.x request.
///
/// The request line is stored as three raw components plus an optional
/// whole-line override ([`Request::set_raw_request_line`]) for shapes that do
/// not split into three tokens at all (extra spaces, missing version,
/// HTTP/0.9 simple requests, proxy-"repaired" lines such as
/// `GET /?a=b 1.1/HTTP HTTP/1.0`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    method: Vec<u8>,
    target: Vec<u8>,
    version: Vec<u8>,
    raw_request_line: Option<Vec<u8>>,
    /// Header fields in wire order.
    pub headers: Headers,
    /// Raw body bytes exactly as they will be written after the blank line.
    pub body: Vec<u8>,
}

impl Request {
    /// Starts building a request. See [`RequestBuilder`].
    pub fn builder() -> RequestBuilder {
        RequestBuilder::default()
    }

    /// A minimal valid `GET / HTTP/1.1` request with the given `Host`.
    ///
    /// ```
    /// let r = hdiff_wire::Request::get("example.com");
    /// assert!(r.to_bytes().ends_with(b"Host: example.com\r\n\r\n"));
    /// ```
    pub fn get(host: &str) -> Request {
        Request::builder()
            .method(Method::Get)
            .target("/")
            .version(Version::Http11)
            .header("Host", host)
            .build()
    }

    /// The method bytes as sent on the wire.
    pub fn method_bytes(&self) -> &[u8] {
        &self.method
    }

    /// The parsed method (extension tokens preserved).
    pub fn method(&self) -> Method {
        Method::from_bytes(&self.method)
    }

    /// The request-target bytes as sent.
    pub fn target(&self) -> &[u8] {
        &self.target
    }

    /// The version bytes as sent.
    pub fn version_bytes(&self) -> &[u8] {
        &self.version
    }

    /// The parsed version (invalid tokens preserved).
    pub fn version(&self) -> Version {
        Version::from_bytes(&self.version)
    }

    /// Replaces the method token.
    pub fn set_method(&mut self, m: impl AsRef<[u8]>) {
        self.method = m.as_ref().to_vec();
        self.raw_request_line = None;
    }

    /// Replaces the request-target.
    pub fn set_target(&mut self, t: impl AsRef<[u8]>) {
        self.target = t.as_ref().to_vec();
        self.raw_request_line = None;
    }

    /// Replaces the version token.
    pub fn set_version(&mut self, v: impl AsRef<[u8]>) {
        self.version = v.as_ref().to_vec();
        self.raw_request_line = None;
    }

    /// Overrides the entire request line with raw bytes (no CRLF). Used for
    /// request lines that do not decompose into `method SP target SP version`.
    pub fn set_raw_request_line(&mut self, line: impl Into<Vec<u8>>) {
        self.raw_request_line = Some(line.into());
    }

    /// The request line bytes (no CRLF), honoring any raw override.
    pub fn request_line(&self) -> Vec<u8> {
        if let Some(raw) = &self.raw_request_line {
            return raw.clone();
        }
        let mut line =
            Vec::with_capacity(self.method.len() + self.target.len() + self.version.len() + 2);
        line.extend_from_slice(&self.method);
        line.push(b' ');
        line.extend_from_slice(&self.target);
        if !self.version.is_empty() {
            line.push(b' ');
            line.extend_from_slice(&self.version);
        }
        line
    }

    /// Whether the request line was overridden with raw bytes.
    pub fn has_raw_request_line(&self) -> bool {
        self.raw_request_line.is_some()
    }

    /// Serializes the full request: request line, headers, blank line, body.
    pub fn to_bytes(&self) -> Vec<u8> {
        let line = self.request_line();
        let mut out =
            Vec::with_capacity(line.len() + 2 + self.headers.wire_len() + 2 + self.body.len());
        out.extend_from_slice(&line);
        out.extend_from_slice(b"\r\n");
        self.headers.write_to(&mut out);
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }

    /// Convenience: first `Host` header value (trimmed), if present.
    pub fn host(&self) -> Option<&[u8]> {
        self.headers.first(b"Host").map(HeaderField::value)
    }

    /// Convenience: all `Content-Length` values in order.
    pub fn content_lengths(&self) -> Vec<&[u8]> {
        self.headers.all(b"Content-Length").map(HeaderField::value).collect()
    }

    /// Convenience: all `Transfer-Encoding` values in order.
    pub fn transfer_encodings(&self) -> Vec<&[u8]> {
        self.headers.all(b"Transfer-Encoding").map(HeaderField::value).collect()
    }
}

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&ascii::escape_bytes(&self.to_bytes()))
    }
}

/// Builder for [`Request`]. Non-consuming per the builder guideline; call
/// [`RequestBuilder::build`] to produce the request.
///
/// ```
/// use hdiff_wire::{Request, Method, Version};
/// let r = Request::builder()
///     .method(Method::Post)
///     .target("/submit")
///     .version(Version::Http11)
///     .header("Host", "example.com")
///     .header("Content-Length", "3")
///     .body(b"abc".to_vec())
///     .build();
/// assert_eq!(r.content_lengths(), vec![&b"3"[..]]);
/// ```
#[derive(Debug, Clone)]
pub struct RequestBuilder {
    req: Request,
}

impl Default for RequestBuilder {
    fn default() -> Self {
        RequestBuilder {
            req: Request {
                method: b"GET".to_vec(),
                target: b"/".to_vec(),
                version: b"HTTP/1.1".to_vec(),
                raw_request_line: None,
                headers: Headers::new(),
                body: Vec::new(),
            },
        }
    }
}

impl RequestBuilder {
    /// Sets the method from a [`Method`].
    pub fn method(&mut self, m: Method) -> &mut Self {
        self.req.method = m.as_bytes().to_vec();
        self
    }

    /// Sets the method from raw bytes (may be malformed).
    pub fn method_raw(&mut self, m: impl AsRef<[u8]>) -> &mut Self {
        self.req.method = m.as_ref().to_vec();
        self
    }

    /// Sets the request-target.
    pub fn target(&mut self, t: impl AsRef<[u8]>) -> &mut Self {
        self.req.target = t.as_ref().to_vec();
        self
    }

    /// Sets the version from a [`Version`].
    pub fn version(&mut self, v: Version) -> &mut Self {
        self.req.version = v.to_bytes();
        self
    }

    /// Sets the version from raw bytes (may be malformed).
    pub fn version_raw(&mut self, v: impl AsRef<[u8]>) -> &mut Self {
        self.req.version = v.as_ref().to_vec();
        self
    }

    /// Appends a well-formed header.
    pub fn header(&mut self, name: impl AsRef<[u8]>, value: impl AsRef<[u8]>) -> &mut Self {
        self.req.headers.push(name, value);
        self
    }

    /// Appends a raw header line verbatim (may be malformed).
    pub fn header_raw(&mut self, raw: impl Into<Vec<u8>>) -> &mut Self {
        self.req.headers.push_raw(raw);
        self
    }

    /// Sets the body bytes.
    pub fn body(&mut self, body: impl Into<Vec<u8>>) -> &mut Self {
        self.req.body = body.into();
        self
    }

    /// Overrides the whole request line with raw bytes.
    pub fn raw_request_line(&mut self, line: impl Into<Vec<u8>>) -> &mut Self {
        self.req.raw_request_line = Some(line.into());
        self
    }

    /// Produces the request (the builder can be reused).
    pub fn build(&self) -> Request {
        self.req.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializes_in_wire_order() {
        let r = Request::builder()
            .method(Method::Post)
            .target("/a")
            .version(Version::Http11)
            .header("Host", "h1.com")
            .header_raw(b"Content-Length : 5".to_vec())
            .body(b"hello".to_vec())
            .build();
        assert_eq!(
            r.to_bytes(),
            b"POST /a HTTP/1.1\r\nHost: h1.com\r\nContent-Length : 5\r\n\r\nhello"
        );
    }

    #[test]
    fn raw_request_line_override() {
        let mut r = Request::get("example.com");
        r.set_raw_request_line(b"GET /?a=b 1.1/HTTP HTTP/1.0".to_vec());
        assert!(r.to_bytes().starts_with(b"GET /?a=b 1.1/HTTP HTTP/1.0\r\n"));
        assert!(r.has_raw_request_line());
    }

    #[test]
    fn setting_components_clears_override() {
        let mut r = Request::get("example.com");
        r.set_raw_request_line(b"garbage".to_vec());
        r.set_target(b"/x");
        assert!(r.to_bytes().starts_with(b"GET /x HTTP/1.1\r\n"));
    }

    #[test]
    fn empty_version_omits_trailing_space() {
        // HTTP/0.9 simple request: "GET /path" with no version token.
        let r = Request::builder().target("/p").version_raw(b"").build();
        assert_eq!(r.request_line(), b"GET /p");
    }

    #[test]
    fn convenience_accessors() {
        let r = Request::builder()
            .header("Host", "a.com")
            .header("Content-Length", "1")
            .header("Content-Length", "2")
            .header("Transfer-Encoding", "chunked")
            .build();
        assert_eq!(r.host(), Some(&b"a.com"[..]));
        assert_eq!(r.content_lengths(), vec![&b"1"[..], b"2"]);
        assert_eq!(r.transfer_encodings(), vec![&b"chunked"[..]]);
        assert_eq!(r.method(), Method::Get);
        assert_eq!(r.version(), Version::Http11);
    }
}
