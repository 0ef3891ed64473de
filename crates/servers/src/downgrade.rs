//! HTTP/2 → HTTP/1.1 downgrade front-end models.
//!
//! Production chains terminate HTTP/2 at the edge and speak HTTP/1.1 to
//! the origin. The translation — pseudo-headers back into a request
//! line and `Host`, `Content-Length` reconstructed from DATA frames,
//! connection-specific headers stripped (or not) — is itself a parser
//! with semantic gaps, and it sits *in front of* every h1 gap this
//! crate already models. A front end that forwards `:authority` but
//! also the h2 `host` header verbatim manufactures a duplicate-Host h1
//! request no h1 client could have sent past a strict edge.
//!
//! Like [`crate::profile::ParserProfile`], a [`DowngradeProfile`] is a
//! bundle of policy enums; three named profiles span the
//! strict-edge / pragmatic-relay / legacy-bridge space observed in real
//! deployments. `downgrade()` is a pure function of (profile, request):
//! its bytes are the determinism anchor for the sim-vs-tcp gate and for
//! replay.

use hdiff_h2::H2Request;

/// Which source wins the h1 `Host` header when `:authority` and an h2
/// `host` header disagree (RFC 9113 §8.3.1 makes `host` redundant; real
/// translators differ on what to do when both arrive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuthorityPolicy {
    /// `Host` is synthesized from `:authority`; any h2 `host` header is
    /// dropped (nginx-style).
    AuthorityWins,
    /// An explicit h2 `host` header wins; `:authority` is used only as
    /// the fallback (legacy CGI-gateway reading).
    HostWins,
    /// `Host` is synthesized from `:authority` *and* the h2 `host`
    /// header is forwarded in place — the h1 stream carries two `Host`
    /// lines (the duplicate-Host downgrade gap).
    ForwardBoth,
}

/// How the h1 `Content-Length` is produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClPolicy {
    /// Recompute from the actual DATA-frame byte count; any client
    /// `content-length` header is dropped. The h1 header can never lie
    /// about the body this front saw.
    FromData,
    /// Forward the client's `content-length` header(s) verbatim and
    /// trust them; compute only when absent. A declared length that
    /// disagrees with the DATA bytes survives into the h1 stream — the
    /// core downgrade-smuggling reconstruction.
    ForwardHeader,
}

/// `transfer-encoding` in an h2 request (forbidden by RFC 9113 §8.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TePolicy {
    /// Reject the request with 400 (the MUST).
    Reject,
    /// Drop the header and forward the rest.
    Strip,
    /// Forward it verbatim — the h1 side now sees `Transfer-Encoding`
    /// it will honor, against a body the front framed by DATA length.
    Forward,
}

/// CR/LF/NUL in header values (and names/path) being translated onto a
/// line-delimited h1 wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SanitizePolicy {
    /// Reject the request with 400.
    Reject,
    /// Strip the CR/LF/NUL bytes and forward the remainder.
    Strip,
    /// Forward verbatim: a header *value* becomes extra h1 header
    /// *lines* (CRLF injection through the downgrade).
    Forward,
}

/// `:path` handling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathPolicy {
    /// Emit the pseudo-header byte-for-byte.
    Verbatim,
    /// Resolve `.` / `..` segments before emitting (edge normalization;
    /// hides traversal from the back end — or disagrees with it).
    NormalizeDotSegments,
}

/// One downgrade front end: a named bundle of translation policies.
#[derive(Debug, Clone)]
pub struct DowngradeProfile {
    /// Stable identifier (used in findings, replay bundles, telemetry).
    pub name: String,
    pub authority: AuthorityPolicy,
    pub cl: ClPolicy,
    pub te: TePolicy,
    pub sanitize: SanitizePolicy,
    pub path: PathPolicy,
    /// Strip connection-specific headers (`connection`, `keep-alive`,
    /// `proxy-connection`, `upgrade`, `te`) per RFC 9113 §8.2.2. When
    /// false they ride through onto the h1 wire.
    pub strip_connection_headers: bool,
    /// `Via` token appended by this hop, if it advertises itself.
    pub via: Option<String>,
}

/// Result of translating one h2 request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DowngradeOutcome {
    /// The reconstructed HTTP/1.1 byte stream; `None` when the front
    /// rejected the request instead of forwarding.
    pub h1: Option<Vec<u8>>,
    /// `(status, reason)` when the front rejected.
    pub reject: Option<(u16, String)>,
    /// Translation decisions in processing order — stable strings the
    /// downgrade detection model keys on (`cl-mismatch …`,
    /// `authority-host-disagree …`, `te-forwarded`, `crlf-forwarded:…`).
    pub notes: Vec<String>,
}

impl DowngradeOutcome {
    pub fn is_forwarded(&self) -> bool {
        self.h1.is_some()
    }

    fn rejected(status: u16, reason: impl Into<String>, notes: Vec<String>) -> DowngradeOutcome {
        DowngradeOutcome { h1: None, reject: Some((status, reason.into())), notes }
    }
}

const CONNECTION_SPECIFIC: &[&[u8]] =
    &[b"connection", b"keep-alive", b"proxy-connection", b"upgrade", b"te"];

fn eq_ignore_case(a: &[u8], b: &[u8]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_ascii_lowercase() == *y)
}

fn has_ctl(bytes: &[u8]) -> bool {
    bytes.iter().any(|&b| b == b'\r' || b == b'\n' || b == 0)
}

fn strip_ctl(bytes: &[u8]) -> Vec<u8> {
    bytes.iter().copied().filter(|&b| b != b'\r' && b != b'\n' && b != 0).collect()
}

/// Resolves `.` and `..` segments of an origin-form path; the query
/// component is preserved untouched.
fn normalize_dot_segments(path: &[u8]) -> Vec<u8> {
    if !path.starts_with(b"/") {
        return path.to_vec();
    }
    let (p, query) = match path.iter().position(|&b| b == b'?') {
        Some(i) => (&path[..i], &path[i..]),
        None => (path, &b""[..]),
    };
    let mut segs: Vec<&[u8]> = Vec::new();
    for seg in p[1..].split(|&b| b == b'/') {
        match seg {
            b"." => {}
            b".." => {
                segs.pop();
            }
            s => segs.push(s),
        }
    }
    let mut out = Vec::with_capacity(path.len());
    if segs.is_empty() {
        out.push(b'/');
    } else {
        for s in &segs {
            out.push(b'/');
            out.extend_from_slice(s);
        }
    }
    // A trailing `.`/`..` segment resolves to a directory: keep the
    // trailing slash it implies.
    if (p.ends_with(b"/.") || p.ends_with(b"/..")) && !out.ends_with(b"/") {
        out.push(b'/');
    }
    out.extend_from_slice(query);
    out
}

impl DowngradeProfile {
    /// Strict RFC 9113 edge: authority wins, `Content-Length` recomputed
    /// from DATA, forbidden headers rejected or stripped, values
    /// sanitized by rejection, dot-segments normalized.
    pub fn edge() -> DowngradeProfile {
        DowngradeProfile {
            name: "h2-edge".into(),
            authority: AuthorityPolicy::AuthorityWins,
            cl: ClPolicy::FromData,
            te: TePolicy::Reject,
            sanitize: SanitizePolicy::Reject,
            path: PathPolicy::NormalizeDotSegments,
            strip_connection_headers: true,
            via: Some("1.1 h2-edge".into()),
        }
    }

    /// Pragmatic relay: trusts the client's `content-length`, prefers an
    /// explicit `host` header, strips rather than rejects.
    pub fn relay() -> DowngradeProfile {
        DowngradeProfile {
            name: "h2-relay".into(),
            authority: AuthorityPolicy::HostWins,
            cl: ClPolicy::ForwardHeader,
            te: TePolicy::Strip,
            sanitize: SanitizePolicy::Strip,
            path: PathPolicy::Verbatim,
            strip_connection_headers: true,
            via: Some("1.1 h2-relay".into()),
        }
    }

    /// Legacy bridge: forwards everything it can representation-convert,
    /// verbatim — duplicate Host, client CL, `transfer-encoding`, raw
    /// CR/LF in values all reach the h1 wire.
    pub fn legacy() -> DowngradeProfile {
        DowngradeProfile {
            name: "h2-legacy".into(),
            authority: AuthorityPolicy::ForwardBoth,
            cl: ClPolicy::ForwardHeader,
            te: TePolicy::Forward,
            sanitize: SanitizePolicy::Forward,
            path: PathPolicy::Verbatim,
            strip_connection_headers: false,
            via: None,
        }
    }

    /// Translates one parsed h2 request into an HTTP/1.1 byte stream
    /// (or a front-end rejection). Pure and deterministic.
    pub fn downgrade(&self, req: &H2Request) -> DowngradeOutcome {
        let mut notes: Vec<String> = Vec::new();

        // --- pseudo-headers -------------------------------------------------
        let mut method: Option<&[u8]> = None;
        let mut path: Option<&[u8]> = None;
        let mut authority: Option<&[u8]> = None;
        let mut seen_regular = false;
        for h in &req.headers {
            if h.name.starts_with(b":") {
                if seen_regular {
                    notes.push("pseudo-after-regular".into());
                    if self.sanitize == SanitizePolicy::Reject {
                        return DowngradeOutcome::rejected(
                            400,
                            "pseudo-header after regular header",
                            notes,
                        );
                    }
                }
                match h.name.as_slice() {
                    b":method" => method = Some(&h.value),
                    b":path" => path = Some(&h.value),
                    b":authority" => authority = Some(&h.value),
                    b":scheme" => {}
                    other => {
                        notes.push(format!("unknown-pseudo:{}", String::from_utf8_lossy(other)));
                        if self.sanitize == SanitizePolicy::Reject {
                            return DowngradeOutcome::rejected(400, "unknown pseudo-header", notes);
                        }
                    }
                }
            } else {
                seen_regular = true;
            }
        }
        let method = match method {
            Some(m) if !m.is_empty() => m,
            _ => return DowngradeOutcome::rejected(400, "missing :method", notes),
        };
        let path = match path {
            Some(p) if !p.is_empty() => p.to_vec(),
            _ => {
                if self.sanitize == SanitizePolicy::Reject {
                    return DowngradeOutcome::rejected(400, "missing :path", notes);
                }
                notes.push("path-defaulted".into());
                b"/".to_vec()
            }
        };

        // --- request target -------------------------------------------------
        let path = if has_ctl(&path) || path.contains(&b' ') {
            notes.push("path-unsafe".into());
            match self.sanitize {
                SanitizePolicy::Reject => {
                    return DowngradeOutcome::rejected(400, "unsafe byte in :path", notes)
                }
                SanitizePolicy::Strip => strip_ctl(&path),
                SanitizePolicy::Forward => path,
            }
        } else {
            path
        };
        let path = match self.path {
            PathPolicy::Verbatim => path,
            PathPolicy::NormalizeDotSegments => {
                let n = normalize_dot_segments(&path);
                if n != path {
                    notes.push("path-normalized".into());
                }
                n
            }
        };

        // --- Host -----------------------------------------------------------
        let host_headers = req.header_all("host");
        let effective_host: Vec<u8> = match self.authority {
            AuthorityPolicy::AuthorityWins | AuthorityPolicy::ForwardBoth => {
                match (authority, host_headers.first()) {
                    (Some(a), h) => {
                        if let Some(h) = h {
                            if !eq_ignore_case(h, &a.to_ascii_lowercase()) {
                                notes.push(format!(
                                    "authority-host-disagree host={}",
                                    String::from_utf8_lossy(h)
                                ));
                            }
                        }
                        a.to_vec()
                    }
                    (None, Some(h)) => h.to_vec(),
                    (None, None) => {
                        return DowngradeOutcome::rejected(400, "no :authority and no host", notes)
                    }
                }
            }
            AuthorityPolicy::HostWins => match (host_headers.first(), authority) {
                (Some(h), a) => {
                    if let Some(a) = a {
                        if !eq_ignore_case(h, &a.to_ascii_lowercase()) {
                            notes.push(format!(
                                "authority-host-disagree host={}",
                                String::from_utf8_lossy(h)
                            ));
                        }
                    }
                    h.to_vec()
                }
                (None, Some(a)) => a.to_vec(),
                (None, None) => {
                    return DowngradeOutcome::rejected(400, "no :authority and no host", notes)
                }
            },
        };
        let effective_host = if has_ctl(&effective_host) {
            notes.push("host-unsafe".into());
            match self.sanitize {
                SanitizePolicy::Reject => {
                    return DowngradeOutcome::rejected(400, "unsafe byte in host", notes)
                }
                SanitizePolicy::Strip => strip_ctl(&effective_host),
                SanitizePolicy::Forward => effective_host,
            }
        } else {
            effective_host
        };
        if self.authority == AuthorityPolicy::ForwardBoth
            && authority.is_some()
            && !host_headers.is_empty()
        {
            notes.push("host-duplicated".into());
        }

        // --- header translation --------------------------------------------
        let mut head: Vec<u8> = Vec::with_capacity(256 + req.body.len());
        head.extend_from_slice(method);
        head.push(b' ');
        head.extend_from_slice(&path);
        head.extend_from_slice(b" HTTP/1.1\r\nhost: ");
        head.extend_from_slice(&effective_host);
        head.extend_from_slice(b"\r\n");

        let declared_cl: Vec<&[u8]> = req.header_all("content-length");
        let mut cl_emitted = false;
        for h in &req.headers {
            if h.name.starts_with(b":") {
                continue;
            }
            let name = h.name.as_slice();
            if eq_ignore_case(name, b"host") && self.authority != AuthorityPolicy::ForwardBoth {
                continue; // folded into the synthesized Host line
            }
            if eq_ignore_case(name, b"transfer-encoding") {
                match self.te {
                    TePolicy::Reject => {
                        notes.push("te-rejected".into());
                        return DowngradeOutcome::rejected(
                            400,
                            "transfer-encoding in h2 request",
                            notes,
                        );
                    }
                    TePolicy::Strip => {
                        notes.push("te-stripped".into());
                        continue;
                    }
                    TePolicy::Forward => {
                        notes.push("te-forwarded".into());
                    }
                }
            } else if eq_ignore_case(name, b"content-length") {
                match self.cl {
                    ClPolicy::FromData => continue, // recomputed below
                    ClPolicy::ForwardHeader => {
                        if cl_emitted {
                            notes.push("cl-duplicated".into());
                        }
                        cl_emitted = true;
                    }
                }
            } else if self.strip_connection_headers
                && CONNECTION_SPECIFIC.iter().any(|c| eq_ignore_case(name, c))
            {
                notes.push(format!("conn-stripped:{}", String::from_utf8_lossy(name)));
                continue;
            }

            let mut value = h.value.clone();
            if has_ctl(&h.name) || has_ctl(&value) {
                match self.sanitize {
                    SanitizePolicy::Reject => {
                        notes.push(format!(
                            "field-rejected:{}",
                            String::from_utf8_lossy(&strip_ctl(&h.name))
                        ));
                        return DowngradeOutcome::rejected(400, "unsafe byte in field", notes);
                    }
                    SanitizePolicy::Strip => {
                        notes.push(format!(
                            "field-sanitized:{}",
                            String::from_utf8_lossy(&strip_ctl(&h.name))
                        ));
                        value = strip_ctl(&value);
                        if has_ctl(&h.name) {
                            continue; // a name with CR/LF cannot be repaired safely
                        }
                    }
                    SanitizePolicy::Forward => {
                        notes.push(format!(
                            "crlf-forwarded:{}",
                            String::from_utf8_lossy(&strip_ctl(&h.name))
                        ));
                    }
                }
            }
            head.extend_from_slice(&h.name);
            head.extend_from_slice(b": ");
            head.extend_from_slice(&value);
            head.extend_from_slice(b"\r\n");
        }

        // --- Content-Length reconstruction ----------------------------------
        let data_len = req.body.len();
        match self.cl {
            ClPolicy::FromData => {
                if !declared_cl.is_empty() {
                    let declared = String::from_utf8_lossy(declared_cl[0]).into_owned();
                    if declared != data_len.to_string() {
                        notes.push(format!("cl-recomputed declared={declared} data={data_len}"));
                    }
                }
                if data_len > 0 || !declared_cl.is_empty() {
                    head.extend_from_slice(format!("content-length: {data_len}\r\n").as_bytes());
                }
            }
            ClPolicy::ForwardHeader => {
                if let Some(first) = declared_cl.first() {
                    let declared = String::from_utf8_lossy(first).into_owned();
                    if declared != data_len.to_string() {
                        notes.push(format!("cl-mismatch declared={declared} data={data_len}"));
                    }
                } else if data_len > 0 {
                    head.extend_from_slice(format!("content-length: {data_len}\r\n").as_bytes());
                }
            }
        }

        if let Some(via) = &self.via {
            head.extend_from_slice(b"via: ");
            head.extend_from_slice(via.as_bytes());
            head.extend_from_slice(b"\r\n");
        }
        head.extend_from_slice(b"\r\n");
        head.extend_from_slice(&req.body);

        DowngradeOutcome { h1: Some(head), reject: None, notes }
    }
}

/// The downgrade front ends a campaign runs, in canonical order.
pub fn fronts() -> Vec<DowngradeProfile> {
    vec![DowngradeProfile::edge(), DowngradeProfile::relay(), DowngradeProfile::legacy()]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(bytes: &Option<Vec<u8>>) -> String {
        String::from_utf8_lossy(bytes.as_ref().unwrap()).into_owned()
    }

    #[test]
    fn plain_get_translates_cleanly_everywhere() {
        let req = H2Request::get("/index.html", "example.com");
        for f in fronts() {
            let out = f.downgrade(&req);
            assert!(out.is_forwarded(), "{} rejected a plain GET", f.name);
            let h1 = s(&out.h1);
            assert!(h1.starts_with("GET /index.html HTTP/1.1\r\nhost: example.com\r\n"), "{h1}");
            assert!(h1.ends_with("\r\n\r\n"));
        }
    }

    #[test]
    fn downgrade_is_deterministic() {
        let req = H2Request::post("/submit", "example.com", "abc")
            .with_header("x-a", "1")
            .with_header("x-b", "2");
        for f in fronts() {
            assert_eq!(f.downgrade(&req), f.downgrade(&req), "{}", f.name);
        }
    }

    #[test]
    fn authority_host_disagreement_splits_the_fronts() {
        let req = H2Request::get("/", "front.example").with_header("host", "back.example");
        let edge = DowngradeProfile::edge().downgrade(&req);
        let relay = DowngradeProfile::relay().downgrade(&req);
        let legacy = DowngradeProfile::legacy().downgrade(&req);
        assert!(s(&edge.h1).contains("host: front.example\r\n"));
        assert!(!s(&edge.h1).contains("back.example"));
        assert!(s(&relay.h1).contains("host: back.example\r\n"));
        let l = s(&legacy.h1);
        assert!(l.contains("host: front.example\r\n") && l.contains("host: back.example\r\n"));
        for out in [&edge, &relay, &legacy] {
            assert!(out.notes.iter().any(|n| n.starts_with("authority-host-disagree")));
        }
        assert!(legacy.notes.iter().any(|n| n == "host-duplicated"));
    }

    #[test]
    fn content_length_lie_survives_only_forwarding_fronts() {
        let req = H2Request::post("/up", "example.com", "AAAAAAAAAAA") // 11 bytes
            .with_header("content-length", "3");
        let edge = DowngradeProfile::edge().downgrade(&req);
        assert!(s(&edge.h1).contains("content-length: 11\r\n"));
        assert!(!s(&edge.h1).contains("content-length: 3"));
        assert!(edge.notes.iter().any(|n| n.starts_with("cl-recomputed")));

        let relay = DowngradeProfile::relay().downgrade(&req);
        assert!(s(&relay.h1).contains("content-length: 3\r\n"));
        assert!(relay.notes.iter().any(|n| n == "cl-mismatch declared=3 data=11"));
        // The full DATA bytes still follow the lying header.
        assert!(s(&relay.h1).ends_with("AAAAAAAAAAA"));
    }

    #[test]
    fn transfer_encoding_policy_split() {
        let req = H2Request::post("/up", "example.com", "0\r\n\r\n")
            .with_header("transfer-encoding", "chunked");
        let edge = DowngradeProfile::edge().downgrade(&req);
        assert_eq!(edge.reject.as_ref().unwrap().0, 400);
        assert!(edge.notes.iter().any(|n| n == "te-rejected"));

        let relay = DowngradeProfile::relay().downgrade(&req);
        assert!(relay.is_forwarded());
        assert!(!s(&relay.h1).contains("transfer-encoding"));
        assert!(relay.notes.iter().any(|n| n == "te-stripped"));

        let legacy = DowngradeProfile::legacy().downgrade(&req);
        assert!(s(&legacy.h1).contains("transfer-encoding: chunked\r\n"));
        assert!(legacy.notes.iter().any(|n| n == "te-forwarded"));
    }

    #[test]
    fn crlf_in_value_injects_only_through_legacy() {
        let req = H2Request::get("/", "example.com").with_header("x-note", "a\r\nx-smuggled: 1");
        let edge = DowngradeProfile::edge().downgrade(&req);
        assert_eq!(edge.reject.as_ref().unwrap().0, 400);

        let relay = DowngradeProfile::relay().downgrade(&req);
        assert!(s(&relay.h1).contains("x-note: ax-smuggled: 1\r\n"));
        assert!(relay.notes.iter().any(|n| n == "field-sanitized:x-note"));

        let legacy = DowngradeProfile::legacy().downgrade(&req);
        assert!(s(&legacy.h1).contains("x-note: a\r\nx-smuggled: 1\r\n"));
        assert!(legacy.notes.iter().any(|n| n == "crlf-forwarded:x-note"));
    }

    #[test]
    fn dot_segments_normalize_only_at_the_edge() {
        let req = H2Request::get("/static/../admin/panel", "example.com");
        let edge = DowngradeProfile::edge().downgrade(&req);
        assert!(s(&edge.h1).starts_with("GET /admin/panel HTTP/1.1\r\n"));
        assert!(edge.notes.iter().any(|n| n == "path-normalized"));
        let legacy = DowngradeProfile::legacy().downgrade(&req);
        assert!(s(&legacy.h1).starts_with("GET /static/../admin/panel HTTP/1.1\r\n"));
    }

    #[test]
    fn connection_specific_headers_strip_per_profile() {
        let req = H2Request::get("/", "example.com")
            .with_header("connection", "keep-alive")
            .with_header("upgrade", "websocket");
        let relay = DowngradeProfile::relay().downgrade(&req);
        let r = s(&relay.h1);
        assert!(!r.contains("connection:") && !r.contains("upgrade:"));
        assert!(relay.notes.iter().any(|n| n == "conn-stripped:connection"));
        let legacy = DowngradeProfile::legacy().downgrade(&req);
        let l = s(&legacy.h1);
        assert!(l.contains("connection: keep-alive\r\n") && l.contains("upgrade: websocket\r\n"));
    }

    #[test]
    fn missing_pseudo_headers_reject() {
        let req = H2Request { headers: vec![], body: Vec::new() };
        for f in fronts() {
            let out = f.downgrade(&req);
            assert_eq!(out.reject.as_ref().unwrap().0, 400, "{}", f.name);
        }
    }

    #[test]
    fn normalize_dot_segments_cases() {
        let cases: &[(&[u8], &[u8])] = &[
            (b"/a/b/c", b"/a/b/c"),
            (b"/a/./b", b"/a/b"),
            (b"/a/../b", b"/b"),
            (b"/../../x", b"/x"),
            (b"/a/b/..", b"/a/"),
            (b"/a/../../", b"/"),
            (b"/a/..?q=/../x", b"/?q=/../x"),
            (b"*", b"*"),
        ];
        for (input, want) in cases {
            assert_eq!(
                normalize_dot_segments(input),
                want.to_vec(),
                "{}",
                String::from_utf8_lossy(input)
            );
        }
    }
}
