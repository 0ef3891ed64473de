//! The behavior-toggle vocabulary of the simulated products.
//!
//! Every semantic-gap-relevant decision an HTTP implementation makes is an
//! explicit policy enum here. `ParserProfile::strict()` is the
//! RFC 7230-conformant baseline; each product model (see
//! [`mod@crate::products`]) overrides exactly the toggles for which the paper
//! documents deviant behavior.

use hdiff_wire::{ChunkedDecodeOptions, HostParseOptions};

/// Whitespace between field-name and colon (RFC 7230 §3.2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WsColonPolicy {
    /// Reject the message with 400 (the MUST).
    Reject,
    /// Trim the whitespace and use the header — the IIS/Weblogic/ATS
    /// leniency (§IV-B *Invalid CL/TE header*).
    AcceptUse,
    /// Keep the line but treat it as an unknown header.
    TreatUnknown,
}

/// Non-tchar bytes inside a header name (`\x0bTransfer-Encoding`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NamePolicy {
    /// Reject the message.
    Reject,
    /// Treat the field as an unknown header (forwarded verbatim by
    /// proxies — the transparent-forwarding gap).
    TreatUnknown,
    /// Strip the junk bytes and recognize the header (deep leniency).
    Strip,
}

/// Obsolete line folding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsFoldPolicy {
    /// Reject with 400.
    Reject,
    /// Merge continuation into the previous value with a space.
    MergeSp,
}

/// Duplicate `Content-Length` headers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DuplicateClPolicy {
    /// Reject whenever more than one CL header/value is present.
    Reject,
    /// Reject only if the values differ (RFC's recovery for identical
    /// duplicates).
    RejectIfDiffer,
    /// Use the first value.
    First,
    /// Use the last value.
    Last,
}

/// `Content-Length` value parsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClValuePolicy {
    /// `1*DIGIT` only.
    Strict,
    /// Leading whitespace, `+`, trailing junk tolerated (`+6`, `6,9`).
    Lenient,
}

/// `Transfer-Encoding` value recognition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TeRecognition {
    /// Token-list parse; final coding must be `chunked`; unknown codings
    /// are errors.
    Strict,
    /// Any value *containing* `chunked` (case-insensitive) counts as the
    /// chunked coding — the Tomcat `\x0bchunked` gap.
    ChunkedSubstring,
    /// Values that fail strict parsing are ignored (header dropped from
    /// framing) instead of rejected.
    IgnoreInvalid,
}

/// Both `Content-Length` and a *strictly valid* `Transfer-Encoding`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClTePolicy {
    /// Reject the message (the ought-to-be-handled-as-an-error reading).
    Reject,
    /// Transfer-Encoding wins (RFC §3.3.3 precedence, CL dropped).
    TeWins,
    /// Content-Length wins (a smuggling-prone legacy reading).
    ClWins,
}

/// Chunked framing under HTTP/1.0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Chunked10Policy {
    /// Decode chunked regardless of version.
    Process,
    /// Ignore the TE header: no body framing (the Tomcat 1.0 gap).
    Ignore,
    /// Reject the message.
    Reject,
}

/// Body on GET/HEAD ("fat" requests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FatRequestPolicy {
    /// Parse the body per its framing headers.
    AcceptParse,
    /// Ignore the framing headers entirely: body bytes become the next
    /// pipelined message (a smuggling gap).
    IgnoreFraming,
    /// Reject the message.
    Reject,
}

/// Request-line HTTP-version handling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VersionPolicy {
    /// Reject grammar-invalid versions with 400.
    Strict,
    /// Accept anything in version position, treating it as HTTP/1.1.
    AcceptAny,
    /// Accept, and when forwarding keep the bad token and append the own
    /// version (the Nginx/Squid/ATS repair of §IV-B, producing
    /// `GET /?a=b 1.1/HTTP HTTP/1.0`).
    RepairAppend,
}

/// A literal `HTTP/2.0` (or higher) token on the request line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Http2TokenPolicy {
    /// Treat like 1.1 (token-only reading).
    TreatAs11,
    /// Respond 505.
    Reject505,
}

/// Multiple `Host` headers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiHostPolicy {
    /// Reject with 400 (the MUST).
    Reject,
    /// Use the first.
    First,
    /// Use the last.
    Last,
}

/// Absolute-form request-target versus the `Host` header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbsUriPolicy {
    /// The request-target's authority wins (RFC §5.4) — IIS/Tomcat.
    PreferUri,
    /// The `Host` header wins (the Varnish non-http-scheme reading).
    PreferHost,
    /// Reject when both are present and disagree.
    RejectMismatch,
}

/// `Expect` header handling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpectPolicy {
    /// Unknown expectation values get 417; `100-continue` is processed.
    Strict,
    /// The header is ignored entirely.
    Ignore,
    /// Reject `Expect` on bodyless GET/HEAD with 417 — the Lighttpd
    /// behavior of §IV-B.
    RejectOnGet,
}

/// How a proxy rewrites absolute-form targets when forwarding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RewriteAbsUri {
    /// Always rewrite to origin-form and regenerate Host (RFC §5.4 MUST).
    Always,
    /// Only rewrite `http`/`https` schemes; other schemes are forwarded
    /// transparently, Host header untouched — the Varnish HoT gap.
    OnlyHttpScheme,
    /// Never rewrite (fully transparent).
    Never,
}

/// Which version token a proxy puts on forwarded request lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardVersion {
    /// Its own version (RFC §2.6 MUST for non-tunnels).
    Own,
    /// The client's token verbatim — blind forwarding (the Haproxy
    /// HTTP/0.9 gap).
    Blind,
}

/// Proxy-specific behavior.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProxyBehavior {
    /// Absolute-URI rewriting.
    pub rewrite_abs_uri: RewriteAbsUri,
    /// Generate a Host header from the request-target when rewriting or
    /// when the request has none.
    pub add_host_from_uri: bool,
    /// Forward the protocol version as own or blind.
    pub forward_version: ForwardVersion,
    /// Parse Connection and strip nominated + hop-by-hop fields.
    pub strip_hop_by_hop: bool,
    /// Forward `Expect` on bodyless GET/HEAD instead of stripping it —
    /// the ATS gap.
    pub forward_expect_on_get: bool,
    /// Re-encode a chunked body the engine had to *repair* (re-framing
    /// the body as the proxy understood it — how the Haproxy/Squid
    /// chunk-size bug becomes an exploit).
    pub reencode_repaired_chunked: bool,
    /// Remove whitespace-before-colon from forwarded headers (RFC MUST
    /// for responses; good proxies do it for requests too). When false,
    /// such lines are forwarded verbatim.
    pub normalize_ws_colon: bool,
    /// Add a Via header.
    pub add_via: bool,
    /// Response cache policy.
    pub cache: CacheBehavior,
}

/// What a proxy's cache will store (CPDoS surface).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheBehavior {
    /// Cache GET responses at all.
    pub enabled: bool,
    /// Store non-200 (error) responses — the CPDoS precondition.
    pub store_errors: bool,
    /// Store responses to requests with protocol version below 1.1.
    pub store_pre11: bool,
}

impl ProxyBehavior {
    /// RFC-conformant forwarding behavior.
    pub fn strict() -> ProxyBehavior {
        ProxyBehavior {
            rewrite_abs_uri: RewriteAbsUri::Always,
            add_host_from_uri: true,
            forward_version: ForwardVersion::Own,
            strip_hop_by_hop: true,
            forward_expect_on_get: false,
            reencode_repaired_chunked: false,
            normalize_ws_colon: true,
            add_via: true,
            cache: CacheBehavior { enabled: true, store_errors: false, store_pre11: false },
        }
    }
}

/// A complete behavioral profile for one HTTP implementation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParserProfile {
    /// Display name (`"varnish"`).
    pub name: String,
    /// Modeled product version string (Table I).
    pub version: String,

    // -- header-line parsing ------------------------------------------------
    /// Whitespace between name and colon.
    pub ws_colon: WsColonPolicy,
    /// Junk bytes in header names.
    pub name_policy: NamePolicy,
    /// Obsolete line folding.
    pub obs_fold: ObsFoldPolicy,
    /// Total header-section byte limit (431/413 beyond).
    pub max_header_bytes: usize,

    // -- framing -------------------------------------------------------------
    /// Duplicate Content-Length handling.
    pub duplicate_cl: DuplicateClPolicy,
    /// Content-Length value leniency.
    pub cl_value: ClValuePolicy,
    /// Transfer-Encoding recognition.
    pub te_recognition: TeRecognition,
    /// CL together with strictly valid TE.
    pub cl_with_te: ClTePolicy,
    /// Whether a leniently recognized TE silently overrides a CL.
    pub lenient_te_overrides_cl: bool,
    /// Chunked under HTTP/1.0.
    pub chunked_in_10: Chunked10Policy,
    /// Chunked decoding options (repair semantics).
    pub chunk_opts: ChunkedDecodeOptions,
    /// Body on GET/HEAD.
    pub fat_request: FatRequestPolicy,

    // -- request line ----------------------------------------------------------
    /// HTTP-version handling.
    pub version_policy: VersionPolicy,
    /// HTTP/2.0-token handling.
    pub http2_token: Http2TokenPolicy,
    /// Whether HTTP/0.9 simple/with-header requests get a 200.
    pub supports_09: bool,
    /// Tolerate multiple spaces between request-line parts.
    pub multi_space_request_line: bool,

    // -- host -------------------------------------------------------------------
    /// Reject HTTP/1.1 requests without Host.
    pub host_required_11: bool,
    /// Multiple Host headers.
    pub multi_host: MultiHostPolicy,
    /// Host value interpretation.
    pub host_parse: HostParseOptions,
    /// Validate the interpreted host against the URI grammar.
    pub validate_host: bool,
    /// Absolute-URI vs Host precedence.
    pub abs_uri: AbsUriPolicy,

    // -- misc ----------------------------------------------------------------------
    /// Expect handling.
    pub expect: ExpectPolicy,
    /// Proxy behavior (None when the product has no proxy mode).
    pub proxy: Option<ProxyBehavior>,
    /// Whether the product works as an origin server (Table I).
    pub server_mode: bool,
    /// Test knob: panic on every parse, to exercise the campaign
    /// runner's quarantine path. Never set on product profiles.
    pub always_panic: bool,
}

impl ParserProfile {
    /// The RFC 7230-strict baseline.
    pub fn strict(name: &str) -> ParserProfile {
        ParserProfile {
            name: name.to_string(),
            version: "1.0".to_string(),
            ws_colon: WsColonPolicy::Reject,
            name_policy: NamePolicy::Reject,
            obs_fold: ObsFoldPolicy::Reject,
            max_header_bytes: 64 * 1024,
            duplicate_cl: DuplicateClPolicy::RejectIfDiffer,
            cl_value: ClValuePolicy::Strict,
            te_recognition: TeRecognition::Strict,
            cl_with_te: ClTePolicy::Reject,
            lenient_te_overrides_cl: true,
            chunked_in_10: Chunked10Policy::Reject,
            chunk_opts: ChunkedDecodeOptions::strict(),
            fat_request: FatRequestPolicy::AcceptParse,
            version_policy: VersionPolicy::Strict,
            http2_token: Http2TokenPolicy::Reject505,
            supports_09: false,
            multi_space_request_line: false,
            host_required_11: true,
            multi_host: MultiHostPolicy::Reject,
            host_parse: HostParseOptions::strict(),
            validate_host: true,
            abs_uri: AbsUriPolicy::PreferUri,
            expect: ExpectPolicy::Strict,
            proxy: None,
            server_mode: true,
            always_panic: false,
        }
    }

    /// Whether the product has a proxy mode.
    pub fn is_proxy(&self) -> bool {
        self.proxy.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_profile_is_rfc_conformant() {
        let p = ParserProfile::strict("baseline");
        assert_eq!(p.ws_colon, WsColonPolicy::Reject);
        assert_eq!(p.duplicate_cl, DuplicateClPolicy::RejectIfDiffer);
        assert_eq!(p.cl_with_te, ClTePolicy::Reject);
        assert_eq!(p.multi_host, MultiHostPolicy::Reject);
        assert!(p.host_required_11);
        assert!(!p.is_proxy());
    }

    #[test]
    fn strict_proxy_behavior() {
        let b = ProxyBehavior::strict();
        assert_eq!(b.rewrite_abs_uri, RewriteAbsUri::Always);
        assert_eq!(b.forward_version, ForwardVersion::Own);
        assert!(b.strip_hop_by_hop);
        assert!(!b.cache.store_errors);
    }
}
