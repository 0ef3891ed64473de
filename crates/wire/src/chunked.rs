//! Chunked transfer coding (RFC 7230 §4.1) with configurable error recovery.
//!
//! The encoder always produces conformant output. The decoder takes
//! [`ChunkedDecodeOptions`] because the paper's *Bad chunk-size value*
//! finding (§IV-B) hinges on proxies that "repair" malformed chunked bodies:
//! Haproxy and Squid parse an over-long chunk-size with wrapping arithmetic
//! and then reconstruct a body whose framing no longer matches the bytes —
//! the root of an HRS exploit.

use std::fmt;

use crate::ascii;

/// How a decoder treats a chunk-size that overflows 64 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowBehavior {
    /// Reject the message (RFC-conformant).
    #[default]
    Reject,
    /// Wrap modulo 2^64 — the integer-overflow repair bug.
    Wrap,
    /// Saturate to the number of remaining body bytes (a "repair to what is
    /// actually there" strategy).
    ClampToRemaining,
}

/// Options controlling lenient chunked decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkedDecodeOptions {
    /// Overflow handling for oversized chunk-size values.
    pub overflow: OverflowBehavior,
    /// Accept a `0x` prefix on chunk-size (non-conformant leniency).
    pub allow_0x_prefix: bool,
    /// Stop parsing the size at the first non-hex byte instead of rejecting
    /// the line (so `0xfgh` / `5;ext` read as 0x0f…/5).
    pub stop_at_invalid_digit: bool,
    /// Reject NUL bytes inside chunk-data (some parsers treat NUL as a
    /// terminator or error; RFC allows any OCTET).
    pub reject_nul_in_data: bool,
    /// If a chunk claims more data than remains, consume whatever is left
    /// instead of failing (another repair strategy).
    pub truncate_short_final_chunk: bool,
}

impl ChunkedDecodeOptions {
    /// RFC-conformant strict decoding.
    pub fn strict() -> ChunkedDecodeOptions {
        ChunkedDecodeOptions {
            overflow: OverflowBehavior::Reject,
            allow_0x_prefix: false,
            stop_at_invalid_digit: false,
            reject_nul_in_data: false,
            truncate_short_final_chunk: false,
        }
    }
}

impl Default for ChunkedDecodeOptions {
    fn default() -> Self {
        ChunkedDecodeOptions::strict()
    }
}

/// Error from [`decode_chunked`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChunkedError {
    /// A chunk-size line was not valid hexadecimal.
    InvalidSize(Vec<u8>),
    /// Chunk-size overflowed under [`OverflowBehavior::Reject`].
    SizeOverflow(Vec<u8>),
    /// A chunk-ext did not match RFC 7230 §4.1.1 syntax.
    InvalidExtension(Vec<u8>),
    /// Body ended before the declared chunk data (plus CRLF) arrived.
    Truncated,
    /// Chunk data was not followed by CRLF.
    MissingDataCrlf,
    /// A NUL byte appeared in chunk data under `reject_nul_in_data`.
    NulInData,
}

impl fmt::Display for ChunkedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChunkedError::InvalidSize(s) => {
                write!(f, "invalid chunk size {:?}", ascii::escape_bytes(s))
            }
            ChunkedError::SizeOverflow(s) => {
                write!(f, "chunk size overflow {:?}", ascii::escape_bytes(s))
            }
            ChunkedError::InvalidExtension(s) => {
                write!(f, "invalid chunk extension {:?}", ascii::escape_bytes(s))
            }
            ChunkedError::Truncated => f.write_str("chunked body truncated"),
            ChunkedError::MissingDataCrlf => f.write_str("chunk data not terminated by crlf"),
            ChunkedError::NulInData => f.write_str("nul byte in chunk data"),
        }
    }
}

impl std::error::Error for ChunkedError {}

/// Result of decoding: payload plus how many input bytes were consumed and
/// whether the framing had to be repaired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedChunked {
    /// The reassembled payload.
    pub payload: Vec<u8>,
    /// Bytes of input consumed, including the terminating empty chunk and
    /// trailer.
    pub consumed: usize,
    /// True if any lenient option had to fire to finish decoding.
    pub repaired: bool,
}

/// Encodes a payload as a single-chunk chunked body.
///
/// ```
/// assert_eq!(hdiff_wire::encode_chunked(b"abc"), b"3\r\nabc\r\n0\r\n\r\n");
/// ```
pub fn encode_chunked(payload: &[u8]) -> Vec<u8> {
    encode_chunked_with(payload, payload.len().max(1))
}

/// Encodes a payload splitting it into chunks of at most `chunk_size` bytes.
///
/// # Panics
///
/// Panics if `chunk_size` is zero.
pub fn encode_chunked_with(payload: &[u8], chunk_size: usize) -> Vec<u8> {
    assert!(chunk_size > 0, "chunk_size must be positive");
    let mut out = Vec::with_capacity(payload.len() + 16);
    for chunk in payload.chunks(chunk_size) {
        out.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
        out.extend_from_slice(chunk);
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"0\r\n\r\n");
    out
}

/// Decodes a chunked body from `input` under the given options.
///
/// # Errors
///
/// Returns a [`ChunkedError`] when the framing is invalid and the options do
/// not permit repairing it.
pub fn decode_chunked(
    input: &[u8],
    opts: &ChunkedDecodeOptions,
) -> Result<DecodedChunked, ChunkedError> {
    let mut pos = 0usize;
    let mut payload = Vec::new();
    let mut repaired = false;

    loop {
        let line_end = find_crlf(&input[pos..]).ok_or(ChunkedError::Truncated)?;
        let line = &input[pos..pos + line_end];
        pos += line_end + 2;

        // chunk-ext: never contributes to the payload, but a conformant
        // recipient still has to *parse* it (RFC 7230 §4.1.1), so strict
        // decoding validates the ext syntax instead of discarding the
        // tail of the line unseen.
        let (size_part, ext) = match line.iter().position(|&b| b == b';') {
            Some(i) => (&line[..i], Some(&line[i..])),
            None => (line, None),
        };
        let mut size_part = ascii::trim_ows(size_part);
        if opts.allow_0x_prefix {
            if let Some(stripped) = strip_0x(size_part) {
                size_part = stripped;
                repaired = true;
            }
        }

        let size = parse_size(size_part, opts, input.len() - pos, &mut repaired)?;

        if let Some(ext) = ext {
            if !valid_chunk_ext(ext) {
                if opts.stop_at_invalid_digit {
                    // The same leniency that reads `5;ext` as 5 repairs a
                    // malformed ext by ignoring it.
                    repaired = true;
                } else {
                    return Err(ChunkedError::InvalidExtension(line.to_vec()));
                }
            }
        }

        if size == 0 {
            // Trailer section: zero or more header lines, then empty line.
            loop {
                let t_end = find_crlf(&input[pos..]).ok_or(ChunkedError::Truncated)?;
                let trailer = &input[pos..pos + t_end];
                pos += t_end + 2;
                if trailer.is_empty() {
                    return Ok(DecodedChunked { payload, consumed: pos, repaired });
                }
            }
        }

        let size_usize = usize::try_from(size).unwrap_or(usize::MAX);
        let available = input.len().saturating_sub(pos);
        let take = if size_usize > available {
            if opts.truncate_short_final_chunk {
                repaired = true;
                available
            } else {
                return Err(ChunkedError::Truncated);
            }
        } else {
            size_usize
        };

        let data = &input[pos..pos + take];
        if opts.reject_nul_in_data && data.contains(&0) {
            return Err(ChunkedError::NulInData);
        }
        payload.extend_from_slice(data);
        pos += take;

        if take < size_usize {
            // Repaired a truncated chunk: consume the rest and finish.
            return Ok(DecodedChunked { payload, consumed: pos, repaired: true });
        }

        let tail = &input[pos..input.len().min(pos + 2)];
        if tail != b"\r\n" {
            if opts.truncate_short_final_chunk {
                return Ok(DecodedChunked { payload, consumed: pos, repaired: true });
            }
            // Only part of the CRLF has arrived: more bytes may complete it.
            if b"\r\n".starts_with(tail) {
                return Err(ChunkedError::Truncated);
            }
            return Err(ChunkedError::MissingDataCrlf);
        }
        pos += 2;
    }
}

/// Validates a chunk-ext per RFC 7230 §4.1.1 (with the errata-permitted
/// BWS): `*( BWS ";" BWS chunk-ext-name [ BWS "=" BWS chunk-ext-val ] )`
/// where `chunk-ext-name` is a token and `chunk-ext-val` a token or
/// quoted-string. `s` starts at the first `;` of the line; trailing BWS
/// is tolerated, mirroring the OWS trim on the size side.
fn valid_chunk_ext(mut s: &[u8]) -> bool {
    loop {
        s = skip_bws(s);
        if s.is_empty() {
            return true;
        }
        if s[0] != b';' {
            return false;
        }
        s = skip_bws(&s[1..]);
        let name_len = token_len(s);
        if name_len == 0 {
            return false;
        }
        s = &s[name_len..];
        let after_name = skip_bws(s);
        if after_name.first() == Some(&b'=') {
            s = skip_bws(&after_name[1..]);
            if s.first() == Some(&b'"') {
                match quoted_string_len(s) {
                    Some(n) => s = &s[n..],
                    None => return false,
                }
            } else {
                let val_len = token_len(s);
                if val_len == 0 {
                    return false;
                }
                s = &s[val_len..];
            }
        }
    }
}

fn skip_bws(s: &[u8]) -> &[u8] {
    let n = s.iter().take_while(|&&b| b == b' ' || b == b'\t').count();
    &s[n..]
}

fn token_len(s: &[u8]) -> usize {
    s.iter().take_while(|&&b| ascii::is_tchar(b)).count()
}

/// Length of a quoted-string starting at `s[0] == '"'`, or `None` if it
/// is unterminated or contains a byte outside qdtext / quoted-pair.
fn quoted_string_len(s: &[u8]) -> Option<usize> {
    let mut i = 1;
    while i < s.len() {
        match s[i] {
            b'"' => return Some(i + 1),
            b'\\' => {
                let escaped = *s.get(i + 1)?;
                let ok = escaped == b'\t'
                    || escaped == b' '
                    || (0x21..=0x7e).contains(&escaped)
                    || escaped >= 0x80;
                if !ok {
                    return None;
                }
                i += 2;
            }
            b'\t' | b' ' => i += 1,
            c if (0x21..=0x7e).contains(&c) || c >= 0x80 => i += 1,
            _ => return None,
        }
    }
    None
}

fn strip_0x(s: &[u8]) -> Option<&[u8]> {
    if s.len() > 2 && (s.starts_with(b"0x") || s.starts_with(b"0X")) {
        Some(&s[2..])
    } else {
        None
    }
}

fn parse_size(
    s: &[u8],
    opts: &ChunkedDecodeOptions,
    remaining: usize,
    repaired: &mut bool,
) -> Result<u64, ChunkedError> {
    let digits: &[u8] = if opts.stop_at_invalid_digit {
        let end = s.iter().position(|b| !b.is_ascii_hexdigit()).unwrap_or(s.len());
        if end < s.len() {
            *repaired = true;
        }
        &s[..end]
    } else {
        s
    };
    if digits.is_empty() || !digits.iter().all(u8::is_ascii_hexdigit) {
        return Err(ChunkedError::InvalidSize(s.to_vec()));
    }
    match ascii::parse_hex_strict(digits) {
        Some(v) => Ok(v),
        None => match opts.overflow {
            OverflowBehavior::Reject => Err(ChunkedError::SizeOverflow(s.to_vec())),
            OverflowBehavior::Wrap => {
                *repaired = true;
                Ok(ascii::parse_hex_wrapping(digits).expect("digits validated"))
            }
            OverflowBehavior::ClampToRemaining => {
                *repaired = true;
                Ok(remaining as u64)
            }
        },
    }
}

fn find_crlf(s: &[u8]) -> Option<usize> {
    s.windows(2).position(|w| w == b"\r\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_single_chunk() {
        assert_eq!(encode_chunked(b"hello"), b"5\r\nhello\r\n0\r\n\r\n");
        assert_eq!(encode_chunked(b""), b"0\r\n\r\n");
    }

    #[test]
    fn encode_multi_chunk() {
        assert_eq!(encode_chunked_with(b"abcdef", 4), b"4\r\nabcd\r\n2\r\nef\r\n0\r\n\r\n");
    }

    #[test]
    fn strict_round_trip() {
        let opts = ChunkedDecodeOptions::strict();
        for payload in [&b""[..], b"a", b"hello world", &[0u8, 1, 2, 255]] {
            let enc = encode_chunked(payload);
            let dec = decode_chunked(&enc, &opts).unwrap();
            assert_eq!(dec.payload, payload);
            assert_eq!(dec.consumed, enc.len());
            assert!(!dec.repaired);
        }
    }

    #[test]
    fn chunk_extension_is_ignored() {
        let dec =
            decode_chunked(b"3;name=val\r\nabc\r\n0\r\n\r\n", &ChunkedDecodeOptions::strict())
                .unwrap();
        assert_eq!(dec.payload, b"abc");
        assert!(!dec.repaired);
    }

    #[test]
    fn strict_accepts_wellformed_ext_unrepaired() {
        let opts = ChunkedDecodeOptions::strict();
        for body in [
            &b"3;ext=1\r\nabc\r\n0\r\n\r\n"[..],
            b"3;name\r\nabc\r\n0\r\n\r\n",
            b"3;a=1;b=2;c\r\nabc\r\n0\r\n\r\n",
            b"3;q=\"quoted val\"\r\nabc\r\n0\r\n\r\n",
            b"3;q=\"esc\\\"aped\"\r\nabc\r\n0\r\n\r\n",
            b"3 ; a = 1 ; b\r\nabc\r\n0\r\n\r\n",
            b"3\r\nabc\r\n0;last=ext\r\n\r\n",
        ] {
            let dec = decode_chunked(body, &opts)
                .unwrap_or_else(|e| panic!("{:?}: {e}", ascii::escape_bytes(body)));
            assert_eq!(dec.payload, b"abc", "{:?}", ascii::escape_bytes(body));
            assert!(!dec.repaired, "{:?}", ascii::escape_bytes(body));
        }
    }

    #[test]
    fn strict_rejects_malformed_ext() {
        let opts = ChunkedDecodeOptions::strict();
        for body in [
            &b"3;\r\nabc\r\n0\r\n\r\n"[..],
            b"3;=v\r\nabc\r\n0\r\n\r\n",
            b"3;a==\r\nabc\r\n0\r\n\r\n",
            b"3;a=\r\nabc\r\n0\r\n\r\n",
            b"3;a b\r\nabc\r\n0\r\n\r\n",
            b"3;a=\"unterminated\r\nabc\r\n0\r\n\r\n",
            b"3;a=\"bad\x01byte\"\r\nabc\r\n0\r\n\r\n",
            b"3;;\r\nabc\r\n0\r\n\r\n",
        ] {
            let err =
                decode_chunked(body, &opts).expect_err(&format!("{:?}", ascii::escape_bytes(body)));
            assert!(
                matches!(err, ChunkedError::InvalidExtension(_)),
                "{:?}: {err}",
                ascii::escape_bytes(body)
            );
        }
    }

    #[test]
    fn lenient_digit_stop_repairs_malformed_ext() {
        let opts =
            ChunkedDecodeOptions { stop_at_invalid_digit: true, ..ChunkedDecodeOptions::strict() };
        let dec = decode_chunked(b"3;=junk;;\r\nabc\r\n0\r\n\r\n", &opts).unwrap();
        assert_eq!(dec.payload, b"abc");
        assert!(dec.repaired);
        // Well-formed ext stays unrepaired even on the lenient path.
        let dec = decode_chunked(b"3;ext=1\r\nabc\r\n0\r\n\r\n", &opts).unwrap();
        assert!(!dec.repaired);
    }

    #[test]
    fn trailer_headers_are_consumed() {
        let dec =
            decode_chunked(b"1\r\nx\r\n0\r\nX-Trailer: 1\r\n\r\n", &ChunkedDecodeOptions::strict())
                .unwrap();
        assert_eq!(dec.payload, b"x");
    }

    #[test]
    fn strict_rejects_invalid_hex() {
        // Table II: `0xfgh\r\nabc\r\n9\r\n`.
        let err = decode_chunked(b"0xfgh\r\nabc\r\n", &ChunkedDecodeOptions::strict()).unwrap_err();
        assert!(matches!(err, ChunkedError::InvalidSize(_)));
    }

    #[test]
    fn strict_rejects_overflow() {
        let body = b"1000000000000000a\r\nabc\r\n0\r\n\r\n";
        let err = decode_chunked(body, &ChunkedDecodeOptions::strict()).unwrap_err();
        // 17 hex digits overflow u64.
        assert!(matches!(err, ChunkedError::SizeOverflow(_) | ChunkedError::Truncated));
    }

    #[test]
    fn wrapping_repair_reproduces_the_haproxy_squid_bug() {
        // 0x1000000000000000a wraps to 10 (0xa): the proxy "repairs" a huge
        // chunk-size to 10 and reads 10 bytes — not the 3 actually framed.
        let body = b"1000000000000000a\r\nabc\r\n0\r\n\r\nXX";
        let opts = ChunkedDecodeOptions {
            overflow: OverflowBehavior::Wrap,
            truncate_short_final_chunk: true,
            ..ChunkedDecodeOptions::strict()
        };
        let dec = decode_chunked(body, &opts).unwrap();
        assert!(dec.repaired);
        // It consumed 10 bytes of "data": "abc\r\n0\r\n\r\n".
        assert_eq!(dec.payload, b"abc\r\n0\r\n\r\n");
    }

    #[test]
    fn clamp_repair() {
        let body = b"ffffffffffffffffff\r\nab\r\n";
        let opts = ChunkedDecodeOptions {
            overflow: OverflowBehavior::ClampToRemaining,
            truncate_short_final_chunk: true,
            ..ChunkedDecodeOptions::strict()
        };
        let dec = decode_chunked(body, &opts).unwrap();
        assert!(dec.repaired);
        assert_eq!(dec.payload, b"ab\r\n");
    }

    #[test]
    fn nul_in_data_policy() {
        // Table II: `3\r\na\x00c\r\n0\r\n\r\n`.
        let body = b"3\r\na\x00c\r\n0\r\n\r\n";
        assert_eq!(
            decode_chunked(body, &ChunkedDecodeOptions::strict()).unwrap().payload,
            b"a\x00c"
        );
        let nul_reject =
            ChunkedDecodeOptions { reject_nul_in_data: true, ..ChunkedDecodeOptions::strict() };
        assert_eq!(decode_chunked(body, &nul_reject).unwrap_err(), ChunkedError::NulInData);
    }

    #[test]
    fn truncated_inputs() {
        let opts = ChunkedDecodeOptions::strict();
        assert_eq!(decode_chunked(b"5\r\nab", &opts).unwrap_err(), ChunkedError::Truncated);
        assert_eq!(decode_chunked(b"5", &opts).unwrap_err(), ChunkedError::Truncated);
        assert_eq!(decode_chunked(b"", &opts).unwrap_err(), ChunkedError::Truncated);
        assert_eq!(decode_chunked(b"2\r\nabXX", &opts).unwrap_err(), ChunkedError::MissingDataCrlf);
    }

    #[test]
    fn a_partial_data_crlf_is_truncated_not_malformed() {
        let opts = ChunkedDecodeOptions::strict();
        assert_eq!(decode_chunked(b"3\r\nabc", &opts).unwrap_err(), ChunkedError::Truncated);
        assert_eq!(decode_chunked(b"3\r\nabc\r", &opts).unwrap_err(), ChunkedError::Truncated);
        assert_eq!(decode_chunked(b"3\r\nabcX", &opts).unwrap_err(), ChunkedError::MissingDataCrlf);
        assert_eq!(
            decode_chunked(b"3\r\nabc\rX", &opts).unwrap_err(),
            ChunkedError::MissingDataCrlf
        );
        assert_eq!(
            decode_chunked(b"3\r\nabc\n\r", &opts).unwrap_err(),
            ChunkedError::MissingDataCrlf
        );
    }

    #[test]
    fn consumed_excludes_pipelined_bytes() {
        let mut body = encode_chunked(b"abc");
        body.extend_from_slice(b"GET /next HTTP/1.1\r\n");
        let dec = decode_chunked(&body, &ChunkedDecodeOptions::strict()).unwrap();
        assert_eq!(&body[dec.consumed..], b"GET /next HTTP/1.1\r\n");
    }
}
