//! The RFC-strict oracle and deviation analysis.
//!
//! Plain differential testing only sees *that* two implementations differ.
//! Because HDiff extracted formal rules, it can also say *which* side
//! conforms: every implementation's interpretation is compared against the
//! strict baseline profile, and lenient deviations (accepting what the
//! baseline rejects, or resolving differently while both accept) are
//! attributed to the deviating product.

use hdiff_gen::AttackClass;
use hdiff_servers::{interpret, Interpretation, Outcome, ParserProfile};

/// What kind of deviation from the baseline was observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviationKind {
    /// Accepted a message the baseline rejects (lenient acceptance).
    LenientAccept,
    /// Rejected a message the baseline accepts (strict-side deviation;
    /// safe in itself but a CPDoS error source).
    StrictReject,
    /// Both accept but the framing/consumed/payload differs.
    Framing,
    /// Both accept but the host identity differs.
    Host,
    /// The implementation repaired a malformed construct.
    Repair,
}

/// One deviation record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Deviation {
    /// The deviation kind.
    pub kind: DeviationKind,
    /// Attack class the deviation evidences.
    pub class: AttackClass,
    /// Human-readable detail.
    pub detail: String,
}

/// The RFC-strict baseline profile.
pub fn baseline_profile() -> ParserProfile {
    ParserProfile::strict("rfc-baseline")
}

/// Classifies a baseline rejection reason (plus the message bytes) into
/// the attack class a lenient acceptance of it evidences.
fn classify_reason(reason: &str, bytes: &[u8]) -> AttackClass {
    let r = reason.to_ascii_lowercase();
    let lower: Vec<u8> = bytes.to_ascii_lowercase();
    let has = |needle: &[u8]| lower.windows(needle.len()).any(|w| w == needle);

    if r.contains("content-length")
        || r.contains("transfer")
        || r.contains("chunk")
        || r.contains("body")
    {
        return AttackClass::Hrs;
    }
    if r.contains("host") {
        return AttackClass::Hot;
    }
    if r.contains("version") || r.contains("expect") || r.contains("0.9") {
        return AttackClass::Cpdos;
    }
    // Generic reasons (whitespace before colon, invalid header name):
    // decide by what the message is actually smuggling.
    if has(b"transfer-encoding") || has(b"content-length") {
        AttackClass::Hrs
    } else if has(b"host") {
        AttackClass::Hot
    } else {
        AttackClass::Cpdos
    }
}

/// Computes the deviations of `impl_interp` relative to the baseline's
/// interpretation of the same bytes.
pub fn deviations(
    implementation: &Interpretation,
    baseline: &Interpretation,
    bytes: &[u8],
) -> Vec<Deviation> {
    let mut out = Vec::new();
    match (&implementation.outcome, &baseline.outcome) {
        (Outcome::Accept, Outcome::Reject { reason, .. }) => {
            out.push(Deviation {
                kind: DeviationKind::LenientAccept,
                class: classify_reason(reason, bytes),
                detail: format!("accepted message the baseline rejects ({reason})"),
            });
        }
        (Outcome::Reject { reason, .. }, Outcome::Accept) => {
            out.push(Deviation {
                kind: DeviationKind::StrictReject,
                class: AttackClass::Cpdos,
                detail: format!("rejected message the baseline accepts ({reason})"),
            });
        }
        (Outcome::Accept, Outcome::Accept) => {
            if implementation.framing != baseline.framing
                || implementation.consumed != baseline.consumed
                || implementation.body != baseline.body
            {
                out.push(Deviation {
                    kind: DeviationKind::Framing,
                    class: AttackClass::Hrs,
                    detail: format!(
                        "framing differs from baseline ({:?} vs {:?}, consumed {} vs {})",
                        implementation.framing,
                        baseline.framing,
                        implementation.consumed,
                        baseline.consumed
                    ),
                });
            }
            if implementation.host != baseline.host {
                out.push(Deviation {
                    kind: DeviationKind::Host,
                    class: AttackClass::Hot,
                    detail: "host identity differs from baseline".to_string(),
                });
            }
        }
        (Outcome::Reject { .. }, Outcome::Reject { .. }) => {}
    }
    if implementation.repaired_chunked {
        out.push(Deviation {
            kind: DeviationKind::Repair,
            class: AttackClass::Hrs,
            detail: "repaired malformed chunked framing".to_string(),
        });
    }
    out
}

/// Convenience: interpret under the baseline and diff in one call.
pub fn deviations_from_strict(profile: &ParserProfile, bytes: &[u8]) -> Vec<Deviation> {
    let b = interpret(&baseline_profile(), bytes);
    let i = interpret(profile, bytes);
    deviations(&i, &b, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdiff_servers::{product, ProductId};

    #[test]
    fn iis_ws_colon_is_a_lenient_hrs_deviation() {
        let msg = b"POST / HTTP/1.1\r\nHost: h\r\nContent-Length : 3\r\n\r\nabc";
        let devs = deviations_from_strict(&product(ProductId::Iis), msg);
        assert_eq!(devs.len(), 1, "{devs:?}");
        assert_eq!(devs[0].kind, DeviationKind::LenientAccept);
        assert_eq!(devs[0].class, AttackClass::Hrs);
    }

    #[test]
    fn weblogic_http09_is_a_cpdos_class_deviation() {
        let msg = b"GET / HTTP/0.9\r\nHost: h\r\n\r\n";
        let devs = deviations_from_strict(&product(ProductId::Weblogic), msg);
        assert!(devs.iter().any(|d| d.class == AttackClass::Cpdos), "{devs:?}");
    }

    #[test]
    fn varnish_invalid_host_is_a_hot_deviation() {
        let msg = b"GET / HTTP/1.1\r\nHost: h1.com@h2.com\r\n\r\n";
        let devs = deviations_from_strict(&product(ProductId::Varnish), msg);
        assert!(devs.iter().any(|d| d.class == AttackClass::Hot), "{devs:?}");
    }

    #[test]
    fn haproxy_chunk_repair_is_an_hrs_deviation() {
        let msg = b"POST / HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n1000000000000000a\r\nabc\r\n0\r\n\r\n";
        let devs = deviations_from_strict(&product(ProductId::Haproxy), msg);
        assert!(devs.iter().any(|d| d.kind == DeviationKind::Repair), "{devs:?}");
    }

    #[test]
    fn strict_product_has_no_deviation_on_clean_request() {
        let msg = b"GET / HTTP/1.1\r\nHost: h\r\n\r\n";
        for id in ProductId::ALL {
            let devs = deviations_from_strict(&product(id), msg);
            assert!(devs.is_empty(), "{id}: {devs:?}");
        }
    }

    #[test]
    fn apache_never_deviates_leniently_on_catalog_payloads() {
        // Apache is Table I's fully-strict product (CPDoS only, via its
        // cache): it must never accept what the baseline rejects.
        for entry in hdiff_gen::catalog::catalog() {
            for (req, note) in &entry.requests {
                let bytes = req.to_bytes();
                let devs = deviations_from_strict(&product(ProductId::Apache), &bytes);
                assert!(
                    devs.iter().all(|d| d.kind != DeviationKind::LenientAccept
                        && d.kind != DeviationKind::Framing
                        && d.kind != DeviationKind::Host),
                    "{}: {note}: {devs:?}",
                    entry.id
                );
            }
        }
    }

    #[test]
    fn lighttpd_expect_rejection_is_strict_side() {
        let msg = b"GET / HTTP/1.1\r\nHost: h\r\nExpect: 100-continue\r\n\r\n";
        let devs = deviations_from_strict(&product(ProductId::Lighttpd), msg);
        assert!(devs.iter().any(|d| d.kind == DeviationKind::StrictReject), "{devs:?}");
    }
}
