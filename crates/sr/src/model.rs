//! The formal SR data model.

use std::fmt;

/// The protocol roles HTTP requirements are placed on (RFC 7230 §2.5 names
/// ten: senders, recipients, clients, servers, user agents, intermediaries,
/// origin servers, proxies, gateways, caches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Role {
    /// Any party generating a message.
    Sender,
    /// Any party receiving a message.
    Recipient,
    /// The connecting party.
    Client,
    /// The serving party (generic).
    Server,
    /// The end-user client program.
    UserAgent,
    /// Any middlebox (proxy, gateway, cache, …).
    Intermediary,
    /// The authoritative server for the resource.
    OriginServer,
    /// A client-selected forwarding agent.
    Proxy,
    /// A reverse proxy.
    Gateway,
    /// A response store.
    Cache,
}

impl Role {
    /// All ten roles.
    pub const ALL: [Role; 10] = [
        Role::Sender,
        Role::Recipient,
        Role::Client,
        Role::Server,
        Role::UserAgent,
        Role::Intermediary,
        Role::OriginServer,
        Role::Proxy,
        Role::Gateway,
        Role::Cache,
    ];

    /// Maps an RFC noun (singular or plural, any case) to a role.
    ///
    /// ```
    /// use hdiff_sr::Role;
    /// assert_eq!(Role::from_keyword("Proxies"), Some(Role::Proxy));
    /// assert_eq!(Role::from_keyword("origin server"), Some(Role::OriginServer));
    /// assert_eq!(Role::from_keyword("attacker"), None);
    /// ```
    pub fn from_keyword(word: &str) -> Option<Role> {
        let w = word.trim().to_ascii_lowercase();
        let w = if let Some(stem) = w.strip_suffix("ies") {
            format!("{stem}y") // proxies -> proxy, intermediaries -> intermediary
        } else if w.ends_with('s') && !w.ends_with("ss") {
            w[..w.len() - 1].to_string() // servers -> server, caches -> cache
        } else {
            w
        };
        match w.as_str() {
            "sender" => Some(Role::Sender),
            "recipient" => Some(Role::Recipient),
            "client" => Some(Role::Client),
            "server" => Some(Role::Server),
            "user agent" | "user-agent" | "useragent" => Some(Role::UserAgent),
            "intermediary" | "intermediari" => Some(Role::Intermediary),
            "origin server" | "origin-server" => Some(Role::OriginServer),
            "proxy" | "proxi" => Some(Role::Proxy),
            "gateway" => Some(Role::Gateway),
            "cache" | "shared cache" => Some(Role::Cache),
            _ => None,
        }
    }

    /// Whether an implementation acting as `other` is bound by a
    /// requirement on `self` (e.g. every proxy is a recipient and a sender;
    /// an origin server is a server).
    pub fn applies_to(self, other: Role) -> bool {
        if self == other {
            return true;
        }
        match self {
            Role::Sender | Role::Recipient => true, // everyone sends and receives
            Role::Server => matches!(other, Role::OriginServer | Role::Gateway),
            Role::Intermediary => matches!(other, Role::Proxy | Role::Gateway | Role::Cache),
            Role::Client => matches!(other, Role::UserAgent | Role::Proxy),
            _ => false,
        }
    }
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Role::Sender => "sender",
            Role::Recipient => "recipient",
            Role::Client => "client",
            Role::Server => "server",
            Role::UserAgent => "user agent",
            Role::Intermediary => "intermediary",
            Role::OriginServer => "origin server",
            Role::Proxy => "proxy",
            Role::Gateway => "gateway",
            Role::Cache => "cache",
        };
        f.write_str(s)
    }
}

/// Requirement strength, following RFC 2119 plus the non-keyword strong
/// phrasings the paper's sentiment finder is designed to catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Modality {
    /// MUST / REQUIRED / SHALL.
    Must,
    /// MUST NOT / SHALL NOT / "not allowed" / "cannot".
    MustNot,
    /// SHOULD / RECOMMENDED / "ought to".
    Should,
    /// SHOULD NOT / "ought not".
    ShouldNot,
    /// MAY / OPTIONAL.
    May,
}

impl Modality {
    /// Whether violating the requirement is a specification violation
    /// (MUST-level) rather than a discretionary difference.
    pub fn is_mandatory(self) -> bool {
        matches!(self, Modality::Must | Modality::MustNot)
    }

    /// Whether the requirement is phrased negatively.
    pub fn is_negative(self) -> bool {
        matches!(self, Modality::MustNot | Modality::ShouldNot)
    }
}

impl fmt::Display for Modality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Modality::Must => "MUST",
            Modality::MustNot => "MUST NOT",
            Modality::Should => "SHOULD",
            Modality::ShouldNot => "SHOULD NOT",
            Modality::May => "MAY",
        };
        f.write_str(s)
    }
}

/// The part of the message a description constrains.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MessageField {
    /// A named header field (`Host`, `Content-Length`, …).
    Header(String),
    /// The request line as a whole.
    RequestLine,
    /// The `HTTP-version` token.
    HttpVersion,
    /// The method token.
    Method,
    /// The request-target.
    RequestTarget,
    /// The message body / framing.
    MessageBody,
    /// Chunked-coding structure (chunk-size, chunk-data).
    Chunked,
}

impl fmt::Display for MessageField {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MessageField::Header(name) => write!(f, "{name} header"),
            MessageField::RequestLine => f.write_str("request-line"),
            MessageField::HttpVersion => f.write_str("HTTP-version"),
            MessageField::Method => f.write_str("method"),
            MessageField::RequestTarget => f.write_str("request-target"),
            MessageField::MessageBody => f.write_str("message body"),
            MessageField::Chunked => f.write_str("chunked coding"),
        }
    }
}

/// The state a message description asserts about a field — the paper's
/// enumerable message-description vocabulary (valid, invalid, repeat,
/// empty, too long, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldState {
    /// The field is present (any value).
    Present,
    /// The field is absent.
    Absent,
    /// The field is present with a grammar-valid value.
    Valid,
    /// The field is present with a grammar-invalid value.
    Invalid,
    /// The field occurs more than once (or its value repeats as a list).
    Multiple,
    /// The field is present with an empty value.
    Empty,
    /// The field exceeds the recipient's size limits.
    TooLong,
    /// Field name/colon spacing is malformed (whitespace before colon).
    MalformedSpacing,
    /// Two mutually exclusive fields are both present (e.g. CL + TE).
    Conflicting,
}

impl FieldState {
    /// All states, for template enumeration.
    pub const ALL: [FieldState; 9] = [
        FieldState::Present,
        FieldState::Absent,
        FieldState::Valid,
        FieldState::Invalid,
        FieldState::Multiple,
        FieldState::Empty,
        FieldState::TooLong,
        FieldState::MalformedSpacing,
        FieldState::Conflicting,
    ];
}

impl fmt::Display for FieldState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FieldState::Present => "present",
            FieldState::Absent => "absent",
            FieldState::Valid => "valid",
            FieldState::Invalid => "invalid",
            FieldState::Multiple => "multiple",
            FieldState::Empty => "empty",
            FieldState::TooLong => "too long",
            FieldState::MalformedSpacing => "malformed spacing",
            FieldState::Conflicting => "conflicting",
        };
        f.write_str(s)
    }
}

/// One message description: `field is state`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MessageDescription {
    /// The constrained field.
    pub field: MessageField,
    /// Its asserted state.
    pub state: FieldState,
}

impl MessageDescription {
    /// Convenience constructor.
    pub fn new(field: MessageField, state: FieldState) -> MessageDescription {
        MessageDescription { field, state }
    }

    /// Constructor for header descriptions.
    pub fn header(name: &str, state: FieldState) -> MessageDescription {
        MessageDescription { field: MessageField::Header(name.to_string()), state }
    }
}

impl fmt::Display for MessageDescription {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} is {}", self.field, self.state)
    }
}

/// What the role is required to do — the paper's enumerable role-action
/// vocabulary (close connection, report error, respond N, not forward, …).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RoleAction {
    /// Respond with a specific status code.
    Respond(u16),
    /// Reject the message (a 4xx, specific code unspecified).
    Reject,
    /// Accept and process the message.
    Accept,
    /// Ignore the field/expectation but process the message.
    Ignore,
    /// Close the connection.
    CloseConnection,
    /// Forward the message (intermediaries).
    Forward,
    /// Do not forward the message.
    NotForward,
    /// Remove the field before forwarding.
    RemoveField(String),
    /// Replace the field/value before forwarding.
    ReplaceField(String),
    /// Do not store/reuse the response (caches).
    NotCache,
    /// Do not generate/send such a message (sender-side prohibition).
    /// Messages violating it are prime differential-test seeds: recipient
    /// behavior on them is where implementations diverge.
    NotGenerate,
}

impl fmt::Display for RoleAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoleAction::Respond(code) => write!(f, "respond {code}"),
            RoleAction::Reject => f.write_str("reject"),
            RoleAction::Accept => f.write_str("accept"),
            RoleAction::Ignore => f.write_str("ignore"),
            RoleAction::CloseConnection => f.write_str("close connection"),
            RoleAction::Forward => f.write_str("forward"),
            RoleAction::NotForward => f.write_str("not forward"),
            RoleAction::RemoveField(n) => write!(f, "remove {n}"),
            RoleAction::ReplaceField(n) => write!(f, "replace {n}"),
            RoleAction::NotCache => f.write_str("not cache"),
            RoleAction::NotGenerate => f.write_str("not generate"),
        }
    }
}

/// A formal Specification Requirement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecRequirement {
    /// Stable identifier (`doc:section:ordinal`).
    pub id: String,
    /// Source document tag (`rfc7230`).
    pub source: String,
    /// Source section number.
    pub section: String,
    /// The original sentence.
    pub sentence: String,
    /// The constrained role.
    pub role: Role,
    /// Requirement strength.
    pub modality: Modality,
    /// Message descriptions (conjunctive conditions).
    pub conditions: Vec<MessageDescription>,
    /// The required action.
    pub action: RoleAction,
}

impl SpecRequirement {
    /// Whether this SR binds an implementation playing `role`.
    pub fn binds(&self, role: Role) -> bool {
        self.role.applies_to(role)
    }

    /// Whether a deviation from this SR is a hard specification violation.
    pub fn is_mandatory(&self) -> bool {
        self.modality.is_mandatory()
    }
}

impl fmt::Display for SpecRequirement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {} {} ", self.id, self.role, self.modality)?;
        write!(f, "{}", self.action)?;
        if !self.conditions.is_empty() {
            write!(f, " when ")?;
            for (i, c) in self.conditions.iter().enumerate() {
                if i > 0 {
                    write!(f, " and ")?;
                }
                write!(f, "{c}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn role_keywords() {
        assert_eq!(Role::from_keyword("server"), Some(Role::Server));
        assert_eq!(Role::from_keyword("Servers"), Some(Role::Server));
        assert_eq!(Role::from_keyword("proxies"), Some(Role::Proxy));
        assert_eq!(Role::from_keyword("caches"), Some(Role::Cache));
        assert_eq!(Role::from_keyword("user agent"), Some(Role::UserAgent));
        assert_eq!(Role::from_keyword("intermediaries"), Some(Role::Intermediary));
        assert_eq!(Role::from_keyword("nonsense"), None);
        assert_eq!(Role::ALL.len(), 10);
    }

    #[test]
    fn role_applicability() {
        assert!(Role::Recipient.applies_to(Role::Proxy));
        assert!(Role::Sender.applies_to(Role::OriginServer));
        assert!(Role::Server.applies_to(Role::OriginServer));
        assert!(Role::Intermediary.applies_to(Role::Proxy));
        assert!(!Role::Proxy.applies_to(Role::OriginServer));
        assert!(!Role::Cache.applies_to(Role::Server));
        assert!(Role::Proxy.applies_to(Role::Proxy));
    }

    #[test]
    fn modality_classification() {
        assert!(Modality::Must.is_mandatory());
        assert!(Modality::MustNot.is_mandatory());
        assert!(!Modality::Should.is_mandatory());
        assert!(Modality::MustNot.is_negative());
        assert!(Modality::ShouldNot.is_negative());
        assert!(!Modality::May.is_negative());
    }

    #[test]
    fn display_round_trip_readable() {
        let sr = SpecRequirement {
            id: "rfc7230:5.4:1".into(),
            source: "rfc7230".into(),
            section: "5.4".into(),
            sentence: "A server MUST respond with a 400...".into(),
            role: Role::Server,
            modality: Modality::Must,
            conditions: vec![MessageDescription::header("Host", FieldState::Absent)],
            action: RoleAction::Respond(400),
        };
        let s = sr.to_string();
        assert!(s.contains("server MUST respond 400"), "{s}");
        assert!(s.contains("Host header is absent"), "{s}");
        assert!(sr.binds(Role::OriginServer));
        assert!(sr.is_mandatory());
    }

    #[test]
    fn field_state_display() {
        assert_eq!(FieldState::TooLong.to_string(), "too long");
        assert_eq!(FieldState::ALL.len(), 9);
    }
}
