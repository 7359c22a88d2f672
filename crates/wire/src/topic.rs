//! Hierarchical topic name space.
//!
//! Topics look like `kvs.put` or `event.hb`: dot-separated lowercase
//! words. The first component is the *service* (the comms module the
//! message is addressed to); the rest is the method path inside that
//! module. Event subscriptions match by prefix, exactly like ØMQ
//! subscription prefixes the prototype used.

use std::fmt;
use std::sync::Arc;

/// A validated, hierarchical topic string.
///
/// Backed by a shared `Arc<str>`: cloning a topic (every response, every
/// event fan-out hop, every pending-event summary) is a reference-count
/// bump, not a heap allocation.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Topic(Arc<str>);

/// Why a topic string was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopicError {
    /// The string was empty.
    Empty,
    /// A component was empty (leading/trailing/double dot).
    EmptyComponent,
    /// A character outside `[a-z0-9_-]` appeared.
    BadChar(char),
    /// Longer than `Topic::MAX_LEN` (255 bytes).
    TooLong(usize),
}

impl fmt::Display for TopicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopicError::Empty => write!(f, "topic is empty"),
            TopicError::EmptyComponent => write!(f, "topic has an empty component"),
            TopicError::BadChar(c) => write!(f, "invalid character {c:?} in topic"),
            TopicError::TooLong(n) => write!(f, "topic length {n} exceeds {}", Topic::MAX_LEN),
        }
    }
}

impl std::error::Error for TopicError {}

impl Topic {
    /// Maximum accepted topic length in bytes.
    const MAX_LEN: usize = 255;

    /// Validates and constructs a topic.
    pub fn new(s: impl Into<String>) -> Result<Topic, TopicError> {
        let s = s.into();
        if s.is_empty() {
            return Err(TopicError::Empty);
        }
        if s.len() > Self::MAX_LEN {
            return Err(TopicError::TooLong(s.len()));
        }
        for part in s.split('.') {
            if part.is_empty() {
                return Err(TopicError::EmptyComponent);
            }
            for c in part.chars() {
                if !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '-') {
                    return Err(TopicError::BadChar(c));
                }
            }
        }
        Ok(Topic(s.into()))
    }

    /// Constructs a topic, panicking on invalid input. For string literals.
    ///
    /// # Panics
    /// Panics if the literal is not a valid topic.
    #[expect(
        clippy::panic,
        reason = "documented contract for compile-time literals; the flux-proto registry \
                  is the only production caller and its round-trip tests exercise them"
    )]
    pub fn from_static(s: &'static str) -> Topic {
        Topic::new(s).unwrap_or_else(|e| panic!("invalid static topic {s:?}: {e}"))
    }

    /// The full topic string.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The first component: the comms module this message is addressed to.
    pub fn service(&self) -> &str {
        match self.first_dot() {
            Some(i) => &self.0[..i],
            None => &self.0,
        }
    }

    /// Everything after the service, or `""` for a bare service topic.
    pub fn method(&self) -> &str {
        match self.first_dot() {
            Some(i) => &self.0[i + 1..],
            None => "",
        }
    }

    /// Byte offset of the first `.`: a plain byte search, cheaper on every
    /// dispatch than `str`'s `char` pattern machinery.
    fn first_dot(&self) -> Option<usize> {
        self.0.bytes().position(|b| b == b'.')
    }

    /// Prefix matching with component boundaries: `kvs` matches `kvs.put`
    /// but not `kvstore.put`. The empty-prefix case is handled by
    /// subscriptions storing `""`, which matches everything.
    pub fn matches_prefix(&self, prefix: &str) -> bool {
        if prefix.is_empty() {
            return true;
        }
        match self.0.strip_prefix(prefix) {
            Some("") => true,
            Some(rest) => rest.starts_with('.'),
            None => false,
        }
    }
}

impl fmt::Display for Topic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for Topic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Topic({})", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_topics() {
        for t in ["svc", "svc.put", "event.tick", "xexec.run.0", "a-b_c.d2"] {
            assert!(Topic::new(t).is_ok(), "{t}");
        }
    }

    #[test]
    fn invalid_topics() {
        assert_eq!(Topic::new(""), Err(TopicError::Empty));
        assert_eq!(Topic::new(".svc"), Err(TopicError::EmptyComponent));
        assert_eq!(Topic::new("svc."), Err(TopicError::EmptyComponent));
        assert_eq!(Topic::new("a..b"), Err(TopicError::EmptyComponent));
        assert_eq!(Topic::new("SVC.put"), Err(TopicError::BadChar('S')));
        assert_eq!(Topic::new("svc put"), Err(TopicError::BadChar(' ')));
        assert!(matches!(Topic::new("x".repeat(300)), Err(TopicError::TooLong(300))));
    }

    #[test]
    fn service_and_method() {
        let t = Topic::new("svc.commit.flush").unwrap();
        assert_eq!(t.service(), "svc");
        assert_eq!(t.method(), "commit.flush");
        let bare = Topic::new("svc").unwrap();
        assert_eq!(bare.service(), "svc");
        assert_eq!(bare.method(), "");
    }

    #[test]
    fn prefix_matching_respects_boundaries() {
        let t = Topic::new("svc.put").unwrap();
        assert!(t.matches_prefix(""));
        assert!(t.matches_prefix("svc"));
        assert!(t.matches_prefix("svc.put"));
        assert!(!t.matches_prefix("svc.p"));
        assert!(!t.matches_prefix("sv"));
        assert!(!t.matches_prefix("svc.put.x"));
        let t2 = Topic::new("svcstore.put").unwrap();
        assert!(!t2.matches_prefix("svc"));
    }

    #[test]
    #[should_panic(expected = "invalid static topic")]
    fn from_static_panics_on_bad_literal() {
        let _ = Topic::from_static("Not Valid");
    }
}
