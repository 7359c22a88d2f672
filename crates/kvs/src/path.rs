//! Hierarchical key names.
//!
//! Keys look like `a.b.c`: dot-separated non-empty components, resolved
//! through directory objects exactly like the paper's worked example
//! (`a.b.c = 42`).
//!
//! Bounds exist for robustness, not taste: key length is capped so a
//! single entry cannot bloat its directory object (every entry rides in
//! every copy of the directory on the wire), and component depth is
//! capped because the master rebuilds one directory object per path
//! component on every commit touching the key — unbounded depth would
//! let one key turn each commit into an arbitrarily long hash-tree walk.

use flux_wire::errnum;
use std::fmt;

/// Maximum key length in bytes.
pub const MAX_KEY_LEN: usize = 1024;

/// Maximum path components in a key (directory nesting depth).
pub const MAX_KEY_DEPTH: usize = 64;

/// Why a key was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyError {
    /// The key was empty.
    Empty,
    /// A component was empty (leading/trailing/double dots).
    EmptyComponent,
    /// Keys longer than [`MAX_KEY_LEN`] are rejected to bound directory
    /// entry sizes.
    TooLong(usize),
    /// Keys with more than [`MAX_KEY_DEPTH`] components are rejected to
    /// bound the per-commit hash-tree rebuild walk.
    TooDeep(usize),
}

impl KeyError {
    /// The wire error number a module reports for this rejection,
    /// aligned with the proto registry's declared error sets
    /// (`flux_proto::KvsMethod::declared_errors`).
    pub fn errnum(&self) -> u32 {
        match self {
            KeyError::Empty | KeyError::EmptyComponent => errnum::EINVAL,
            KeyError::TooLong(_) | KeyError::TooDeep(_) => errnum::ENAMETOOLONG,
        }
    }
}

impl fmt::Display for KeyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyError::Empty => write!(f, "key is empty"),
            KeyError::EmptyComponent => write!(f, "key has an empty component"),
            KeyError::TooLong(n) => write!(f, "key length {n} exceeds {MAX_KEY_LEN}"),
            KeyError::TooDeep(n) => write!(f, "key depth {n} exceeds {MAX_KEY_DEPTH}"),
        }
    }
}

impl std::error::Error for KeyError {}

/// Validates a key.
pub fn validate_key(key: &str) -> Result<(), KeyError> {
    if key.is_empty() {
        return Err(KeyError::Empty);
    }
    if key.len() > MAX_KEY_LEN {
        return Err(KeyError::TooLong(key.len()));
    }
    // One byte pass, as `step_walk` reads the key: a component is empty
    // where a `.` opens the key, follows another `.`, or closes the key.
    let mut depth = 1usize;
    let mut after_dot = true;
    for b in key.bytes() {
        let dot = b == b'.';
        if dot {
            if after_dot {
                return Err(KeyError::EmptyComponent);
            }
            depth += 1;
        }
        after_dot = dot;
    }
    if after_dot {
        return Err(KeyError::EmptyComponent);
    }
    if depth > MAX_KEY_DEPTH {
        return Err(KeyError::TooDeep(depth));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_keys() {
        for key in ["a", "a.b.c", "resource.rank.0"] {
            assert_eq!(validate_key(key), Ok(()));
        }
    }

    #[test]
    fn invalid_keys() {
        assert_eq!(validate_key(""), Err(KeyError::Empty));
        assert_eq!(validate_key(".a"), Err(KeyError::EmptyComponent));
        assert_eq!(validate_key("a."), Err(KeyError::EmptyComponent));
        assert_eq!(validate_key("a..b"), Err(KeyError::EmptyComponent));
        assert_eq!(validate_key("."), Err(KeyError::EmptyComponent));
        assert_eq!(validate_key(".."), Err(KeyError::EmptyComponent));
        assert!(matches!(validate_key(&"x".repeat(2000)), Err(KeyError::TooLong(2000))));
    }

    #[test]
    fn the_byte_pass_agrees_with_splitting_on_every_short_key() {
        let by_split = |key: &str| {
            if key.is_empty() {
                return Err(KeyError::Empty);
            }
            let parts: Vec<&str> = key.split('.').collect();
            if parts.iter().any(|p| p.is_empty()) {
                return Err(KeyError::EmptyComponent);
            }
            Ok(())
        };
        // Every key of up to 8 characters over `a` and `.`.
        for len in 0..=8 {
            for bits in 0u32..1 << len {
                let key: String =
                    (0..len).map(|i| if bits >> i & 1 == 1 { '.' } else { 'a' }).collect();
                assert_eq!(validate_key(&key), by_split(&key), "{key:?}");
            }
        }
    }

    #[test]
    fn boundary_lengths() {
        // Exactly at the cap is fine; one past is not.
        assert!(validate_key(&"x".repeat(MAX_KEY_LEN)).is_ok());
        assert!(matches!(
            validate_key(&"x".repeat(MAX_KEY_LEN + 1)),
            Err(KeyError::TooLong(_))
        ));
    }

    #[test]
    fn depth_is_bounded() {
        let deep_ok = vec!["a"; MAX_KEY_DEPTH].join(".");
        assert!(validate_key(&deep_ok).is_ok());
        let too_deep = vec!["a"; MAX_KEY_DEPTH + 1].join(".");
        assert_eq!(validate_key(&too_deep), Err(KeyError::TooDeep(MAX_KEY_DEPTH + 1)));
        // An oversized key made entirely of single-char components trips
        // the length cap first (length is the cheaper check).
        let huge = vec!["a"; 600].join(".");
        assert!(matches!(validate_key(&huge), Err(KeyError::TooLong(_))));
    }

    #[test]
    fn errnum_mapping_distinguishes_shape_from_size() {
        assert_eq!(KeyError::Empty.errnum(), errnum::EINVAL);
        assert_eq!(KeyError::EmptyComponent.errnum(), errnum::EINVAL);
        assert_eq!(KeyError::TooLong(9999).errnum(), errnum::ENAMETOOLONG);
        assert_eq!(KeyError::TooDeep(65).errnum(), errnum::ENAMETOOLONG);
    }

    #[test]
    fn error_display() {
        assert!(KeyError::Empty.to_string().contains("empty"));
        assert!(KeyError::TooLong(9).to_string().contains('9'));
        assert!(KeyError::TooDeep(70).to_string().contains("depth"));
    }
}
