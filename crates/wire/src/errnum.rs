//! POSIX-flavoured error numbers carried in response headers.
//!
//! The Flux prototype reported RPC failures with errno values in the
//! response header; we mirror the subset the system actually uses.

/// Operation not permitted (violates parent bounds or session policy).
pub const EPERM: u32 = 1;
/// No such key / object / rank.
pub const ENOENT: u32 = 2;
/// I/O error (transport failure).
pub const EIO: u32 = 5;
/// Try again (resource temporarily unavailable).
pub const EAGAIN: u32 = 11;
/// Invalid argument (malformed payload).
pub const EINVAL: u32 = 22;
/// Name too long (KVS key exceeds the length or depth bound).
pub const ENAMETOOLONG: u32 = 36;
/// Function not implemented (no module matched the topic).
pub const ENOSYS: u32 = 38;
/// Not a directory (KVS path component is a value).
pub const ENOTDIR: u32 = 20;
/// Is a directory (KVS get of a directory without dir flag).
pub const EISDIR: u32 = 21;
/// Operation timed out.
pub const ETIMEDOUT: u32 = 110;
/// Host (rank) is down.
pub const EHOSTDOWN: u32 = 112;

/// A human-readable description of an error number.
pub fn strerror(errnum: u32) -> &'static str {
    match errnum {
        0 => "success",
        EPERM => "operation not permitted",
        ENOENT => "no such key or object",
        EIO => "input/output error",
        EAGAIN => "resource temporarily unavailable",
        EINVAL => "invalid argument",
        ENAMETOOLONG => "name too long",
        ENOTDIR => "not a directory",
        EISDIR => "is a directory",
        ENOSYS => "function not implemented",
        ETIMEDOUT => "operation timed out",
        EHOSTDOWN => "host is down",
        _ => "unknown error",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strerror_known_and_unknown() {
        assert_eq!(strerror(0), "success");
        assert_eq!(strerror(ENOENT), "no such key or object");
        assert_eq!(strerror(ENOSYS), "function not implemented");
        assert_eq!(strerror(99999), "unknown error");
    }

    #[test]
    fn codes_are_distinct() {
        let codes = [
            EPERM, ENOENT, EIO, EAGAIN, EINVAL, ENAMETOOLONG, ENOSYS, ENOTDIR, EISDIR, ETIMEDOUT,
            EHOSTDOWN,
        ];
        let mut sorted = codes.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), codes.len());
    }
}
