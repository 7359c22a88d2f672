//! # flux-hash
//!
//! SHA1 and content-address identifiers for the Flux KVS.
//!
//! The ICPP'14 Flux paper content-addresses KVS objects by their SHA1
//! digest, borrowing the hash-tree design from ZFS and git (§IV-B). This
//! crate provides [`Sha1`] (FIPS 180-1, verified against the standard
//! test vectors), compressing on the CPU's SHA instructions through
//! `flux-sys` where it has them and from scratch elsewhere, and the
//! [`ObjectId`] newtype the rest of the system uses to reference stored
//! objects.
//!
//! SHA1 is used here exactly as git uses it: as a content fingerprint for
//! deduplication and addressing inside a trusted session, not as a
//! collision-resistant security boundary.
//!
//! # Example
//!
//! ```
//! use flux_hash::{ObjectId, Sha1};
//!
//! let id = ObjectId::hash(b"hello world");
//! assert_eq!(id.to_hex(), "2aae6c35c94fcfb415dbe95f408b9ce91ee846ed");
//! assert_eq!(ObjectId::from_hex(&id.to_hex()).unwrap(), id);
//!
//! // Streaming interface:
//! let mut h = Sha1::new();
//! h.update(b"hello ");
//! h.update(b"world");
//! assert_eq!(ObjectId::from(h.finalize()), id);
//! ```


#![forbid(unsafe_code)]
#![deny(missing_docs)]
mod object_id;
mod sha1;

pub use object_id::{HexError, ObjectId};
pub use sha1::{Digest, Sha1};

#[cfg(test)]
mod proptests;
