//! Property tests for SHA1 and ObjectId.

use crate::{ObjectId, Sha1};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Streaming with an arbitrary chunking equals the one-shot digest.
    #[test]
    fn chunked_equals_oneshot(data in prop::collection::vec(any::<u8>(), 0..512),
                              cuts in prop::collection::vec(0usize..512, 0..8)) {
        let want = Sha1::digest(&data);
        let mut h = Sha1::new();
        let mut pos = 0;
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (data.len() + 1)).collect();
        cuts.sort_unstable();
        for c in cuts {
            if c > pos {
                h.update(&data[pos..c]);
                pos = c;
            }
        }
        h.update(&data[pos..]);
        prop_assert_eq!(h.finalize(), want);
    }

    /// Hex round-trip always succeeds.
    #[test]
    fn hex_roundtrip(data in prop::collection::vec(any::<u8>(), 0..64)) {
        let id = ObjectId::hash(&data);
        prop_assert_eq!(ObjectId::from_hex(&id.to_hex()).unwrap(), id);
    }

    /// Appending a byte always changes the digest (regression guard for
    /// length-handling bugs in padding).
    #[test]
    fn extension_changes_digest(data in prop::collection::vec(any::<u8>(), 0..256), b in any::<u8>()) {
        let d1 = ObjectId::hash(&data);
        let mut ext = data.clone();
        ext.push(b);
        prop_assert_ne!(d1, ObjectId::hash(&ext));
    }

    /// The hardware compressor over a whole batch equals the portable one
    /// applied block by block, from any state. Where the CPU has no SHA
    /// instructions this compares the portable path with itself.
    #[test]
    fn hardware_compress_equals_portable(
        state in (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
        nblocks in 0usize..17,
        bytes in prop::collection::vec(any::<u8>(), 1024..1025),
    ) {
        let (a, b, c, d, e) = state;
        let blocks = &bytes.as_chunks::<64>().0[..nblocks];
        let mut want = [a, b, c, d, e];
        for block in blocks {
            Sha1::compress(&mut want, block);
        }
        let mut got = [a, b, c, d, e];
        if !flux_sys::sha1_compress(&mut got, blocks) {
            NO_HARDWARE.call_once(|| {
                eprintln!("no SHA instructions: portable path compared with itself")
            });
            for block in blocks {
                Sha1::compress(&mut got, block);
            }
        }
        prop_assert_eq!(got, want);
    }
}

static NO_HARDWARE: std::sync::Once = std::sync::Once::new();
