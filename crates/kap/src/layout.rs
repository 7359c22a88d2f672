//! Key and value layout for KAP objects.

use flux_value::Value;

/// How keys are organized in the KVS name space.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DirLayout {
    /// All objects in one directory (`kap.k<gid>`) — the Fig. 4(a) case.
    Single,
    /// Objects spread over directories of at most 128 each
    /// (`kap.d<gid/128>.k<gid>`) — the Fig. 4(b) case.
    Split128,
}

/// Objects per directory in the split layout (paper: "multiple
/// directories of at most 128 objects each").
const SPLIT_DIR_OBJECTS: u64 = 128;

/// The KVS key for object `gid` under a layout.
pub fn key_for(layout: DirLayout, gid: u64) -> String {
    match layout {
        DirLayout::Single => format!("kap.k{gid}"),
        DirLayout::Split128 => format!("kap.d{}.k{gid}", gid / SPLIT_DIR_OBJECTS),
    }
}

/// The value object `gid`'s producer writes: exactly `value_size` bytes
/// of string content. With `redundant = true` every producer writes the
/// *same* bytes, so content addressing deduplicates them during the fence
/// reduction (the Fig. 3 mechanism); otherwise the gid makes each value
/// unique.
pub fn value_for(gid: u64, value_size: usize, redundant: bool) -> Value {
    // An 8-hex-digit gid prefix keeps values distinct down to the paper's
    // smallest size (8 bytes) for any realistic object count.
    let prefix = if redundant { "vvvvvvvv:".to_owned() } else { format!("{gid:08x}:") };
    let mut s = prefix;
    if s.len() > value_size {
        s.truncate(value_size);
    } else {
        let fill = value_size - s.len();
        s.extend(std::iter::repeat_n('x', fill));
    }
    Value::Str(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_layout_keys_share_a_directory() {
        assert_eq!(key_for(DirLayout::Single, 0), "kap.k0");
        assert_eq!(key_for(DirLayout::Single, 8191), "kap.k8191");
    }

    #[test]
    fn split_layout_caps_directory_population() {
        assert_eq!(key_for(DirLayout::Split128, 0), "kap.d0.k0");
        assert_eq!(key_for(DirLayout::Split128, 127), "kap.d0.k127");
        assert_eq!(key_for(DirLayout::Split128, 128), "kap.d1.k128");
        assert_eq!(key_for(DirLayout::Split128, 8191), "kap.d63.k8191");
    }

    #[test]
    fn values_have_exact_size() {
        for size in [8usize, 32, 128, 512, 2048, 8192, 32768] {
            let v = value_for(123, size, false);
            assert_eq!(v.as_str().unwrap().len(), size);
            let r = value_for(123, size, true);
            assert_eq!(r.as_str().unwrap().len(), size);
        }
    }

    #[test]
    fn unique_values_differ_redundant_do_not() {
        assert_ne!(value_for(1, 64, false), value_for(2, 64, false));
        assert_eq!(value_for(1, 64, true), value_for(2, 64, true));
        // And the redundant value differs from any unique one.
        assert_ne!(value_for(1, 64, true), value_for(1, 64, false));
    }

    #[test]
    fn tiny_values_stay_distinct_at_8_bytes() {
        let a = value_for(11111111, 8, false);
        let b = value_for(11111112, 8, false);
        assert_eq!(a.as_str().unwrap().len(), 8);
        assert_ne!(a, b);
    }
}
