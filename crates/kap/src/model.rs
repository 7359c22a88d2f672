//! The paper's analytic performance models (§V-B).
//!
//! For the consumer phase with all keys in one directory, the paper
//! derives
//!
//! ```text
//! max consumer latency = log2(C) × T(G)
//! ```
//!
//! where `C` is the consumer count and `T(G)` the time to replicate the
//! `G` objects into one slave cache from its CMB-tree parent: the miss
//! wave fills caches level by level down the tree, and each of the
//! `log2(C)` levels costs one `T(G)` bulk transfer. The corollary is the
//! geometric-series argument: if `G` grows proportionally to `C`, the
//! latency becomes linear — "the only way to gain true logarithmic
//! scaling is when G stays constant regardless of scale."

use crate::layout::{value_for, DirLayout};
use flux_kvs::KvsObject;
use std::collections::BTreeMap;

/// `T(G)`: time to move `G` objects of `value_bytes` each, and their
/// directory at `dir_entry_bytes` per entry, over one hop, under a
/// latency + bandwidth cost model (the directory object itself dominates
/// when values are small).
pub fn transfer_time_ns(
    g_objects: u64,
    value_bytes: u64,
    dir_entry_bytes: u64,
    per_hop_latency_ns: u64,
    ns_per_kib: u64,
) -> u64 {
    let bytes = g_objects * (value_bytes + dir_entry_bytes);
    per_hop_latency_ns + bytes * ns_per_kib / 1024
}

/// Bytes per entry of the one directory the single-layout KAP run writes
/// for `g_objects` values of `value_size` bytes: the directory's encoded
/// length ([`KvsObject::encoded_len`], what the wire carries) over its
/// entry count.
pub fn dir_entry_bytes(g_objects: u64, value_size: usize) -> u64 {
    let entries: BTreeMap<String, _> = (0..g_objects)
        .map(|gid| {
            let key = crate::layout::key_for(DirLayout::Single, gid);
            let name = key.rsplit('.').next().unwrap_or(&key).to_owned();
            (name, KvsObject::Val(value_for(gid, value_size, false)).id())
        })
        .collect();
    KvsObject::Dir(entries).encoded_len() as u64 / g_objects.max(1)
}

/// The paper's consumer-phase model: `log2(C) × T(G)`.
pub fn consumer_latency_model_ns(consumers: u64, t_g_ns: u64) -> u64 {
    (64 - consumers.max(1).leading_zeros() as u64 - 1).max(1) * t_g_ns
}

/// Least-squares slope of `y` against `x` (for checking linear vs
/// logarithmic growth in measured sweeps).
pub fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    assert!(points.len() >= 2, "need at least two points");
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// Coefficient of determination (R²) of the best linear fit of `y = a +
/// b·x` — used to ask "is this sweep closer to linear in C or linear in
/// log C?".
pub fn r_squared(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let b = slope(points);
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let a = (sy - b * sx) / n;
    let mean_y = sy / n;
    let ss_res: f64 = points.iter().map(|p| (p.1 - (a + b * p.0)).powi(2)).sum();
    let ss_tot: f64 = points.iter().map(|p| (p.1 - mean_y).powi(2)).sum();
    if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_scales_with_payload() {
        let small = transfer_time_ns(10, 8, 31, 1300, 305);
        let big = transfer_time_ns(10, 32768, 31, 1300, 305);
        assert!(big > 50 * small);
        let more = transfer_time_ns(100, 8, 31, 1300, 305);
        assert!(more > small);
    }

    #[test]
    fn a_directory_entry_costs_what_its_encoding_does() {
        // A 20-byte id, a name `k<gid>` and their framing: 20-odd
        // bytes, growing by one with each digit of the gid.
        let small = dir_entry_bytes(10, 8);
        assert!((20..=32).contains(&small), "{small}");
        assert!(dir_entry_bytes(8192, 8) > small);
        assert_eq!(dir_entry_bytes(64, 8), dir_entry_bytes(64, 4096), "ids are fixed width");
    }

    #[test]
    fn consumer_model_is_logarithmic_in_consumers() {
        let t = 1_000;
        let l1k = consumer_latency_model_ns(1024, t);
        let l8k = consumer_latency_model_ns(8192, t);
        assert_eq!(l1k, 10 * t);
        assert_eq!(l8k, 13 * t);
        // Doubling consumers adds one T(G), not a factor.
        assert_eq!(consumer_latency_model_ns(2048, t) - l1k, t);
    }

    #[test]
    fn doubling_g_with_scale_doubles_latency() {
        // §V-B's geometric series: when G doubles with C, each extra tree
        // level moves twice the bytes, so T(2G) / T(G) → 2 at large G.
        let t = |g| transfer_time_ns(g, 8, 31, 1300, 305) as f64;
        let ratio = t(200_000) / t(100_000);
        assert!((1.8..=2.05).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn slope_and_r2_detect_linearity() {
        let linear: Vec<(f64, f64)> = (1..=8).map(|i| (i as f64, 3.0 * i as f64 + 1.0)).collect();
        assert!((slope(&linear) - 3.0).abs() < 1e-9);
        assert!(r_squared(&linear) > 0.9999);
        let log: Vec<(f64, f64)> =
            (1..=8).map(|i| (i as f64, (i as f64).log2())).collect();
        // A log curve fits a line in x poorly vs a line in log2 x.
        let in_log_x: Vec<(f64, f64)> =
            log.iter().map(|&(x, y)| (x.log2(), y)).collect();
        assert!(r_squared(&in_log_x) > r_squared(&log));
    }
}
