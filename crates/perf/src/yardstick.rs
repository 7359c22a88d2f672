//! The host yardstick: how fast the host runs simulator-like code now.
//!
//! The benchmark's host is shared. Its memory system slows by 10–50 % for
//! minutes at a time, and by more for a second or two at a time, while
//! plain arithmetic keeps its speed; the simulator workloads —
//! allocation, tree and pointer-chasing code — slow with it: ten runs of
//! one build spread 9–18 % on `read_fanout_1k` in such periods. The
//! yardstick is a fixed piece of `std`-only work of the same diet, read
//! between the reps. It calls nothing of the program under test, so no
//! change to the program moves it.
//!
//! A run's simulator times are scaled by `reference ÷ lower quartile of
//! the run's readings`, and the times themselves are lower quartiles of
//! the reps: a burst only ever adds time, so the low end of both is what
//! the slow drift alone did to them, and the drift cancels in the ratio.
//! Over ten sets of ten runs the corrected times spread 3–9 % where the
//! uncorrected medians spread 2–18 %; the correction costs a calm period
//! 2–3 % and saves a troubled one 5–10 %.
//!
//! One reading is three passes of two halves, because the host's noise
//! has two parts that move apart: the cost of small allocations and page
//! faults (all of `read_fanout_1k`'s noise, none of `fence_8k`'s, whose
//! heap stays mapped) and the latency of memory beyond the caches. Either
//! half alone makes one of the workloads noisier than no correction.

use crate::gen::Scale;
use crate::stats;
use std::collections::BTreeMap;
use std::time::Instant;

/// Passes per reading.
const PASSES: usize = 3;

/// Steps of the pointer chase per pass.
const CHASE_STEPS: usize = 300_000;

/// The yardstick's fixed work, sized once, and the readings so far.
pub struct Yardstick {
    /// One cycle through all of `0..len` in scattered order: the chase
    /// follows it, every step a dependent load from a far-away line.
    cycle: Vec<u32>,
    /// Entries of the map each pass builds and drops.
    map_entries: usize,
    /// What a reading takes on the quiet host the benchmark was sized on,
    /// seconds; scaling by it keeps a corrected time in seconds.
    reference_s: f64,
    /// Every reading taken, seconds.
    readings_s: Vec<f64>,
}

impl Yardstick {
    /// Builds the yardstick — at full scale a 64 MB cycle (beyond any
    /// cache level a guest keeps to itself) and a ~10 MB map — and takes
    /// the first reading.
    pub fn start(scale: Scale) -> Yardstick {
        let (len, map_entries) = match scale {
            Scale::Full => (16 << 20, 60_000),
            Scale::Smoke => (1 << 12, 500),
        };
        // Sattolo's shuffle: a permutation that is a single cycle.
        let mut cycle: Vec<u32> = (0..len as u32).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..len).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            cycle.swap(i, (x % i as u64) as usize);
        }
        let mut yardstick =
            Yardstick { cycle, map_entries, reference_s: 0.3, readings_s: Vec::new() };
        yardstick.read();
        if scale == Scale::Smoke {
            // Smoke times mean nothing; any reading will do as reference.
            yardstick.reference_s = yardstick.readings_s[0];
        }
        yardstick
    }

    /// Resident memory the yardstick holds from `start` on, MB.
    pub fn resident_mb(&self) -> f64 {
        (self.cycle.len() * size_of::<u32>()) as f64 / (1024.0 * 1024.0)
    }

    /// Takes one reading: the wall-clock of the fixed work.
    pub fn read(&mut self) {
        let start = Instant::now();
        for _ in 0..PASSES {
            // Small allocations, string formatting, tree inserts in
            // scattered key order, a walk, and the frees.
            let mut map = BTreeMap::new();
            for i in 0..self.map_entries {
                // 7919 is prime to both entry counts: a permutation.
                let key = format!("kap.k{}", i * 7919 % self.map_entries);
                map.insert(key, vec![i as u8; 64]);
            }
            let walked: usize = map.iter().map(|(k, v)| k.len() + v.len()).sum();
            std::hint::black_box(walked);
            drop(map);

            let mut at = 0u32;
            for _ in 0..CHASE_STEPS.min(self.cycle.len()) {
                at = self.cycle[at as usize];
            }
            std::hint::black_box(at);
        }
        self.readings_s.push(start.elapsed().as_secs_f64());
    }

    /// Every reading so far, seconds.
    pub fn readings_s(&self) -> &[f64] {
        &self.readings_s
    }

    /// What scales a wall-clock time of this run to the reference host
    /// speed — the reference over the lower quartile of the readings:
    /// below 1 when the host ran slow.
    pub fn factor(&self) -> f64 {
        self.reference_s / stats::lower_quartile(&self.readings_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_cycle_visits_every_entry_once() {
        let y = Yardstick::start(Scale::Smoke);
        let (mut at, mut steps) = (0u32, 0usize);
        loop {
            at = y.cycle[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, y.cycle.len());
    }

    #[test]
    fn a_slower_host_scales_times_down() {
        let mut y = Yardstick::start(Scale::Smoke);
        y.read();
        assert_eq!(y.readings_s().len(), 2);
        assert!(y.resident_mb() > 0.0 && y.factor() > 0.0);
        y.reference_s = 0.3;
        y.readings_s = vec![0.9, 0.6, 0.6, 0.7, 0.6];
        assert_eq!(y.factor(), 0.5);
    }
}
