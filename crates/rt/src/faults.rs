//! Deterministic fault injection for every transport.
//!
//! A [`FaultPlan`] describes, from a single `u64` seed, everything that
//! can go wrong in a session: per-link message drops, delays (which also
//! reorder, since a delayed message lands behind later sends), and
//! duplicates, plus scheduled *blackouts* (a rank goes completely silent
//! for a window — the model of a crashed-then-restarted broker) and
//! *partitions* (a rank set is cut off from the rest for a window).
//!
//! The plan is pure data; each sending broker derives a `LinkFaults`
//! from it. Link decisions are drawn from an independent SplitMix64
//! stream per `(seed, from, to)` link, so the fate of the nth message on
//! a link is a pure function of the plan and the link — not of timing,
//! thread interleaving, or traffic on other links. On the simulator this
//! makes whole chaos runs bit-reproducible; on the live runtime the
//! per-link decision *sequence* is identical even though wall-clock
//! arrival times are not.
//!
//! Windows (blackouts, partitions) are expressed in nanoseconds since
//! the session epoch: virtual time on the simulator, wall time on the
//! live runtime. Helpers convert heartbeat-epoch windows using the
//! session's `hb_period_ns`.

use flux_sim::rng::Rng;
use flux_wire::{Plane, Rank};
use std::fmt;
use std::ops::Range;

/// One scheduled total-silence window for a rank: all of its inbound and
/// outbound traffic is dropped while `from_ns <= now < until_ns`. This is
/// how the fault layer models "kill broker at epoch A, restart at B" —
/// identical semantics on both runtimes, no actor teardown needed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Blackout {
    /// The silenced rank.
    pub rank: Rank,
    /// Window start (ns since session epoch, inclusive).
    pub from_ns: u64,
    /// Window end (ns since session epoch, exclusive; `u64::MAX` = never
    /// restarts).
    pub until_ns: u64,
}

/// One scheduled partition: while active, messages crossing the boundary
/// between `group` and its complement are dropped in both directions.
/// Traffic within the group (and within the complement) is unaffected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    /// Ranks on one side of the cut.
    pub group: Vec<Rank>,
    /// Window start (ns since session epoch, inclusive).
    pub from_ns: u64,
    /// Window end (ns since session epoch, exclusive).
    pub until_ns: u64,
}

/// A reproducible schedule of faults for one session, seeded by one u64.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed for all per-link random streams.
    pub seed: u64,
    /// Per-message drop probability, in parts per million.
    pub drop_ppm: u32,
    /// Per-message duplication probability, in parts per million.
    pub dup_ppm: u32,
    /// Per-message extra-delay probability, in parts per million.
    pub delay_ppm: u32,
    /// Upper bound on injected extra delay (uniform in `1..=max`).
    pub max_delay_ns: u64,
    /// Scheduled whole-rank silence windows.
    pub blackouts: Vec<Blackout>,
    /// Scheduled partitions.
    pub partitions: Vec<Partition>,
}

fn ppm(p: f64) -> u32 {
    (p.clamp(0.0, 1.0) * 1_000_000.0) as u32
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan { seed, ..FaultPlan::default() }
    }

    /// Sets the per-message drop probability (`0.0..=1.0`).
    pub fn drop(mut self, p: f64) -> FaultPlan {
        self.drop_ppm = ppm(p);
        self
    }

    /// Sets the per-message duplication probability (`0.0..=1.0`).
    pub fn duplicate(mut self, p: f64) -> FaultPlan {
        self.dup_ppm = ppm(p);
        self
    }

    /// Sets the per-message extra-delay probability and the delay bound.
    /// Delays are the reordering mechanism: a delayed message arrives
    /// after later undelayed traffic on the same link.
    pub fn delay(mut self, p: f64, max_ns: u64) -> FaultPlan {
        self.delay_ppm = ppm(p);
        self.max_delay_ns = max_ns.max(1);
        self
    }

    /// Silences `rank` over `window` (ns since session epoch).
    pub fn kill(mut self, rank: Rank, window: Range<u64>) -> FaultPlan {
        self.blackouts.push(Blackout { rank, from_ns: window.start, until_ns: window.end });
        self
    }

    /// Silences `rank` over a heartbeat-epoch window: epochs are
    /// converted with `hb_period_ns` (epoch `e` begins at `e * period`).
    pub fn kill_epochs(self, rank: Rank, epochs: Range<u64>, hb_period_ns: u64) -> FaultPlan {
        let from = epochs.start.saturating_mul(hb_period_ns);
        let until = epochs.end.saturating_mul(hb_period_ns);
        self.kill(rank, from..until)
    }

    /// Cuts `group` off from the rest of the session over `window`.
    pub fn partition(mut self, group: Vec<Rank>, window: Range<u64>) -> FaultPlan {
        self.partitions.push(Partition { group, from_ns: window.start, until_ns: window.end });
        self
    }

    /// True if the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.drop_ppm == 0
            && self.dup_ppm == 0
            && self.delay_ppm == 0
            && self.blackouts.is_empty()
            && self.partitions.is_empty()
    }

    /// True if `rank` is inside a blackout window at `now_ns`.
    fn blacked_out(&self, rank: Rank, now_ns: u64) -> bool {
        self.blackouts
            .iter()
            .any(|b| b.rank == rank && b.from_ns <= now_ns && now_ns < b.until_ns)
    }

    /// True if an active partition separates `a` from `b` at `now_ns`.
    fn partitioned(&self, a: Rank, b: Rank, now_ns: u64) -> bool {
        self.partitions.iter().any(|p| {
            p.from_ns <= now_ns
                && now_ns < p.until_ns
                && p.group.contains(&a) != p.group.contains(&b)
        })
    }

    /// True if a message from `from` to `to` at `now_ns` is cut by a
    /// scheduled fault (blackout of either end, or a partition between
    /// them). Probabilistic faults are separate — see [`LinkFaults::fate_on`].
    pub(crate) fn cut(&self, from: Rank, to: Rank, now_ns: u64) -> bool {
        self.blacked_out(from, now_ns)
            || self.blacked_out(to, now_ns)
            || self.partitioned(from, to, now_ns)
    }

    /// The per-sender view of this plan, used by one broker (or client
    /// host) to decide the fate of each outbound message.
    pub(crate) fn for_sender(&self, from: Rank) -> LinkFaults {
        LinkFaults { from, plan: self.clone(), links: Vec::new() }
    }

    /// Parses `spec` (the part after the seed in `--faults seed:spec`).
    ///
    /// Comma-separated items:
    ///
    /// * `drop=P` — drop probability, e.g. `drop=0.01`
    /// * `dup=P` — duplication probability
    /// * `delay=P/DUR` — delay probability and bound, e.g. `delay=0.05/2ms`
    /// * `reorder=P/DUR` — alias for `delay` (delays are how reordering
    ///   is injected)
    /// * `kill=R@A..B` — silence rank `R` over heartbeat epochs `[A, B)`;
    ///   `kill=R@A` never restarts
    /// * `part=G@A..B` — partition the rank group `G` (ranks joined by
    ///   `+`, e.g. `0+3+7`) from the rest over epochs `[A, B)`
    ///
    /// Durations accept `ns`, `us`, `ms`, `s` suffixes (bare = ns).
    /// Epoch windows are converted to nanoseconds with `hb_period_ns`.
    pub fn parse(seed: u64, spec: &str, hb_period_ns: u64) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new(seed);
        for item in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (key, val) =
                item.split_once('=').ok_or_else(|| format!("fault item {item:?}: want key=value"))?;
            match key {
                "drop" => plan.drop_ppm = ppm(parse_prob(val)?),
                "dup" => plan.dup_ppm = ppm(parse_prob(val)?),
                "delay" | "reorder" => {
                    let (p, dur) = val
                        .split_once('/')
                        .ok_or_else(|| format!("{key}={val}: want {key}=P/DURATION"))?;
                    plan.delay_ppm = ppm(parse_prob(p)?);
                    plan.max_delay_ns = parse_duration_ns(dur)?.max(1);
                }
                "kill" => {
                    let (rank, window) = val
                        .split_once('@')
                        .ok_or_else(|| format!("kill={val}: want kill=RANK@A..B"))?;
                    let rank = Rank(parse_u64(rank)? as u32);
                    let (a, b) = parse_epoch_window(window)?;
                    plan = plan.kill_epochs(rank, a..b, hb_period_ns);
                }
                "part" => {
                    let (group, window) = val
                        .split_once('@')
                        .ok_or_else(|| format!("part={val}: want part=R+R+R@A..B"))?;
                    let group = group
                        .split('+')
                        .map(|r| parse_u64(r).map(|v| Rank(v as u32)))
                        .collect::<Result<Vec<_>, _>>()?;
                    let (a, b) = parse_epoch_window(window)?;
                    let from = a.saturating_mul(hb_period_ns);
                    let until = b.saturating_mul(hb_period_ns);
                    plan = plan.partition(group, from..until);
                }
                other => return Err(format!("unknown fault kind {other:?}")),
            }
        }
        Ok(plan)
    }

    /// Parses a full `seed:spec` string (the `--faults` flag form).
    pub fn parse_flag(flag: &str, hb_period_ns: u64) -> Result<FaultPlan, String> {
        let (seed, spec) = flag
            .split_once(':')
            .ok_or_else(|| format!("--faults {flag:?}: want SEED:spec (e.g. 7:drop=0.01)"))?;
        FaultPlan::parse(parse_u64(seed)?, spec, hb_period_ns)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed={} drop={}ppm dup={}ppm delay={}ppm/{}ns kills={} parts={}",
            self.seed,
            self.drop_ppm,
            self.dup_ppm,
            self.delay_ppm,
            self.max_delay_ns,
            self.blackouts.len(),
            self.partitions.len(),
        )
    }
}

fn parse_prob(s: &str) -> Result<f64, String> {
    let p: f64 = s.parse().map_err(|_| format!("bad probability {s:?}"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("probability {s:?} outside 0..=1"));
    }
    Ok(p)
}

fn parse_u64(s: &str) -> Result<u64, String> {
    s.trim().parse().map_err(|_| format!("bad integer {s:?}"))
}

fn parse_duration_ns(s: &str) -> Result<u64, String> {
    let s = s.trim();
    let (num, mult) = if let Some(n) = s.strip_suffix("ns") {
        (n, 1)
    } else if let Some(n) = s.strip_suffix("us") {
        (n, 1_000)
    } else if let Some(n) = s.strip_suffix("ms") {
        (n, 1_000_000)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1_000_000_000)
    } else {
        (s, 1)
    };
    Ok(parse_u64(num)?.saturating_mul(mult))
}

/// Parses `A..B` (epochs, end exclusive) or a bare `A` (no end).
fn parse_epoch_window(s: &str) -> Result<(u64, u64), String> {
    match s.split_once("..") {
        Some((a, b)) => Ok((parse_u64(a)?, parse_u64(b)?)),
        None => Ok((parse_u64(s)?, u64::MAX / 2)),
    }
}

/// The fate of one outbound message: how many copies to deliver and the
/// extra in-flight delay of each. Empty = dropped.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Fate {
    /// Extra delay (ns) per delivered copy; empty means the message is
    /// dropped.
    pub(crate) copies: Vec<u64>,
}

impl Fate {
    /// A fate that delivers the message untouched.
    pub(crate) fn intact() -> Fate {
        Fate { copies: vec![0] }
    }
}

/// A sending rank's view of a [`FaultPlan`]: one deterministic random
/// stream per destination link, consulted for every outbound message.
#[derive(Clone, Debug)]
pub(crate) struct LinkFaults {
    from: Rank,
    plan: FaultPlan,
    /// Per-destination streams, indexed by destination rank; grown
    /// lazily. Seeded from `(plan.seed, from, to)` only, so the stream
    /// does not depend on when the link first carries traffic.
    links: Vec<Option<Rng>>,
}

/// Mixes a link identity into the plan seed (SplitMix64 finalizer, so
/// nearby `(from, to)` pairs get unrelated streams).
fn link_seed(seed: u64, from: Rank, to: Rank) -> u64 {
    let mut z = seed ^ (u64::from(from.0) << 32) ^ u64::from(to.0) ^ 0x6a09_e667_f3bc_c909;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl LinkFaults {
    /// True if the sender itself is inside a blackout window: it must
    /// neither send nor process anything (the "crashed" state).
    pub(crate) fn silenced(&self, now_ns: u64) -> bool {
        self.plan.blacked_out(self.from, now_ns)
    }

    /// Decides the fate of the next outbound message to `to` at `now_ns`
    /// on `plane`. Consumes one slice of the link's random stream; call
    /// exactly once per message, in send order, for reproducible
    /// decisions. Every plane is FIFO per link (one connection per
    /// ordered broker pair), so an injected delay is the only reorder —
    /// made here, above the link. The event plane cannot take one (its
    /// at-most-once sequence dedup loses a reordered event forever), so
    /// delays are suppressed there; drops, duplicates, blackouts, and
    /// partitions still apply. Consumes the same random draws on every
    /// plane, so a link's stream does not depend on the plane mix of its
    /// traffic.
    pub(crate) fn fate_on(&mut self, plane: Plane, now_ns: u64, to: Rank) -> Fate {
        let ordered = matches!(plane, Plane::Event);
        if self.plan.cut(self.from, to, now_ns) {
            return Fate::default();
        }
        if self.plan.drop_ppm == 0 && self.plan.dup_ppm == 0 && self.plan.delay_ppm == 0 {
            return Fate::intact();
        }
        let idx = to.index();
        if idx >= self.links.len() {
            self.links.resize(idx + 1, None);
        }
        let seed = link_seed(self.plan.seed, self.from, to);
        let rng = self.links[idx].get_or_insert_with(|| Rng::seeded(seed));
        if self.plan.drop_ppm > 0 && rng.gen_range(0u32..1_000_000) < self.plan.drop_ppm {
            return Fate::default();
        }
        let mut copies = Vec::with_capacity(1);
        let delay = |rng: &mut Rng, plan: &FaultPlan| {
            if plan.delay_ppm > 0 && rng.gen_range(0u32..1_000_000) < plan.delay_ppm {
                rng.gen_range(1..=plan.max_delay_ns)
            } else {
                0
            }
        };
        copies.push(delay(rng, &self.plan));
        if self.plan.dup_ppm > 0 && rng.gen_range(0u32..1_000_000) < self.plan.dup_ppm {
            copies.push(delay(rng, &self.plan));
        }
        if ordered {
            copies.fill(0);
        }
        Fate { copies }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_fates() {
        let plan = FaultPlan::new(42).drop(0.2).duplicate(0.1).delay(0.3, 1_000_000);
        let run = || {
            let mut lf = plan.for_sender(Rank(3));
            (0..200)
                .map(|i| lf.fate_on(Plane::Tree, i * 1000, Rank(i as u32 % 5)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn links_are_independent_streams() {
        let plan = FaultPlan::new(7).drop(0.5);
        // Interleaving traffic on link B must not change link A's stream.
        let mut only_a = plan.for_sender(Rank(0));
        let a_alone: Vec<_> = (0..100).map(|_| only_a.fate_on(Plane::Tree, 0, Rank(1))).collect();
        let mut mixed = plan.for_sender(Rank(0));
        let mut a_mixed = Vec::new();
        for _ in 0..100 {
            a_mixed.push(mixed.fate_on(Plane::Tree, 0, Rank(1)));
            let _ = mixed.fate_on(Plane::Tree, 0, Rank(2));
        }
        assert_eq!(a_alone, a_mixed);
    }

    #[test]
    fn no_faults_is_always_intact() {
        let mut lf = FaultPlan::new(1).for_sender(Rank(0));
        for i in 0..50 {
            assert_eq!(lf.fate_on(Plane::Tree, i, Rank(1)), Fate::intact());
        }
    }

    #[test]
    fn blackout_cuts_both_directions_within_window() {
        let plan = FaultPlan::new(0).kill(Rank(2), 100..200);
        let from_victim = plan.for_sender(Rank(2));
        let mut to_victim = plan.for_sender(Rank(0));
        assert!(from_victim.silenced(150));
        assert!(!from_victim.silenced(99));
        assert!(!from_victim.silenced(200)); // end exclusive: restarted
        assert!(to_victim.fate_on(Plane::Tree, 150, Rank(2)).copies.is_empty());
        assert_eq!(to_victim.fate_on(Plane::Tree, 250, Rank(2)), Fate::intact());
    }

    #[test]
    fn partition_cuts_only_across_the_boundary() {
        let plan = FaultPlan::new(0).partition(vec![Rank(0), Rank(1)], 0..1000);
        let mut inside = plan.for_sender(Rank(0));
        assert_eq!(inside.fate_on(Plane::Tree, 10, Rank(1)), Fate::intact()); // same side
        assert!(inside.fate_on(Plane::Tree, 10, Rank(2)).copies.is_empty()); // across
        let mut outside = plan.for_sender(Rank(3));
        assert!(outside.fate_on(Plane::Tree, 10, Rank(1)).copies.is_empty()); // across, reverse
        assert_eq!(outside.fate_on(Plane::Tree, 10, Rank(2)), Fate::intact()); // same side
        assert_eq!(outside.fate_on(Plane::Tree, 2000, Rank(1)), Fate::intact()); // healed
    }

    #[test]
    fn drop_rate_roughly_matches_probability() {
        let plan = FaultPlan::new(99).drop(0.25);
        let mut lf = plan.for_sender(Rank(0));
        let dropped =
            (0..4000).filter(|_| lf.fate_on(Plane::Tree, 0, Rank(1)).copies.is_empty()).count();
        assert!((800..1200).contains(&dropped), "dropped {dropped}/4000 at p=0.25");
    }

    #[test]
    fn spec_parser_round_trips() {
        let hb = 100_000_000; // 100ms
        let plan =
            FaultPlan::parse(7, "drop=0.01, dup=0.002, delay=0.05/2ms, kill=5@6..14", hb).unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.drop_ppm, 10_000);
        assert_eq!(plan.dup_ppm, 2_000);
        assert_eq!(plan.delay_ppm, 50_000);
        assert_eq!(plan.max_delay_ns, 2_000_000);
        assert_eq!(
            plan.blackouts,
            vec![Blackout { rank: Rank(5), from_ns: 6 * hb, until_ns: 14 * hb }]
        );
    }

    #[test]
    fn spec_parser_partitions_and_reorder_alias() {
        let plan = FaultPlan::parse(1, "reorder=0.1/500us, part=0+2+4@3..9", 1_000).unwrap();
        assert_eq!(plan.delay_ppm, 100_000);
        assert_eq!(plan.max_delay_ns, 500_000);
        assert_eq!(
            plan.partitions,
            vec![Partition {
                group: vec![Rank(0), Rank(2), Rank(4)],
                from_ns: 3_000,
                until_ns: 9_000,
            }]
        );
    }

    #[test]
    fn spec_parser_rejects_garbage() {
        assert!(FaultPlan::parse(0, "drop=2.0", 1).is_err());
        assert!(FaultPlan::parse(0, "nope=1", 1).is_err());
        assert!(FaultPlan::parse(0, "kill=5", 1).is_err());
        assert!(FaultPlan::parse_flag("no-seed-here", 1).is_err());
        assert!(FaultPlan::parse_flag("9:drop=0.5", 1).is_ok());
    }
}
