//! Schedules, deviations, and the replayable trace format.
//!
//! A schedule is a *sparse deviation list*: at every visible step the
//! runner takes the default choice (dispatch the earliest eligible
//! event) unless the schedule names that step. This makes schedules
//! tiny, canonical, and trivially replayable — a violation report is
//! just a scenario name plus a handful of `(step, choice)` pairs.

use std::fmt;

/// One deviation from the default schedule at a visible step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Choice {
    /// Dispatch the `n`-th eligible event instead of the 0-th.
    Pick(u16),
    /// Duplicate the `n`-th eligible event (a broker-to-broker frame
    /// dup, as the transport fault layer models), then dispatch the
    /// default event.
    Dup(u16),
}

impl fmt::Display for Choice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Choice::Pick(n) => write!(f, "p={n}"),
            Choice::Dup(n) => write!(f, "d={n}"),
        }
    }
}

/// A sparse schedule: deviations sorted by step, at most one per step.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schedule {
    /// `(visible step, choice)` pairs, strictly increasing by step.
    pub devs: Vec<(u32, Choice)>,
}

impl Schedule {
    /// The empty (default) schedule.
    pub(crate) fn empty() -> Schedule {
        Schedule::default()
    }

    /// The deviation at `step`, if any.
    pub(crate) fn at(&self, step: u32) -> Option<Choice> {
        self.devs
            .binary_search_by_key(&step, |d| d.0)
            .ok()
            .map(|i| self.devs[i].1)
    }

    /// The step of the last deviation (`None` for the default schedule).
    pub(crate) fn last_step(&self) -> Option<u32> {
        self.devs.last().map(|d| d.0)
    }

    /// Number of duplication deviations.
    pub(crate) fn dups(&self) -> usize {
        self.devs.iter().filter(|d| matches!(d.1, Choice::Dup(_))).count()
    }

    /// This schedule extended with a deviation at `step`, which must be
    /// strictly after the last existing deviation.
    pub(crate) fn extended(&self, step: u32, choice: Choice) -> Schedule {
        debug_assert!(self.last_step().is_none_or(|s| step > s));
        let mut devs = self.devs.clone();
        devs.push((step, choice));
        Schedule { devs }
    }
}

/// Encodes a violation trace: `flux-mc:v1:<scenario>:<devs>` where
/// `<devs>` is a comma-separated list of `p@<step>=<n>` / `d@<step>=<n>`
/// entries, or `-` for the default schedule.
pub(crate) fn encode_trace(scenario: &str, sched: &Schedule) -> String {
    if sched.devs.is_empty() {
        return format!("flux-mc:v1:{scenario}:-");
    }
    let devs: Vec<String> = sched
        .devs
        .iter()
        .map(|(step, choice)| match choice {
            Choice::Pick(n) => format!("p@{step}={n}"),
            Choice::Dup(n) => format!("d@{step}={n}"),
        })
        .collect();
    format!("flux-mc:v1:{scenario}:{}", devs.join(","))
}

/// Decodes a trace produced by [`encode_trace`] back into a scenario
/// name and schedule.
pub(crate) fn decode_trace(trace: &str) -> Result<(String, Schedule), String> {
    let rest = trace
        .strip_prefix("flux-mc:v1:")
        .ok_or_else(|| format!("not a flux-mc v1 trace: {trace:?}"))?;
    let (scenario, devs_str) = rest
        .split_once(':')
        .ok_or_else(|| format!("trace missing deviation list: {trace:?}"))?;
    if scenario.is_empty() {
        return Err("trace has an empty scenario name".to_owned());
    }
    let mut sched = Schedule::empty();
    if devs_str != "-" {
        for part in devs_str.split(',') {
            let (kind, body) = part.split_at(1.min(part.len()));
            let body = body
                .strip_prefix('@')
                .ok_or_else(|| format!("bad deviation {part:?}"))?;
            let (step, n) = body
                .split_once('=')
                .ok_or_else(|| format!("bad deviation {part:?}"))?;
            let step: u32 =
                step.parse().map_err(|_| format!("bad step in {part:?}"))?;
            let n: u16 = n.parse().map_err(|_| format!("bad index in {part:?}"))?;
            let choice = match kind {
                "p" => Choice::Pick(n),
                "d" => Choice::Dup(n),
                _ => return Err(format!("unknown deviation kind in {part:?}")),
            };
            if sched.last_step().is_some_and(|s| step <= s) {
                return Err(format!("deviations out of order at step {step}"));
            }
            sched.devs.push((step, choice));
        }
    }
    Ok((scenario.to_owned(), sched))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_round_trip() {
        let sched = Schedule {
            devs: vec![(3, Choice::Pick(2)), (7, Choice::Dup(0)), (12, Choice::Pick(1))],
        };
        let enc = encode_trace("kvs_fence", &sched);
        assert_eq!(enc, "flux-mc:v1:kvs_fence:p@3=2,d@7=0,p@12=1");
        let (name, dec) = decode_trace(&enc).expect("decodes");
        assert_eq!(name, "kvs_fence");
        assert_eq!(dec, sched);
    }

    #[test]
    fn empty_trace_round_trip() {
        let enc = encode_trace("barrier", &Schedule::empty());
        assert_eq!(enc, "flux-mc:v1:barrier:-");
        let (name, dec) = decode_trace(&enc).expect("decodes");
        assert_eq!(name, "barrier");
        assert!(dec.devs.is_empty());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_trace("flux-mc:v2:x:-").is_err());
        assert!(decode_trace("flux-mc:v1:x:q@1=2").is_err());
        assert!(decode_trace("flux-mc:v1:x:p@5=1,p@3=0").is_err());
        assert!(decode_trace("flux-mc:v1::-").is_err());
        assert!(decode_trace("nonsense").is_err());
    }

    #[test]
    fn schedule_lookup_and_extend() {
        let s = Schedule::empty().extended(4, Choice::Pick(1)).extended(9, Choice::Dup(0));
        assert_eq!(s.at(4), Some(Choice::Pick(1)));
        assert_eq!(s.at(9), Some(Choice::Dup(0)));
        assert_eq!(s.at(5), None);
        assert_eq!(s.last_step(), Some(9));
        assert_eq!(s.dups(), 1);
    }
}
