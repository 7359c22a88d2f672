//! Job specifications.

/// How elastic a job's size is (paper §II, challenge 3: "rigid vs
/// moldable vs malleable scheduling against different workload and
/// resource types"). A running job's size is fixed; only a child
/// instance's grant grows or shrinks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Elasticity {
    /// Exactly `nodes`, fixed at submission.
    Rigid,
    /// The scheduler may pick any size in `[min, max]` at start time, but
    /// it is fixed afterwards.
    Moldable {
        /// Smallest acceptable node count.
        min: u32,
        /// Largest useful node count.
        max: u32,
    },
}

/// A job request.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Human-readable name.
    pub name: String,
    /// Requested node count (the nominal size; see [`Elasticity`]).
    pub nodes: u32,
    /// Requested walltime in nanoseconds of virtual time.
    pub walltime_ns: u64,
    /// Power drawn per allocated node, in watts (counted against the
    /// instance's power budget while running).
    pub power_per_node_w: u64,
    /// Elasticity class.
    pub elasticity: Elasticity,
}

impl JobSpec {
    /// A rigid job with the given size and walltime, drawing a typical
    /// 350 W per node.
    pub fn rigid(name: impl Into<String>, nodes: u32, walltime_ns: u64) -> JobSpec {
        JobSpec {
            name: name.into(),
            nodes,
            walltime_ns,
            power_per_node_w: 350,
            elasticity: Elasticity::Rigid,
        }
    }

    /// Sets the per-node power draw.
    pub fn with_power(mut self, watts: u64) -> JobSpec {
        self.power_per_node_w = watts;
        self
    }

    /// Makes the job moldable within `[min, max]` nodes.
    pub fn moldable(mut self, min: u32, max: u32) -> JobSpec {
        assert!(min <= max, "bounds ordered");
        self.elasticity = Elasticity::Moldable { min, max };
        self
    }

    /// Total power this job draws at `nodes` allocated nodes.
    pub fn power_at(&self, nodes: u32) -> u64 {
        self.power_per_node_w * u64::from(nodes)
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    /// Panics on a zero-node or zero-walltime spec.
    pub fn validate(&self) {
        assert!(self.nodes > 0, "job {:?} requests zero nodes", self.name);
        assert!(self.walltime_ns > 0, "job {:?} requests zero walltime", self.name);
        match self.elasticity {
            Elasticity::Rigid => {}
            Elasticity::Moldable { min, max } => {
                assert!(min >= 1 && min <= max, "job {:?} has bad bounds", self.name);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rigid_constructor() {
        let s = JobSpec::rigid("hello", 4, 1_000);
        s.validate();
        assert_eq!(s.elasticity, Elasticity::Rigid);
        assert_eq!(s.power_at(4), 1400);
    }

    #[test]
    fn builders_compose() {
        let s = JobSpec::rigid("uq", 8, 5_000).with_power(200).moldable(2, 16);
        s.validate();
        assert_eq!(s.power_at(16), 3200);
        assert_eq!(s.elasticity, Elasticity::Moldable { min: 2, max: 16 });
    }

    #[test]
    #[should_panic(expected = "zero nodes")]
    fn zero_nodes_rejected() {
        JobSpec::rigid("bad", 0, 1).validate();
    }
}
