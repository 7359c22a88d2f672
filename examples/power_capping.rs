//! Site-wide power capping through the hierarchy (paper §II challenges
//! 1 & 3: "dynamic power capping at the level of systems, compute racks,
//! and/or nodes"; power as the most elastic resource).
//!
//! ```text
//! cargo run --example power_capping
//! ```
//!
//! A center instance leases two cluster partitions and then takes a
//! site-wide power cut. The cut propagates down the hierarchy as grant
//! reductions; schedulers immediately stop starting work the budget no
//! longer covers, and throughput recovers when the cap lifts.

use flux_core::{Fcfs, Instance, InstanceConfig, JobSpec, Workload};

// The center: two clusters (nodes), a site power budget and its cut.
const ZIN_NODES: u32 = 64;
const CAB_NODES: u32 = 32;
const SITE_POWER_W: u64 = 80_000;
const SITE_CAP_W: u64 = 40_000;

fn running_watts(i: &Instance) -> u64 {
    i.grant_power_w() - i.free_power_w()
}

fn main() {
    println!(
        "center: zin {ZIN_NODES} nodes, cab {CAB_NODES} nodes, site budget {SITE_POWER_W} W"
    );

    let mut center = Instance::root(
        InstanceConfig::new("center", ZIN_NODES + CAB_NODES).with_power(SITE_POWER_W),
        Box::new(Fcfs),
    );
    let zin = center
        .spawn_child(
            InstanceConfig::new("zin", ZIN_NODES).with_power(40_000),
            Box::new(Fcfs),
        )
        .unwrap();
    let cab = center
        .spawn_child(
            InstanceConfig::new("cab", CAB_NODES).with_power(20_000),
            Box::new(Fcfs),
        )
        .unwrap();

    // Steady-state load: hungry 400 W/node jobs.
    let mut wl = Workload::seeded(7);
    for spec in wl.uq_ensemble(200, 30_000) {
        let spec = JobSpec { power_per_node_w: 400, ..spec };
        center.child_mut(zin).unwrap().submit(spec);
    }
    for spec in wl.uq_ensemble(100, 30_000) {
        let spec = JobSpec { power_per_node_w: 400, ..spec };
        center.child_mut(cab).unwrap().submit(spec);
    }
    center.advance(10_000);
    println!(
        "t=10us : zin draws {:>6} W, cab draws {:>6} W",
        running_watts(center.child(zin).unwrap()),
        running_watts(center.child(cab).unwrap())
    );

    // Site emergency: the budget halves. The center reclaims all unused
    // headroom from its children (only unused watts can move — elasticity
    // is cooperative) and re-caps itself.
    let zin_free = center.child(zin).unwrap().free_power_w();
    let cab_free = center.child(cab).unwrap().free_power_w();
    center.shrink_child(zin, 0, zin_free).expect("reclaim zin headroom");
    center.shrink_child(cab, 0, cab_free).expect("reclaim cab headroom");
    center.cap_power(SITE_CAP_W);
    println!(
        "CAP    : site 80 kW -> 40 kW; zin grant {:>6} W, cab grant {:>6} W",
        center.child(zin).unwrap().grant_power_w(),
        center.child(cab).unwrap().grant_power_w()
    );
    assert!(center.grant_power_w() <= SITE_CAP_W, "the center holds the site cap");

    center.advance(40_000);
    center.check_invariants();
    let zin_running_capped = center.child(zin).unwrap().running_len();
    println!(
        "t=40us : under the cap zin runs {} jobs ({} W), queue {}",
        zin_running_capped,
        running_watts(center.child(zin).unwrap()),
        center.child(zin).unwrap().queue_len()
    );

    // The emergency passes: grow the children back (parental consent).
    center.cap_power(SITE_POWER_W);
    center.request_grow(zin, 0, 20_000).expect("regrow zin");
    center.request_grow(cab, 0, 8_000).expect("regrow cab");
    center.advance(70_000);
    let zin_running_lifted = center.child(zin).unwrap().running_len();
    println!(
        "LIFT   : cap lifted; zin now runs {} jobs ({} W)",
        zin_running_lifted,
        running_watts(center.child(zin).unwrap())
    );

    let end = center.drain();
    center.check_invariants();
    println!(
        "drained: all {} + {} jobs complete at t = {:.3} ms (virtual)",
        center.child(zin).unwrap().history().len(),
        center.child(cab).unwrap().history().len(),
        end as f64 / 1e6
    );
    assert!(
        zin_running_lifted >= zin_running_capped,
        "throughput recovers when the cap lifts"
    );
}
