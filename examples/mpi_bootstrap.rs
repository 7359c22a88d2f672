//! MPI-style bootstrap over PMI (paper §IV-A / §V motivation).
//!
//! ```text
//! cargo run --example mpi_bootstrap
//! ```
//!
//! 64 "MPI" processes on 16 nodes wire up the way real MPI run-times do
//! over PMI: each process publishes its connection endpoint ("business
//! card") into the KVS, everyone fences, then each process reads its ring
//! neighbours' cards. The fence is the critical path the paper's KAP
//! benchmark models — "Unless all of the distributed processes complete
//! their KVS operations, their communication fabric cannot be
//! established."

use flux_kvs::KvsModule;
use flux_modules::BarrierModule;
use flux_pmi::bootstrap_ops;
use flux_rt::script::ScriptClient;
use flux_rt::sim::SimSession;
use flux_sim::NetParams;
use flux_wire::Rank;

fn main() {
    let nodes = 16u32;
    let procs: u64 = 64;
    let fanout = 2;

    let mut session = SimSession::new(nodes, 2, NetParams::default(), |_| {
        vec![Box::new(KvsModule::new()), Box::new(BarrierModule::new())]
    });

    let outcomes: Vec<_> = (0..procs)
        .map(|grank| {
            let node = Rank((grank % u64::from(nodes)) as u32);
            let script = bootstrap_ops("mpi-demo", grank, procs, fanout);
            ScriptClient::spawn(&mut session, node, script)
        })
        .collect();

    let end = session.run_until_quiet(None).expect("unbounded");

    let mut fence_done_max = 0u64;
    let mut wireup_done_max = 0u64;
    for (grank, o) in outcomes.iter().enumerate() {
        let o = o.borrow();
        assert!(o.finished, "rank {grank} bootstrapped");
        assert!(o.op_err.iter().all(|&e| e == 0), "rank {grank} errors: {:?}", o.op_err);
        // Ops: [put, fence, get, get]: check the neighbours' cards.
        for (i, reply) in o.replies[2..].iter().enumerate() {
            let peer = (grank as u64 + 1 + i as u64) % procs;
            let want = format!("endpoint://node/{peer}");
            assert_eq!(flux_kvs::msg::value(reply).and_then(|v| v.as_str()), Some(want.as_str()));
        }
        fence_done_max = fence_done_max.max(o.op_done_ns[1]);
        wireup_done_max = wireup_done_max.max(*o.op_done_ns.last().unwrap());
    }

    println!("{procs} MPI processes on {nodes} nodes bootstrapped over PMI:");
    println!("  exchange fence complete at {:.3} ms (virtual)", fence_done_max as f64 / 1e6);
    println!("  all business cards read at {:.3} ms (virtual)", wireup_done_max as f64 / 1e6);
    println!("  session idle at {end}");
    println!(
        "  {} messages / {} KiB over the three planes",
        session.engine().stats().messages_delivered,
        session.engine().stats().bytes_delivered / 1024
    );
}
