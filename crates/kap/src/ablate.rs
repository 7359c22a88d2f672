//! The virtual-time cells that are not a sweep of the KAP parameter
//! space: Fig. 1's session wire-up and the design-choice ablations A1
//! (tree arity) and A3 (module placement depth). `kap fig1` and
//! `kap ablate` print them; `tests/harness.rs` pins their `--quick`
//! values.

use crate::layout::{key_for, value_for, DirLayout};
use crate::runner::{assert_completed, modules, run_kap, KapParams, KapResult};
use flux_broker::CommsModule;
use flux_kvs::{KvsConfig, KvsModule};
use flux_rt::script::Op;
use flux_rt::transport::{ScriptReport, ScriptTransport, SimTransport};
use flux_topo::Tree;
use flux_wire::Rank;

/// The tree fan-outs A1 compares (the paper: "Although a binary
/// RPC/reduction tree is pictured, the tree shape is configurable").
pub const ARITIES: [u32; 3] = [2, 4, 16];

/// The placements A3 compares: the KVS on brokers of depth ≤ d only,
/// `None` for every broker (the configuration everything else runs).
pub const PLACEMENTS: [Option<u32>; 4] = [Some(0), Some(1), Some(2), None];

/// The makespan of a run in which every op of every script succeeded.
fn completed(report: &ScriptReport) -> u64 {
    assert_completed(report);
    report.makespan_ns
}

/// Fig. 1 — comms-session wire-up: virtual time for a fresh session of
/// `size` brokers on a tree of `arity` to complete one session-wide
/// barrier, one client per broker. Completion needs every broker
/// reachable over the tree and the event plane delivering the exit
/// everywhere. The paper shows the wire-up diagram, not a measurement;
/// this is what that wire-up costs as sessions grow.
pub fn wireup_ns(size: u32, arity: u32) -> u64 {
    let scripts = (0..size)
        .map(|r| (Rank(r), vec![Op::Barrier { name: "wireup".into(), nprocs: u64::from(size) }]))
        .collect();
    let factory = |_| modules(KvsConfig::default());
    completed(&SimTransport::default().run_scripts(size, arity, &factory, scripts))
}

/// A1 — tree-plane fan-out: the fully populated KAP cell of
/// `nodes × procs_per_node` testers writing 2 KiB values, on a tree of
/// `arity`. Higher arity shortens the tree (fewer reduction hops for
/// the fence) but concentrates more children on every interior cache
/// (slower consumer reads); the crossover is what the ablation maps.
pub fn arity_cell(nodes: u32, procs_per_node: u32, arity: u32) -> KapResult {
    let mut p = KapParams::populated(nodes, procs_per_node);
    p.value_size = 2048;
    p.arity = arity;
    run_kap(&p)
}

/// A3 — module placement depth (paper §IV-A: "A comms module may thus
/// be loaded at a configurable tree depth to tune its level of
/// distribution or to conserve node resources for application workloads
/// toward the leaves"): virtual makespan of one put, a fence and one
/// get of a neighbour's key per process, with the KVS loaded only on
/// brokers of depth ≤ `max_depth` of a binary tree. Requests from
/// deeper brokers route upstream to the first instance: shallow
/// placement saves leaf memory but concentrates load and lengthens
/// every access path.
pub fn placement_makespan_ns(nodes: u32, procs_per_node: u32, max_depth: Option<u32>) -> u64 {
    let tree = Tree::binary(nodes);
    let procs = u64::from(nodes) * u64::from(procs_per_node);
    let key = |gid| key_for(DirLayout::Split128, gid);
    let scripts = (0..procs)
        .map(|gid| {
            let ops = vec![
                Op::Put { key: key(gid), val: value_for(gid, 8, false) },
                Op::Fence { name: "d".into(), nprocs: procs },
                Op::Get { key: key((gid + 1) % procs) },
            ];
            (Rank((gid % u64::from(nodes)) as u32), ops)
        })
        .collect();
    let factory = |rank| -> Vec<Box<dyn CommsModule>> {
        if max_depth.is_none_or(|d| tree.depth(rank) <= d) {
            vec![Box::new(KvsModule::new())]
        } else {
            Vec::new()
        }
    };
    completed(&SimTransport::default().run_scripts(nodes, 2, &factory, scripts))
}
