//! Interior node failure and overlay self-healing (paper §IV-A: the
//! planes "can self-heal when interior nodes fail"; Table I `live`).
//!
//! ```text
//! cargo run --example failure_recovery
//! ```
//!
//! A 15-broker session (binary tree) loses rank 5 — an interior node with
//! the subtree {11, 12} beneath it. The `live` module's
//! heartbeat-synchronized hellos detect the death; a `live.down` event
//! re-parents the orphans to rank 2; and a client on orphaned rank 11
//! keeps using the KVS as if nothing happened.

use flux_modules::standard_modules;
use flux_rt::script::{Op, ScriptClient};
use flux_rt::sim::SimSession;
use flux_sim::{NetParams, SimTime};
use flux_topo::{LiveSet, Tree};
use flux_value::Value;
use flux_wire::Rank;

fn main() {
    let size = 15u32;
    let victim = Rank(5);
    let tree = Tree::binary(size);
    println!(
        "session: {size} brokers, binary tree; rank {} parents {:?}",
        victim,
        tree.children(victim)
    );

    let mut session = SimSession::new(size, 2, NetParams::default(), |_| standard_modules());

    // Before the failure: a client on rank 11 writes through its normal
    // path 11 -> 5 -> 2 -> 0.
    let before = ScriptClient::spawn(
        &mut session,
        Rank(11),
        vec![
            Op::Put { key: "state.before".into(), val: Value::from("written via rank 5") },
            Op::Commit,
        ],
    );
    session.run_until(SimTime::from_nanos(500_000_000));
    assert!(before.borrow().finished);
    println!("t=0.5s : rank 11 committed via its parent (rank 5)");

    // Failure injection.
    session.kill_broker(victim);
    println!("t=0.5s : rank {victim} KILLED (messages to it now vanish)");

    // The live module needs `live::MISS_LIMIT` (3) heartbeats (100 ms each) to
    // declare it dead; give the session 2 virtual seconds.
    session.run_until(SimTime::from_nanos(2_500_000_000));

    // Show what self-healing predicts: the orphans re-attach to rank 2.
    let mut live = LiveSet::new(size);
    live.mark_down(victim);
    println!(
        "healed : effective parent of r11 is now {}, children of r2 are {:?}",
        live.effective_parent(&tree, Rank(11)).unwrap(),
        live.effective_children(&tree, Rank(2)),
    );

    // After the failure: the same orphaned rank keeps working, and reads
    // back both its old and new data.
    let after = ScriptClient::spawn(
        &mut session,
        Rank(11),
        vec![
            Op::Put { key: "state.after".into(), val: Value::from("written around the hole") },
            Op::Commit,
            Op::Get { key: "state.before".into() },
            Op::Get { key: "state.after".into() },
        ],
    );
    session.run_until(SimTime::from_nanos(5_000_000_000));
    let o = after.borrow();
    assert!(o.finished, "orphaned rank finished all ops");
    assert!(o.op_err.iter().all(|&e| e == 0), "no errors: {:?}", o.op_err);
    println!(
        "t=5s   : rank 11 reads state.before = {:?}",
        o.replies[2].get("v").unwrap().as_str().unwrap()
    );
    println!(
        "t=5s   : rank 11 reads state.after  = {:?}",
        o.replies[3].get("v").unwrap().as_str().unwrap()
    );
    println!(
        "\n{} messages dropped at the dead broker; the session routed around it.",
        session.engine().stats().messages_dropped
    );
}
