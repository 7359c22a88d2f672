//! Quickstart: bring up a comms session, use the KVS, print the wire-up.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Builds an 8-node simulated session (the paper's Fig. 1 wire-up: event
//! plane, request/response tree, ring), then exercises the KVS API from
//! two client processes: put → commit → get, a fence, and a watch.

use flux_modules::standard_modules;
use flux_rt::script::{Op, ScriptClient};
use flux_rt::sim::SimSession;
use flux_sim::{NetParams, SimTime};
use flux_topo::{Ring, Tree};
use flux_value::Value;
use flux_wire::Rank;

fn print_wireup(size: u32, arity: u32) {
    let tree = Tree::new(size, arity);
    let ring = Ring::new(size);
    println!("comms session wire-up ({size} nodes, {arity}-ary tree):");
    println!("  event plane : root-sequenced broadcast down the tree");
    println!("  tree plane  : request/response + reductions");
    for r in tree.ranks() {
        let children = tree.children(r);
        if !children.is_empty() {
            let kids: Vec<String> = children.iter().map(|c| c.to_string()).collect();
            println!("    {r} -> {}", kids.join(", "));
        }
    }
    println!("  ring plane  : rank-addressed RPC");
    let hops: Vec<String> = tree.ranks().map(|r| ring.next(r).to_string()).collect();
    println!("    next-hop: [{}]", hops.join(" "));
    println!();
}

fn main() {
    let size = 8;
    print_wireup(size, 2);

    let mut session = SimSession::new(size, 2, NetParams::default(), |_| standard_modules());

    // A writer process on node 5 and a reader on node 3.
    let writer = ScriptClient::spawn(
        &mut session,
        Rank(5),
        vec![
            Op::Put { key: "demo.greeting".into(), val: Value::from("hello, flux") },
            Op::Put {
                key: "demo.coords".into(),
                val: Value::parse(r#"{"x": 1, "y": 2}"#).unwrap(),
            },
            Op::Commit,
            Op::Fence { name: "demo".into(), nprocs: 2 },
        ],
    );
    let reader = ScriptClient::spawn(
        &mut session,
        Rank(3),
        vec![
            Op::Fence { name: "demo".into(), nprocs: 2 },
            Op::Get { key: "demo.greeting".into() },
            Op::Get { key: "demo.coords".into() },
            Op::GetVersion,
        ],
    );

    // The heartbeat keeps the session alive indefinitely; step virtual
    // time until both scripts finish.
    let mut deadline = 0u64;
    while !(writer.borrow().finished && reader.borrow().finished) {
        deadline += 100_000_000;
        assert!(deadline <= 60_000_000_000, "scripts did not finish");
        session.run_until(SimTime::from_nanos(deadline));
    }
    let end = SimTime::from_nanos(deadline);

    let w = writer.borrow();
    let r = reader.borrow();
    assert!(w.finished && r.finished, "scripts completed");
    let commit = flux_kvs::msg::decode_cut(&w.replies[2]);
    println!("writer on r5: commit -> version {}", commit.roots[0].version);
    println!("reader on r3: demo.greeting = {}", r.replies[1].get("v").unwrap());
    println!("reader on r3: demo.coords   = {}", r.replies[2].get("v").unwrap());
    println!(
        "reader on r3: store version  = {}",
        r.replies[3].get("version").unwrap()
    );
    println!(
        "\nsession ran to {} virtual; {} messages, {} KiB moved",
        end,
        session.engine().stats().messages_delivered,
        session.engine().stats().bytes_delivered / 1024,
    );
}
