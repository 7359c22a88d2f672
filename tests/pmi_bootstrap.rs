//! PMI bootstrap end-to-end on both runtimes.

use flux_kvs::client::{KvsDelivery, KvsReply};
use flux_kvs::KvsModule;
use flux_modules::BarrierModule;
use flux_pmi::{bootstrap_ops, Pmi};
use flux_rt::script::ScriptClient;
use flux_rt::sim::SimSession;
use flux_rt::tcp::TcpSession;
use flux_sim::NetParams;
use flux_value::Value;
use flux_wire::Rank;
use std::time::Duration;

/// 128 simulated MPI processes across 32 nodes: every process reads valid
/// business cards for its `fanout` neighbours after the fence.
#[test]
fn sim_bootstrap_128_processes() {
    let nodes = 32u32;
    let procs = 128u64;
    let fanout = 3u64;
    let mut session = SimSession::new(nodes, 2, NetParams::default(), |_| {
        vec![Box::new(KvsModule::new()), Box::new(BarrierModule::new())]
    });
    let outcomes: Vec<_> = (0..procs)
        .map(|g| {
            let node = Rank((g % u64::from(nodes)) as u32);
            ScriptClient::spawn(&mut session, node, bootstrap_ops("it", g, procs, fanout))
        })
        .collect();
    session.run_until_quiet(Some(20_000_000)).expect("no livelock");
    for (g, o) in outcomes.iter().enumerate() {
        let o = o.borrow();
        assert!(o.finished, "rank {g}");
        assert!(o.op_err.iter().all(|&e| e == 0), "rank {g}: {:?}", o.op_err);
        for (i, r) in o.replies[2..].iter().enumerate() {
            let peer = (g as u64 + 1 + i as u64) % procs;
            assert_eq!(
                flux_kvs::msg::value(r).and_then(Value::as_str),
                Some(format!("endpoint://node/{peer}").as_str()),
                "rank {g} neighbour {i}"
            );
        }
    }
}

/// Four threaded processes use the typed [`Pmi`] API directly against a
/// loopback-TCP session, each blocking on its client channel.
#[test]
fn threaded_bootstrap_with_typed_pmi() {
    let nodes = 4u32;
    let procs = 4u64;
    let mut builder = TcpSession::builder(nodes, 2, |_| {
        vec![Box::new(KvsModule::new()), Box::new(BarrierModule::new())]
    });
    let clients: Vec<_> = (0..procs)
        .map(|g| builder.attach_client(Rank(g as u32 % nodes)))
        .collect();
    let session = builder.start();

    let handles: Vec<_> = clients
        .into_iter()
        .enumerate()
        .map(|(g, conn)| {
            std::thread::spawn(move || {
                let timeout = Duration::from_secs(10);
                let mut pmi = Pmi::new("tpmi", g as u64, procs, conn.rank, conn.client_id);
                conn.send(pmi.put("card", Value::from(format!("ep:{g}")), 1));
                match pmi.deliver(conn.recv_timeout(timeout).expect("put ack")) {
                    KvsDelivery::Reply { reply: KvsReply::Ack, .. } => {}
                    other => panic!("rank {g}: {other:?}"),
                }
                conn.send(pmi.fence(2));
                match pmi.deliver(conn.recv_timeout(timeout).expect("fence")) {
                    KvsDelivery::Reply { reply: KvsReply::Frontier { .. }, .. } => {}
                    other => panic!("rank {g}: {other:?}"),
                }
                let peer = (g as u64 + 1) % procs;
                conn.send(pmi.get(peer, "card", 3));
                match pmi.deliver(conn.recv_timeout(timeout).expect("get")) {
                    KvsDelivery::Reply { reply: KvsReply::Value(v), .. } => {
                        assert_eq!(v, Value::from(format!("ep:{peer}")));
                    }
                    other => panic!("rank {g}: {other:?}"),
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("bootstrap thread");
    }
    session.shutdown();
}
