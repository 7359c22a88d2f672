//! Live-runtime stress: many concurrent client threads hammering one
//! loopback-TCP session; the wall-clock runtime must preserve the same
//! semantics the simulator proves.

#![allow(clippy::disallowed_methods, reason = "a test of the I/O tier drives threads and sockets")]

use flux_broker::CommsModule;
use flux_kvs::client::{KvsClient, KvsDelivery, KvsReply};
use flux_modules::BarrierModule;
use flux_rt::tcp::TcpSession;
use flux_value::Value;
use flux_wire::Rank;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(20);

/// 24 client threads across 8 broker threads: everyone puts a unique key,
/// fences, then reads a neighbour's key. One wall-clock run of the KAP
/// bootstrap pattern.
#[test]
fn concurrent_fence_and_cross_reads() {
    let nodes = 8u32;
    let procs = 24u64;
    let mut builder = TcpSession::builder(nodes, 2, |_| {
        vec![
            Box::new(flux_kvs::KvsModule::new()) as Box<dyn CommsModule>,
            Box::new(BarrierModule::new()),
        ]
    });
    let conns: Vec<_> = (0..procs)
        .map(|g| builder.attach_client(Rank((g % u64::from(nodes)) as u32)))
        .collect();
    let session = builder.start();

    let handles: Vec<_> = conns
        .into_iter()
        .enumerate()
        .map(|(g, conn)| {
            std::thread::spawn(move || {
                let mut kvs = KvsClient::new(conn.rank, conn.client_id);
                let reply = |conn: &flux_rt::LiveClient,
                             kvs: &mut KvsClient|
                 -> KvsReply {
                    let msg = conn.recv_timeout(TIMEOUT).expect("reply in time");
                    match kvs.deliver(msg) {
                        KvsDelivery::Reply { reply, .. } => reply,
                        other => panic!("rank {g}: {other:?}"),
                    }
                };
                conn.send(kvs.put(&format!("stress.k{g}"), Value::Int(g as i64), 1));
                assert_eq!(reply(&conn, &mut kvs), KvsReply::Ack);
                conn.send(kvs.fence("stress", procs, 2));
                assert!(matches!(reply(&conn, &mut kvs), KvsReply::Frontier { .. }));
                let peer = (g as u64 + 7) % procs;
                conn.send(kvs.get(&format!("stress.k{peer}"), 3));
                assert_eq!(
                    reply(&conn, &mut kvs),
                    KvsReply::Value(Value::Int(peer as i64)),
                    "rank {g} reads peer {peer}"
                );
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    session.shutdown();
}

/// Independent commit storms from several threads with batching pinned
/// off: every commit gets a distinct version (the master serializes)
/// and all data lands.
#[test]
fn commit_storm_serializes_at_master() {
    let nodes = 4u32;
    let writers = 8u64;
    let per_writer = 5u64;
    let mut builder = TcpSession::builder(nodes, 2, |_| {
        // batch_window_ns = 0: each push applies immediately, so the
        // per-push distinct-version property below is exact.
        vec![Box::new(flux_kvs::KvsModule::with_config(flux_kvs::KvsConfig {
            batch_window_ns: 0,
            ..flux_kvs::KvsConfig::default()
        })) as Box<dyn CommsModule>]
    });
    let conns: Vec<_> = (0..writers)
        .map(|g| builder.attach_client(Rank((g % u64::from(nodes)) as u32)))
        .collect();
    let session = builder.start();

    let handles: Vec<_> = conns
        .into_iter()
        .enumerate()
        .map(|(g, conn)| {
            std::thread::spawn(move || -> Vec<u64> {
                let mut kvs = KvsClient::new(conn.rank, conn.client_id);
                let mut versions = Vec::new();
                for i in 0..per_writer {
                    conn.send(kvs.put(&format!("storm.w{g}.i{i}"), Value::Int(i as i64), 1));
                    let _ = conn.recv_timeout(TIMEOUT).expect("put ack");
                    conn.send(kvs.commit(2));
                    let msg = conn.recv_timeout(TIMEOUT).expect("commit reply");
                    match kvs.deliver(msg) {
                        KvsDelivery::Reply {
                            reply: KvsReply::Frontier { frontier, .. }, ..
                        } => versions.push(frontier[0].version),
                        other => panic!("writer {g}: {other:?}"),
                    }
                }
                versions
            })
        })
        .collect();
    let mut all_versions: Vec<u64> = Vec::new();
    for h in handles {
        let versions = h.join().expect("writer thread");
        assert!(versions.windows(2).all(|w| w[0] < w[1]), "per-writer monotone");
        all_versions.extend(versions);
    }
    all_versions.sort_unstable();
    let before = all_versions.len();
    all_versions.dedup();
    assert_eq!(all_versions.len(), before, "every commit got a distinct version");
    assert_eq!(before as u64, writers * per_writer);
    session.shutdown();
}

/// The same storm with the default (batching) config: concurrent pushes
/// may coalesce into shared versions, but per-writer versions stay
/// strictly monotone, no version exceeds the commit count, and all the
/// data still lands.
#[test]
fn commit_storm_coalesces_with_batching() {
    let nodes = 4u32;
    let writers = 8u64;
    let per_writer = 5u64;
    let mut builder = TcpSession::builder(nodes, 2, |_| {
        vec![Box::new(flux_kvs::KvsModule::new()) as Box<dyn CommsModule>]
    });
    let conns: Vec<_> = (0..writers)
        .map(|g| builder.attach_client(Rank((g % u64::from(nodes)) as u32)))
        .collect();
    let reader_conn = builder.attach_client(Rank(1));
    let session = builder.start();

    let handles: Vec<_> = conns
        .into_iter()
        .enumerate()
        .map(|(g, conn)| {
            std::thread::spawn(move || -> Vec<u64> {
                let mut kvs = KvsClient::new(conn.rank, conn.client_id);
                let mut versions = Vec::new();
                for i in 0..per_writer {
                    conn.send(kvs.put(&format!("coal.w{g}.i{i}"), Value::Int(i as i64), 1));
                    let _ = conn.recv_timeout(TIMEOUT).expect("put ack");
                    conn.send(kvs.commit(2));
                    let msg = conn.recv_timeout(TIMEOUT).expect("commit reply");
                    match kvs.deliver(msg) {
                        KvsDelivery::Reply {
                            reply: KvsReply::Frontier { frontier, .. }, ..
                        } => versions.push(frontier[0].version),
                        other => panic!("writer {g}: {other:?}"),
                    }
                }
                versions
            })
        })
        .collect();
    let mut max_version = 0u64;
    for h in handles {
        let versions = h.join().expect("writer thread");
        // Read-your-writes survives batching: a later commit from the
        // same writer always lands at a strictly newer version.
        assert!(versions.windows(2).all(|w| w[0] < w[1]), "per-writer monotone");
        max_version = max_version.max(*versions.last().unwrap());
    }
    assert!(
        max_version <= writers * per_writer,
        "coalescing never inflates the version ({max_version})"
    );
    // Every key is readable afterwards.
    let mut reader = KvsClient::new(reader_conn.rank, reader_conn.client_id);
    for g in 0..writers {
        for i in 0..per_writer {
            reader_conn.send(reader.get(&format!("coal.w{g}.i{i}"), 100 + g * 10 + i));
            let msg = reader_conn.recv_timeout(TIMEOUT).expect("get reply");
            match reader.deliver(msg) {
                KvsDelivery::Reply { reply: KvsReply::Value(v), .. } => {
                    assert_eq!(v, Value::Int(i as i64), "coal.w{g}.i{i}");
                }
                other => panic!("reader at w{g}.i{i}: {other:?}"),
            }
        }
    }
    session.shutdown();
}
